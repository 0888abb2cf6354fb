"""Self-test of the benchmark: every workload at toy size, in seconds.

    python3 bench/selftest.py

For each workload it runs the set-up, an untraced and a traced session,
and asserts that the results name every metric of BENCHMARK.json with its
unit, that every output check passes, that no self time is negative, that
child spans lie within their parents, and that self times plus the tracing
overhead add up to the traced timed part. It also checks that a wrapped
name missing from the program reads as 0 calls instead of failing, and
that BENCHMARK.json lists the workloads with the reasons workloads.py gives.
"""
from __future__ import annotations

import json
import os
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

import tracer  # noqa: E402
import workloads  # noqa: E402

TOL = 1e-9


def _spec() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in _spec()[section]}


def check_result(result: dict, section: str, label: str) -> None:
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(section), f"{label}: metrics differ from {section}"
    assert result["correct"] and result["failed"] == 0, f"{label}: a check failed"
    assert result["attempted"] >= 1, f"{label}: nothing attempted"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{label}: {name} not a number"


def check_spans(spans: list, label: str) -> None:
    own = tracer.self_times(spans)
    timed = overhead = 0.0
    for idx, span in enumerate(spans):
        name, parent, start, end, child_overhead, _ = span
        assert start <= end, f"{label}: {name} ends before it starts"
        assert own[idx] >= -TOL, f"{label}: {name} self time {own[idx]}"
        overhead += child_overhead
        if parent is None:
            timed += end - start
        else:
            outer = spans[parent]
            assert parent < idx, f"{label}: {name} recorded before its parent"
            assert outer[2] <= start and end <= outer[3], (
                f"{label}: {name} outside its parent {outer[0]}")
    total = sum(own.values()) + overhead
    assert abs(total - timed) <= TOL * max(1.0, timed), (
        f"{label}: self times + overhead {total} != timed part {timed}")


def check_missing_layer() -> None:
    spans = tracer.Tracer()
    spans.install([("cmtrf.core", "no_such_layer", "core.no_such_layer", None)])
    assert spans.missing == ["cmtrf.core.no_such_layer"]
    spans.uninstall()
    metrics = tracer.layer_metrics([])
    assert metrics["factorization.solve_factors.calls"] == 0
    assert set(metrics) | {"synthetic.generate.s"} == set(tracer.LAYER_UNITS)


def main() -> int:
    check_missing_layer()
    declared = {w["name"]: w["why"] for w in _spec()["workloads"]}
    assert declared == {w.name: w.why for w in workloads.WORKLOADS.values()}, (
        "BENCHMARK.json workloads differ from workloads.py")
    for wl in workloads.WORKLOADS.values():
        workdir = run.WORK / f"selftest-{wl.name}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            setup_s, generate_s = run.run_setup(wl, 0, workdir, "toy")
            for traced in (False, True):
                measured = run.measure(wl, 0, 0.0, workdir, "toy", traced)
                result = run.assemble(traced, setup_s, generate_s, measured)
                section = "per_layer" if traced else "end_to_end"
                check_result(result, section, f"{wl.name} {section}")
                assert not measured["missing"], measured["missing"]
                assert not measured["counter_errors"], measured["counter_errors"]

            spans = tracer.Tracer()
            spans.install()
            try:
                wl.run(0, workdir, "toy", workloads.Clock(spans))
            finally:
                spans.uninstall()
            assert {s[0] for s in spans.spans if s[1] is None} == {
                "prepare", "train", "eval"}
            check_spans(spans.spans, wl.name)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"selftest {wl.name}: ok ({len(spans.spans)} spans)")
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())

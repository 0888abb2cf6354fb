"""Benchmark of the cmtrf trainer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it uses the checkout's ``src/``.
One run

1. builds the workload's inputs from the seed, at least three times and for
   at least a second, and reports the median as ``setup_s``. The end-to-end
   times are wall times, measured with tracing off;
2. starts a fresh Python process that repeats the workload's timed session
   (prepare, train, eval) until ``--seconds`` have been measured, at least
   once, and checks every session's outputs. The session has its own process
   so that its peak RSS leaves out the dense input generator;
3. prints one line with the environment, model quality, any failed check
   and, when traced, the spans summed per name; then, as the last line, the
   result: the end-to-end metrics with ``--trace 0``, or with ``--trace 1``
   the per-layer metrics of a session whose layer functions are wrapped in
   spans (see ``tracer.py``).

Metrics are medians over the sessions of the run. The self-test,
``python3 bench/selftest.py``, runs every workload at toy size in seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

E2E_UNITS = {
    "setup_s": "s",
    "session_s": "s",
    "fit_s": "s",
    "iter_ms": "ms",
    "peak_rss_mb": "MB",
}
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_S = 3, 100, 1.0
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--child", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def run_setup(wl, seed: int, workdir: Path, size: str):
    """Set up repeatedly; returns (set-up seconds, generator seconds) lists."""
    setup_s, generate_s = [], []
    while len(setup_s) < SETUP_MIN_REPS or (
        sum(setup_s) < SETUP_MIN_S and len(setup_s) < SETUP_MAX_REPS
    ):
        t0 = time.perf_counter()
        generate_s.append(wl.setup(seed, workdir, size))
        setup_s.append(time.perf_counter() - t0)
    return setup_s, generate_s


def measure(wl, seed: int, seconds: float, workdir: Path, size: str,
            traced: bool) -> dict:
    """Repeat the timed session until `seconds` are measured; plain data out."""
    import tracer
    import workloads

    spans = tracer.Tracer() if traced else None
    if spans is not None:
        spans.install()
    sessions, layers = [], []
    try:
        while not sessions or sum(s["measured_s"] for s in sessions) < seconds:
            clock = workloads.Clock(spans)
            first = len(spans.spans) if spans is not None else 0
            out = wl.run(seed, workdir, size, clock)
            sessions.append({
                "phases": clock.seconds,
                "measured_s": sum(clock.seconds.values()),
                "fit_s": out.fit_s,
                "outer_iters": out.outer_iters,
                "quality": out.quality,
                "attempted": out.attempted,
                "failed": out.failed,
            })
            if spans is not None:
                layers.append(tracer.layer_metrics(spans.spans, first))
            if out.failed:
                break
    finally:
        if spans is not None:
            spans.uninstall()
    return {
        "sessions": sessions,
        "layers": layers,
        "missing": [] if spans is None else spans.missing,
        "counter_errors": [] if spans is None else sorted(spans.counter_errors),
        "spans": {} if spans is None else tracer.span_summary(spans.spans),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``ru_maxrss`` of a process started by fork and exec carries the parent's
    peak, so the kernel's per-address-space high-water mark comes first.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def assemble(traced: bool, setup_s: list, generate_s: list, measured: dict):
    """The result object the benchmark prints last."""
    import tracer

    sessions = measured["sessions"]
    failed = [name for s in sessions for name in s["failed"]]

    def median(fn):
        return statistics.median(fn(s) for s in sessions)

    if traced:
        values = tracer.median_metrics(measured["layers"])
        values["synthetic.generate.s"] = statistics.median(generate_s)
        units = tracer.LAYER_UNITS
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "session_s": median(lambda s: s["measured_s"]),
            "fit_s": median(lambda s: s["fit_s"]),
            "iter_ms": median(lambda s: 1e3 * s["fit_s"] / max(s["outer_iters"], 1)),
            "peak_rss_mb": measured["peak_rss_mb"],
        }
        units = E2E_UNITS
    return {
        "correct": not failed,
        "attempted": sum(s["attempted"] for s in sessions),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
    }


def child_main(args) -> int:
    import workloads

    measured = measure(workloads.WORKLOADS[args.workload], args.seed,
                       args.seconds, Path(args.child), "full", bool(args.trace))
    with open(Path(args.child) / "measured.json", "w") as fh:
        json.dump(measured, fh)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cmtrf" / "__init__.py").is_file():
        print(f"bench: no cmtrf package under {SRC}; run inside a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.child:
        return child_main(args)

    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s, generate_s = run_setup(wl, args.seed, workdir, "full")
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", wl.name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--child", str(workdir)]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            print("bench: the timed session ran out of time", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"bench: the timed session exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        with open(workdir / "measured.json") as fh:
            measured = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    result = assemble(bool(args.trace), setup_s, generate_s, measured)
    info = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "trace": args.trace,
        "sessions": len(measured["sessions"]),
        "setup_runs": len(setup_s),
        "phases_s": measured["sessions"][-1]["phases"],
        "quality": measured["sessions"][-1]["quality"],
        "failed_checks": [n for s in measured["sessions"] for n in s["failed"]],
        "missing_layers": measured["missing"],
        "counter_errors": measured["counter_errors"],
        "spans": measured["spans"],
        "env": environment(),
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

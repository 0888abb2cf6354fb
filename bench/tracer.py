"""Stack-parented spans around the program's layer functions.

The tracer replaces each layer function at the module attribute its caller
looks up (``cmtrf.core.solve_factors`` rather than
``cmtrf.factorization.solve_factors``), so the program runs unchanged while
every call opens a span under whichever span is open at the time. One
process and one thread: a plain stack gives the parent. Spans stay in
memory until the run ends; the run then writes them out summed per name.

A span's self time is its duration minus its children's durations and
minus the bookkeeping the children's wrappers spent inside it; that
bookkeeping is summed as ``trace.overhead_s``. Over one timed phase the self
times plus the overhead add up to the phase's duration.
"""
from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Span fields, kept in a list per span so a wrapper costs little.
NAME, PARENT, START, END, CHILD_OVERHEAD, COUNTS = range(6)

FIT_MODES = ("ncmtrf", "kcmtrf", "1cmtrf", "mf")
PHASES = ("prepare", "train", "eval")  # the timed phases of every session
RISE_RTOL = 1e-9  # an objective step counts as a rise above this share of |obj|


def objective_rises(objectives) -> int:
    """Phases whose objective rose by more than RISE_RTOL of its magnitude."""
    values = np.asarray(objectives, dtype=float)
    return int(np.sum(np.diff(values) > RISE_RTOL * np.abs(values[:-1])))


# ---------------------------------------------------------------------------
# work counters, computed from a call's arguments and result


def _distinct(ids) -> int:
    ids = np.asarray(ids, dtype=np.int64)
    return int(np.count_nonzero(np.bincount(ids))) if ids.size else 0


def _solve_rows(args, kwargs, result):
    users = kwargs.get("users", args[0] if args else None)
    items = kwargs.get("items", args[1] if len(args) > 1 else None)
    sweeps = kwargs.get("sweeps", args[6] if len(args) > 6 else 1)
    return {"rows": (_distinct(users) + _distinct(items)) * int(sweeps)}


def _fit_counts(args, kwargs, result):
    assigns = [rec for rec in result.trace if rec.get("phase") == "assign"]
    return {
        "outer_iters": int(result.trace[-1]["iter"]),
        "converged": int(bool(result.converged)),
        "rises": objective_rises(result.objective_values()),
        "moved": sum(int(rec.get("changes", 0)) for rec in assigns),
    }


def _predict_counts(args, kwargs, result):
    transforms = np.atleast_2d(kwargs.get("transforms", args[1]))
    pairs = np.asarray(kwargs.get("pairs", args[2]), dtype=np.int64)
    assignments = kwargs.get("assignments", args[4] if len(args) > 4 else None)
    if assignments is not None:
        owners = _distinct(np.asarray(assignments, dtype=np.int64)[pairs[:, 0]])
    elif transforms.shape[0] == 1:
        owners = 1
    else:
        owners = _distinct(pairs[:, 0])
    return {"pairs": int(pairs.shape[0]), "owners": owners}


def _loaded_rows(args, kwargs, result):
    return {"rows": int(result.n_ratings)}


def _written_rows(args, kwargs, result):
    return {"rows": int(kwargs.get("dataset", args[0]).n_ratings)}


# (module, attribute, span name, counter). Two attributes may share a span
# name when the program and the benchmark reach one function through
# different modules.
LAYERS = [
    ("cmtrf.core", "solve_factors", "factorization.solve_factors", _solve_rows),
    ("cmtrf.core", "regularized_objective",
     "factorization.regularized_objective", None),
    ("cmtrf.core", "fit_margin_isotonic", "isotonic.fit_margin_isotonic", None),
    *[("cmtrf.core", f"fit_{m}", f"core.fit_{m}", _fit_counts)
      for m in FIT_MODES],
    ("cmtrf.core", "init_clusters", "core.init_clusters", None),
    ("cmtrf.cli", "load_triplets", "data.load_triplets", _loaded_rows),
    ("cmtrf.cli", "write_triplets", "data.write_triplets", _written_rows),
    ("cmtrf.cli", "preprocess", "data.preprocess", None),
    ("cmtrf.cli", "split", "data.split", None),
    ("cmtrf.data", "preprocess", "data.preprocess", None),
    ("cmtrf.data", "split", "data.split", None),
    ("cmtrf.cli", "predict_ratings", "evaluate.predict_ratings", _predict_counts),
    ("cmtrf.evaluate", "predict_ratings", "evaluate.predict_ratings",
     _predict_counts),
    ("cmtrf.evaluate", "build_inverse", "evaluate.build_inverse", None),
    ("cmtrf.cli", "save_model", "factorization.save_model", None),
    ("cmtrf.cli", "load_model", "factorization.load_model", None),
    *[("cmtrf.cli", f"cmd_{c}", f"cli.cmd_{c}", None) for c in PHASES],
]

# Per-layer metric names and units, in the order results list them.
LAYER_UNITS = {
    "factorization.solve_factors.calls": "count",
    "factorization.solve_factors.s": "s",
    "factorization.solve_factors.rows": "count",
    "factorization.solve_factors.us_per_row": "us",
    "factorization.regularized_objective.calls": "count",
    "factorization.regularized_objective.s": "s",
    "isotonic.fit_margin_isotonic.calls": "count",
    "isotonic.fit_margin_isotonic.s": "s",
    "isotonic.fit_margin_isotonic.us_per_call": "us",
    "core.loop.self_s": "s",
    "core.assign.moved": "count",
    **{f"core.fit_{m}.s": "s" for m in FIT_MODES},
    "core.init_clusters.s": "s",
    "core.outer_iters": "count",
    "core.fits_converged": "count",
    "core.objective_rises": "count",
    "evaluate.predict_ratings.s": "s",
    "evaluate.predict_ratings.pairs": "count",
    "evaluate.predict_ratings.owners": "count",
    "evaluate.build_inverse.calls": "count",
    "data.load_triplets.s": "s",
    "data.load_triplets.rows": "count",
    "data.write_triplets.s": "s",
    "data.write_triplets.rows": "count",
    "data.preprocess.s": "s",
    "data.split.s": "s",
    "factorization.save_model.s": "s",
    "factorization.load_model.s": "s",
    **{f"cli.cmd_{c}.self_s": "s" for c in PHASES},
    "synthetic.generate.s": "s",
    **{f"phase.{p}_s": "s" for p in PHASES},
    "trace.timed_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder that patches layer functions in place."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patched: list = []
        self.missing: list = []  # wrapped names the program no longer has
        self.counter_errors: set = set()

    def install(self, layers=LAYERS) -> None:
        for module_name, attr, name, counter in layers:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    @contextmanager
    def root(self, name: str):
        """A parentless span around one timed phase of the benchmark."""
        span = [name, None, 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[START] = perf_counter()
        try:
            yield
        finally:
            span[END] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside every timed phase
                return fn(*args, **kwargs)
            t0 = perf_counter()
            parent = stack[-1]
            span = [name, parent, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
                span[START], span[END] = t1, t2
            if counter is not None:
                try:
                    span[COUNTS] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError,
                        ValueError):
                    # A later signature change costs the counts, not the run.
                    self.counter_errors.add(name)
            t3 = perf_counter()
            spans[parent][CHILD_OVERHEAD] += (t1 - t0) + (t3 - t2)
            return result

        return wrapper


def self_times(spans, first: int = 0) -> dict:
    """Self time of each span from index `first` on (children follow parents)."""
    own = {}
    for idx in range(first, len(spans)):
        span = spans[idx]
        own[idx] = span[END] - span[START] - span[CHILD_OVERHEAD]
        if span[PARENT] is not None:
            own[span[PARENT]] -= span[END] - span[START]
    return own


def layer_metrics(spans, first: int = 0) -> dict:
    """Per-layer metrics over the spans recorded from index `first` on.

    ``.s`` is self time, except ``core.fit_*.s`` and ``core.init_clusters.s``,
    which include their children. Names the program never called read 0.
    """
    own = self_times(spans, first)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    incl_s: Counter = Counter()
    counts: Counter = Counter()
    phases: Counter = Counter()
    overhead = 0.0
    for idx in range(first, len(spans)):
        name, parent, start, end, child_overhead, extra = spans[idx]
        overhead += child_overhead
        if parent is None:
            phases[name] += end - start
            continue
        calls[name] += 1
        self_s[name] += own[idx]
        incl_s[name] += end - start
        for key, value in (extra or {}).items():
            counts[name, key] += value

    fits = [f"core.fit_{m}" for m in FIT_MODES]
    solve, iso = "factorization.solve_factors", "isotonic.fit_margin_isotonic"
    objective = "factorization.regularized_objective"
    predict = "evaluate.predict_ratings"
    rows = counts[solve, "rows"]
    return {
        f"{solve}.calls": calls[solve],
        f"{solve}.s": self_s[solve],
        f"{solve}.rows": rows,
        f"{solve}.us_per_row": 1e6 * self_s[solve] / rows if rows else 0.0,
        f"{objective}.calls": calls[objective],
        f"{objective}.s": self_s[objective],
        f"{iso}.calls": calls[iso],
        f"{iso}.s": self_s[iso],
        f"{iso}.us_per_call": 1e6 * self_s[iso] / calls[iso] if calls[iso] else 0.0,
        "core.loop.self_s": sum(self_s[f] for f in fits),
        "core.assign.moved": sum(counts[f, "moved"] for f in fits),
        **{f"{f}.s": incl_s[f] for f in fits},
        "core.init_clusters.s": incl_s["core.init_clusters"],
        "core.outer_iters": sum(counts[f, "outer_iters"] for f in fits),
        "core.fits_converged": sum(counts[f, "converged"] for f in fits),
        "core.objective_rises": sum(counts[f, "rises"] for f in fits),
        f"{predict}.s": self_s[predict],
        f"{predict}.pairs": counts[predict, "pairs"],
        f"{predict}.owners": counts[predict, "owners"],
        "evaluate.build_inverse.calls": calls["evaluate.build_inverse"],
        "data.load_triplets.s": self_s["data.load_triplets"],
        "data.load_triplets.rows": counts["data.load_triplets", "rows"],
        "data.write_triplets.s": self_s["data.write_triplets"],
        "data.write_triplets.rows": counts["data.write_triplets", "rows"],
        "data.preprocess.s": self_s["data.preprocess"],
        "data.split.s": self_s["data.split"],
        "factorization.save_model.s": self_s["factorization.save_model"],
        "factorization.load_model.s": self_s["factorization.load_model"],
        **{f"cli.cmd_{p}.self_s": self_s[f"cli.cmd_{p}"] for p in PHASES},
        **{f"phase.{p}_s": phases[p] for p in PHASES},
        "trace.timed_s": sum(phases.values()),
        "trace.overhead_s": overhead,
    }


def span_summary(spans) -> dict:
    """Calls, self seconds and inclusive seconds per span name."""
    own = self_times(spans)
    out: dict = {}
    for idx, (name, _, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own[idx]
        row["incl_s"] += end - start
    return out


def median_metrics(per_rep: list) -> dict:
    """Median of each metric over repetitions."""
    return {key: statistics.median(rep[key] for rep in per_rep)
            for key in per_rep[0]}

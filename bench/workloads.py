"""The benchmark's workloads: inputs from a seed, a timed session, checks.

Every workload is one session of prepare -> train -> eval and times those
three phases through a :class:`Clock`. ``setup`` builds the inputs from the
seed before anything is timed and writes them to the run's work directory;
``run`` reads them back, runs the timed phases, and then checks the outputs.
The program sees only the generated datasets or files.

Sizes come in two scales: ``full`` is what the benchmark measures, ``toy``
runs the same code path in well under a second for the self-test.
"""
from __future__ import annotations

import contextlib
import io
import json
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cmtrf import cli, core, data, evaluate
from cmtrf.core import TrainConfig
from cmtrf.data import SparseRatingDataset, SplitSpec
from cmtrf.factorization import RegularizationConfig, predict_scores
from cmtrf.isotonic import RatingScaleTransform
from cmtrf.synthetic import SynthConfig, generate

from tracer import objective_rises

# Share by which test_mse and mse_ratio may differ from their reference.
REF_RTOL = 0.1
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class Clock:
    """Times the top-level phases of one session, under a root span if traced."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.seconds: dict = {}

    def __call__(self, phase: str, fn):
        span = (contextlib.nullcontext() if self.tracer is None
                else self.tracer.root(phase))
        t0 = time.perf_counter()
        with span:
            out = fn()
        self.seconds[phase] = time.perf_counter() - t0
        return out


@dataclass
class Outcome:
    """What one timed session produced, plus its output checks."""

    workload: str
    seed: int
    size: str
    fit_s: float = 0.0
    outer_iters: int = 0
    quality: dict = field(default_factory=dict)  # test_mse, and mse_ratio for the cell
    attempted: int = 0
    failed: list = field(default_factory=list)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)

    def check_descent(self, name: str, result) -> None:
        self.check(f"{name}: objective non-increasing",
                   objective_rises(result.objective_values()) == 0)

    def check_feasible(self, name: str, rows, epsilon: float) -> None:
        try:
            for row in np.atleast_2d(rows):
                RatingScaleTransform(row, epsilon)  # raises on a margin violation
            ok = True
        except ValueError:
            ok = False
        self.check(f"{name}: transforms margin-feasible", ok)

    def check_quality(self, test_values) -> None:
        """Compare model quality with the value recorded for this seed.

        A seed without a record is held to what any working model achieves
        instead: test_mse below the variance of the test ratings, which the
        best constant prediction scores, and for the cell an mse_ratio below
        1, the transform model beating its ablation. Toy sizes train too
        little to be judged.
        """
        if self.size != "full":
            return
        with open(REFERENCE_PATH) as fh:
            table = json.load(fh)["workloads"].get(self.workload, {})
        floors = {"test_mse": float(np.var(test_values)), "mse_ratio": 1.0}
        for key, value in self.quality.items():
            ref = table.get(key, {}).get(str(self.seed))
            if ref is not None:
                self.check(f"{key} {value:.6g} within {REF_RTOL:.0%} of its "
                           f"reference {ref:.6g}",
                           abs(value - ref) <= REF_RTOL * abs(ref))
            else:
                self.check(f"{key} {value:.6g} below {floors[key]:.6g}",
                           value < floors[key])


def _save_dataset(ds: SparseRatingDataset, path) -> None:
    np.savez(path, users=ds.users, items=ds.items, levels=ds.levels,
             vocab=ds.level_vocab, user_labels=ds.user_labels,
             item_labels=ds.item_labels)


def _load_dataset(path) -> SparseRatingDataset:
    with np.load(path) as z:
        return SparseRatingDataset(z["users"], z["items"], z["levels"], None,
                                   z["vocab"], z["user_labels"], z["item_labels"])


def _generate(p: dict, seed: int):
    """The sd2 dataset of one size; returns it with the generator's seconds."""
    t0 = time.perf_counter()
    ds = generate(SynthConfig(n_users=p["users"], n_items=p["items"], rank=5,
                              kind="sd2", density=p["density"], seed=seed)).dataset
    return ds, time.perf_counter() - t0


def _merged_uniform_split(ds: SparseRatingDataset, seed: int):
    """The acceptance tests' split: uniform, validation merged into train."""
    spec = SplitSpec("uniform", seed=seed)
    train, val, test = data.split(data.preprocess(ds, spec), spec)
    return (train if val is None else data.concat_rows(train, val)), test


def _config(mode, rank, lam, outer, seed, k=1) -> TrainConfig:
    return TrainConfig(mode=mode, n_clusters=k, rank=rank, epsilon=0.5,
                       reg=RegularizationConfig(lam, lam), outer_max_iters=outer,
                       tol=1e-6, inner_sweeps=2, seed=seed)


def _test_mse(result, test: SparseRatingDataset) -> float:
    pairs = np.column_stack([test.users, test.items])
    if result.transforms is None:
        vocab = test.level_vocab
        preds = np.clip(predict_scores(result.model, pairs), vocab[0], vocab[-1])
    else:
        preds = evaluate.predict_ratings(result.model, result.transforms, pairs,
                                         test.level_vocab, result.assignments)
    return evaluate.mse(preds, test.raw_values)


def _iterations(result) -> int:
    return int(result.trace[-1]["iter"])


class InProcess:
    """Shared set-up for the workloads that call the library directly."""

    name = why = ""
    sizes: dict = {}

    def setup(self, seed: int, workdir: Path, size: str) -> float:
        ds, generate_s = _generate(self.sizes[size], seed)
        _save_dataset(ds, workdir / "dataset.npz")
        return generate_s


class CellKcmtrf(InProcess):
    name = "cell-kcmtrf"
    why = ("One acceptance criterion-3 cell (sd2 300x200, K=75, cap 300): "
           "thousands of tiny ridge solves, PAV fits and assignment costs, "
           "bound by Python overhead.")
    sizes = {
        "full": dict(users=300, items=200, density=0.2, k=75, outer=300),
        "toy": dict(users=40, items=30, density=0.5, k=5, outer=4),
    }

    def run(self, seed: int, workdir: Path, size: str, clock: Clock) -> Outcome:
        p = self.sizes[size]
        ds = _load_dataset(workdir / "dataset.npz")
        out = Outcome(self.name, seed, size)
        train, test = clock("prepare", lambda: _merged_uniform_split(ds, seed))
        cfg = _config("kcmtrf", 5, 0.01, p["outer"], seed, k=p["k"])

        def fits():
            n_result = core.fit_ncmtrf(train, cfg)
            state = core.init_clusters(train, cfg, n_result=n_result)
            k_result = core.fit_kcmtrf(train, cfg, init_state=state,
                                       init=n_result.model)
            mf_results = [core.fit_mf(train, _config("mf", 5, lam, p["outer"], seed))
                          for lam in (0.1, 0.01)]
            return n_result, k_result, mf_results

        n_result, k_result, mf_results = clock("train", fits)
        k_mse, *mf_mses = clock("eval", lambda: [
            _test_mse(r, test) for r in (k_result, *mf_results)])

        out.fit_s = clock.seconds["train"]
        out.outer_iters = sum(map(_iterations, (n_result, k_result, *mf_results)))
        out.quality = {"test_mse": k_mse, "mse_ratio": k_mse / min(mf_mses)}
        for name, result in (("ncmtrf", n_result), ("kcmtrf", k_result),
                             ("mf lambda 0.1", mf_results[0]),
                             ("mf lambda 0.01", mf_results[1])):
            out.check_descent(name, result)
            if result.transforms is not None:
                out.check_feasible(name, result.transforms, cfg.epsilon)
        out.check_quality(test.raw_values)
        return out


class Ml100kShape1cmtrf(InProcess):
    name = "ml100k-shape-1cmtrf"
    why = ("ML-100k-shaped sd2 set (943x1682, ~100k ratings, d=10, 1cmtrf): "
           "the factor step does most of the work and isotonic almost none.")
    sizes = {
        "full": dict(users=943, items=1682, density=0.063, outer=30),
        "toy": dict(users=60, items=80, density=0.2, outer=3),
    }

    def run(self, seed: int, workdir: Path, size: str, clock: Clock) -> Outcome:
        p = self.sizes[size]
        ds = _load_dataset(workdir / "dataset.npz")
        out = Outcome(self.name, seed, size)
        train, test = clock("prepare", lambda: _merged_uniform_split(ds, seed))
        cfg = _config("1cmtrf", 10, 0.1, p["outer"], seed)
        result = clock("train", lambda: core.fit_1cmtrf(train, cfg))
        test_mse = clock("eval", lambda: _test_mse(result, test))

        out.fit_s = clock.seconds["train"]
        out.outer_iters = _iterations(result)
        out.quality = {"test_mse": test_mse}
        out.check_descent("1cmtrf", result)
        out.check_feasible("1cmtrf", result.transforms, cfg.epsilon)
        out.check_quality(test.raw_values)
        return out


def _write_tsv(ds: SparseRatingDataset, timestamps, path) -> None:
    """Tab-separated user, item, rating, timestamp, as `prepare` reads it."""
    table = np.column_stack([ds.user_labels[ds.users], ds.item_labels[ds.items],
                             ds.raw_values.astype(np.int64), timestamps])
    with open(path, "w") as fh:
        fh.write("".join(f"{u}\t{i}\t{r}\t{t}\n" for u, i, r, t in table.tolist()))


def _cli(argv) -> tuple:
    """Run one CLI command in-process; returns (exit code, stdout lines)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, buf.getvalue().splitlines()


class CliNcmtrf1m:
    name = "cli-ncmtrf-1m"
    why = ("1M-rating TSV through prepare/train/eval (ncmtrf): the data and "
           "CLI layers, 10k per-user PAV fits per iteration, prediction over "
           "10k owners.")
    sizes = {
        "full": dict(users=10000, items=5000, density=0.02, outer=3),
        "toy": dict(users=200, items=100, density=0.2, outer=2),
    }
    t_base = 874724710  # first timestamp of the seeded permutation

    def setup(self, seed: int, workdir: Path, size: str) -> float:
        ds, generate_s = _generate(self.sizes[size], seed)
        # A seeded shuffle of distinct timestamps, so the chronological split
        # has an order to follow.
        stamps = self.t_base + np.random.default_rng([seed, 1]).permutation(
            ds.n_ratings)
        _write_tsv(ds, stamps, workdir / "ratings.tsv")
        return generate_s

    def run(self, seed: int, workdir: Path, size: str, clock: Clock) -> Outcome:
        p = self.sizes[size]
        out = Outcome(self.name, seed, size)
        session = Path(tempfile.mkdtemp(prefix="session-", dir=workdir))
        prep, trained, scored = session / "prepare", session / "train", session / "eval"
        commands = {
            "prepare": ["prepare", str(workdir / "ratings.tsv"), "--split",
                        "chronological", "--seed", str(seed), "--out", str(prep)],
            "train": ["train", "--train", str(prep / "train.tsv"), "--mode",
                      "ncmtrf", "--d", "10", "--tol", "1e-6", "--max-outer",
                      str(p["outer"]), "--seed", str(seed), "--out", str(trained)],
            "eval": ["eval", "--model", str(trained / "d10"), "--data",
                     str(prep / "test.tsv"), "--out", str(scored)],
        }
        stdout = {}
        for phase, argv in commands.items():
            code, stdout[phase] = clock(phase, lambda argv=argv: _cli(argv))
            out.check(f"{phase} exit code {code}", code == 0)
            if code != 0:
                return out

        # `train` reports each fit's wall time, without loading and saving.
        row = json.loads(stdout["train"][-1])
        out.fit_s = float(row["wall_time_s"])
        out.outer_iters = int(row["outer_iters"])
        with open(scored / "metrics.json") as fh:
            metrics = json.load(fh)
        out.quality = {"test_mse": float(metrics["mse"])}
        with open(prep / "test.tsv") as fh:
            test_values = [float(line.split("\t")[2]) for line in fh if line.strip()]
        out.check(f"eval scored {metrics['n_scored']} of {len(test_values)} test "
                  "rows", metrics["n_scored"] == len(test_values))
        with open(trained / "d10" / "trace.jsonl") as fh:
            objectives = [json.loads(line)["objective"] for line in fh]
        out.check("ncmtrf: objective non-increasing",
                  objective_rises(objectives) == 0)
        with open(trained / "d10" / "bundle.json") as fh:
            bundle = json.load(fh)
        out.check_feasible("ncmtrf", bundle["transforms"], bundle["epsilon"])
        out.check_quality(test_values)
        return out


WORKLOADS = {w.name: w for w in (CellKcmtrf(), Ml100kShape1cmtrf(), CliNcmtrf1m())}

"""End-to-end acceptance gate.

One test per criterion, each printing a PASS line with its measured
numbers. The two MovieLens-100k criteria need the raw ratings file
(``u.data``); point ``CMTRF_ML100K`` at it or place it under
``data/ml-100k/u.data``. Without the file those two tests skip, since the
dataset cannot be redistributed with the repository.
"""
import os
import time

import numpy as np
import pytest

from cmtrf import cli
from cmtrf.core import (
    ClusterState,
    TrainConfig,
    fit_1cmtrf,
    fit_kcmtrf,
    fit_ncmtrf,
    init_clusters,
)
from cmtrf.data import (
    SplitSpec,
    concat_rows,
    load_triplets,
    preprocess,
    split,
)
from cmtrf.divergence import GID, SQUARED_LOSS
from cmtrf.evaluate import build_inverse
from cmtrf.factorization import RegularizationConfig
from cmtrf.isotonic import (
    IsotonicProblem,
    RatingScaleTransform,
    fit_margin_isotonic,
)
from cmtrf.synthetic import SynthConfig, generate
from oracles import margin_isotonic_pg, sl_objective


def _report(number, name, detail):
    print(f"[ACCEPTANCE] criterion {number} ({name}): PASS  {detail}")


def _ml100k_path():
    candidates = [os.environ.get("CMTRF_ML100K") or "", "data/ml-100k/u.data"]
    for path in candidates:
        if path and os.path.exists(path):
            return path
    return None


def _fit_cell(train, mode, k, rank, lam, seed, outer, tol=1e-4, ncache=None):
    cfg = TrainConfig(
        mode=mode,
        n_clusters=max(k, 1),
        rank=rank,
        epsilon=0.5,
        reg=RegularizationConfig(lam, lam),
        outer_max_iters=outer,
        tol=tol,
        inner_sweeps=2,
        seed=seed,
    )
    return cli._fit_cell(train, cfg, {} if ncache is None else ncache)


def _test_metrics(result, part):
    return cli._score(result.model, result.transforms, result.assignments, part)


def test_criterion_1_isotonic_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    by_length = {}  # n -> [(targets, weights, eps, fitted objective)]
    for _ in range(500):
        n = int(rng.integers(2, 7))
        targets = rng.normal(0, 3, n)
        weights = rng.uniform(0, 2, n)
        weights[weights < 0.1] = 0.0
        if not np.any(weights > 0):
            weights[rng.integers(n)] = 1.0
        eps = float(rng.choice([0.0, 0.5]))
        problem = IsotonicProblem(targets, weights, eps)
        fitted = fit_margin_isotonic(problem, SQUARED_LOSS)
        obj = sl_objective(fitted.values, targets, weights)
        by_length.setdefault(n, []).append((targets, weights, eps, obj))
    worst = 0.0
    for cases in by_length.values():
        targets, weights, eps, objs = (np.array(col) for col in zip(*cases))
        solved = margin_isotonic_pg(targets, weights, eps)
        for t, w, r, obj in zip(targets, weights, solved, objs):
            gap = abs(obj - sl_objective(r, t, w))
            worst = max(worst, gap)
            assert gap <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, "isotonic oracle equivalence",
            f"500 instances, worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_descent_suite():
    t0 = time.perf_counter()
    dataset = generate(
        SynthConfig(n_users=300, n_items=200, rank=5, kind="sd1", seed=11)
    ).dataset
    worst = -np.inf
    for mode, k in (("1cmtrf", 1), ("ncmtrf", 1), ("kcmtrf", 8)):
        result = _fit_cell(dataset, mode, k, 5, 0.05, 11, outer=25, ncache={})
        diffs = np.diff(result.objective_values())
        worst = max(worst, float(diffs.max()))
        assert np.all(diffs <= 1e-9), f"{mode} objective increased"
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, "descent suite", f"max increase {worst:.2e}, {elapsed:.0f}s")


def _superiority_run(kind, seed, density, outer):
    dataset = generate(
        SynthConfig(
            n_users=300, n_items=200, rank=5, kind=kind, density=density,
            seed=seed,
        )
    ).dataset
    spec = SplitSpec("uniform", seed=seed)
    train_part, val_part, test_part = split(preprocess(dataset, spec), spec)
    train = (
        concat_rows(train_part, val_part)
        if val_part is not None
        else train_part
    )
    k_result = _fit_cell(
        train, "kcmtrf", 75, 5, 0.01, seed, outer=outer, tol=1e-6, ncache={}
    )
    k_mse, _ = _test_metrics(k_result, test_part)
    # The ablation gets the better of two regularization strengths.
    mf_mse = min(
        _test_metrics(
            _fit_cell(train, "mf", 1, 5, lam, seed, outer=outer, tol=1e-6),
            test_part,
        )[0]
        for lam in (0.1, 0.01)
    )
    return k_mse, mf_mse


def test_criterion_3_synthetic_superiority():
    t0 = time.perf_counter()
    # Sigmoid scales: sparse observations, long runs to unfold the scales.
    sd2 = np.array(
        [_superiority_run("sd2", seed, 0.2, 300) for seed in range(5)]
    )
    ratio = sd2[:, 0].mean() / sd2[:, 1].mean()
    assert ratio <= 0.6, f"sigmoid-scale ratio {ratio:.3f} above 0.6"
    # Gap scales: mild distortions; fully observed as in the source
    # protocol, where the transform edge over plain factorization is small
    # but consistent.
    sd1 = np.array(
        [_superiority_run("sd1", seed, 1.0, 150) for seed in range(5)]
    )
    wins = int((sd1[:, 0] < sd1[:, 1]).sum())
    assert wins >= 4, f"gap-scale wins only {wins}/5"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _report(
        3, "synthetic superiority",
        f"sigmoid ratio {ratio:.3f} (<= 0.6), gap-scale wins {wins}/5, "
        f"{elapsed:.0f}s",
    )


@pytest.fixture(scope="module")
def ml100k():
    path = _ml100k_path()
    if path is None:
        pytest.skip(
            "MovieLens-100k ratings not found: set CMTRF_ML100K or place "
            "data/ml-100k/u.data (network-restricted environments cannot "
            "fetch it automatically)"
        )
    dataset = load_triplets(path, fmt="tsv")
    spec = SplitSpec("chronological", train_fraction=0.8, val_fraction=0.1)
    clean = preprocess(dataset, spec)
    return clean, spec


def _filter_scoreable(reference, part):
    users = np.zeros(reference.n_users, dtype=bool)
    items = np.zeros(reference.n_items, dtype=bool)
    users[reference.users] = True
    items[reference.items] = True
    keep = users[part.users] & items[part.items]
    return part.subset(keep)


def test_criterion_4_ml100k_reproduction(ml100k):
    clean, spec = ml100k
    t0 = time.perf_counter()
    train_part, val_part, test_part = split(clean, spec)
    val_part = _filter_scoreable(train_part, val_part)
    refit_full = concat_rows(train_part, val_part)

    rank = 10
    lambdas = [10.0**e for e in (-2.0, -1.5, -1.0, -0.5, 0.0)]
    ks = [2, 3, 5, 10]

    def tune(mode, grid_ks):
        ncache: dict = {}
        best = None
        for lam in lambdas:
            for k in grid_ks:
                result = _fit_cell(
                    train_part, mode, k, rank, lam, 0, outer=60, ncache=ncache
                )
                val_mse, _ = _test_metrics(result, val_part)
                key = (val_mse, k, lam)
                if best is None or key < best[0]:
                    best = (key, lam, k)
        return best[1], best[2]

    k_lam, k_best = tune("kcmtrf", ks)
    mf_lam, _ = tune("mf", [1])

    k_final = _fit_cell(
        refit_full, "kcmtrf", k_best, rank, k_lam, 0, outer=60, ncache={}
    )
    mf_final = _fit_cell(refit_full, "mf", 1, rank, mf_lam, 0, outer=60)
    k_mse, k_mae = _test_metrics(k_final, test_part)
    mf_mse, _ = _test_metrics(mf_final, test_part)
    elapsed = time.perf_counter() - t0

    assert 0.86 <= k_mse <= 0.96, f"clustered test MSE {k_mse:.4f}"
    assert k_mse < mf_mse, f"clustered {k_mse:.4f} not below MF {mf_mse:.4f}"
    assert k_mae <= 0.78, f"clustered test MAE {k_mae:.4f}"
    assert elapsed < 3600.0
    _report(
        4, "ml100k reproduction",
        f"K={k_best} lam={k_lam:.3g}: MSE {k_mse:.4f} (MF {mf_mse:.4f}), "
        f"MAE {k_mae:.4f}, {elapsed:.0f}s",
    )


def test_criterion_5_ml100k_mode_nesting(ml100k):
    # The comparison is only meaningful at convergence: a truncated
    # clustered run keeps refining the shared factors it inherited and can
    # undercut a truncated per-user objective. Strong regularization keeps
    # the convergence tails short without affecting the nesting claim.
    clean, spec = ml100k
    train_part, val_part, _ = split(clean, spec)
    train = concat_rows(train_part, _filter_scoreable(train_part, val_part))

    def config(mode):
        return TrainConfig(
            mode=mode, n_clusters=4, rank=10, epsilon=0.5,
            reg=RegularizationConfig(1.0, 1.0), outer_max_iters=800,
            tol=1e-5, inner_sweeps=2, seed=0,
        )

    n_result = fit_ncmtrf(train, config("ncmtrf"))
    k_cfg = config("kcmtrf")
    state = init_clusters(train, k_cfg, n_result=n_result)
    k_result = fit_kcmtrf(train, k_cfg, init_state=state, init=n_result.model)
    one_result = fit_1cmtrf(train, config("1cmtrf"), init=n_result.model)
    for result in (n_result, k_result, one_result):
        if not result.converged:
            pytest.fail(
                f"{result.mode} did not converge within the iteration cap; "
                "the nesting comparison needs converged runs"
            )
    assert n_result.objective <= k_result.objective + 1e-6
    assert k_result.objective <= one_result.objective + 1e-6
    _report(
        5, "ml100k mode nesting",
        f"N {n_result.objective:.2f} <= K {k_result.objective:.2f} "
        f"<= 1 {one_result.objective:.2f}",
    )


def test_criterion_6_equivalence_degeneracies():
    dataset = generate(
        SynthConfig(n_users=50, n_items=40, rank=3, kind="sd1", seed=21)
    ).dataset

    def cfg(mode, k):
        return TrainConfig(
            mode=mode, n_clusters=k, rank=3, epsilon=0.5,
            reg=RegularizationConfig(0.05, 0.05), outer_max_iters=60,
            tol=1e-6, inner_sweeps=2, seed=21,
        )

    k1 = fit_kcmtrf(dataset, cfg("kcmtrf", 1))
    one = fit_1cmtrf(dataset, cfg("1cmtrf", 1))
    gap_one = abs(k1.objective - one.objective)
    assert gap_one <= 1e-6

    n_users = dataset.n_users
    base = np.tile(RatingScaleTransform.base(5, 0.5).values, (n_users, 1))
    state = ClusterState(np.arange(n_users), base, 0.5)
    kn = fit_kcmtrf(
        dataset, cfg("kcmtrf", n_users), init_state=state,
        freeze_assignments=True,
    )
    per_user = fit_ncmtrf(dataset, cfg("ncmtrf", 1))
    gap_n = abs(kn.objective - per_user.objective)
    assert gap_n <= 1e-6
    _report(
        6, "equivalence degeneracies",
        f"|K=1 - global| {gap_one:.2e}, |K=N - per-user| {gap_n:.2e}",
    )


def test_criterion_7_joint_convexity_witness():
    rng = np.random.default_rng(77)
    worst = -np.inf
    for _ in range(1000):
        x1, x2, s1, s2 = rng.normal(0, 3, 4)
        mid = SQUARED_LOSS.gap([(x1 + x2) / 2], [(s1 + s2) / 2])
        avg = 0.5 * (SQUARED_LOSS.gap([x1], [s1]) + SQUARED_LOSS.gap([x2], [s2]))
        worst = max(worst, mid - avg)
        assert mid - avg <= 1e-9
    violation = (
        GID.gap([10.0], [0.0])
        - 0.5 * (GID.gap([11.0], [0.6466]) + GID.gap([9.0], [-0.6466]))
    )
    assert violation >= 1e-3
    _report(
        7, "joint convexity witness",
        f"squared-loss worst margin {worst:.2e}, counterexample "
        f"violation {violation:.3f}",
    )


def test_criterion_8_invariant_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)

    # Divergence nonnegativity and identity across the family.
    for _ in range(300):
        n = int(rng.integers(1, 6))
        w = rng.uniform(0, 2, n)
        x = rng.normal(0, 3, n)
        y = rng.normal(0, 3, n)
        assert SQUARED_LOSS.divergence(x, y, w) >= 0
        assert SQUARED_LOSS.divergence(y, y, w) == 0
        xp = rng.uniform(0.05, 4, n)
        yp = rng.uniform(0.05, 4, n)
        assert GID.divergence(xp, yp, w) >= -1e-12
        assert GID.divergence(yp, yp, w) == pytest.approx(0, abs=1e-12)

    # Margin feasibility of fitted transforms.
    for _ in range(300):
        n = int(rng.integers(2, 7))
        eps = float(rng.choice([0.0, 0.5]))
        weights = rng.uniform(0, 2, n)
        if not np.any(weights > 0):
            weights[0] = 1.0
        fitted = fit_margin_isotonic(
            IsotonicProblem(rng.normal(0, 3, n), weights, eps)
        )
        gaps = -np.diff(fitted.values)
        assert gaps.size == 0 or gaps.min() >= eps - 1e-9

    # Inverse-spline knot round-trip.
    vocab = np.arange(1.0, 6.0)
    for _ in range(200):
        values = np.concatenate(
            [[rng.normal()], rng.uniform(0.5, 2, 4)]
        ).cumsum()[::-1]
        transform = RatingScaleTransform(values, 0.5)
        inverse = build_inverse(transform.values, vocab)
        for level in range(5):
            assert inverse(transform.value_for_level(level)) == pytest.approx(
                vocab[level]
            )

    # Split determinism.
    dataset = generate(
        SynthConfig(n_users=60, n_items=40, rank=3, kind="sd1", seed=8,
                    density=0.6)
    ).dataset
    spec = SplitSpec("uniform", seed=9)
    first = split(dataset, spec)
    second = split(dataset, spec)
    for a, b in zip(first, second):
        np.testing.assert_array_equal(a.users, b.users)
        np.testing.assert_array_equal(a.items, b.items)
        np.testing.assert_array_equal(a.levels, b.levels)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(8, "invariant suites", f"all invariant batches clean, {elapsed:.1f}s")

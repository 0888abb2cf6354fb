import numpy as np
import pytest
from oracles import (
    assignment_costs_loop,
    mf_loop,
    patch_level_order_transform_step,
    patch_per_row_transform_step,
    patch_rescoring_loop,
    ridge_als_loop,
    transform_rows_loop,
)

from cmtrf import core, factorization
from cmtrf.core import (
    ClusterState,
    FitResult,
    _assignment_costs,
    _level_means,
    fit_1cmtrf,
    fit_kcmtrf,
    fit_mf,
    fit_ncmtrf,
    init_clusters,
    _transform_rows,
)
from cmtrf.data import SparseRatingDataset
from cmtrf.divergence import GID, KL, SQUARED_LOSS
from cmtrf.evaluate import mse, predict_ratings
from cmtrf.factorization import FactorModel, RegularizationConfig
from cmtrf.isotonic import RatingScaleTransform
from cmtrf.synthetic import SynthConfig, generate
from conftest import rank2_integer_dataset, small_config

DESCENT_TOL = 1e-9


def _assert_monotone(result):
    values = result.objective_values()
    assert np.all(np.diff(values) <= DESCENT_TOL), (
        f"objective increased by {np.diff(values).max():.3e}"
    )


def _assert_feasible(result):
    for row in result.transforms:
        RatingScaleTransform(row, result.epsilon)  # raises on violation


def _assert_same_trajectory(a, b):
    """Equal factors, transforms, objectives, (iter, phase) lists and stops."""
    for attr in ("user_factors", "item_factors"):
        assert np.array_equal(getattr(a.model, attr), getattr(b.model, attr))
    assert np.array_equal(a.transforms, b.transforms)
    assert np.array_equal(a.objective_values(), b.objective_values())
    phases = [(rec["iter"], rec["phase"]) for rec in a.trace]
    assert phases == [(rec["iter"], rec["phase"]) for rec in b.trace]
    assert a.stop_reason == b.stop_reason


def _one_group(positions, scores, n_levels):
    """Counts and means of one group's entries, both (n_levels,).

    Entries are keyed by transform position: 0 is the highest level.
    """
    counts, means = _level_means(
        np.asarray(positions, dtype=np.int64), np.asarray(scores, dtype=float),
        1, n_levels,
    )
    return counts[0], means[0]


class TestAggregateLevels:
    def test_counts_and_means(self):
        # Items rated 3, 3, 5 (positions 2, 2, 0) with scores 2.0, 4.0, 4.5.
        counts, means = _one_group([2, 2, 0], [2.0, 4.0, 4.5], 5)
        assert counts[2] == 2
        assert means[2] == pytest.approx(3.0)
        assert counts[0] == 1
        assert means[0] == pytest.approx(4.5)
        np.testing.assert_array_equal(counts == 0, [False, True, False, True, True])
        np.testing.assert_array_equal(means[counts == 0], 0.0)

    def test_empty_group(self):
        counts, means = _one_group([], [], 5)
        assert counts.sum() == 0
        np.testing.assert_array_equal(means, np.zeros(5))

    def test_pooled_cluster_matches_union(self):
        one = ([2, 2, 0], [2.0, 4.0, 4.5])
        counts, means = _one_group(one[0] * 2, one[1] * 2, 5)
        assert counts[2] == 4
        assert means[2] == pytest.approx(3.0)
        # Brute-force recomputation over the union of both users' items.
        both_positions = np.asarray(one[0] * 2)
        both_scores = np.asarray(one[1] * 2)
        for pos in range(5):
            sel = both_positions == pos
            if sel.any():
                assert means[pos] == pytest.approx(both_scores[sel].mean())

    def test_grouped_rows_equal_per_user_aggregates(self, sd2_small):
        data = core._TrainData(sd2_small)
        scores = np.random.default_rng(4).normal(3.0, 1.5, data.users.size)
        counts, means = data.grouped_aggregates(
            np.arange(data.n_users), data.n_users, scores
        )
        for u in range(data.n_users):
            for pos in range(data.n_levels):
                sel = (data.users == u) & (data.positions == pos)
                assert counts[u, pos] == sel.sum()
                if sel.any():
                    # A running sum against numpy's pairwise one: a few ulp.
                    assert means[u, pos] == pytest.approx(
                        np.mean(scores[sel]), rel=1e-14
                    )
                else:
                    assert means[u, pos] == 0.0


class TestTransformStep:
    def test_single_used_level_matches_pooled_mean(self):
        counts = np.array([0.0, 0, 1, 0, 0])  # position order; level 2 only
        means = np.array([0.0, 0, 2.7, 0, 0])
        row = _transform_rows(
            counts[None], means[None], 0.5, SQUARED_LOSS, np.zeros((1, 5))
        )
        tr = RatingScaleTransform(row[0], 0.5)
        assert tr.value_for_level(2) == pytest.approx(2.7)

    def test_separated_predictions_identity_projection(self):
        counts = np.ones(5)
        means = np.arange(5.0, 0.0, -1)  # position order, margin-separated
        row = _transform_rows(
            counts[None], means[None], 0.5, SQUARED_LOSS, np.zeros((1, 5))
        )
        np.testing.assert_allclose(row[0], [5, 4, 3, 2, 1])

    @pytest.mark.parametrize("div", [SQUARED_LOSS, KL, GID], ids=lambda d: d.name)
    def test_matches_per_row_step(self, div):
        # Wide scales of small targets push positive-domain rows below the
        # boundary, so the lift is exercised as well as the fit.
        rng = np.random.default_rng(7)
        lifted = 0
        for _ in range(40):
            g, n = int(rng.integers(1, 30)), int(rng.integers(2, 12))
            counts = rng.integers(0, 3, (g, n)).astype(float)
            means = np.round(rng.uniform(-2.0, 3.0, (g, n)), 2)
            fallback = rng.normal(size=(g, n))
            expected = transform_rows_loop(counts, means, 0.5, div, fallback)
            rows = _transform_rows(counts, means, 0.5, div, fallback)
            assert np.array_equal(rows, expected)
            lifted += int(np.sum(np.abs(rows[:, -1] - 1e-6) < 1e-12))
        assert (lifted > 0) == div.positive_first_arg


class TestFit1:
    def test_recovers_exact_rank2_structure(self):
        ds = rank2_integer_dataset()
        cfg = small_config(reg__=None) if False else small_config(
            rank=3, tol=1e-9, outer_max_iters=60,
        )
        cfg.reg.lambda_u = cfg.reg.lambda_v = 1e-6
        result = fit_1cmtrf(ds, cfg)
        pairs = np.column_stack([ds.users, ds.items])
        preds = predict_ratings(
            result.model, result.transforms, pairs, ds.level_vocab
        )
        assert mse(preds, ds.raw_values) <= 1e-3
        # The learned scale stays affine in the base scale: equal gaps.
        gaps = -np.diff(result.transforms[0])
        assert gaps.std() <= 1e-2

    def test_descent_and_feasibility(self, sd1_small):
        result = fit_1cmtrf(sd1_small, small_config())
        _assert_monotone(result)
        _assert_feasible(result)

    def test_converges_under_strong_regularization(self, sd1_small):
        from cmtrf.factorization import RegularizationConfig

        cfg = small_config(
            reg=RegularizationConfig(0.5, 0.5), outer_max_iters=600
        )
        result = fit_1cmtrf(sd1_small, cfg)
        assert result.converged and result.stop_reason == "tol"
        values = result.objective_values()
        rel = (values[-4] - values[-1]) / abs(values[-4])
        assert rel < 1e-3  # settled, not just cut off

    def test_trace_matches_per_row_ridge_loop(self, sd2_small, monkeypatch):
        cfg = small_config(outer_max_iters=25)
        stacked = fit_1cmtrf(sd2_small, cfg)

        def per_row(users, items, targets, init, reg, div, sweeps=1, index=None):
            U, V = ridge_als_loop(users, items, targets, init, reg, sweeps)
            return FactorModel(U, V)

        monkeypatch.setattr(core, "solve_factors", per_row)
        looped = fit_1cmtrf(sd2_small, cfg)
        assert len(stacked.trace) == len(looped.trace) > 25
        np.testing.assert_allclose(
            stacked.objective_values(), looped.objective_values(), rtol=1e-9
        )

    def test_cap_reports_max_iters(self, sd1_small):
        result = fit_1cmtrf(sd1_small, small_config(outer_max_iters=2))
        assert result.stop_reason == "max_iters" and not result.converged

    def test_gap_terms_nonnegative(self, sd1_small):
        cfg = small_config()
        result = fit_1cmtrf(sd1_small, cfg)
        targets = result.transforms[0][
            sd1_small.n_levels - 1 - sd1_small.levels
        ]
        pairs = np.column_stack([sd1_small.users, sd1_small.items])
        from cmtrf.factorization import predict_scores

        scores = predict_scores(result.model, pairs)
        terms = cfg.div.gap_terms(targets, scores)
        assert terms.min() >= -1e-12


class TestFitN:
    def test_reversed_raters_need_per_user_scales(self):
        # Two users share one rank-1 item axis; the second rates exactly
        # opposite, on an unevenly spaced internal scale. Shared factors
        # with per-user transforms can fit both; one shared transform
        # cannot fit the uneven spacing from both directions at once.
        scores = np.array([1.0, 1.15, 1.3, 3.8, 4.0, 4.45, 7.0, 7.4])
        levels_a = np.array([0, 0, 1, 2, 2, 3, 4, 4])
        levels_b = 4 - levels_a
        n_items = scores.size
        users = np.repeat([0, 1], n_items)
        items = np.tile(np.arange(n_items), 2)
        ds = SparseRatingDataset(
            users,
            items,
            np.concatenate([levels_a, levels_b]),
            None,
            np.arange(1.0, 6.0),
            np.arange(2),
            np.arange(n_items),
        )
        cfg = small_config(rank=1, tol=1e-9, outer_max_iters=80)
        cfg.reg.lambda_u = cfg.reg.lambda_v = 1e-6
        n_result = fit_ncmtrf(ds, cfg)
        one_result = fit_1cmtrf(ds, cfg)
        assert not np.allclose(n_result.transforms[0], n_result.transforms[1])
        pairs = np.column_stack([ds.users, ds.items])
        n_preds = predict_ratings(
            n_result.model, n_result.transforms, pairs, ds.level_vocab
        )
        one_preds = predict_ratings(
            one_result.model, one_result.transforms, pairs, ds.level_vocab
        )
        assert mse(n_preds, ds.raw_values) < mse(one_preds, ds.raw_values)

    def test_descent_and_feasibility(self, sd1_small):
        result = fit_ncmtrf(sd1_small, small_config())
        _assert_monotone(result)
        _assert_feasible(result)
        assert result.transforms.shape == (50, 5)


def _assign(groups, transforms, n_levels):
    """Least-cost transform row per group of (positions, scores) entries."""
    keys = np.concatenate(
        [g * n_levels + np.asarray(pos) for g, (pos, _) in enumerate(groups)]
    )
    scores = np.concatenate([np.asarray(sc, dtype=float) for _, sc in groups])
    counts, means = _level_means(keys, scores, len(groups), n_levels)
    costs = _assignment_costs(
        counts, means, np.asarray(transforms, dtype=float), SQUARED_LOSS
    )
    return costs.argmin(1)


class TestAssignClusters:
    def test_single_cluster(self):
        groups = [([1, 0], [1.0, 2.0])] * 4
        out = _assign(groups, [[2.0, 1.0]], 2)
        np.testing.assert_array_equal(out, [0, 0, 0, 0])

    def test_top_level_reads_first_component(self):
        # One rating at the top of a 2-level scale, predicted score 3.8.
        candidates = np.array([[2.0, 1.0], [4.0, 0.5]])
        costs_a = 0.5 * (2.0 - 3.8) ** 2
        costs_b = 0.5 * (4.0 - 3.8) ** 2
        assert costs_a == pytest.approx(1.62)
        assert costs_b == pytest.approx(0.02, abs=1e-12)
        out = _assign([([0], [3.8])], candidates, 2)
        assert out[0] == 1

    def test_tie_breaks_to_lowest_index(self):
        same = np.array([[2.0, 1.0], [2.0, 1.0], [2.0, 1.0]])
        assert _assign([([1, 0], [1.0, 2.0])], same, 2)[0] == 0

    @pytest.mark.parametrize("div", [SQUARED_LOSS, KL, GID], ids=lambda d: d.name)
    def test_broadcast_matches_per_cluster_loop(self, div):
        rng = np.random.default_rng(5)
        for _ in range(600):
            n, k = rng.integers(1, 30), rng.integers(1, 12)
            n_levels = rng.integers(2, 13)
            counts = rng.integers(0, 4, (n, n_levels)).astype(float)
            means = np.where(counts > 0, rng.normal(2.0, 1.5, (n, n_levels)), 0.0)
            steps = rng.uniform(0.5, 2.0, (k, n_levels))
            transforms = np.cumsum(steps, axis=1)[:, ::-1]  # descending, > 0
            expected = assignment_costs_loop(
                counts[:, ::-1].copy(), means[:, ::-1].copy(), transforms, div
            )
            costs = _assignment_costs(counts, means, transforms, div)
            assert np.array_equal(costs, expected)


def _fake_n_result(transform_rows):
    rows = np.asarray(transform_rows, dtype=float)
    n = rows.shape[0]
    model = FactorModel(np.zeros((n, 1)), np.zeros((3, 1)))
    return FitResult(
        mode="ncmtrf",
        model=model,
        transforms=rows,
        assignments=None,
        epsilon=0.5,
        trace=[{"iter": 0, "phase": "init", "objective": 0.0}],
        stop_reason="tol",
    )


class TestInitClusters:
    def test_identical_users_leave_empty_cluster(self, sd1_small):
        row = RatingScaleTransform.base(5, 0.5).values
        fake = _fake_n_result(np.tile(row, (50, 1)))
        cfg = small_config(mode="kcmtrf", n_clusters=2)
        with pytest.warns(UserWarning, match="duplicate"):
            state = init_clusters(sd1_small, cfg, n_result=fake)
        counts = np.bincount(state.assignments, minlength=2)
        assert counts.max() == 50  # one populated, one empty

    def test_two_populations_recovered(self, sd1_small):
        rng = np.random.default_rng(0)
        lo = np.array([3.0, 2.4, 1.8, 1.2, 0.6])
        hi = lo + 20.0
        rows = np.vstack(
            [
                lo + rng.normal(0, 0.01, (25, 5)),
                hi + rng.normal(0, 0.01, (25, 5)),
            ]
        )
        state = init_clusters(
            sd1_small, small_config(mode="kcmtrf", n_clusters=2),
            n_result=_fake_n_result(rows),
        )
        first, second = state.assignments[:25], state.assignments[25:]
        assert len(set(first.tolist())) == 1
        assert len(set(second.tolist())) == 1
        assert first[0] != second[0]

    def test_k_equals_n_distinct_rows(self, sd1_small):
        rows = np.vstack(
            [RatingScaleTransform.base(5, 0.5).values + 10 * i for i in range(50)]
        )
        state = init_clusters(
            sd1_small, small_config(mode="kcmtrf", n_clusters=50),
            n_result=_fake_n_result(rows),
        )
        assert np.unique(state.assignments).size == 50

    def test_centers_feasible(self, sd1_small):
        cfg = small_config(mode="kcmtrf", n_clusters=3, outer_max_iters=8)
        state = init_clusters(sd1_small, cfg, fit_ncmtrf(sd1_small, cfg))
        for row in state.transforms:
            RatingScaleTransform(row, cfg.epsilon)


@pytest.fixture(scope="module")
def degenerate_cases(sd2_small):
    """The datasets the degenerate-K pins run on, all 50x40."""
    sd1 = generate(
        SynthConfig(n_users=50, n_items=40, rank=3, kind="sd1", seed=21)
    ).dataset
    return [sd1, sd2_small]


class TestFitK:
    def test_k1_reproduces_global_mode_exactly(self, degenerate_cases):
        for ds in degenerate_cases:
            k_result = fit_kcmtrf(
                ds, small_config(mode="kcmtrf", n_clusters=1, outer_max_iters=60)
            )
            one_result = fit_1cmtrf(ds, small_config(outer_max_iters=60))
            _assert_same_trajectory(k_result, one_result)

    def test_forced_distinct_kn_reproduces_per_user(self, degenerate_cases):
        for ds in degenerate_cases:
            cfg = small_config(mode="kcmtrf", n_clusters=50, outer_max_iters=60)
            base = np.tile(RatingScaleTransform.base(5, 0.5).values, (50, 1))
            state = ClusterState(np.arange(50), base, 0.5)
            k_result = fit_kcmtrf(
                ds, cfg, init_state=state, freeze_assignments=True
            )
            n_result = fit_ncmtrf(ds, small_config(outer_max_iters=60))
            _assert_same_trajectory(k_result, n_result)

    def test_descent_feasibility_and_stability(self, sd1_small):
        cfg = small_config(mode="kcmtrf", n_clusters=4, outer_max_iters=60)
        result = fit_kcmtrf(sd1_small, cfg)
        _assert_monotone(result)
        _assert_feasible(result)
        counts = np.bincount(result.assignments, minlength=4)
        assert counts.sum() == 50
        # The relocation reaches a fixed point: no user moves late in the run.
        moves = [r["changes"] for r in result.trace if r["phase"] == "assign"]
        assert moves[-1] == 0
        assert sum(moves[-5:]) == 0

    def test_planted_partition_recovery(self):
        # Two planted scale populations sharing one low-rank score matrix:
        # a harsh group and a generous group whose scales sit four latent
        # units apart, well beyond the spread the fit leaves within groups.
        from cmtrf.data import SparseRatingDataset
        from cmtrf.synthetic import nearest_level

        harsh = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        generous = harsh - 4.0
        purities = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            n_users, n_items = 40, 40
            U = rng.normal(0, 1, (n_users, 2))
            V = rng.normal(0, 1, (n_items, 2))
            Z = U @ V.T
            ratings = np.empty_like(Z, dtype=np.int64)
            for i in range(n_users):
                ratings[i] = nearest_level(harsh if i < 20 else generous, Z[i])
            users, items = np.nonzero(np.ones_like(Z, dtype=bool))
            ds = SparseRatingDataset(
                users, items, ratings[users, items] - 1, None,
                np.arange(1.0, 6.0), np.arange(n_users), np.arange(n_items),
            )
            cfg = small_config(
                mode="kcmtrf", n_clusters=2, rank=2, seed=seed,
                tol=1e-5,
            )
            result = fit_kcmtrf(ds, cfg)
            truth = (np.arange(n_users) >= 20).astype(int)
            agree = (result.assignments == truth).mean()
            purities.append(max(agree, 1 - agree))
        assert np.mean(purities) >= 0.9

    def test_identical_users_trigger_repair_without_breaking_descent(self):
        rows = np.arange(60)
        users = rows % 6
        items = rows // 6
        levels = items % 5
        ds = SparseRatingDataset(
            users, items, levels, None,
            np.arange(1.0, 6.0), np.arange(6), np.arange(10),
        )
        cfg = small_config(
            mode="kcmtrf", n_clusters=3, rank=2, outer_max_iters=25
        )
        result = fit_kcmtrf(ds, cfg)
        _assert_monotone(result)
        _assert_feasible(result)


# Fits on sd2_small that the pins against older code run; the two kcmtrf
# fits revive at least one empty cluster.
TRANSFORM_FITS = [
    pytest.param(fit_1cmtrf, {}, id="1cmtrf"),
    pytest.param(fit_ncmtrf, {}, id="ncmtrf"),
    pytest.param(fit_kcmtrf, dict(mode="kcmtrf", n_clusters=20), id="kcmtrf"),
    pytest.param(
        fit_kcmtrf,
        dict(mode="kcmtrf", n_clusters=20, div=GID, outer_max_iters=8),
        id="kcmtrf-gid",
    ),
]


def _assert_unchanged_by(patch, dataset, monkeypatch, fit_fn, overrides):
    """`fit_fn` returns bit-identical results once `patch` is applied."""
    cfg = small_config(**overrides)
    revived = []
    costs_fn = core._assignment_costs

    def counting(counts, means, transforms, div):
        costs = costs_fn(counts, means, transforms, div)
        used = np.unique(costs.argmin(axis=1)).size
        revived.append(transforms.shape[0] - used)
        return costs

    monkeypatch.setattr(core, "_assignment_costs", counting)
    current = fit_fn(dataset, cfg)
    patch(monkeypatch)
    older = fit_fn(dataset, cfg)
    _assert_same_trajectory(current, older)
    assert current.trace == older.trace
    assert np.array_equal(current.assignments, older.assignments)
    if fit_fn is fit_kcmtrf:
        assert sum(revived) > 0


class TestMatchesLevelOrderTransformStep:
    """Every fit is unchanged by keying the transform step on positions."""

    @pytest.mark.parametrize("fit_fn, overrides", TRANSFORM_FITS)
    def test_fit_bit_identical(self, sd2_small, monkeypatch, fit_fn, overrides):
        _assert_unchanged_by(
            patch_level_order_transform_step, sd2_small, monkeypatch,
            fit_fn, overrides,
        )


class TestMatchesPerRowTransformStep:
    """Every fit is unchanged by fitting all transform rows in one pass."""

    @pytest.mark.parametrize("fit_fn, overrides", TRANSFORM_FITS)
    def test_fit_bit_identical(self, sd2_small, monkeypatch, fit_fn, overrides):
        _assert_unchanged_by(
            patch_per_row_transform_step, sd2_small, monkeypatch,
            fit_fn, overrides,
        )

    @pytest.mark.parametrize("fit_fn", [fit_1cmtrf, fit_ncmtrf],
                             ids=["1cmtrf", "ncmtrf"])
    @pytest.mark.parametrize("n_levels", [10, 7])
    def test_scale_length_bit_identical(self, monkeypatch, fit_fn, n_levels):
        # From 8 levels on, merged blocks pool through `_pooled_value`.
        ds = generate(SynthConfig(
            n_users=50, n_items=40, rank=3, n_levels=n_levels, kind="sd2",
            seed=3,
        )).dataset
        assert ds.n_levels == n_levels
        cfg = small_config(outer_max_iters=20)
        current = fit_fn(ds, cfg)
        patch_per_row_transform_step(monkeypatch)
        older = fit_fn(ds, cfg)
        _assert_same_trajectory(current, older)
        assert current.trace == older.trace


class TestMatchesRescoringLoop:
    """Every fit is unchanged by holding targets, scores and padded keys."""

    @pytest.mark.parametrize(
        "fit_fn, overrides",
        TRANSFORM_FITS + [pytest.param(fit_mf, dict(mode="mf"), id="mf")],
    )
    def test_fit_bit_identical(self, sd2_small, monkeypatch, fit_fn, overrides):
        _assert_unchanged_by(
            patch_rescoring_loop, sd2_small, monkeypatch, fit_fn, overrides
        )

    @pytest.mark.parametrize(
        "mode, extra", [("1cmtrf", 2), ("ncmtrf", 2), ("kcmtrf", 2), ("mf", 1)]
    )
    def test_one_score_pass_per_factor_step(
        self, sd2_small, monkeypatch, mode, extra
    ):
        cfg = small_config(mode=mode, n_clusters=20)
        kwargs = {}
        if mode == "kcmtrf":
            n_result = fit_ncmtrf(sd2_small, cfg)
            kwargs = dict(
                init_state=init_clusters(sd2_small, cfg, n_result),
                init=n_result.model,
            )
        calls = []
        scores_fn = factorization._scores

        def counting(*args):
            calls.append(1)
            return scores_fn(*args)

        monkeypatch.setattr(core, "_scores", counting)
        monkeypatch.setattr(factorization, "_scores", counting)
        result = getattr(core, f"fit_{mode}")(sd2_small, cfg, **kwargs)
        assert len(calls) == result.trace[-1]["iter"] + extra


class TestModeNesting:
    def test_objectives_nest_from_shared_initialization(self, sd2_small):
        # All three runs share the per-user warm start and must converge;
        # comparing unconverged tails would be meaningless.
        from cmtrf.factorization import RegularizationConfig

        reg = RegularizationConfig(0.5, 0.5)
        cfg = small_config(tol=1e-6, outer_max_iters=600, reg=reg)
        n_result = fit_ncmtrf(sd2_small, cfg)
        k_cfg = small_config(
            mode="kcmtrf", n_clusters=4, tol=1e-6, outer_max_iters=600, reg=reg
        )
        state = init_clusters(sd2_small, k_cfg, n_result=n_result)
        k_result = fit_kcmtrf(
            sd2_small, k_cfg, init_state=state, init=n_result.model
        )
        one_result = fit_1cmtrf(sd2_small, cfg, init=n_result.model)
        assert n_result.converged and k_result.converged and one_result.converged
        assert n_result.objective <= k_result.objective + 1e-6
        assert k_result.objective <= one_result.objective + 1e-6


class TestNonSquaredLoop:
    def test_gid_end_to_end_descends(self, sd1_small):
        # Supported but untuned: the loop must run, stay in-domain, and
        # keep the objective monotone under backtracked factor steps.
        from cmtrf.divergence import GID

        cfg = small_config(
            mode="kcmtrf", n_clusters=3, div=GID, outer_max_iters=8,
        )
        result = fit_kcmtrf(sd1_small, cfg)
        _assert_monotone(result)
        _assert_feasible(result)
        assert result.transforms.min() > 0


@pytest.fixture(scope="module")
def sd2_cell():
    """The acceptance cell's shape: sd2, 300x200, density 0.2."""
    return generate(
        SynthConfig(n_users=300, n_items=200, rank=5, kind="sd2",
                    density=0.2, seed=0)
    ).dataset


class TestFitMF:
    def test_descent_and_convergence(self, sd1_small):
        result = fit_mf(sd1_small, small_config(mode="mf"))
        _assert_monotone(result)
        assert result.transforms is None
        assert result.converged

    @pytest.mark.parametrize(
        "lam, cap, stop", [(0.01, 300, "max_iters"), (1.0, 300, "tol")]
    )
    def test_shared_loop_reproduces_own_loop(self, sd2_cell, lam, cap, stop):
        cfg = small_config(
            mode="mf", rank=5, reg=RegularizationConfig(lam, lam),
            outer_max_iters=cap, tol=1e-6,
        )
        folded, looped = fit_mf(sd2_cell, cfg), mf_loop(sd2_cell, cfg)
        assert folded.stop_reason == looped.stop_reason == stop
        for attr in ("user_factors", "item_factors"):
            assert np.array_equal(
                getattr(folded.model, attr), getattr(looped.model, attr)
            )
        assert np.array_equal(
            folded.objective_values(), looped.objective_values()
        )
        phases = [(rec["iter"], rec["phase"]) for rec in folded.trace]
        assert phases == [(rec["iter"], rec["phase"]) for rec in looped.trace]
        assert phases[0] == (0, "init")
        assert all(phase == "factorize" for _, phase in phases[1:])
        assert folded.transforms is None and folded.assignments is None


class TestStopReason:
    @pytest.mark.parametrize("fit_fn", [fit_1cmtrf, fit_mf])
    def test_rising_objective_stops_the_fit(self, sd2_small, monkeypatch, fit_fn):
        solve = core.solve_factors

        def worsening(*args, **kwargs):
            model = solve(*args, **kwargs)
            return FactorModel(3.0 * model.user_factors, model.item_factors)

        monkeypatch.setattr(core, "solve_factors", worsening)
        with pytest.warns(RuntimeWarning, match="objective rose"):
            result = fit_fn(sd2_small, small_config(outer_max_iters=50))
        assert result.stop_reason == "objective_increased"
        assert not result.converged
        assert result.trace[-1]["iter"] <= 2
        assert np.diff(result.objective_values()).max() > 0


class TestClusterStateValidation:
    def test_rejects_bad_assignment(self):
        with pytest.raises(ValueError):
            ClusterState(np.array([0, 2]), np.ones((2, 3)) * [[3, 2, 1]], 0.5)

    def test_rejects_margin_violation(self):
        with pytest.raises(ValueError):
            ClusterState(np.array([0, 0]), np.array([[1.0, 0.9, 0.8]]), 0.5)

import numpy as np
import pytest
from scipy.optimize import minimize

from cmtrf.divergence import GID, KL, SQUARED_LOSS
from cmtrf.errors import DomainError
from cmtrf.isotonic import (
    IsotonicProblem,
    RatingScaleTransform,
    fit_margin_isotonic,
    fit_margin_isotonic_rows,
)
from oracles import (
    margin_isotonic_blocks,
    margin_isotonic_enum,
    margin_isotonic_pg,
    sl_objective,
)

MARGIN_SLACK = 1e-9


def _random_problem(rng, max_len=6):
    n = int(rng.integers(2, max_len + 1))
    targets = rng.normal(0, 3, n)
    weights = rng.uniform(0, 2, n)
    weights[weights < 0.15] = 0.0  # exercise zero-weight levels
    if not np.any(weights > 0):
        weights[rng.integers(n)] = 1.0
    eps = float(rng.choice([0.0, 0.5]))
    return IsotonicProblem(targets, weights, eps)


def _assert_margins(values, eps):
    gaps = -np.diff(values)
    if gaps.size:
        assert gaps.min() >= eps - MARGIN_SLACK


class TestOracles:
    """The two independent solvers must agree before anything else."""

    def test_enum_matches_projected_gradient(self):
        rng = np.random.default_rng(0)
        for _ in range(150):
            p = _random_problem(rng)
            r_enum = margin_isotonic_enum(p.targets, p.weights, p.epsilon)
            r_pg = margin_isotonic_pg(p.targets, p.weights, p.epsilon)
            obj_enum = sl_objective(r_enum, p.targets, p.weights)
            obj_pg = sl_objective(r_pg, p.targets, p.weights)
            assert obj_pg == pytest.approx(obj_enum, abs=1e-7)


class TestExamples:
    def test_feasible_input_is_fixed_point(self):
        p = IsotonicProblem([5, 4, 3, 2, 1], [1, 1, 1, 1, 1], 0.5)
        out = fit_margin_isotonic(p)
        np.testing.assert_allclose(out.values, [5, 4, 3, 2, 1])

    def test_two_level_active_margin(self):
        p = IsotonicProblem([1.0, 2.0], [1.0, 1.0], 0.5)
        out = fit_margin_isotonic(p)
        np.testing.assert_allclose(out.values, [1.75, 1.25])
        oracle = margin_isotonic_enum(p.targets, p.weights, p.epsilon)
        np.testing.assert_allclose(out.values, oracle, atol=1e-9)

    def test_flat_targets_spread_around_pooled_mean(self):
        p = IsotonicProblem([3.0, 3.0, 3.0], [1.0, 1.0, 1.0], 0.5)
        out = fit_margin_isotonic(p)
        np.testing.assert_allclose(out.values, [3.5, 3.0, 2.5])
        oracle = margin_isotonic_enum(p.targets, p.weights, p.epsilon)
        np.testing.assert_allclose(out.values, oracle, atol=1e-9)

    def test_zero_weight_level_interpolated(self):
        p = IsotonicProblem([5.0, 0.0, 1.0], [1.0, 0.0, 1.0], 0.0)
        out = fit_margin_isotonic(p)
        np.testing.assert_allclose(out.values, [5.0, 3.0, 1.0])
        # The filled level carries no weight, so the objective is untouched.
        oracle = margin_isotonic_enum(p.targets, p.weights, p.epsilon)
        assert sl_objective(out.values, p.targets, p.weights) == pytest.approx(
            sl_objective(oracle, p.targets, p.weights), abs=1e-12
        )


class TestMarginIsotonicProperties:
    def test_objective_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(250):
            p = _random_problem(rng)
            fitted = fit_margin_isotonic(p)
            obj = sl_objective(fitted.values, p.targets, p.weights)
            oracle = margin_isotonic_enum(p.targets, p.weights, p.epsilon)
            assert obj == pytest.approx(
                sl_objective(oracle, p.targets, p.weights), abs=1e-6
            )

    def test_margins_always_hold(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            p = _random_problem(rng)
            _assert_margins(fit_margin_isotonic(p).values, p.epsilon)

    def test_kkt_multipliers(self):
        # Stationarity: the gradient must telescope into nonnegative
        # multipliers on the active margin constraints, so its prefix sums
        # are nonnegative, vanish on inactive constraints, and total zero.
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = _random_problem(rng)
            r = fit_margin_isotonic(p).values
            grad = p.weights * (r - p.targets)
            mu = np.cumsum(grad)[:-1]
            active = (-np.diff(r) - p.epsilon) <= 1e-7
            assert abs(np.sum(grad)) <= 1e-6
            assert np.all(mu >= -1e-6)
            assert np.all(np.abs(mu[~active]) <= 1e-6)

    def test_zero_margin_reduces_to_classic_pava(self):
        # One positively weighted block of violators pools to its weighted
        # mean, the classic descending pool-adjacent-violators answer.
        p = IsotonicProblem([1.0, 2.0, 4.0], [1.0, 2.0, 1.0], 0.0)
        out = fit_margin_isotonic(p)
        pooled = (1.0 + 2.0 * 2.0 + 4.0) / 4.0
        np.testing.assert_allclose(out.values, [pooled] * 3)

    def test_leading_and_trailing_zero_weights(self):
        p = IsotonicProblem([0.0, 2.0, 0.0], [0.0, 1.0, 0.0], 0.5)
        out = fit_margin_isotonic(p)
        np.testing.assert_allclose(out.values, [2.5, 2.0, 1.5])


class TestGeneralDivergences:
    def test_pooled_block_stationarity(self):
        # With no margin, a pooled block's value satisfies
        # grad_phi(value) = weighted mean of grad_phi(targets).
        rng = np.random.default_rng(4)
        for div in (GID, KL):
            for _ in range(50):
                n = int(rng.integers(2, 6))
                p = IsotonicProblem(
                    rng.uniform(0.2, 4, n), rng.uniform(0.1, 2, n), 0.0
                )
                r = fit_margin_isotonic(p, div).values
                # Recover blocks as runs of equal fitted values.
                start = 0
                for stop in range(1, n + 1):
                    if stop == n or r[stop] < r[start] - 1e-12:
                        w = p.weights[start:stop]
                        t = p.targets[start:stop]
                        lhs = div.grad_phi(np.asarray([r[start]]))[0]
                        rhs = np.sum(w * div.grad_phi(t)) / np.sum(w)
                        assert lhs == pytest.approx(rhs, abs=1e-9)
                        start = stop

    @pytest.mark.parametrize("div", (GID, KL), ids=lambda d: d.name)
    def test_margin_case_matches_nlp_solver(self, div):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            targets = rng.uniform(0.5, 4, n)
            weights = rng.uniform(0.2, 2, n)
            eps = 0.3
            p = IsotonicProblem(targets, weights, eps)
            fitted = fit_margin_isotonic(p, div)

            # The Bregman objective in gap form; for KL this keeps the
            # affine term the simplex shorthand drops.
            dual = div.grad_phi(targets)

            def objective(r):
                return div.gap(np.maximum(r, 1e-9), dual, weights)

            cons = [
                {"type": "ineq", "fun": (lambda r, k=k: r[k] - r[k + 1] - eps)}
                for k in range(n - 1)
            ]
            ref = minimize(
                objective,
                fitted.values + rng.uniform(0, 0.1, n) * [1] + 0.2,
                constraints=cons,
                method="SLSQP",
                options={"ftol": 1e-12, "maxiter": 500},
            )
            _assert_margins(fitted.values, eps)
            assert objective(fitted.values) <= ref.fun + 1e-6

    def test_gid_rejects_bad_targets(self):
        with pytest.raises(DomainError):
            fit_margin_isotonic(
                IsotonicProblem([1.0, -1.0], [1.0, 1.0], 0.0), GID
            )


class TestValidation:
    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            IsotonicProblem([1.0, 2.0], [0.0, 0.0], 0.0)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            IsotonicProblem([1.0, 2.0], [1.0, 1.0], -0.1)

    def test_transform_margin_validation(self):
        with pytest.raises(ValueError):
            RatingScaleTransform(np.array([1.0, 0.9]), epsilon=0.5)

    @pytest.mark.parametrize(
        "values", [[3.0, np.nan, 1.0], [np.nan], [np.inf, 3.0], [3.0, 2.0, -np.inf]],
        ids=["nan", "nan-one-level", "inf", "minus-inf"],
    )
    def test_transform_must_be_finite(self, values):
        with pytest.raises(ValueError, match="must be finite"):
            RatingScaleTransform(np.array(values), epsilon=0.5)

    def test_transform_level_lookup(self):
        tr = RatingScaleTransform(np.array([5.0, 4.0, 3.0]), epsilon=0.5)
        assert tr.value_for_level(0) == 3.0
        assert tr.value_for_level(2) == 5.0

    def test_base_transform(self):
        tr = RatingScaleTransform.base(5, 0.5)
        np.testing.assert_allclose(tr.values, [5, 4, 3, 2, 1])


def _stress_problem(rng, div):
    """Up to 11 levels, zero-weight holes and rounded (tie-prone) targets."""
    n = int(rng.integers(1, 12))
    if div is SQUARED_LOSS:
        raw = rng.normal(3.0, 2.0, n)
    else:
        raw = rng.uniform(0.05, 6.0, n)
    targets = np.round(raw, int(rng.integers(0, 4)))
    weights = rng.integers(0, 4, n).astype(float)
    if rng.random() < 0.5:
        weights *= rng.uniform(0.5, 1.5, n)
    if not np.any(weights > 0):
        weights[rng.integers(n)] = 1.0
    eps = float(rng.choice([0.0, 0.1, 0.5, 1.3]))
    return IsotonicProblem(targets, weights, eps)


class TestMatchesMemberListPAV:
    """The start/value block stack pools exactly as the member-list sweep."""

    @pytest.mark.parametrize("div", [SQUARED_LOSS, KL, GID], ids=lambda d: d.name)
    def test_bit_identical_on_stress_set(self, div):
        rng = np.random.default_rng(11)
        raised = 0
        for _ in range(3000):
            problem = _stress_problem(rng, div)
            try:
                expected = margin_isotonic_blocks(problem, div).values
            except Exception as exc:
                raised += 1
                with pytest.raises(type(exc)):
                    fit_margin_isotonic(problem, div)
                continue
            assert np.array_equal(fit_margin_isotonic(problem, div).values, expected)
        assert raised < 300


def _stress_rows(rng, div):
    """A (G, L) batch, L 1-11, with holes, some rows with non-integer
    weights, and rounded (tie-prone) targets; every row has a positive count."""
    g, n = int(rng.integers(1, 41)), int(rng.integers(1, 12))
    counts = rng.integers(0, 4, (g, n)).astype(float)
    scaled = rng.random(g) < 0.3
    counts[scaled] *= rng.uniform(0.5, 1.5, (scaled.sum(), n))
    empty = ~(counts > 0).any(axis=1)
    counts[empty, rng.integers(n, size=empty.sum())] = 1.0
    if div is SQUARED_LOSS:
        raw = rng.normal(3.0, 2.0, (g, n))
    else:
        raw = rng.uniform(0.05, 6.0, (g, n))
    targets = np.round(raw, int(rng.integers(0, 16)))
    eps = float(rng.choice([0.0, 0.1, 0.5, 1.3]))
    return counts, targets, eps


def _batches_matching_rows(rng, div, n_batches):
    """Fit `n_batches` stress batches and compare every row with the
    member-list sweep; returns how many batches raised."""
    raised = 0
    for _ in range(n_batches):
        counts, targets, eps = _stress_rows(rng, div)
        problems = [
            IsotonicProblem(targets[g], counts[g], eps)
            for g in range(counts.shape[0])
        ]
        try:
            rows = fit_margin_isotonic_rows(counts, targets, eps, div)
        except Exception as exc:
            raised += 1
            row_errors = []
            for problem in problems:
                try:
                    margin_isotonic_blocks(problem, div)
                except Exception as row_exc:
                    row_errors.append(type(row_exc))
            assert type(exc) in row_errors
            continue
        for row, problem in zip(rows, problems):
            assert np.array_equal(row, margin_isotonic_blocks(problem, div).values)
    return raised


class TestBatchedRowsMatchPerRowPAV:
    """The batched pass fits each row exactly as the member-list sweep."""

    def test_bit_identical_on_stress_batches(self):
        rng = np.random.default_rng(13)
        assert _batches_matching_rows(rng, SQUARED_LOSS, 3000) == 0

    @pytest.mark.parametrize("div", [KL, GID], ids=lambda d: d.name)
    def test_bit_identical_on_bregman_batches(self, div):
        rng = np.random.default_rng(17)
        raised = _batches_matching_rows(rng, div, 100)
        assert 0 < raised < 25

    def test_margin_violation_raises_like_transform(self):
        # One ulp of 1e17 is 16, so the shift by k * eps rounds away and the
        # pooled row comes back flat.
        counts, means = np.ones((1, 2)), np.full((1, 2), 1e17)
        with pytest.raises(ValueError, match="margin violation") as per_row:
            fit_margin_isotonic(IsotonicProblem(means[0], counts[0], 0.5))
        with pytest.raises(ValueError) as transform:
            RatingScaleTransform(means[0], 0.5)
        with pytest.raises(ValueError) as batched:
            fit_margin_isotonic_rows(counts, means, 0.5)
        assert str(batched.value) == str(per_row.value) == str(transform.value)

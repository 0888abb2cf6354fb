import numpy as np
import pytest
from oracles import ridge_als_loop

from cmtrf import factorization
from cmtrf.divergence import GID
from cmtrf.errors import DomainError
from cmtrf.factorization import (
    RIDGE_FLOOR,
    FactorModel,
    RegularizationConfig,
    init_model,
    load_model,
    predict_scores,
    regularized_objective,
    save_model,
    solve_factors,
)


def _triplets_from_dense(matrix):
    users, items = np.nonzero(np.ones_like(matrix, dtype=bool))
    return users, items, matrix[users, items]


class TestPredictScores:
    def test_orthogonal_factors(self):
        model = FactorModel(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))
        assert predict_scores(model, [(0, 0)])[0] == 0.0

    def test_scalar_product(self):
        model = FactorModel(np.array([[2.0]]), np.array([[3.0]]))
        assert predict_scores(model, [(0, 0)])[0] == 6.0

    def test_identity_rows(self):
        eye = np.eye(2)
        model = FactorModel(eye, eye)
        out = predict_scores(model, [(0, 0), (0, 1)])
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_out_of_range_rejected(self):
        model = FactorModel(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(IndexError):
            predict_scores(model, [(1, 0)])
        with pytest.raises(IndexError):
            predict_scores(model, [(0, -1)])


class TestSolveFactors:
    def test_unregularized_scalar_least_squares(self):
        init = FactorModel(np.array([[0.3]]), np.array([[1.0]]))
        reg = RegularizationConfig(0.0, 0.0)
        out = solve_factors([0], [0], [2.0], init, reg, sweeps=1)
        # Item update follows and rescales, so check after the user half-step
        # via a model where the item row solve keeps v at 1 exactly:
        # verify with the user step alone by freezing through objective.
        assert out.user_factors[0, 0] * out.item_factors[0, 0] == pytest.approx(
            2.0, abs=1e-6
        )

    def test_ridge_closed_form(self):
        # One user, one item, v = 1, lambda_u = 1: u = 2 / (1 + 1) = 1.
        init = FactorModel(np.array([[0.0]]), np.array([[1.0]]))
        reg = RegularizationConfig(1.0, 1e12)  # huge lambda_v pins v near init
        out = solve_factors([0], [0], [2.0], init, reg, sweeps=1)
        assert out.user_factors[0, 0] == pytest.approx(1.0)

    def test_rank_one_reconstruction(self):
        matrix = np.outer([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0])
        users, items, targets = _triplets_from_dense(matrix)
        init = init_model(4, 4, 1, seed=3)
        reg = RegularizationConfig(1e-6, 1e-6)
        out = solve_factors(users, items, targets, init, reg, sweeps=50)
        recon = out.user_factors @ out.item_factors.T
        assert np.mean((recon - matrix) ** 2) <= 1e-4

    def test_each_half_sweep_descends(self):
        rng = np.random.default_rng(11)
        users = rng.integers(0, 8, 60)
        items = rng.integers(0, 6, 60)
        keep = np.unique(users * 6 + items)
        users, items = keep // 6, keep % 6
        targets = rng.normal(0, 2, users.size)
        reg = RegularizationConfig(0.3, 0.2)
        model = init_model(8, 6, 3, seed=0)
        prev = regularized_objective(users, items, targets, model, reg)
        for _ in range(10):
            model = solve_factors(users, items, targets, model, reg, sweeps=1)
            cur = regularized_objective(users, items, targets, model, reg)
            assert cur <= prev + 1e-9
            prev = cur

    def test_updated_row_is_ridge_minimizer(self):
        rng = np.random.default_rng(12)
        users = np.zeros(5, dtype=int)
        items = np.arange(5)
        targets = rng.normal(0, 1, 5)
        reg = RegularizationConfig(0.5, 0.5)
        model = init_model(2, 5, 2, seed=1)
        out = solve_factors(users, items, targets, model, reg, sweeps=1)
        base = regularized_objective(users, items, targets, out, reg)
        # The item rows are the freshly updated side once a sweep ends; each
        # is the unique minimizer of its strictly convex ridge subproblem.
        for _ in range(20):
            probe = out.copy()
            probe.item_factors[rng.integers(5)] += rng.normal(0, 1e-3, 2)
            perturbed = regularized_objective(users, items, targets, probe, reg)
            assert perturbed > base

    def test_rank_bound(self):
        rng = np.random.default_rng(13)
        users = np.repeat(np.arange(10), 8)
        items = np.tile(np.arange(8), 10)
        targets = rng.normal(0, 1, 80)
        model = solve_factors(
            users, items, targets,
            init_model(10, 8, 3, seed=2),
            RegularizationConfig(0.1, 0.1),
            sweeps=5,
        )
        scores = model.user_factors @ model.item_factors.T
        rank = np.linalg.matrix_rank(scores, tol=1e-8)
        assert rank <= 3

    def test_untouched_rows_stay_at_init(self):
        init = init_model(3, 3, 1, seed=4)
        out = solve_factors(
            [0], [0], [1.0], init, RegularizationConfig(0.1, 0.1), sweeps=2
        )
        np.testing.assert_array_equal(out.user_factors[1:], init.user_factors[1:])
        np.testing.assert_array_equal(out.item_factors[1:], init.item_factors[1:])

    def test_gid_targets_must_be_positive(self):
        init = init_model(1, 1, 1, seed=0)
        with pytest.raises(DomainError):
            solve_factors(
                [0], [0], [-1.0], init, RegularizationConfig(0.1, 0.1), div=GID
            )

    def test_gid_descent_path(self):
        rng = np.random.default_rng(14)
        users = np.repeat(np.arange(4), 3)
        items = np.tile(np.arange(3), 4)
        targets = rng.uniform(0.5, 3.0, 12)
        reg = RegularizationConfig(0.05, 0.05)
        model = init_model(4, 3, 2, seed=5)
        prev = regularized_objective(users, items, targets, model, reg, GID)
        for _ in range(5):
            model = solve_factors(users, items, targets, model, reg, GID, sweeps=1)
            cur = regularized_objective(users, items, targets, model, reg, GID)
            assert cur <= prev + 1e-9
            prev = cur


# Observation counts per user: single entries, exact powers of two and one
# past them (the edges of the power-of-two blocks), and an unobserved user.
EDGE_COUNTS = [1, 2, 3, 4, 5, 8, 9, 16, 17, 0, 1, 32, 33]


def _entries_with_counts(counts, n_items, seed):
    """Shuffled (user, item) pairs; user u rates counts[u] distinct items.

    Items are drawn from all but the last, which stays unobserved.
    """
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(len(counts)), counts)
    items = np.concatenate(
        [rng.choice(n_items - 1, c, replace=False) for c in counts]
    )
    perm = rng.permutation(users.size)
    return users[perm], items[perm]


class TestStackedRidge:
    """The stacked per-side solve against the per-row loop it replaced."""

    def _compare(self, users, items, n_users, n_items, rank, lam, seed):
        targets = np.random.default_rng(seed + 100).normal(0, 1, users.size)
        init = init_model(n_users, n_items, rank, seed=seed)
        reg = RegularizationConfig(lam, lam)
        out = solve_factors(users, items, targets, init, reg, sweeps=2)
        U, V = ridge_als_loop(
            users, items, targets, init, reg, sweeps=2, floor=RIDGE_FLOOR
        )
        assert np.max(np.abs(out.user_factors - U)) <= 1e-10
        assert np.max(np.abs(out.item_factors - V)) <= 1e-10
        seen_u, seen_i = np.unique(users), np.unique(items)
        np.testing.assert_array_equal(
            np.delete(out.user_factors, seen_u, axis=0),
            np.delete(init.user_factors, seen_u, axis=0),
        )
        np.testing.assert_array_equal(
            np.delete(out.item_factors, seen_i, axis=0),
            np.delete(init.item_factors, seen_i, axis=0),
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("rank, lam", [(3, 0.1), (5, 0.01), (1, 0.1), (1, 0.0)])
    def test_matches_per_row_loop(self, rank, lam, seed):
        n_items = 40
        users, items = _entries_with_counts(EDGE_COUNTS, n_items, seed)
        self._compare(users, items, len(EDGE_COUNTS), n_items, rank, lam, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_ridge_floor_matches_per_row_loop(self, seed):
        # With lambda = 0 and fewer entries than the rank, the normal
        # equations are singular up to RIDGE_FLOOR and any two solvers agree
        # only to ~1e-5 or worse. Every row here has at least `rank`
        # entries in general position, so the floor path is well posed.
        rank, n_items = 3, 12
        users, items = _entries_with_counts(
            [3, 4, 5, 8, 9, 4, 5, 8, 9, 11, 11, 3, 0], n_items, seed
        )
        assert np.bincount(items).min() >= rank
        self._compare(users, items, 13, n_items, rank, 0.0, seed)

    def test_side_split_across_blocks(self, monkeypatch):
        monkeypatch.setattr(factorization, "BLOCK_ENTRIES", 8)
        users, items = _entries_with_counts(EDGE_COUNTS, 40, 3)
        side = factorization._SideIndex(users)
        widths = [entries.shape[1] for _, entries, _ in side.blocks]
        assert len(widths) > len(set(widths))  # some width spans blocks
        for (rows, _, _), width in zip(side.blocks, widths):
            assert rows.size * width <= 8 or rows.size == 1
        self._compare(users, items, len(EDGE_COUNTS), 40, 3, 0.1, 3)

    def test_index_covers_each_entry_once(self):
        users, items = _entries_with_counts(EDGE_COUNTS, 40, 4)
        side = factorization._SideIndex(users)
        np.testing.assert_array_equal(side.rows, np.unique(users))
        covered = np.concatenate(
            [entries[valid] for _, entries, valid in side.blocks]
        )
        np.testing.assert_array_equal(np.sort(covered), np.arange(users.size))
        for rows, entries, valid in side.blocks:
            width = entries.shape[1]
            counts = valid.sum(axis=1)
            assert np.all((counts > width // 2) & (counts <= width))
            np.testing.assert_array_equal(counts, np.bincount(users)[rows])
            assert np.all(users[entries[valid]] == np.repeat(rows, counts))

    def test_index_from_other_entries_rejected(self):
        init = init_model(3, 3, 1, seed=0)
        index = factorization._ObservationIndex(np.array([0, 1]), np.array([0, 1]))
        reg = RegularizationConfig(0.1, 0.1)
        with pytest.raises(ValueError, match="index"):
            solve_factors([0], [0], [1.0], init, reg, index=index)
        with pytest.raises(ValueError, match="index"):
            regularized_objective([0], [0], [1.0], init, reg, index=index)


class TestModelValidation:
    def test_rank_exceeding_dimensions_rejected_at_init(self):
        with pytest.raises(ValueError):
            init_model(2, 5, 3)

    def test_nonfinite_rejected(self):
        bad = np.array([[np.inf]])
        with pytest.raises(ValueError):
            FactorModel(bad, np.array([[1.0]]))

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            RegularizationConfig(-0.1, 0.0)


class TestCheckpoint:
    def test_round_trip_is_bit_stable(self, tmp_path):
        model = init_model(7, 5, 3, seed=42)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.user_factors, model.user_factors)
        np.testing.assert_array_equal(loaded.item_factors, model.item_factors)
        # A second dump produces identical bytes.
        again = tmp_path / "model2.txt"
        save_model(loaded, again)
        assert path.read_bytes() == again.read_bytes()

    def test_header_and_layout(self, tmp_path):
        model = FactorModel(np.array([[1.5, 2.0]]), np.array([[3.0, -4.25]]))
        path = tmp_path / "m.txt"
        save_model(model, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "2 1 1"
        assert lines[1].split() == ["1.5", "2"]
        assert lines[2].split() == ["3", "-4.25"]

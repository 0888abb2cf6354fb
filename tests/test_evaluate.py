import numpy as np
import oracles
import pytest
from oracles import predict_loop

from cmtrf.evaluate import build_inverse, mae, mse, predict_ratings
from cmtrf.factorization import FactorModel, predict_scores
from cmtrf.isotonic import RatingScaleTransform


class TestBuildInverse:
    def test_identity_on_base_scale(self):
        inv = build_inverse(
            RatingScaleTransform(np.array([5.0, 4, 3, 2, 1])).values,
            np.arange(1.0, 6.0),
        )
        assert inv(3.7) == pytest.approx(3.7)
        np.testing.assert_allclose(inv([1.0, 2.5, 5.0]), [1.0, 2.5, 5.0])

    def test_doubled_scale_interpolates(self):
        inv = build_inverse(
            RatingScaleTransform(np.array([10.0, 8, 6, 4, 2])).values,
            np.arange(1.0, 6.0),
        )
        assert inv(6.0) == pytest.approx(3.0)
        assert inv(5.0) == pytest.approx(2.5)

    def test_clamps_outside_knots(self):
        inv = build_inverse(
            RatingScaleTransform(np.array([5.0, 4, 3, 2, 1])).values,
            np.arange(1.0, 6.0),
        )
        assert inv(100.0) == 5.0
        assert inv(-100.0) == 1.0

    def test_knot_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            gaps = rng.uniform(0.5, 2.0, 4)
            values = np.concatenate([[rng.normal()], gaps]).cumsum()[::-1]
            tr = RatingScaleTransform(values, 0.5)
            vocab = np.arange(1.0, 6.0)
            inv = build_inverse(tr.values, vocab)
            for level in range(5):
                assert inv(tr.value_for_level(level)) == pytest.approx(
                    vocab[level]
                )

    def test_monotone(self):
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.uniform(0.5, 2, 5))[::-1]
        inv = build_inverse(
            RatingScaleTransform(values, 0.5).values, np.arange(1.0, 6.0)
        )
        s = np.sort(rng.normal(0, 5, 200))
        out = inv(s)
        assert (np.diff(out) >= 0).all()

    def test_tied_knots_collapse(self):
        # Zero margin permits ties; they merge into one knot.
        tr = RatingScaleTransform(np.array([3.0, 2.0, 2.0]), 0.0)
        inv = build_inverse(tr.values, np.array([1.0, 2.0, 3.0]))
        assert inv(2.0) == pytest.approx(1.5)
        assert inv(3.0) == pytest.approx(3.0)

    @pytest.mark.parametrize(
        "row", [[3.0, np.nan, 1.0], [np.nan, np.nan, 1.0], [np.inf, 2.0, 1.0]],
        ids=["nan", "tied-nan", "inf"],
    )
    def test_non_finite_row_rejected(self, row):
        # A NaN breaks the tie-collapse's comparisons, which would drop it.
        with pytest.raises(ValueError, match="must be finite"):
            build_inverse(row, [1.0, 2.0, 3.0])

    def test_half_step_vocabulary(self):
        # Ten-level scales (0.5 .. 5.0) map latent knots to half-step values.
        vocab = np.arange(0.5, 5.01, 0.5)
        tr = RatingScaleTransform.base(10, 0.5)
        inv = build_inverse(tr.values, vocab)
        assert inv(tr.value_for_level(6)) == pytest.approx(3.5)
        assert inv(1.5) == pytest.approx(0.75)  # halfway between levels 0 and 1
        assert inv(99.0) == pytest.approx(5.0)


def _inverse_outcome(build, row, vocab, scores):
    """The inverse's outputs on `scores`, or the text of what it raised."""
    try:
        return build(row, vocab)(scores)
    except ValueError as exc:
        return str(exc)


class TestMatchesObjectInverse:
    """`build_inverse` against the knot-object form it replaced."""

    def test_bit_identical_on_random_rows(self):
        rng = np.random.default_rng(21)
        n_tied = n_raised = 0
        for _ in range(10_000):
            n_levels = int(rng.integers(2, 14))
            gaps = rng.uniform(0.05, 2.0, n_levels - 1)
            gaps[rng.random(n_levels - 1) < 0.4] = 0.0
            if rng.random() < 0.5:  # one tied run of 2 to 9 levels
                run = int(rng.integers(2, min(9, n_levels) + 1))
                start = int(rng.integers(0, n_levels - run + 1))
                gaps[start : start + run - 1] = 0.0
            row = (rng.normal(0, 3) + np.concatenate([[0.0], gaps]).cumsum())[::-1]
            vocab = rng.normal(0, 2) + rng.uniform(0.1, 1.5, n_levels).cumsum()
            if rng.random() < 0.03:  # a repeated level makes both raise
                vocab[-1] = vocab[-2]
            between = (row[:-1] + row[1:]) / 2
            outside = [row.min() - rng.uniform(0, 5), row.max() + rng.uniform(0, 5)]
            scores = np.concatenate(
                [row, between, outside, rng.normal(row.mean(), 3, 5)]
            )
            want = _inverse_outcome(oracles.build_inverse, row, vocab, scores)
            got = _inverse_outcome(build_inverse, row, vocab, scores)
            if isinstance(want, str):
                assert got == want
                n_raised += 1
            else:
                assert np.array_equal(got, want)
                assert build_inverse(row, vocab)(row[0]) == want[0]
            n_tied += bool((gaps == 0).any())
        assert n_tied > 5_000 and n_raised > 50

    def test_length_mismatch_rejected_alike(self):
        row, vocab = np.array([3.0, 2.0, 1.0]), np.arange(1.0, 5.0)
        want = _inverse_outcome(oracles.build_inverse, row, vocab, 0.0)
        assert _inverse_outcome(build_inverse, row, vocab, 0.0) == want
        assert want == "transform length differs from vocabulary length"


class TestPredictRatings:
    def _model(self):
        # Score of (user u, item j) is simply u's single factor value.
        return FactorModel(
            np.array([[4.2], [6.0], [2.0]]), np.array([[1.0], [1.0]])
        )

    def test_identity_transform_passthrough(self):
        model = self._model()
        transforms = np.array([[5.0, 4, 3, 2, 1]])
        out = predict_ratings(
            model, transforms, [(0, 0)], np.arange(1.0, 6.0), np.zeros(3)
        )
        assert out[0] == pytest.approx(4.2)

    def test_cluster_routing(self):
        model = self._model()
        transforms = np.array([[5.0, 4, 3, 2, 1], [10.0, 8, 6, 4, 2]])
        assignments = np.array([1, 1, 0])
        out = predict_ratings(
            model, transforms, [(1, 0), (0, 1)], np.arange(1.0, 6.0), assignments
        )
        assert out[0] == pytest.approx(3.0)  # user 1 routes through cluster 1
        assert out[1] == pytest.approx(2.1)  # and so does user 0

    def test_per_user_transforms(self):
        model = self._model()
        transforms = np.vstack(
            [[5.0, 4, 3, 2, 1], [10.0, 8, 6, 4, 2], [5.0, 4, 3, 2, 1]]
        )
        out = predict_ratings(
            model, transforms, [(1, 0), (2, 0)], np.arange(1.0, 6.0),
            np.arange(3),
        )
        assert out[0] == pytest.approx(3.0)
        assert out[1] == pytest.approx(2.0)

    def test_score_at_knot_returns_level_value(self):
        model = FactorModel(np.array([[4.0]]), np.array([[1.0]]))
        transforms = np.array([[8.0, 6.5, 4.0, 2.0, 0.5]])
        out = predict_ratings(
            model, transforms, [(0, 0)], np.arange(1.0, 6.0), np.zeros(1)
        )
        assert out[0] == pytest.approx(3.0)  # knot of level index 2

    def test_no_transform_clips_scores_to_the_scale(self):
        # Scores 4.2, 6.0 and 2.0 on a 2.5-5 scale: the plain-MF ablation.
        out = predict_ratings(
            self._model(), None, [(0, 0), (1, 1), (2, 0)],
            np.array([2.5, 3.0, 4.0, 5.0]),
        )
        np.testing.assert_array_equal(out, [4.2, 5.0, 2.5])

    @pytest.mark.parametrize("routing", ["per_user", "clusters", "tied"])
    def test_matches_per_owner_loop(self, routing):
        # Seeded factors and descending transform rows; "tied" gives some
        # rows equal adjacent values (a zero margin), whose knots collapse.
        rng = np.random.default_rng(3)
        n_users, n_items, n_levels = 60, 40, 5
        model = FactorModel(
            rng.normal(size=(n_users, 3)), rng.normal(size=(n_items, 3))
        )
        pairs = np.column_stack(
            [rng.integers(0, n_users, 2000), rng.integers(0, n_items, 2000)]
        )
        vocab = np.arange(1.0, 1.0 + n_levels)
        n_rows = 7 if routing == "clusters" else n_users
        steps = rng.uniform(0.1, 1.0, size=(n_rows, n_levels))
        if routing == "tied":
            steps[rng.random(steps.shape) < 0.3] = 0.0
        transforms = np.cumsum(steps, axis=1)[:, ::-1] - 2.5
        if routing == "clusters":
            assignments = rng.integers(0, n_rows, n_users)
            owner = assignments[pairs[:, 0]]
        else:
            assignments = np.arange(n_users)
            owner = pairs[:, 0]
        got = predict_ratings(model, transforms, pairs, vocab, assignments)
        want = predict_loop(
            predict_scores(model, pairs), transforms, owner, vocab
        )
        np.testing.assert_array_equal(got, want)

    def test_missing_user_errors(self):
        model = self._model()
        with pytest.raises(IndexError):
            predict_ratings(
                model, np.array([[5.0, 4, 3, 2, 1]]), [(9, 0)],
                np.arange(1.0, 6.0), np.zeros(3),
            )

    @pytest.mark.parametrize("owner", [-1, 2])
    def test_owner_outside_the_rows_rejected(self, owner):
        # Two rows: an owner of -1 must not route through the last one.
        transforms = np.array([[5.0, 4, 3, 2, 1], [10.0, 8, 6, 4, 2]])
        with pytest.raises(ValueError, match="out of range"):
            predict_ratings(
                self._model(), transforms, [(0, 0), (1, 0)],
                np.arange(1.0, 6.0), np.array([0, owner, 1]),
            )

    def test_transform_rows_without_assignments_rejected(self):
        # One row for all, one per user or neither: rows alone route no user.
        model = self._model()
        for n_rows in (1, 3, 2):
            transforms = np.arange(5.0, 0, -1) + np.arange(n_rows)[:, None]
            with pytest.raises(ValueError, match="assignments"):
                predict_ratings(
                    model, transforms, [(0, 0)], np.arange(1.0, 6.0)
                )


class TestMetrics:
    def test_perfect_predictions(self):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_constant_offset(self):
        preds = np.array([2.0, 3.0, 4.0])
        assert mse(preds, preds - 1.0) == pytest.approx(1.0)
        assert mae(preds, preds - 1.0) == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        assert mse([1.0, 3.0], [2.0, 5.0]) == pytest.approx(2.5)
        assert mae([1.0, 3.0], [2.0, 5.0]) == pytest.approx(1.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mse([], [])
        with pytest.raises(ValueError):
            mae([], [])

    def test_mae_bounded_by_rmse(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            preds = rng.normal(0, 3, n)
            truths = rng.normal(0, 3, n)
            assert mae(preds, truths) <= np.sqrt(mse(preds, truths)) + 1e-12

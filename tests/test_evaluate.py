import numpy as np
import pytest

from cmtrf.evaluate import build_inverse, mae, mse, predict_ratings
from cmtrf.factorization import FactorModel
from cmtrf.isotonic import RatingScaleTransform


class TestBuildInverse:
    def test_identity_on_base_scale(self):
        inv = build_inverse(
            RatingScaleTransform(np.array([5.0, 4, 3, 2, 1])), np.arange(1.0, 6.0)
        )
        assert inv(3.7) == pytest.approx(3.7)
        np.testing.assert_allclose(inv([1.0, 2.5, 5.0]), [1.0, 2.5, 5.0])

    def test_doubled_scale_interpolates(self):
        inv = build_inverse(
            RatingScaleTransform(np.array([10.0, 8, 6, 4, 2])), np.arange(1.0, 6.0)
        )
        assert inv(6.0) == pytest.approx(3.0)
        assert inv(5.0) == pytest.approx(2.5)

    def test_clamps_outside_knots(self):
        inv = build_inverse(
            RatingScaleTransform(np.array([5.0, 4, 3, 2, 1])), np.arange(1.0, 6.0)
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
            inv = build_inverse(tr, vocab)
            for level in range(5):
                assert inv(tr.value_for_level(level)) == pytest.approx(
                    vocab[level]
                )

    def test_monotone(self):
        rng = np.random.default_rng(1)
        values = np.cumsum(rng.uniform(0.5, 2, 5))[::-1]
        inv = build_inverse(RatingScaleTransform(values, 0.5), np.arange(1.0, 6.0))
        s = np.sort(rng.normal(0, 5, 200))
        out = inv(s)
        assert (np.diff(out) >= 0).all()

    def test_tied_knots_collapse(self):
        # Zero margin permits ties; they merge into one knot.
        tr = RatingScaleTransform(np.array([3.0, 2.0, 2.0]), 0.0)
        inv = build_inverse(tr, np.array([1.0, 2.0, 3.0]))
        assert inv(2.0) == pytest.approx(1.5)
        assert inv(3.0) == pytest.approx(3.0)

    def test_half_step_vocabulary(self):
        # Ten-level scales (0.5 .. 5.0) map latent knots to half-step values.
        vocab = np.arange(0.5, 5.01, 0.5)
        tr = RatingScaleTransform.base(10, 0.5)
        inv = build_inverse(tr, vocab)
        assert inv(tr.value_for_level(6)) == pytest.approx(3.5)
        assert inv(1.5) == pytest.approx(0.75)  # halfway between levels 0 and 1
        assert inv(99.0) == pytest.approx(5.0)


class TestPredictRatings:
    def _model(self):
        # Score of (user u, item j) is simply u's single factor value.
        return FactorModel(
            np.array([[4.2], [6.0], [2.0]]), np.array([[1.0], [1.0]])
        )

    def test_identity_transform_passthrough(self):
        model = self._model()
        transforms = np.array([[5.0, 4, 3, 2, 1]])
        out = predict_ratings(model, transforms, [(0, 0)], np.arange(1.0, 6.0))
        assert out[0] == pytest.approx(4.2)

    def test_cluster_routing(self):
        model = self._model()
        transforms = np.array([[5.0, 4, 3, 2, 1], [10.0, 8, 6, 4, 2]])
        assignments = np.array([0, 1, 0])
        out = predict_ratings(
            model, transforms, [(1, 0), (0, 1)], np.arange(1.0, 6.0), assignments
        )
        assert out[0] == pytest.approx(3.0)  # user 1 routes through cluster 1
        assert out[1] == pytest.approx(4.2)

    def test_per_user_transforms(self):
        model = self._model()
        transforms = np.vstack(
            [[5.0, 4, 3, 2, 1], [10.0, 8, 6, 4, 2], [5.0, 4, 3, 2, 1]]
        )
        out = predict_ratings(
            model, transforms, [(1, 0), (2, 0)], np.arange(1.0, 6.0)
        )
        assert out[0] == pytest.approx(3.0)
        assert out[1] == pytest.approx(2.0)

    def test_score_at_knot_returns_level_value(self):
        model = FactorModel(np.array([[4.0]]), np.array([[1.0]]))
        transforms = np.array([[8.0, 6.5, 4.0, 2.0, 0.5]])
        out = predict_ratings(model, transforms, [(0, 0)], np.arange(1.0, 6.0))
        assert out[0] == pytest.approx(3.0)  # knot of level index 2

    def test_no_transform_clips_scores_to_the_scale(self):
        # Scores 4.2, 6.0 and 2.0 on a 2.5-5 scale: the plain-MF ablation.
        out = predict_ratings(
            self._model(), None, [(0, 0), (1, 1), (2, 0)],
            np.array([2.5, 3.0, 4.0, 5.0]),
        )
        np.testing.assert_array_equal(out, [4.2, 5.0, 2.5])

    def test_missing_user_errors(self):
        model = self._model()
        with pytest.raises(IndexError):
            predict_ratings(
                model, np.array([[5.0, 4, 3, 2, 1]]), [(9, 0)], np.arange(1.0, 6.0)
            )

    def test_ambiguous_transform_rows_rejected(self):
        model = self._model()
        with pytest.raises(ValueError):
            predict_ratings(
                model,
                np.array([[5.0, 4, 3, 2, 1], [6.0, 5, 4, 3, 2]]),
                [(0, 0)],
                np.arange(1.0, 6.0),
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

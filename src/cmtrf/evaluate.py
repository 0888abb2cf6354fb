"""Rating prediction through inverse scale transforms, plus MSE and MAE.

A fitted transform maps rating levels to latent values; predicting a rating
runs the factor score back through the transform's piecewise-linear inverse,
which interpolates between the (latent value, raw rating) knots and clamps
to the extreme rating values outside the knot range.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .factorization import FactorModel, predict_scores
from .isotonic import RatingScaleTransform


@dataclass
class InverseTransform:
    """Monotone piecewise-linear map from latent scores to rating values."""

    latents: np.ndarray  # ascending knot positions
    values: np.ndarray  # raw rating value at each knot

    def __post_init__(self):
        self.latents = np.asarray(self.latents, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.latents.shape != self.values.shape:
            raise ValueError("knot arrays must have equal length")
        if np.any(np.diff(self.latents) <= 0) or np.any(np.diff(self.values) <= 0):
            raise ValueError("knots must be strictly increasing")

    def __call__(self, scores) -> np.ndarray:
        # np.interp clamps to the first/last knot value outside the range.
        return np.interp(np.asarray(scores, dtype=float), self.latents, self.values)


def build_inverse(transform, level_vocab) -> InverseTransform:
    """Inverse of a fitted transform over a raw rating vocabulary.

    `transform` may be a RatingScaleTransform or its descending value row.
    Adjacent levels whose latent values coincide (possible only with a zero
    margin) collapse into one knot at their average raw value.
    """
    values = (
        transform.values
        if isinstance(transform, RatingScaleTransform)
        else np.asarray(transform, dtype=float)
    )
    latents = values[::-1]  # ascending, aligned with the ascending vocabulary
    vocab = np.asarray(level_vocab, dtype=float)
    if latents.shape != vocab.shape:
        raise ValueError("transform length differs from vocabulary length")
    if np.all(np.diff(latents) > 0):
        return InverseTransform(latents, vocab)
    keep_lat, keep_val = [], []
    start = 0
    for stop in range(1, latents.size + 1):
        if stop == latents.size or latents[stop] > latents[start]:
            keep_lat.append(latents[start])
            keep_val.append(vocab[start:stop].mean())
            start = stop
    return InverseTransform(np.asarray(keep_lat), np.asarray(keep_val))


def predict_ratings(
    model: FactorModel,
    transforms,
    pairs,
    level_vocab,
    assignments=None,
) -> np.ndarray:
    """Factor scores mapped through each user's inverse transform.

    `transforms` is a (T, L) array of descending transform rows: one shared
    row, one per user, or one per cluster with `assignments` routing users
    to rows. ``None`` means the plain-MF ablation, which has no transform:
    its scores are clipped to ``[level_vocab[0], level_vocab[-1]]``.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    scores = predict_scores(model, pairs)
    if transforms is None:
        vocab = np.asarray(level_vocab, dtype=float)
        return np.clip(scores, vocab[0], vocab[-1])
    if isinstance(transforms, RatingScaleTransform):
        transforms = transforms.values[None, :]
    transforms = np.asarray(transforms, dtype=float)
    if transforms.ndim == 1:
        transforms = transforms[None, :]

    n_rows = transforms.shape[0]
    if assignments is not None:
        assignments = np.asarray(assignments, dtype=np.int64)
        owner = assignments[pairs[:, 0]]
    elif n_rows == 1:
        owner = np.zeros(pairs.shape[0], dtype=np.int64)
    elif n_rows == model.n_users:
        owner = pairs[:, 0]
    else:
        raise ValueError(
            "transform rows match neither one-for-all nor one-per-user; "
            "cluster assignments are required"
        )

    out = np.empty_like(scores)
    for row in np.unique(owner):
        inverse = build_inverse(transforms[row], level_vocab)
        mask = owner == row
        out[mask] = inverse(scores[mask])
    return out


def mse(predictions, truths) -> float:
    """Mean squared error over raw rating values."""
    predictions, truths = _paired(predictions, truths)
    return float(np.mean((predictions - truths) ** 2))


def mae(predictions, truths) -> float:
    """Mean absolute error over raw rating values."""
    predictions, truths = _paired(predictions, truths)
    return float(np.mean(np.abs(predictions - truths)))


def _paired(predictions, truths):
    predictions = np.asarray(predictions, dtype=float)
    truths = np.asarray(truths, dtype=float)
    if predictions.shape != truths.shape or predictions.ndim != 1:
        raise ValueError("predictions and truths must be parallel 1-d arrays")
    if predictions.size == 0:
        raise ValueError("cannot score an empty prediction set")
    return predictions, truths

"""Rating prediction through inverse scale transforms, plus MSE and MAE.

A fitted transform maps rating levels to latent values; predicting a rating
runs the factor score back through the transform's piecewise-linear inverse,
which interpolates between the (latent value, raw rating) knots and clamps
to the extreme rating values outside the knot range.
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .factorization import FactorModel, predict_scores


def build_inverse(transform, level_vocab):
    """Inverse of a descending transform row over a raw rating vocabulary.

    Returns a callable that maps latent scores to rating values, clamping to
    the first or last knot value outside the knot range. Adjacent levels
    whose latent values coincide (possible only with a zero margin) collapse
    into one knot at their average raw value.
    """
    latents = np.asarray(transform, dtype=float)[::-1]  # ascending, as vocab
    vocab = np.asarray(level_vocab, dtype=float)
    if latents.shape != vocab.shape:
        raise ValueError("transform length differs from vocabulary length")
    if not np.isfinite(latents).all():
        raise ValueError("transform values must be finite")
    if not np.all(np.diff(latents) > 0):
        keep_lat, keep_val = [], []
        start = 0
        for stop in range(1, latents.size + 1):
            if stop == latents.size or latents[stop] > latents[start]:
                keep_lat.append(latents[start])
                keep_val.append(vocab[start:stop].mean())
                start = stop
        latents, vocab = np.asarray(keep_lat), np.asarray(keep_val)
    if np.any(np.diff(latents) <= 0) or np.any(np.diff(vocab) <= 0):
        raise ValueError("knots must be strictly increasing")
    return partial(np.interp, xp=latents, fp=vocab)


def predict_ratings(
    model: FactorModel,
    transforms,
    pairs,
    level_vocab,
    assignments=None,
) -> np.ndarray:
    """Factor scores mapped through each user's inverse transform.

    `transforms` is a (T, L) array of descending transform rows and
    `assignments` the (N,) row of each user, as a transform fit returns
    them. ``None`` transforms mean the plain-MF ablation, which has no
    transform: its scores are clipped to ``[level_vocab[0], level_vocab[-1]]``.
    """
    pairs = np.asarray(pairs, dtype=np.int64)
    scores = predict_scores(model, pairs)
    if transforms is None:
        vocab = np.asarray(level_vocab, dtype=float)
        return np.clip(scores, vocab[0], vocab[-1])
    if assignments is None:
        raise ValueError("transform rows need the assignments of users to rows")
    transforms = np.asarray(transforms, dtype=float)
    owner = np.asarray(assignments, dtype=np.int64)[pairs[:, 0]]

    order = np.argsort(owner, kind="stable")
    rows, starts = np.unique(owner[order], return_index=True)
    if rows.size and (rows[0] < 0 or rows[-1] >= transforms.shape[0]):
        raise ValueError("assignment index out of range")
    out = np.empty_like(scores)
    for row, idx in zip(rows, np.split(order, starts[1:])):
        out[idx] = build_inverse(transforms[row], level_vocab)(scores[idx])
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

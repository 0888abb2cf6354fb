"""Synthetic rating data with known per-user monotone scales.

Two generator families. The first draws each user's latent scale directly:
the lowest level lands at a Gaussian draw and successive levels step up by
uniform gaps in [0.5, 2], so adjacent levels are separated by at least 0.5.
The second pushes scores through a per-user sigmoid whose closed-form
inverse maps any real score into the open rating interval; a per-user
curvature parameter is drawn from a Gaussian truncated to stay positive.
In both, a seeded low-rank score matrix Z = U V^T is generated first and
ratings are the per-user inverse images of its rows, quantized to levels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SparseRatingDataset
from .errors import DataError

MIN_CURVATURE = 0.1


@dataclass
class SynthConfig:
    n_users: int = 300
    n_items: int = 200
    rank: int = 5
    n_levels: int = 5
    kind: str = "sd1"  # "sd1" or "sd2"
    factor_mean: float = 0.0
    factor_std: float = 1.0
    density: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_users, self.n_items, self.rank) < 1:
            raise ValueError("n_users, n_items, rank must be at least 1")
        if self.n_levels < 2:
            raise ValueError("need at least two rating levels")
        if not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if self.kind not in ("sd1", "sd2"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")


@dataclass
class SynthResult:
    dataset: SparseRatingDataset | None
    transforms: np.ndarray  # (n_users, L); row i holds the scale values per level
    user_factors: np.ndarray
    item_factors: np.ndarray
    curvatures: np.ndarray | None  # sigmoid curvature per user, sd2 only


def sd2_apply(c: float, x, n_levels: int = 5) -> np.ndarray:
    """Per-user sigmoid scale: maps (0.5, L + 0.5) onto the reals."""
    x = np.asarray(x, dtype=float)
    return -np.log(-1.0 + n_levels / (x - 0.5)) / c


def sd2_inverse(c: float, y, n_levels: int = 5) -> np.ndarray:
    """Closed-form inverse of :func:`sd2_apply`; range (0.5, L + 0.5)."""
    y = np.asarray(y, dtype=float)
    return 0.5 + n_levels / (1.0 + np.exp(-c * y))


def piecewise_apply(knots: np.ndarray, x) -> np.ndarray:
    """Piecewise-linear scale through (level, knots[level]) with linear
    extension beyond the first and last level."""
    x = np.asarray(x, dtype=float)
    levels = np.arange(1, knots.size + 1, dtype=float)
    out = np.interp(x, levels, knots)
    below = x < 1
    above = x > knots.size
    out = np.where(below, knots[0] + (x - 1) * (knots[1] - knots[0]), out)
    return np.where(
        above, knots[-1] + (x - knots.size) * (knots[-1] - knots[-2]), out
    )


def piecewise_inverse(knots: np.ndarray, z) -> np.ndarray:
    """Inverse of :func:`piecewise_apply`; knots must be strictly increasing."""
    z = np.asarray(z, dtype=float)
    levels = np.arange(1, knots.size + 1, dtype=float)
    out = np.interp(z, knots, levels)
    below = z < knots[0]
    above = z > knots[-1]
    out = np.where(below, 1 + (z - knots[0]) / (knots[1] - knots[0]), out)
    return np.where(
        above, knots.size + (z - knots[-1]) / (knots[-1] - knots[-2]), out
    )


def nearest_level(knots: np.ndarray, z) -> np.ndarray:
    """1-based level whose knot value is closest to each score."""
    z = np.asarray(z, dtype=float)
    mid = 0.5 * (knots[:-1] + knots[1:])
    return np.searchsorted(mid, z) + 1


def _draw(config: SynthConfig):
    rng = np.random.default_rng(config.seed)
    U = rng.normal(config.factor_mean, config.factor_std, (config.n_users, config.rank))
    V = rng.normal(config.factor_mean, config.factor_std, (config.n_items, config.rank))
    L = config.n_levels
    if config.kind == "sd1":
        first = rng.normal(1.0, 1.0, config.n_users)
        gaps = rng.uniform(0.5, 2.0, (config.n_users, L - 1))
        transforms = np.cumsum(np.column_stack([first, gaps]), axis=1)
        curvatures = None
    else:
        curvatures = np.maximum(
            rng.normal(1.0, 0.25, config.n_users), MIN_CURVATURE
        )
        levels = np.arange(1, L + 1, dtype=float)
        transforms = np.vstack(
            [sd2_apply(c, levels, L) for c in curvatures]
        )
    return rng, U, V, transforms, curvatures


def pseudo_ratings(config: SynthConfig):
    """Continuous inverse-scale images of the full score matrix.

    Skips quantization and subsampling; applying each user's scale to their
    row reproduces the score matrix exactly, so the stacked result is
    low-rank even though the returned matrix itself is not.
    """
    _, U, V, transforms, curvatures = _draw(config)
    Z = U @ V.T
    X = np.empty_like(Z)
    for i in range(config.n_users):
        if config.kind == "sd1":
            X[i] = piecewise_inverse(transforms[i], Z[i])
        else:
            X[i] = sd2_inverse(curvatures[i], Z[i], config.n_levels)
    return X, SynthResult(None, transforms, U, V, curvatures)


def generate(config: SynthConfig) -> SynthResult:
    """Seeded dataset of quantized ratings plus the generating ground truth."""
    rng, U, V, transforms, curvatures = _draw(config)
    Z = U @ V.T
    L = config.n_levels
    ratings = np.empty(Z.shape, dtype=np.int64)
    for i in range(config.n_users):
        if config.kind == "sd1":
            ratings[i] = nearest_level(transforms[i], Z[i])
        else:
            x = np.clip(
                sd2_inverse(curvatures[i], Z[i], L), 0.5, L + 0.5
            )
            ratings[i] = np.clip(np.rint(x), 1, L).astype(np.int64)

    if config.density < 1.0:
        observed = rng.random(Z.shape) < config.density
    else:
        observed = np.ones(Z.shape, dtype=bool)
    users, items = np.nonzero(observed)
    if users.size == 0:
        raise DataError("no observed entries at the requested density")
    dataset = SparseRatingDataset(
        users,
        items,
        ratings[users, items] - 1,
        None,
        np.arange(1, L + 1, dtype=float),
        np.arange(config.n_users),
        np.arange(config.n_items),
    )
    return SynthResult(dataset, transforms, U, V, curvatures)

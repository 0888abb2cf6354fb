"""Margin-constrained weighted isotonic regression for rating-scale transforms.

A rating-scale transform assigns each discrete rating level a latent real
value, ordered descending from the highest level with a minimum gap
``epsilon`` between adjacent levels. Fitting one reduces to weighted
isotonic regression with a margin: substituting ``q_k = r_k + k * epsilon``
turns the margin constraints into a plain descending chain, which a
pool-adjacent-violators pass solves exactly. Pooled blocks minimize the
chosen Bregman divergence; for squared loss that is the weighted mean of
the shifted targets, for other generators the pooled value is found by
root-finding on the gradient map.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .divergence import DOMAIN_TOL, SQUARED_LOSS, DivergenceSpec, SquaredLoss

MARGIN_TOL = 1e-9


def _check_margins(values: np.ndarray, epsilon: float) -> None:
    """Raise unless `values` is finite and each row descends by at least `epsilon`."""
    if not np.isfinite(values).all():
        raise ValueError("transform values must be finite")
    gaps = -np.diff(values)
    if gaps.size and gaps.min() < epsilon - MARGIN_TOL:
        raise ValueError(
            f"margin violation: smallest gap {gaps.min():.3g} < "
            f"epsilon {epsilon:.3g}"
        )


@dataclass
class RatingScaleTransform:
    """Latent values per rating level, descending with margin ``epsilon``.

    ``values[0]`` belongs to the highest rating level and
    ``values[k] >= values[k+1] + epsilon`` must hold throughout.
    """

    values: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size == 0:
            raise ValueError("transform values must be a nonempty 1-d vector")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        _check_margins(self.values, self.epsilon)

    @property
    def n_levels(self) -> int:
        return self.values.size

    def value_for_level(self, level: int) -> float:
        """Latent value of 0-based `level` (0 = lowest rating level)."""
        return float(self.values[self.n_levels - 1 - level])

    @classmethod
    def base(cls, n_levels: int, epsilon: float = 0.0) -> "RatingScaleTransform":
        """The untransformed scale: level k maps to k + 1.

        Margins above 1 widen the steps so the base stays feasible.
        """
        gap = max(1.0, epsilon)
        return cls(np.arange(n_levels, 0, -1, dtype=float) * gap, epsilon)


@dataclass
class IsotonicProblem:
    """Targets and nonnegative weights per position, highest level first."""

    targets: np.ndarray
    weights: np.ndarray
    epsilon: float = 0.0

    def __post_init__(self):
        self.targets = np.asarray(self.targets, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.targets.shape != self.weights.shape or self.targets.ndim != 1:
            raise ValueError("targets and weights must be 1-d and equal length")
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(self.weights > 0):
            raise ValueError("at least one weight must be strictly positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


def _pooled_value(div, t, w, delta):
    """Minimizer of sum_i w_i * D(q - delta_i || t_i) over q."""
    if isinstance(div, SquaredLoss):
        return float(np.sum(w * (t + delta)) / np.sum(w))
    if np.all(delta == delta[0]):
        # Uniform shift: stationarity gives grad_phi(q - d) = weighted
        # mean of grad_phi(t), solvable in closed form.
        pooled = div.grad_psi(np.sum(w * div.grad_phi(t)) / np.sum(w))
        return float(pooled + delta[0])
    target = np.sum(w * div.grad_phi(t))

    def score(q):
        return np.sum(w * div.grad_phi(np.maximum(q - delta, DOMAIN_TOL))) - target

    lo = float(np.max(delta)) + 10 * DOMAIN_TOL
    hi = float(np.max(t + delta))
    if hi <= lo:
        return lo
    if score(lo) >= 0:
        return lo
    return float(brentq(score, lo, hi, xtol=1e-13))


def fit_margin_isotonic(
    problem: IsotonicProblem, div: DivergenceSpec = SQUARED_LOSS
) -> RatingScaleTransform:
    """Minimize ``sum_k w_k * D(r_k || t_k)`` over margin-separated vectors.

    Returns the descending vector with gaps at least ``problem.epsilon``
    that best fits the targets under the given divergence; a one-row call
    of `fit_margin_isotonic_rows`.
    """
    values = fit_margin_isotonic_rows(
        problem.weights[None], problem.targets[None], problem.epsilon, div
    )
    return RatingScaleTransform(values[0], problem.epsilon)


def _fill_holes(values: np.ndarray, active: np.ndarray, eps: float) -> None:
    """Fill the inactive positions of (G, L) `values` in place.

    Interior holes interpolate linearly between their fitted neighbors, which
    keeps every margin (the neighbors differ by >= span * eps); end holes
    step away from the first or last active position by `eps`.
    """
    if active.all():
        return
    n = values.shape[1]
    cols = np.arange(n)
    left = np.maximum.accumulate(np.where(active, cols, -1), axis=1)
    right = np.where(active, cols, n)[:, ::-1]
    right = np.minimum.accumulate(right, axis=1)[:, ::-1]
    g, p = np.nonzero(~active)
    lo, hi = left[g, p], right[g, p]
    vlo, vhi = values[g, lo], values[g, hi % n]
    inner = vlo + (vhi - vlo) * (p - lo) / (hi - lo)
    inner = np.where(hi == n, vlo - eps * (p - lo), inner)
    values[g, p] = np.where(lo < 0, vhi + eps * (hi - p), inner)


def fit_margin_isotonic_rows(
    counts, targets, epsilon: float, div: DivergenceSpec = SQUARED_LOSS
) -> np.ndarray:
    """Margin-isotonic fits of G rows at once, (G, L) in and out.

    Row g minimizes ``sum_k counts[g, k] * D(r_k || targets[g, k])`` over
    vectors descending with gaps at least `epsilon`. Every row needs a
    positive count; zero-count positions are left out of the fit and filled
    by `_fill_holes`, which leaves the objective unchanged.
    """
    g, n = counts.shape
    rows = np.arange(g)[:, None]
    div.check_second(targets[counts > 0])
    # Left-justify each row's active positions; slot j holds the j-th one.
    pos = np.sort(np.where(counts > 0, np.arange(n), n), axis=1)
    slot = np.minimum(pos, n - 1)
    w, t = counts[rows, slot], targets[rows, slot]
    # Shift into the plain descending problem: q_k = r_k + k * eps.
    delta = pos.astype(float) * epsilon
    # cumsum adds left to right, as np.sum adds fewer than 8 terms; from 8
    # on np.sum adds pairwise, so longer scales and the other divergences
    # pool each block through `_pooled_value`.
    running_sums = isinstance(div, SquaredLoss) and n < 8
    x = w * (t + delta)

    # Per-row block stack: first slot and pooled value; `top` blocks.
    starts = np.zeros((g, n), dtype=np.int64)
    pooled = np.empty((g, n))
    top = np.zeros(g, dtype=np.int64)
    for j in range(n):
        live = np.flatnonzero(pos[:, j] < n)
        b = top[live]
        starts[live, b] = j
        pooled[live, b] = t[live, j] + delta[live, j]
        top[live] = b + 1
        while True:
            live = live[top[live] >= 2]
            b = top[live]
            live = live[pooled[live, b - 2] < pooled[live, b - 1]]
            if not live.size:
                break
            b = top[live] - 2
            first = starts[live, b]
            if running_sums:
                on = np.arange(j + 1) >= first[:, None]
                sx = np.cumsum(np.where(on, x[live, : j + 1], 0.0), axis=1)
                sw = np.cumsum(np.where(on, w[live, : j + 1], 0.0), axis=1)
                pooled[live, b] = sx[:, -1] / sw[:, -1]
            else:
                pooled[live, b] = [
                    _pooled_value(div, t[r, s:j + 1], w[r, s:j + 1], delta[r, s:j + 1])
                    for r, s in zip(live, first)
                ]
            top[live] -= 1

    # Each slot takes the value of the last block starting at or before it.
    owner = np.zeros((g, n), dtype=np.int64)
    gi, bi = np.nonzero(np.arange(n) < top[:, None])
    owner[gi, starts[gi, bi]] = bi
    fitted = pooled[rows, np.maximum.accumulate(owner, axis=1)] - delta

    values = np.zeros((g, n))
    gi, si = np.nonzero(pos < n)
    values[gi, pos[gi, si]] = fitted[gi, si]
    _fill_holes(values, counts > 0, epsilon)
    _check_margins(values, epsilon)
    return values

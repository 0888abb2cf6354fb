"""Alternating minimization drivers for scale-transform factorization.

Four modes, one loop. A transform step projects per-level prediction
averages onto the margin-separated descending set (globally, per user, or
per cluster of users), then a factorization step refits the factor rows
against the transformed targets. The clustered mode adds a relocation step
that reassigns each user to the cluster transform with the least divergence
before the other two steps run. MF is a frozen raw-vocabulary transform
with no transform phase, so its loop runs factor sweeps only. Every step is
an exact or guarded descent step, so the regularized objective never
increases.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .data import SparseRatingDataset
from .divergence import SQUARED_LOSS, DivergenceSpec
from .errors import DataError
from .factorization import (
    FactorModel,
    RegularizationConfig,
    _ObservationIndex,
    _scores,
    init_model,
    regularized_objective,
    solve_factors,
)
from .isotonic import RatingScaleTransform, _check_margins, fit_margin_isotonic_rows
# Unused here: the benchmark's tracer wraps it under this module's name.
from .isotonic import fit_margin_isotonic  # noqa: F401

MODES = ("1cmtrf", "ncmtrf", "kcmtrf", "mf")
# A phase whose objective rises by more than this share of the previous
# value breaks the descent guarantee and ends the fit.
RISE_RTOL = 1e-9
# Lloyd iterations per k-means run when seeding the clusters.
KMEANS_MAX_ITERS = 100


@dataclass
class TrainConfig:
    mode: str = "kcmtrf"
    n_clusters: int = 1
    rank: int = 10
    epsilon: float = 0.5
    reg: RegularizationConfig = field(default_factory=RegularizationConfig)
    div: DivergenceSpec = SQUARED_LOSS
    outer_max_iters: int = 100
    tol: float = 1e-4  # relative objective decrease that counts as converged
    inner_sweeps: int = 2  # factor sweeps per outer iteration
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be at least 1")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not np.isfinite(self.epsilon) or self.epsilon < 0:
            raise ValueError("epsilon must be finite and nonnegative")
        if not np.isfinite(self.tol) or self.tol <= 0:
            raise ValueError("tol must be finite and positive")
        if self.outer_max_iters < 1 or self.inner_sweeps < 1:
            raise ValueError("iteration counts must be at least 1")


@dataclass
class ClusterState:
    """Cluster index per user plus one transform row per cluster."""

    assignments: np.ndarray  # (n_users,)
    transforms: np.ndarray  # (n_clusters, n_levels), descending rows
    epsilon: float

    def __post_init__(self):
        self.assignments = np.asarray(self.assignments, dtype=np.int64)
        self.transforms = np.asarray(self.transforms, dtype=float)
        if self.transforms.ndim != 2 or not self.transforms.size or self.epsilon < 0:
            raise ValueError("need nonempty 2-d transforms and epsilon >= 0")
        k = self.transforms.shape[0]
        if not 1 <= k <= self.assignments.size:
            raise ValueError("need 1 <= n_clusters <= n_users")
        if self.assignments.min() < 0 or self.assignments.max() >= k:
            raise ValueError("assignment index out of range")
        _check_margins(self.transforms, self.epsilon)

    @property
    def n_clusters(self) -> int:
        return self.transforms.shape[0]


@dataclass
class FitResult:
    mode: str
    model: FactorModel
    transforms: np.ndarray | None  # (T, L); None for the plain-MF ablation
    assignments: np.ndarray | None  # (N,) transform row per user; None for MF
    epsilon: float
    trace: list  # dicts: {"iter", "phase", "objective"}
    stop_reason: str  # "tol", "max_iters" or "objective_increased"

    @property
    def converged(self) -> bool:
        """True when the relative objective decrease fell below ``tol``."""
        return self.stop_reason == "tol"

    @property
    def objective(self) -> float:
        return self.trace[-1]["objective"]

    def objective_values(self) -> np.ndarray:
        return np.asarray([rec["objective"] for rec in self.trace])

    def trace_jsonl(self) -> str:
        return "\n".join(json.dumps(rec) for rec in self.trace) + "\n"


def _level_means(keys, scores, n_groups: int, n_levels: int):
    """Counts and mean scores per key ``group * L + position``.

    Both results are (n_groups, n_levels); empty cells get a zero mean.
    """
    size = n_groups * n_levels
    counts = np.bincount(keys, minlength=size).astype(float)
    sums = np.bincount(keys, weights=scores, minlength=size)
    counts = counts.reshape(n_groups, n_levels)
    sums = sums.reshape(n_groups, n_levels)
    means = np.divide(sums, counts, out=np.zeros(counts.shape), where=counts > 0)
    return counts, means


class _TrainData:
    """Flat triplet arrays plus cached level and row bookkeeping."""

    def __init__(self, dataset: SparseRatingDataset):
        if dataset.n_levels < 2:
            raise DataError("rating scale needs at least two distinct levels")
        self.users = dataset.users
        self.items = dataset.items
        self.levels = dataset.levels
        self.n_users = dataset.n_users
        self.n_items = dataset.n_items
        self.n_levels = dataset.n_levels
        self.level_vocab = dataset.level_vocab
        # Transform rows are stored highest level first.
        self.positions = self.n_levels - 1 - self.levels
        self.index = _ObservationIndex(self.users, self.items)

    def scores(self, model: FactorModel) -> np.ndarray:
        return _scores(model, self.users, self.items)

    def grouped_aggregates(self, group_of_user, n_groups, scores):
        """Counts and mean scores per (group, position), both (n_groups, L)."""
        keys = group_of_user[self.users] * self.n_levels + self.positions
        return _level_means(keys, scores, n_groups, self.n_levels)


def _transform_rows(counts, means, eps, div, fallback) -> np.ndarray:
    """Fit a transform row per group; groups with no entries keep `fallback`."""
    rows = np.array(fallback, dtype=float, copy=True)
    used = np.flatnonzero((counts > 0).any(axis=1))
    fitted = fit_margin_isotonic_rows(
        counts[used], div.grad_psi(means[used]), eps, div
    )
    if div.positive_first_arg:
        # Positive-domain generators need positive transform values; a
        # uniform lift keeps the margins intact.
        low = fitted[:, -1:]
        fitted = np.where(low < 1e-6, fitted + (1e-6 - low), fitted)
    rows[used] = fitted
    return rows


def _assignment_costs(counts, means, transforms, div) -> np.ndarray:
    """Reduced divergence of each user's aggregates to each transform, (N, K).

    Terms are added lowest level first: near-tied users are decided by the
    rounding of that order.
    """
    terms = counts[:, None] * div.gap_terms(transforms[None], means[:, None])
    return np.sum(terms[..., ::-1], axis=2)


def _targets(transforms, owner, data) -> np.ndarray:
    return transforms[owner[data.users], data.positions]


def _kmeans(points: np.ndarray, k: int, rng):
    """Seeded Lloyd iteration with k-means++ seeding.

    Empty clusters are reseeded to the point farthest from its center.
    Returns (centers, labels).
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[rng.integers(n)]
    closest = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j:] = points[rng.integers(n, size=k - j)]
            break
        centers[j] = points[rng.choice(n, p=closest / total)]
        closest = np.minimum(
            closest, np.sum((points - centers[j]) ** 2, axis=1)
        )

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITERS):
        dist = np.sum(
            (points[:, None, :] - centers[None, :, :]) ** 2, axis=2
        )
        new_labels = dist.argmin(axis=1)
        for j in range(k):
            members = new_labels == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                assigned = dist[np.arange(n), new_labels]
                worst = np.argmax(assigned)
                if assigned[worst] > 0:
                    centers[j] = points[worst]
                    new_labels[worst] = j
                # All points coincide with their centers: the cluster
                # stays empty (duplicate center) for downstream repair.
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return centers, labels


def init_clusters(
    dataset: SparseRatingDataset, config: TrainConfig, n_result: FitResult
) -> ClusterState:
    """Cluster the per-user transforms of `n_result`, a per-user fit.

    Runs k-means on the N transform vectors. Cluster centers are convex
    combinations of feasible transforms and hence feasible themselves,
    which constructing the state re-asserts.
    """
    k = config.n_clusters
    if k > dataset.n_users:
        raise ValueError("more clusters than users")
    points = n_result.transforms
    distinct = np.unique(points, axis=0).shape[0]
    if k > distinct:
        warnings.warn(
            f"{k} clusters requested but only {distinct} distinct "
            "transforms; duplicate centers will occur"
        )
    rng = np.random.default_rng([config.seed, 1])
    centers, labels = _kmeans(points, k, rng)
    return ClusterState(labels, centers, config.epsilon)


class _Tracer:
    def __init__(self):
        self.records = []
        self.rise = None  # the first record whose objective rose

    def add(self, iteration, phase, objective, **extra):
        record = {
            "iter": int(iteration),
            "phase": phase,
            "objective": float(objective),
        }
        record.update(extra)
        if self.records and self.rise is None:
            prev = self.last
            if record["objective"] > prev + RISE_RTOL * abs(prev):
                self.rise = record
        self.records.append(record)

    @property
    def last(self):
        return self.records[-1]["objective"]

    def stop_reason(self, mode, prev_objective, stable, tol):
        """Why the loop ends after the latest iteration, or None to go on."""
        if self.rise is not None:
            warnings.warn(
                f"{mode}: objective rose in the {self.rise['phase']} phase of "
                f"iteration {self.rise['iter']}; stopping",
                RuntimeWarning,
            )
            return "objective_increased"
        drop = prev_objective - self.last
        if stable and drop < tol * max(abs(prev_objective), 1e-12):
            return "tol"
        return None


def _base_rows(n_rows: int, n_levels: int, eps: float) -> np.ndarray:
    base = RatingScaleTransform.base(n_levels, eps).values
    return np.tile(base, (n_rows, 1))


def _relocate(data: _TrainData, transforms, scores, div, eps) -> np.ndarray:
    """Assign each user to the least-divergence transform row.

    The i-th empty cluster is revived on the i-th worst-fit user, whose own
    optimal transform replaces that empty row of `transforms` in place;
    giving a user its own optimal transform cannot increase the objective.
    """
    counts, means = data.grouped_aggregates(
        np.arange(data.n_users), data.n_users, scores
    )
    costs = _assignment_costs(counts, means, transforms, div)
    assignments = costs.argmin(axis=1)
    present = np.bincount(assignments, minlength=transforms.shape[0])
    empty = np.flatnonzero(present == 0)
    if empty.size:
        assigned_cost = costs[np.arange(data.n_users), assignments]
        users = np.argsort(-assigned_cost)[: empty.size]
        transforms[empty] = _transform_rows(
            counts[users], means[users], eps, div, transforms[empty]
        )
        assignments[users] = empty
    return assignments


def _run_alternating(
    data: _TrainData,
    config: TrainConfig,
    owner: np.ndarray,
    transforms: np.ndarray,
    model: FactorModel | None,
    relocate: bool,
) -> FitResult:
    """The shared outer loop; `owner` maps users to transform rows.

    The loop holds the per-entry targets and the model's scores, which
    every phase reads, and refreshes each only when one of its inputs
    changes. In mode ``mf`` the transforms stay frozen: the loop skips the
    warm-up factorization and the transform phase, and the result carries
    no transforms. Otherwise the result's `assignments` is the final `owner`.
    """
    div, reg, eps = config.div, config.reg, config.epsilon
    transform_phase = config.mode != "mf"
    if model is None:
        model = init_model(data.n_users, data.n_items, config.rank, config.seed)
    trace = _Tracer()
    targets = _targets(transforms, owner, data)
    scores = data.scores(model)

    def record(it, phase, **extra):
        objective = regularized_objective(
            data.index, targets, scores, model, reg, div
        )
        trace.add(it, phase, objective, **extra)

    def factorize():
        nonlocal model, scores
        model = solve_factors(
            data.users,
            data.items,
            targets,
            model,
            reg,
            div,
            sweeps=config.inner_sweeps,
            index=data.index,
        )
        scores = data.scores(model)

    record(0, "init")
    if transform_phase:
        factorize()
        record(0, "factorize")

    stop_reason = "max_iters"
    for it in range(1, config.outer_max_iters + 1):
        prev_objective = trace.last
        moved = 0

        if transform_phase:
            if relocate:
                prev_owner = owner
                owner = _relocate(data, transforms, scores, div, eps)
                targets = _targets(transforms, owner, data)
                moved = int((owner != prev_owner).sum())
                record(it, "assign", changes=moved)
            group_counts, group_means = data.grouped_aggregates(
                owner, transforms.shape[0], scores
            )
            transforms = _transform_rows(
                group_counts, group_means, eps, div, transforms
            )
            targets = _targets(transforms, owner, data)
            record(it, "transform")

        factorize()
        record(it, "factorize")

        reason = trace.stop_reason(
            config.mode, prev_objective, moved == 0, config.tol
        )
        if reason is not None:
            stop_reason = reason
            break

    return FitResult(
        mode=config.mode,
        model=model,
        transforms=transforms if transform_phase else None,
        assignments=owner if transform_phase else None,
        epsilon=eps,
        trace=trace.records,
        stop_reason=stop_reason,
    )


def fit_1cmtrf(
    dataset: SparseRatingDataset,
    config: TrainConfig,
    init: FactorModel | None = None,
) -> FitResult:
    """One shared transform for every user."""
    data = _TrainData(dataset)
    cfg = replace(config, mode="1cmtrf")
    transforms = _base_rows(1, data.n_levels, cfg.epsilon)
    owner = np.zeros(data.n_users, dtype=np.int64)
    return _run_alternating(data, cfg, owner, transforms, init, False)


def fit_ncmtrf(
    dataset: SparseRatingDataset,
    config: TrainConfig,
    init: FactorModel | None = None,
) -> FitResult:
    """An individual transform per user."""
    data = _TrainData(dataset)
    cfg = replace(config, mode="ncmtrf")
    transforms = _base_rows(data.n_users, data.n_levels, cfg.epsilon)
    owner = np.arange(data.n_users, dtype=np.int64)
    return _run_alternating(data, cfg, owner, transforms, init, False)


def fit_kcmtrf(
    dataset: SparseRatingDataset,
    config: TrainConfig,
    init_state: ClusterState | None = None,
    init: FactorModel | None = None,
    freeze_assignments: bool = False,
) -> FitResult:
    """K cluster-shared transforms with iterative relocation.

    Without an explicit `init_state`, a per-user fit seeds the clusters via
    k-means on its transforms and its factor model carries over. With one
    cluster this collapses to the shared-transform mode and runs its exact
    trajectory.
    """
    data = _TrainData(dataset)
    cfg = replace(config, mode="kcmtrf")
    k = cfg.n_clusters
    if not 1 <= k <= data.n_users:
        raise ValueError("need 1 <= n_clusters <= n_users")

    if init_state is None:
        if k == 1:
            transforms = _base_rows(1, data.n_levels, cfg.epsilon)
            assignments = np.zeros(data.n_users, dtype=np.int64)
        else:
            n_result = fit_ncmtrf(dataset, config, init=init)
            state = init_clusters(dataset, cfg, n_result=n_result)
            transforms, assignments = state.transforms, state.assignments
            init = n_result.model
    else:
        if init_state.n_clusters != k:
            raise ValueError("init_state cluster count differs from config")
        if init_state.assignments.size != data.n_users:
            raise ValueError("init_state sized for a different user set")
        transforms = init_state.transforms.copy()
        assignments = init_state.assignments.copy()

    relocate = not freeze_assignments and k > 1
    return _run_alternating(data, cfg, assignments, transforms, init, relocate)


def fit_mf(
    dataset: SparseRatingDataset,
    config: TrainConfig,
    init: FactorModel | None = None,
) -> FitResult:
    """Plain factorization of the raw rating values; the no-transform ablation."""
    data = _TrainData(dataset)
    transforms = data.level_vocab[::-1][None, :]
    owner = np.zeros(data.n_users, dtype=np.int64)
    cfg = replace(config, mode="mf")
    return _run_alternating(data, cfg, owner, transforms, init, False)


def fit(dataset: SparseRatingDataset, config: TrainConfig) -> FitResult:
    """Dispatch on ``config.mode``."""
    return {
        "1cmtrf": fit_1cmtrf,
        "ncmtrf": fit_ncmtrf,
        "kcmtrf": fit_kcmtrf,
        "mf": fit_mf,
    }[config.mode](dataset, config)

"""Regularized low-rank factorization over observed entries.

Users and items get factor rows of a shared rank; a prediction is the inner
product of the two rows. Fitting alternates between the two sides. Within a
half-sweep every row of one side depends only on the other side's factors,
so for squared loss all of that side's ridge problems are solved at once:
rows are padded into blocks by observation count and each block's normal
equations go to one stacked solve. The other divergences take a damped
gradient step with backtracking per row. Either way each half-sweep never
increases the regularized objective. An :class:`_ObservationIndex`, built
once per fit, holds the per-row groupings every sweep and objective reuses.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergence import SQUARED_LOSS, DivergenceSpec, SquaredLoss

# Added to the ridge diagonal when a regularizer is exactly zero, so the
# normal equations stay nonsingular for rank-deficient neighborhoods.
RIDGE_FLOOR = 1e-10

# Cap on the entries whose factor rows are gathered at once: the padded
# entries (rows x width) of one block of the stacked ridge solve, or one
# chunk of scores. It bounds the scratch arrays whatever the data size: one
# (B, w, d) gather is at most 0.66 MB at d = 10.
BLOCK_ENTRIES = 1 << 13


@dataclass
class FactorModel:
    """User factors (N x d) and item factors (M x d)."""

    user_factors: np.ndarray
    item_factors: np.ndarray

    def __post_init__(self):
        self.user_factors = np.asarray(self.user_factors, dtype=float)
        self.item_factors = np.asarray(self.item_factors, dtype=float)
        if self.user_factors.ndim != 2 or self.item_factors.ndim != 2:
            raise ValueError("factor matrices must be 2-d")
        if self.user_factors.shape[1] != self.item_factors.shape[1]:
            raise ValueError("user and item factors must share the rank")
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if not (
            np.isfinite(self.user_factors).all()
            and np.isfinite(self.item_factors).all()
        ):
            raise ValueError("factors must be finite")

    @property
    def n_users(self) -> int:
        return self.user_factors.shape[0]

    @property
    def n_items(self) -> int:
        return self.item_factors.shape[0]

    @property
    def rank(self) -> int:
        return self.user_factors.shape[1]

    def copy(self) -> "FactorModel":
        return FactorModel(self.user_factors.copy(), self.item_factors.copy())


@dataclass
class RegularizationConfig:
    lambda_u: float = 0.0
    lambda_v: float = 0.0

    def __post_init__(self):
        for name in ("lambda_u", "lambda_v"):
            val = getattr(self, name)
            if not np.isfinite(val) or val < 0:
                raise ValueError(f"{name} must be finite and nonnegative")


def init_model(
    n_users: int, n_items: int, rank: int, seed: int = 0, scale: float = 0.1
) -> FactorModel:
    """Seeded Gaussian initialization with small standard deviation.

    Training models keep the rank at or below min(n_users, n_items) so the
    factorization genuinely constrains the score matrix's rank.
    """
    if rank > min(n_users, n_items):
        raise ValueError("rank exceeds min(n_users, n_items)")
    rng = np.random.default_rng(seed)
    return FactorModel(
        rng.normal(0.0, scale, size=(n_users, rank)),
        rng.normal(0.0, scale, size=(n_items, rank)),
    )


def _check_index(idx: np.ndarray, bound: int, what: str) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise IndexError(f"{what} index out of range [0, {bound})")


def predict_scores(model: FactorModel, pairs) -> np.ndarray:
    """Inner-product scores for an array-like of (user, item) pairs."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        return np.empty(0)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (n, 2)")
    users, items = pairs[:, 0], pairs[:, 1]
    _check_index(users, model.n_users, "user")
    _check_index(items, model.n_items, "item")
    return _scores(model, users, items)


def _scores(model, users, items):
    """Inner products of paired factor rows, BLOCK_ENTRIES pairs at a time."""
    out = np.empty(users.size)
    for lo in range(0, users.size, BLOCK_ENTRIES):
        hi = lo + BLOCK_ENTRIES
        out[lo:hi] = np.einsum(
            "ij,ij->i",
            model.user_factors.take(users[lo:hi], axis=0),
            model.item_factors.take(items[lo:hi], axis=0),
        )
    return out


class _SideIndex:
    """One side's entries grouped by row.

    `order` sorts the entries stably by row; row `rows[r]` owns the entries
    ``order[starts[r]:starts[r] + counts[r]]``. `rows` is sorted, so it is
    also the side's set of observed rows. `blocks` covers the same rows for
    the stacked solve: rows with more than w/2 and at most w entries share
    the power-of-two width w, and each block holds the row ids, a (B, w)
    array of entry ids padded with the row's first entry, and the (B, w)
    mask of real entries, with B * w at most BLOCK_ENTRIES unless a single
    row is wider.
    """

    def __init__(self, keys: np.ndarray):
        id_type = np.int32 if keys.size < 2**31 else np.int64
        # Sorting the keys in their smallest dtype lets the stable sort use
        # radix sort when they fit 16 bits.
        key_type = np.result_type(
            np.min_scalar_type(keys.min(initial=0)),
            np.min_scalar_type(keys.max(initial=0)),
        )
        order = np.argsort(keys.astype(key_type), kind="stable").astype(id_type)
        rows, starts, counts = np.unique(
            keys[order], return_index=True, return_counts=True
        )
        self.order = order
        self.rows = rows
        self.starts = starts.astype(id_type)
        self.counts = counts.astype(id_type)
        self.blocks = []
        # The next power of two at or above each count.
        widths = np.int64(1) << np.frexp(counts - 1)[1]
        for width in np.unique(widths):
            members = np.flatnonzero(widths == width)
            offsets = np.arange(width, dtype=id_type)
            per_block = max(1, BLOCK_ENTRIES // int(width))
            for lo in range(0, members.size, per_block):
                sel = members[lo : lo + per_block]
                valid = offsets < self.counts[sel, None]
                entries = order[self.starts[sel, None] + offsets * valid]
                self.blocks.append((rows[sel], entries, valid))


class _ObservationIndex:
    """Per-fit groupings of the observed entries by user and by item.

    Build it once from the parallel `users` and `items` arrays and pass it
    to :func:`solve_factors` and :func:`regularized_objective` with every
    set of targets on those entries.
    """

    def __init__(self, users: np.ndarray, items: np.ndarray):
        self.n_entries = users.size
        self.users = _SideIndex(users)
        self.items = _SideIndex(items)


def _index_for(users, items, index):
    if index is None:
        return _ObservationIndex(users, items)
    if index.n_entries != users.size:
        raise ValueError("index was built for a different set of entries")
    return index


def regularized_objective(
    users: np.ndarray,
    items: np.ndarray,
    targets: np.ndarray,
    model: FactorModel,
    reg: RegularizationConfig,
    div: DivergenceSpec = SQUARED_LOSS,
    index: _ObservationIndex | None = None,
) -> float:
    """Observed-entry loss plus squared-norm penalties on touched rows.

    Rows without any observation stay at their initialization and are
    excluded from the penalty. `index`, when given, must be built from
    these `users` and `items`; it saves regrouping them.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    index = _index_for(users, items, index)
    scores = _scores(model, users, items)
    loss = div.gap(targets, scores)
    loss += 0.5 * reg.lambda_u * float(
        np.sum(model.user_factors[index.users.rows] ** 2)
    )
    loss += 0.5 * reg.lambda_v * float(
        np.sum(model.item_factors[index.items.rows] ** 2)
    )
    return float(loss)


def _ridge_sweep(side, other_keys, other, targets, out, lam):
    """Exact ridge update of every observed row of `out`, one block at a time.

    The rows of a side are independent given `other`, so each block's
    normal equations are formed with batched matmuls and solved together.
    Padding entries gather a zero row appended to `other`, so they add
    nothing to either side of the equations.
    """
    padded = np.vstack([other, np.zeros((1, other.shape[1]))])
    diag = np.arange(other.shape[1])
    for rows, entries, valid in side.blocks:
        keys = np.where(valid, other_keys.take(entries), other.shape[0])
        gathered = padded.take(keys, axis=0)  # (B, w, d)
        lhs = gathered.transpose(0, 2, 1)
        gram = lhs @ gathered
        gram[:, diag, diag] += lam if lam > 0 else RIDGE_FLOOR
        rhs = lhs @ targets.take(entries)[..., None]
        out[rows] = np.linalg.solve(gram, rhs)[..., 0]


def _descent_row(div, other_rows, targets, row, lam, max_backtracks=30):
    """One damped gradient step that never increases the row objective."""

    def row_obj(r):
        return div.gap(targets, other_rows @ r) + 0.5 * lam * float(r @ r)

    scores = other_rows @ row
    grad = other_rows.T @ (div.grad_psi(scores) - targets) + lam * row
    base = row_obj(row)
    step = 1.0 / (1.0 + float(np.linalg.norm(grad)))
    for _ in range(max_backtracks):
        cand = row - step * grad
        if row_obj(cand) <= base:
            return cand
        step *= 0.5
    return row


def _descent_sweep(side, other_keys, other, targets, out, lam, div):
    """A guarded gradient step on every observed row of `out`, row by row."""
    for row, start, count in zip(side.rows, side.starts, side.counts):
        entry_ids = side.order[start : start + count]
        out[row] = _descent_row(
            div, other[other_keys[entry_ids]], targets[entry_ids], out[row], lam
        )


def solve_factors(
    users: np.ndarray,
    items: np.ndarray,
    targets: np.ndarray,
    init: FactorModel,
    reg: RegularizationConfig,
    div: DivergenceSpec = SQUARED_LOSS,
    sweeps: int = 1,
    index: _ObservationIndex | None = None,
) -> FactorModel:
    """Alternating row updates fitting `targets` on the observed entries.

    `users`, `items`, and `targets` are parallel arrays of the observed
    (user, item, target) triplets. Each sweep updates every user row with
    the item factors fixed, then every item row. With squared loss a
    half-sweep gives every row of the side its exact ridge minimizer in one
    stacked solve per block of rows; the other divergences take a guarded
    gradient step per row. Either way the regularized objective never
    increases versus `init`. Rows without observations keep their `init`
    values. `index`, when given, must be built from these `users` and
    `items`; it saves regrouping them on every call.
    """
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    targets = np.asarray(targets, dtype=float)
    if not (users.shape == items.shape == targets.shape):
        raise ValueError("users, items, targets must be parallel 1-d arrays")
    _check_index(users, init.n_users, "user")
    _check_index(items, init.n_items, "item")
    if not np.isfinite(targets).all():
        raise ValueError("targets must be finite")
    div.check_first(targets)
    index = _index_for(users, items, index)

    model = init.copy()
    U, V = model.user_factors, model.item_factors
    for _ in range(sweeps):
        if isinstance(div, SquaredLoss):
            _ridge_sweep(index.users, items, V, targets, U, reg.lambda_u)
            _ridge_sweep(index.items, users, U, targets, V, reg.lambda_v)
        else:
            _descent_sweep(index.users, items, V, targets, U, reg.lambda_u, div)
            _descent_sweep(index.items, users, U, targets, V, reg.lambda_v, div)
    return model


def save_model(model: FactorModel, path) -> None:
    """Write a text checkpoint.

    Layout: first line ``rank n_users n_items``, then one line per user row
    and one per item row, each a space-separated list of the row's factors
    at 17 significant digits (lossless for float64).
    """
    with open(path, "w") as fh:
        fh.write(f"{model.rank} {model.n_users} {model.n_items}\n")
        for row in model.user_factors:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        for row in model.item_factors:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_model(path) -> FactorModel:
    """Read a checkpoint written by :func:`save_model`."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 3:
            raise ValueError(f"malformed checkpoint header in {path}")
        rank, n_users, n_items = (int(v) for v in header)
        rows = [
            np.array(fh.readline().split(), dtype=float)
            for _ in range(n_users + n_items)
        ]
    data = np.vstack(rows)
    if data.shape != (n_users + n_items, rank):
        raise ValueError(f"checkpoint shape mismatch in {path}")
    return FactorModel(data[:n_users], data[n_users:])

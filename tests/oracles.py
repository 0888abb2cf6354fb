"""Independent reference solvers used to cross-check the library.

The margin-isotonic oracles solve the margin-constrained weighted
least-squares problem

    min_r  0.5 * sum_k w_k (r_k - t_k)^2   s.t.  r_k >= r_{k+1} + eps

through the reparameterization r_k = b + sum_{j>=k} g_j with g_j >= eps,
which turns the chain constraints into simple bounds. One oracle runs
accelerated projected gradient descent; the other enumerates every active
set of the bound constraints and solves the resulting least-squares
systems exactly. Neither shares any code with the library's solver.

`ridge_als_loop` is the per-row ridge ALS that the library's stacked
solve replaced: one normal-equation solve per observed row, rows visited in
order, users first and then items in each sweep.

`mf_loop` is the plain-MF outer loop that `fit_mf` ran before the ablation
went through the shared alternating loop: factor sweeps against the raw
rating values, with the same trace and stop rule.

`predict_loop` is the per-owner prediction loop that `predict_ratings` ran
before it grouped pairs with one sort: a full-length mask per owner.
`build_inverse` and `InverseTransform` are the inverse as it was built
before it became a plain interpolating callable over a descending row: it
also took a `RatingScaleTransform` and returned a checked knot object.

`margin_isotonic_blocks` is the PAV sweep that `fit_margin_isotonic` ran
before it kept its blocks as a start/value stack: each block a member list.
`level_aggregates`, `solve_transform_row_reversed`, `assignment_costs_loop`
and `relocate_loop` are the transform and relocation steps as they ran
before the aggregates were keyed on transform positions: lowest level first,
reversed for every fitted or priced row, one cost column per cluster and one
`argsort` per empty cluster.

`transform_rows_loop` and `relocate_per_cluster` are the transform step
and the relocation step as they ran before every row went through one
batched PAV pass: one `solve_transform_row` per group with entries and one
per revived cluster. `solve_transform_row` is the per-row fit they called,
with `margin_isotonic_blocks` in place of the per-problem PAV stack.
`patch_per_row_transform_step` runs every fit through both.

`load_triplets_two_pass` is the ratings-file parser as it was before it
read the file in one pass: it keeps every row's label strings and a
`None` for each missing timestamp, checks timestamp presence after the
loop (reading the file again for the line number), and sorts every row's
label to number the labels.

`rescoring_loop` is the outer loop as it ran before it held its targets and
scores: every trace record gathers the targets again and scores the model
again through `rescoring_objective`, and each iteration scores the model
once more for the transform step. `ridge_sweep_rekeyed` is the stacked
ridge sweep as it ran before each block stored its padded keys: it looks up
the other side's keys of every block in every sweep. `patch_rescoring_loop`
runs every fit through both.
"""
import itertools
import math
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from cmtrf import core, factorization
from cmtrf.data import _DELIMS, SparseRatingDataset
from cmtrf.errors import DataError
from cmtrf.isotonic import IsotonicProblem, RatingScaleTransform, _pooled_value


def _design(n):
    """Map (b, g) to r: columns are the constant and the gap indicators."""
    J = np.zeros((n, n))
    J[:, 0] = 1.0
    for k in range(n):
        J[k, 1 + k :] = 1.0  # r_k includes gaps g_k .. g_{n-2}
    return J[:, : n]  # n variables: b plus n-1 gaps


def sl_objective(r, targets, weights):
    r = np.asarray(r, dtype=float)
    return 0.5 * float(np.sum(weights * (r - targets) ** 2))


def margin_isotonic_pg(targets, weights, epsilon, iters=5000):
    """Projected-gradient (FISTA) solution of the margin-isotonic QP.

    `targets` and `weights` are (n,) or a (B, n) batch of instances of one
    length, and `epsilon` a scalar or one per instance. Each instance takes
    its own step and stops on its own rule.
    """
    t = np.atleast_2d(np.asarray(targets, dtype=float))
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    eps = np.broadcast_to(np.asarray(epsilon, dtype=float), t.shape[:1])
    n = t.shape[1]
    J = _design(n)
    H = J.T @ (w[:, :, None] * J)
    step = 1.0 / np.maximum(np.linalg.eigvalsh(H).max(axis=1), 1e-12)

    def project(v):
        out = v.copy()
        out[:, 1:] = np.maximum(out[:, 1:], eps[:, None])
        return out

    v = project(np.zeros(t.shape))
    v[:, 0] = t[:, -1]
    y = v.copy()
    t_acc = 1.0
    running = np.ones(t.shape[0], dtype=bool)
    for _ in range(iters):
        grad = (w * (y @ J.T - t)) @ J
        v_next = project(y - step[:, None] * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        y_next = v_next + ((t_acc - 1.0) / t_next) * (v_next - v)
        moving = np.max(np.abs(v_next - v), axis=1) >= 1e-14
        v[running] = v_next[running]
        y[running] = y_next[running]
        running &= moving
        if not running.any():
            break
        t_acc = t_next
    r = v @ J.T
    return r if np.ndim(targets) == 2 else r[0]


def margin_isotonic_enum(targets, weights, epsilon):
    """Exact solution by enumerating active sets of the gap bounds."""
    t = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = t.size
    J = _design(n)
    sqw = np.sqrt(w)
    best_r, best_obj = None, np.inf
    for active in itertools.product([False, True], repeat=n - 1):
        active = np.asarray(active)
        free_cols = np.concatenate([[True], ~active])
        offset = J[:, 1:][:, active].sum(axis=1) * epsilon
        A = sqw[:, None] * J[:, free_cols]
        b = sqw * (t - offset)
        sol, *_ = np.linalg.lstsq(A, b, rcond=None)
        gaps = np.full(n - 1, epsilon)
        gaps[~active] = sol[1:]
        if np.any(gaps < epsilon - 1e-9):
            continue
        r = J @ np.concatenate([[sol[0]], gaps])
        obj = sl_objective(r, t, w)
        if obj < best_obj:
            best_obj, best_r = obj, r
    return best_r


def _ridge_row(other_rows, targets, lam, floor):
    d = other_rows.shape[1]
    gram = other_rows.T @ other_rows
    gram[np.diag_indices(d)] += lam if lam > 0 else floor
    return np.linalg.solve(gram, other_rows.T @ targets)


def ridge_als_loop(users, items, targets, init, reg, sweeps=1, floor=1e-10):
    """Squared-loss ALS, one ridge solve per observed row; returns (U, V)."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    targets = np.asarray(targets, dtype=float)
    U = init.user_factors.copy()
    V = init.item_factors.copy()
    for _ in range(sweeps):
        for keys, other_keys, out, other, lam in (
            (users, items, U, V, reg.lambda_u),
            (items, users, V, U, reg.lambda_v),
        ):
            for row in np.unique(keys):
                ids = np.flatnonzero(keys == row)
                out[row] = _ridge_row(
                    other[other_keys[ids]], targets[ids], lam, floor
                )
    return U, V


def mf_loop(dataset, config, init=None):
    """Plain factorization of the raw rating values, as its own outer loop."""
    data = core._TrainData(dataset)
    cfg = replace(config, mode="mf")
    targets = data.level_vocab[data.levels]
    model = init if init is not None else core.init_model(
        data.n_users, data.n_items, cfg.rank, cfg.seed
    )

    def objective(mdl):
        return core.regularized_objective(
            data.index, targets, data.scores(mdl), mdl, cfg.reg, cfg.div
        )

    trace = core._Tracer()
    trace.add(0, "init", objective(model))
    stop_reason = "max_iters"
    for it in range(1, cfg.outer_max_iters + 1):
        prev = trace.last
        model = core.solve_factors(
            data.users, data.items, targets, model, cfg.reg, cfg.div,
            sweeps=cfg.inner_sweeps, index=data.index,
        )
        trace.add(it, "factorize", objective(model))
        reason = trace.stop_reason("mf", prev, True, cfg.tol)
        if reason is not None:
            stop_reason = reason
            break
    return core.FitResult(
        mode="mf",
        model=model,
        transforms=None,
        assignments=None,
        epsilon=cfg.epsilon,
        trace=trace.records,
        stop_reason=stop_reason,
    )


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


def predict_loop(scores, transforms, owner, level_vocab):
    """Each pair's score through its owner's inverse, one mask per owner."""
    out = np.empty_like(scores)
    for row in np.unique(owner):
        inverse = build_inverse(transforms[row], level_vocab)
        mask = owner == row
        out[mask] = inverse(scores[mask])
    return out


def margin_isotonic_blocks(problem, div):
    """Margin-isotonic PAV whose blocks carry their member lists."""
    t_all, w_all, eps = problem.targets, problem.weights, problem.epsilon
    n = t_all.size
    active = np.flatnonzero(w_all > 0)
    t = t_all[active]
    w = w_all[active]
    div.check_second(t)
    delta = active.astype(float) * eps

    blocks = []  # [members, value] pairs
    for idx in range(active.size):
        blocks.append([[idx], float(t[idx] + delta[idx])])
        while len(blocks) >= 2 and blocks[-2][1] < blocks[-1][1]:
            members = blocks[-2][0] + blocks[-1][0]
            mem = np.asarray(members)
            blocks[-2:] = [
                [members, _pooled_value(div, t[mem], w[mem], delta[mem])]
            ]

    q = np.empty(active.size)
    for members, value in blocks:
        q[members] = value
    values = np.empty(n)
    values[active] = q - delta
    for left, right in zip(active[:-1], active[1:]):
        span = right - left
        if span > 1:
            steps = np.arange(1, span)
            values[left + 1 : right] = (
                values[left] + (values[right] - values[left]) * steps / span
            )
    first, last = active[0], active[-1]
    if first > 0:
        values[:first] = values[first] + eps * np.arange(first, 0, -1)
    if last < n - 1:
        values[last + 1 :] = values[last] - eps * np.arange(1, n - last)
    return RatingScaleTransform(values, eps)


def level_aggregates(data, group_of_user, n_groups, scores):
    """Counts and mean scores per (group, level), lowest level first."""
    keys = group_of_user[data.users] * data.n_levels + data.levels
    return core._level_means(keys, scores, n_groups, data.n_levels)


def solve_transform_row_reversed(counts, means, eps, div):
    """One transform row from level-order counts and means, reversed to fit."""
    targets_level = np.zeros_like(means)
    used = counts > 0
    targets_level[used] = div.grad_psi(means[used])
    problem = IsotonicProblem(
        targets_level[::-1].copy(), counts[::-1].copy(), eps
    )
    row = margin_isotonic_blocks(problem, div).values
    if div.positive_first_arg and row[-1] < 1e-6:
        row = row + (1e-6 - row[-1])
    return row


def assignment_costs_loop(counts, means, transforms, div):
    """Level-order aggregates priced against each transform row in turn."""
    costs = np.empty((counts.shape[0], transforms.shape[0]))
    for k, row in enumerate(transforms):
        terms = div.gap_terms(row[::-1], means)
        costs[:, k] = np.sum(counts * terms, axis=1)
    return costs


def relocate_loop(data, transforms, scores, div, eps):
    """Least-cost assignment; each empty cluster sorts the costs again."""
    counts, means = level_aggregates(
        data, np.arange(data.n_users), data.n_users, scores
    )
    costs = assignment_costs_loop(counts, means, transforms, div)
    assignments = costs.argmin(axis=1)
    present = np.bincount(assignments, minlength=transforms.shape[0])
    if (present == 0).any():
        assigned_cost = costs[np.arange(data.n_users), assignments]
        taken = set()
        for k in np.flatnonzero(present == 0):
            order = np.argsort(-assigned_cost)
            u = next(int(i) for i in order if int(i) not in taken)
            taken.add(u)
            transforms[k] = solve_transform_row_reversed(
                counts[u], means[u], eps, div
            )
            assignments[u] = k
            assigned_cost[u] = 0.0
    return assignments


def solve_transform_row(counts, means, eps, div):
    """Fit one transform row from position-order counts and score means."""
    targets = np.zeros_like(means)
    used = counts > 0
    targets[used] = div.grad_psi(means[used])
    problem = IsotonicProblem(targets, counts, eps)
    row = margin_isotonic_blocks(problem, div).values
    if div.positive_first_arg and row[-1] < 1e-6:
        # Positive-domain generators need positive transform values; a
        # uniform lift keeps the margins intact.
        row = row + (1e-6 - row[-1])
    return row


def transform_rows_loop(counts, means, eps, div, fallback):
    """Fit a transform row per group; groups with no entries keep `fallback`."""
    rows = np.array(fallback, dtype=float, copy=True)
    for g in range(counts.shape[0]):
        if counts[g].sum() > 0:
            rows[g] = solve_transform_row(counts[g], means[g], eps, div)
    return rows


def relocate_per_cluster(data, transforms, scores, div, eps):
    """Least-cost assignment; each empty cluster fits its own row."""
    counts, means = data.grouped_aggregates(
        np.arange(data.n_users), data.n_users, scores
    )
    costs = core._assignment_costs(counts, means, transforms, div)
    assignments = costs.argmin(axis=1)
    present = np.bincount(assignments, minlength=transforms.shape[0])
    if (present == 0).any():
        assigned_cost = costs[np.arange(data.n_users), assignments]
        worst = np.argsort(-assigned_cost)
        for k, u in zip(np.flatnonzero(present == 0), worst):
            transforms[k] = solve_transform_row(counts[u], means[u], eps, div)
            assignments[u] = k
    return assignments


def patch_per_row_transform_step(monkeypatch):
    """Run `cmtrf.core`'s transform and relocation steps one row at a time."""
    monkeypatch.setattr(core, "_transform_rows", transform_rows_loop)
    monkeypatch.setattr(core, "_relocate", relocate_per_cluster)


def patch_level_order_transform_step(monkeypatch):
    """Run `cmtrf.core`'s transform and relocation steps as the loops above."""
    monkeypatch.setattr(core._TrainData, "grouped_aggregates", level_aggregates)
    monkeypatch.setattr(
        sys.modules[__name__], "solve_transform_row", solve_transform_row_reversed
    )
    monkeypatch.setattr(core, "_transform_rows", transform_rows_loop)
    monkeypatch.setattr(core, "_relocate", relocate_loop)


def rescoring_objective(users, items, targets, model, reg, div, index):
    """Observed-entry loss plus penalties, scoring `model` on every call."""
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    scores = factorization._scores(model, users, items)
    loss = div.gap(targets, scores)
    loss += 0.5 * reg.lambda_u * float(
        np.sum(model.user_factors[index.users.rows] ** 2)
    )
    loss += 0.5 * reg.lambda_v * float(
        np.sum(model.item_factors[index.items.rows] ** 2)
    )
    return float(loss)


def rescoring_loop(data, config, owner, transforms, model, relocate):
    """The shared outer loop, gathering targets and scores per record.

    Its stop rule compares the assignments before and after each relocation,
    and it returns `owner` as the assignments of every transform fit.
    """
    div, reg, eps = config.div, config.reg, config.epsilon
    assignments = owner if relocate else None
    transform_phase = config.mode != "mf"
    if model is None:
        model = core.init_model(
            data.n_users, data.n_items, config.rank, config.seed
        )
    trace = core._Tracer()

    def objective(trs, own, mdl):
        return rescoring_objective(
            data.users,
            data.items,
            core._targets(trs, own, data),
            mdl,
            reg,
            div,
            index=data.index,
        )

    def factorize(trs, own, mdl):
        return core.solve_factors(
            data.users,
            data.items,
            core._targets(trs, own, data),
            mdl,
            reg,
            div,
            sweeps=config.inner_sweeps,
            index=data.index,
        )

    trace.add(0, "init", objective(transforms, owner, model))
    if transform_phase:
        model = factorize(transforms, owner, model)
        trace.add(0, "factorize", objective(transforms, owner, model))

    stop_reason = "max_iters"
    for it in range(1, config.outer_max_iters + 1):
        prev_objective = trace.last
        prev_assignments = None if assignments is None else assignments.copy()

        if transform_phase:
            scores = data.scores(model)
            if relocate:
                assignments = owner = core._relocate(
                    data, transforms, scores, div, eps
                )
                moved = int((assignments != prev_assignments).sum())
                trace.add(
                    it, "assign", objective(transforms, owner, model),
                    changes=moved,
                )
            group_counts, group_means = data.grouped_aggregates(
                owner, transforms.shape[0], scores
            )
            transforms = core._transform_rows(
                group_counts, group_means, eps, div, transforms
            )
            trace.add(it, "transform", objective(transforms, owner, model))

        model = factorize(transforms, owner, model)
        trace.add(it, "factorize", objective(transforms, owner, model))

        stable = (
            prev_assignments is None
            or assignments is None
            or np.array_equal(prev_assignments, assignments)
        )
        reason = trace.stop_reason(
            config.mode, prev_objective, stable, config.tol
        )
        if reason is not None:
            stop_reason = reason
            break

    return core.FitResult(
        mode=config.mode,
        model=model,
        transforms=transforms if transform_phase else None,
        assignments=owner if transform_phase else None,
        epsilon=eps,
        trace=trace.records,
        stop_reason=stop_reason,
    )


class MaskedSideIndex(factorization._SideIndex):
    """A side index whose blocks carry the (B, w) mask of real entries in
    place of their padded keys, plus the other side's key of every entry."""

    def __init__(self, keys, other_keys):
        super().__init__(keys, other_keys)
        self.other_keys = other_keys
        self.blocks = [
            (rows, entries, padded >= 0) for rows, entries, padded in self.blocks
        ]


def ridge_sweep_rekeyed(side, other_keys, other, targets, out, lam):
    """Stacked ridge sweep that pads each block's keys again on every call."""
    padded = np.vstack([other, np.zeros((1, other.shape[1]))])
    diag = np.arange(other.shape[1])
    for rows, entries, valid in side.blocks:
        keys = np.where(valid, other_keys.take(entries), other.shape[0])
        gathered = padded.take(keys, axis=0)  # (B, w, d)
        lhs = gathered.transpose(0, 2, 1)
        gram = lhs @ gathered
        gram[:, diag, diag] += lam if lam > 0 else factorization.RIDGE_FLOOR
        rhs = lhs @ targets.take(entries)[..., None]
        out[rows] = np.linalg.solve(gram, rhs)[..., 0]


def patch_rescoring_loop(monkeypatch):
    """Run every fit through `rescoring_loop` and `ridge_sweep_rekeyed`."""
    monkeypatch.setattr(core, "_run_alternating", rescoring_loop)
    monkeypatch.setattr(factorization, "_SideIndex", MaskedSideIndex)

    def sweep(side, other, targets, out, lam):
        ridge_sweep_rekeyed(side, side.other_keys, other, targets, out, lam)

    monkeypatch.setattr(factorization, "_ridge_sweep", sweep)


def load_triplets_two_pass(
    path,
    fmt: str = "tsv",
    columns: tuple = ("user", "item", "rating", "timestamp"),
) -> SparseRatingDataset:
    """Parse a delimiter-separated ratings file.

    `columns` names the role of each input column; ``user``, ``item`` and
    ``rating`` are required, ``timestamp`` is optional. Duplicate
    (user, item) pairs keep the last occurrence with a warning. Parse
    failures, non-finite ratings and non-finite timestamps report the
    offending line number.
    """
    try:
        delim = _DELIMS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; expected tsv or csv") from None
    roles = {name: pos for pos, name in enumerate(columns) if name != "-"}
    for required in ("user", "item", "rating"):
        if required not in roles:
            raise ValueError(f"column spec is missing {required!r}")
    has_ts = "timestamp" in roles

    raw_users, raw_items, ratings, stamps = [], [], [], []
    ts_col = roles.get("timestamp")
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(delim)
            try:
                raw_users.append(fields[roles["user"]].strip())
                raw_items.append(fields[roles["item"]].strip())
                ratings.append(float(fields[roles["rating"]]))
                if has_ts:
                    # A trailing timestamp column may be absent entirely.
                    if ts_col < len(fields):
                        stamps.append(float(fields[ts_col]))
                    else:
                        stamps.append(None)
            except (IndexError, ValueError) as exc:
                raise DataError(f"{path}: malformed row at line {lineno}: {exc}")
            if not math.isfinite(ratings[-1]):
                raise DataError(
                    f"{path}: non-finite rating {ratings[-1]!r} at line {lineno}"
                )
            if has_ts and stamps[-1] is not None and not math.isfinite(stamps[-1]):
                raise DataError(
                    f"{path}: non-finite timestamp {stamps[-1]!r} at line {lineno}"
                )
    if not raw_users:
        raise DataError(f"{path}: no ratings found")
    if has_ts:
        if all(s is None for s in stamps):
            stamps = []
        elif any(s is None for s in stamps):
            row = [s is None for s in stamps].index(stamps[0] is not None)
            with open(path) as fh:
                lineno = [n for n, line in enumerate(fh, 1) if line.strip()][row]
            raise DataError(
                f"{path}: timestamps present on only some rows, at line {lineno}"
            )

    def _encode(labels):
        # Integer labels only when every label is its integer's own text, so
        # "007" and "7" stay two labels.
        try:
            integral = all(str(int(v)) == v for v in set(labels))
        except ValueError:
            integral = False
        if integral:
            arr = np.asarray([int(v) for v in labels], dtype=np.int64)
        else:
            arr = np.asarray(labels, dtype=object)
        uniq, dense = np.unique(arr, return_inverse=True)
        return uniq, dense

    user_labels, users = _encode(raw_users)
    item_labels, items = _encode(raw_items)
    values = np.asarray(ratings, dtype=float)
    stamps = np.asarray(stamps, dtype=float) if stamps else None

    pair_key = users.astype(np.int64) * (items.max() + 1) + items
    # The first occurrence of a key in the reversed rows is its last one.
    _, last = np.unique(pair_key[::-1], return_index=True)
    if last.size < pair_key.size:
        warnings.warn(
            f"{pair_key.size - last.size} duplicate (user, item) "
            "pairs; keeping the last occurrence of each"
        )
        keep = np.sort(pair_key.size - 1 - last)
        users, items, values = users[keep], items[keep], values[keep]
        if stamps is not None:
            stamps = stamps[keep]

    vocab = np.unique(values)
    levels = np.searchsorted(vocab, values)
    if stamps is not None and np.all(stamps == np.round(stamps)):
        stamps = stamps.astype(np.int64)
    # Every label numbered by _encode keeps a row, so the ids are compact.
    return SparseRatingDataset(
        users, items, levels, stamps, vocab, user_labels, item_labels
    )

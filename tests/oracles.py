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
"""
import itertools
from dataclasses import replace

import numpy as np

from cmtrf import core


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
    """Projected-gradient (FISTA) solution of the margin-isotonic QP."""
    t = np.asarray(targets, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = t.size
    J = _design(n)
    H = J.T @ (w[:, None] * J)
    step = 1.0 / max(np.linalg.eigvalsh(H).max(), 1e-12)

    def project(v):
        out = v.copy()
        out[1:] = np.maximum(out[1:], epsilon)
        return out

    v = project(np.zeros(n))
    v[0] = t[-1]
    y = v.copy()
    t_acc = 1.0
    for _ in range(iters):
        grad = J.T @ (w * (J @ y - t))
        v_next = project(y - step * grad)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_acc**2))
        y = v_next + ((t_acc - 1.0) / t_next) * (v_next - v)
        if np.max(np.abs(v_next - v)) < 1e-14:
            v = v_next
            break
        v, t_acc = v_next, t_next
    return J @ v


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
            data.users, data.items, targets, mdl, cfg.reg, cfg.div,
            index=data.index,
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

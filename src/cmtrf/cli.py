"""Batch command-line surface.

Subcommands: ``prepare`` (split and clean a ratings file), ``synth``
(generate synthetic datasets), ``train`` (fit one mode, optionally sweeping
the rank), ``eval`` (score a saved model on a ratings file), and
``gridsearch`` (tune regularization, cluster count, and rank against a
validation split, resumable through per-cell manifests).

Every command writes a ``manifest.json`` capturing the configuration, the
sha256 of each input, and the produced outputs; metric files contain no
timing so reruns are byte-identical. Relative input paths are also resolved
against ``$CMTRF_DATA_DIR``; when ``--out`` is omitted outputs land under
``$CMTRF_CACHE_DIR`` (default ``runs/``).

Exit codes: 0 success, 1 usage, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import warnings

import numpy as np

from . import core
from .data import (
    SparseRatingDataset,
    SplitSpec,
    align,
    concat_rows,
    load_triplets,
    preprocess,
    split,
    write_triplets,
)
from .divergence import by_name
from .errors import DataError, DomainError, NumericalError
from .evaluate import mae, mse, predict_ratings
from .factorization import RegularizationConfig, load_model, save_model
from .synthetic import SynthConfig, generate

EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 1, 2, 3

LAMBDA_GRID = [float(10.0**e) for e in np.arange(-2.0, 2.01, 0.5)]
K_GRID = [2, 3, 5, 10, 20, 30, 50, 75, 100]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# small shared helpers


def _resolve(path: str) -> str:
    base = os.environ.get("CMTRF_DATA_DIR")
    if base and not os.path.isabs(path) and not os.path.exists(path):
        candidate = os.path.join(base, path)
        if os.path.exists(candidate):
            return candidate
    return path


def _default_out(command: str) -> str:
    return os.path.join(os.environ.get("CMTRF_CACHE_DIR", "runs"), command)


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_manifest(out_dir, command, config, inputs, outputs, metrics, wall):
    config = {k: v for k, v in config.items() if k != "func"}
    manifest = {
        "command": command,
        "config": _jsonable(config),
        "inputs": {p: _sha256(p) for p in inputs},
        "outputs": sorted(outputs),
        "metrics": _jsonable(metrics),
        "wall_time_s": round(wall, 3),
    }
    _dump_json(manifest, os.path.join(out_dir, "manifest.json"))


def _report(record: dict) -> None:
    print(json.dumps(_jsonable(record), sort_keys=True))


def _parse_floats(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _train_config(args, rank: int, k: int | None, lambda_u, lambda_v):
    """The one TrainConfig build; the shared training flags come from `args`."""
    return core.TrainConfig(
        mode=args.mode,
        n_clusters=1 if k is None else k,
        rank=rank,
        epsilon=args.epsilon,
        reg=RegularizationConfig(lambda_u, lambda_v),
        div=by_name(args.divergence),
        outer_max_iters=args.max_outer,
        tol=args.tol,
        inner_sweeps=args.inner_sweeps,
        seed=args.seed,
    )


def _score(model, transforms, assignments, ds: SparseRatingDataset):
    """MSE and MAE on an aligned dataset; `transforms` is None for MF."""
    pairs = np.column_stack([ds.users, ds.items])
    preds = predict_ratings(model, transforms, pairs, ds.level_vocab, assignments)
    return mse(preds, ds.raw_values), mae(preds, ds.raw_values)


# ---------------------------------------------------------------------------
# model bundles (a trained run on disk)


def _save_bundle(out_dir, result: core.FitResult, train: SparseRatingDataset, cfg):
    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.txt")
    save_model(result.model, model_path)
    bundle = {
        "mode": result.mode,
        "epsilon": result.epsilon,
        "rank": result.model.rank,
        "n_clusters": cfg.n_clusters,
        "lambda_u": cfg.reg.lambda_u,
        "lambda_v": cfg.reg.lambda_v,
        "divergence": cfg.div.name,
        "seed": cfg.seed,
        "objective": result.objective,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "level_vocab": train.level_vocab,
        "user_labels": train.user_labels,
        "item_labels": train.item_labels,
        "transforms": result.transforms,
        "assignments": result.assignments,
    }
    _dump_json(bundle, os.path.join(out_dir, "bundle.json"))
    with open(os.path.join(out_dir, "trace.jsonl"), "w") as fh:
        fh.write(result.trace_jsonl())
    return [model_path, os.path.join(out_dir, "bundle.json"),
            os.path.join(out_dir, "trace.jsonl")]


def _load_bundle(bundle_dir):
    model = load_model(os.path.join(bundle_dir, "model.txt"))
    with open(os.path.join(bundle_dir, "bundle.json")) as fh:
        bundle = json.load(fh)
    return model, bundle


# ---------------------------------------------------------------------------
# commands


def cmd_prepare(args) -> int:
    t0 = time.perf_counter()
    src = _resolve(args.input)
    columns = tuple(args.columns.split(","))
    dataset = load_triplets(src, fmt=args.format, columns=columns)
    spec = SplitSpec(
        strategy=args.split,
        seed=args.seed,
        train_fraction=args.train_frac,
        val_fraction=args.val_frac,
    )
    if not args.skip_preprocess:
        dataset = preprocess(dataset, spec)
    train, val, test = split(dataset, spec)

    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for name, part in (("train", train), ("val", val), ("test", test)):
        if part is None:
            continue
        path = os.path.join(args.out, f"{name}.tsv")
        write_triplets(part, path)
        outputs.append(path)
    summary = {
        "strategy": spec.strategy,
        "seed": spec.seed,
        "train_fraction": spec.train_fraction,
        "val_fraction": spec.val_fraction,
        "n_users": dataset.n_users,
        "n_items": dataset.n_items,
        "n_train": train.n_ratings,
        "n_val": 0 if val is None else val.n_ratings,
        "n_test": test.n_ratings,
        "level_vocab": dataset.level_vocab,
    }
    split_path = os.path.join(args.out, "split.json")
    _dump_json(summary, split_path)
    outputs.append(split_path)
    _write_manifest(
        args.out, "prepare", vars(args), [src], outputs, summary,
        time.perf_counter() - t0,
    )
    _report({"command": "prepare", **summary})
    return 0


def cmd_synth(args) -> int:
    t0 = time.perf_counter()
    config = SynthConfig(
        n_users=args.users,
        n_items=args.items,
        rank=args.rank,
        n_levels=args.levels,
        epsilon=args.epsilon,
        kind=args.kind,
        factor_mean=args.factor_mean,
        factor_std=args.factor_std,
        density=args.density,
        seed=args.seed,
    )
    result = generate(config)
    os.makedirs(args.out, exist_ok=True)
    ratings_path = os.path.join(args.out, "ratings.tsv")
    write_triplets(result.dataset, ratings_path)
    truth_path = os.path.join(args.out, "ground_truth.npz")
    truth = {
        "transforms": result.transforms,
        "user_factors": result.user_factors,
        "item_factors": result.item_factors,
    }
    if result.curvatures is not None:
        truth["curvatures"] = result.curvatures
    np.savez(truth_path, **truth)
    summary = {
        "kind": config.kind,
        "n_users": config.n_users,
        "n_items": config.n_items,
        "rank": config.rank,
        "density": config.density,
        "seed": config.seed,
        "n_ratings": result.dataset.n_ratings,
    }
    _write_manifest(
        args.out, "synth", vars(args), [], [ratings_path, truth_path],
        summary, time.perf_counter() - t0,
    )
    _report({"command": "synth", **summary})
    return 0


def _fit_cell(train, cfg, ncmtrf_cache):
    """Train one configuration, sharing the per-user warm-up across K."""
    if cfg.mode != "kcmtrf" or cfg.n_clusters == 1:
        return core.fit(train, cfg)
    cache_key = (cfg.reg.lambda_u, cfg.reg.lambda_v, cfg.rank)
    if cache_key not in ncmtrf_cache:
        ncmtrf_cache[cache_key] = core.fit_ncmtrf(train, cfg)
    n_result = ncmtrf_cache[cache_key]
    state = core.init_clusters(train, cfg, n_result=n_result)
    return core.fit_kcmtrf(train, cfg, init_state=state, init=n_result.model)


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    train_path = _resolve(args.train)
    train = load_triplets(train_path, fmt=args.format)
    inputs = [train_path]
    test = None
    if args.test:
        test_path = _resolve(args.test)
        test = align(
            load_triplets(test_path, fmt=args.format),
            train.user_labels, train.item_labels, train.level_vocab,
        )
        inputs.append(test_path)

    os.makedirs(args.out, exist_ok=True)
    outputs = []
    rows = []
    ncache: dict = {}
    for rank in _parse_ints(args.d):
        cfg = _train_config(args, rank, args.k, args.lambda_u, args.lambda_v)
        cell_t0 = time.perf_counter()
        result = _fit_cell(train, cfg, ncache)
        wall = time.perf_counter() - cell_t0
        bundle_dir = os.path.join(args.out, f"d{rank}")
        outputs.extend(_save_bundle(bundle_dir, result, train, cfg))
        row = {
            "dataset": os.path.basename(train_path),
            "mode": args.mode,
            "K": args.k if args.mode == "kcmtrf" else None,
            "d": rank,
            "lambda_u": args.lambda_u,
            "lambda_v": args.lambda_v,
            "epsilon": args.epsilon,
            "objective": result.objective,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
            "outer_iters": result.trace[-1]["iter"],
        }
        if test is not None:
            row["mse"], row["mae"] = _score(
                result.model, result.transforms, result.assignments, test
            )
            row["n_scored"] = test.n_ratings
        rows.append(row)
        _report({**row, "wall_time_s": round(wall, 3)})

    metrics_path = os.path.join(args.out, "metrics.json")
    _dump_json(rows, metrics_path)
    outputs.append(metrics_path)
    _write_manifest(
        args.out, "train", vars(args), inputs, outputs, rows,
        time.perf_counter() - t0,
    )
    return 0


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    model, bundle = _load_bundle(args.model)
    data_path = _resolve(args.data)
    ds = align(
        load_triplets(data_path, fmt=args.format),
        bundle["user_labels"], bundle["item_labels"], bundle["level_vocab"],
    )
    scored_mse, scored_mae = _score(
        model, bundle["transforms"], bundle["assignments"], ds
    )
    row = {
        "dataset": os.path.basename(data_path),
        "mode": bundle["mode"],
        "K": bundle["n_clusters"] if bundle["mode"] == "kcmtrf" else None,
        "d": bundle["rank"],
        "lambda_u": bundle["lambda_u"],
        "lambda_v": bundle["lambda_v"],
        "epsilon": bundle["epsilon"],
        "mse": scored_mse,
        "mae": scored_mae,
        "n_scored": int(ds.n_ratings),
    }
    os.makedirs(args.out, exist_ok=True)
    metrics_path = os.path.join(args.out, "metrics.json")
    _dump_json(row, metrics_path)
    _write_manifest(
        args.out, "eval", vars(args),
        [data_path, os.path.join(args.model, "model.txt")],
        [metrics_path], row, time.perf_counter() - t0,
    )
    _report({**row, "wall_time_s": round(time.perf_counter() - t0, 3)})
    return 0


def _cell_key(mode, lam, k, rank, args, input_hashes) -> str:
    payload = json.dumps(
        {
            "mode": mode,
            "lambda": lam,
            "K": k,
            "d": rank,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "divergence": args.divergence,
            "max_outer": args.max_outer,
            "tol": args.tol,
            "inner_sweeps": args.inner_sweeps,
            "inputs": input_hashes,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_gridsearch(args):
    """The gridsearch engine; returns (rows, best row, test row or None, inputs)."""
    train_path = _resolve(args.train)
    val_path = _resolve(args.val)
    train = load_triplets(train_path, fmt=args.format)
    reference = (train.user_labels, train.item_labels, train.level_vocab)
    val = align(load_triplets(val_path, fmt=args.format), *reference)
    inputs = [train_path, val_path]
    test = None
    if args.test:
        test_path = _resolve(args.test)
        test = align(load_triplets(test_path, fmt=args.format), *reference)
        inputs.append(test_path)

    lambdas = sorted(_parse_floats(args.lambdas))
    ks = sorted(_parse_ints(args.ks)) if args.mode == "kcmtrf" else [None]
    ranks = sorted(_parse_ints(args.ds))
    usable_ks = []
    for k in ks:
        if k is not None and k > train.n_users:
            warnings.warn(f"skipping K={k}: more clusters than users")
            continue
        usable_ks.append(k)
    cells = [(lam, k, rank) for lam in lambdas for k in usable_ks for rank in ranks]
    if not cells:
        raise DataError("empty hyperparameter grid")

    cells_dir = os.path.join(args.out, "cells")
    os.makedirs(cells_dir, exist_ok=True)
    input_hashes = {p: _sha256(p) for p in inputs}
    ncache: dict = {}
    rows = []
    for lam, k, rank in cells:
        key = _cell_key(args.mode, lam, k, rank, args, input_hashes)
        cell_path = os.path.join(cells_dir, f"cell_{key}.json")
        if os.path.exists(cell_path):
            with open(cell_path) as fh:
                rows.append(json.load(fh))
            continue
        cfg = _train_config(args, rank, k, lam, lam)
        t0 = time.perf_counter()
        result = _fit_cell(train, cfg, ncache)
        val_mse, val_mae = _score(
            result.model, result.transforms, result.assignments, val
        )
        row = {
            "key": key,
            "mode": args.mode,
            "lambda": lam,
            "K": k,
            "d": rank,
            "epsilon": args.epsilon,
            "seed": args.seed,
            "val_mse": val_mse,
            "val_mae": val_mae,
            "objective": result.objective,
            "converged": result.converged,
            "stop_reason": result.stop_reason,
        }
        _dump_json(row, cell_path)
        rows.append(row)
        _report({**row, "wall_time_s": round(time.perf_counter() - t0, 3)})

    def _rank_key(row):
        return (
            row["val_mse"],
            row["K"] if row["K"] is not None else 0,
            row["lambda"],
        )

    best = min(rows, key=_rank_key)

    test_row = None
    if test is not None:
        # Refit the winner on train plus validation before scoring test.
        full = concat_rows(train, val)
        cfg = _train_config(
            args, best["d"], best["K"], best["lambda"], best["lambda"]
        )
        result = _fit_cell(full, cfg, {})
        test_mse, test_mae = _score(
            result.model, result.transforms, result.assignments, test
        )
        test_row = {
            **{k: best[k] for k in ("mode", "lambda", "K", "d", "epsilon")},
            "test_mse": test_mse,
            "test_mae": test_mae,
        }
        _save_bundle(os.path.join(args.out, "winner"), result, full, cfg)
    return rows, best, test_row, inputs


def cmd_gridsearch(args) -> int:
    t0 = time.perf_counter()
    os.makedirs(args.out, exist_ok=True)
    rows, best, test_row, inputs = run_gridsearch(args)

    grid_path = os.path.join(args.out, "grid.csv")
    columns = ["mode", "lambda", "K", "d", "epsilon", "val_mse", "val_mae"]
    ordered = sorted(
        rows,
        key=lambda r: (r["lambda"], r["K"] if r["K"] is not None else 0, r["d"]),
    )
    with open(grid_path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in ordered:
            fh.write(
                ",".join(
                    "" if row[c] is None else repr(row[c])
                    if isinstance(row[c], float) else str(row[c])
                    for c in columns
                )
                + "\n"
            )
    best_payload = {"best": best}
    if test_row is not None:
        best_payload["test"] = test_row
    best_path = os.path.join(args.out, "best.json")
    _dump_json(best_payload, best_path)
    _write_manifest(
        args.out, "gridsearch", vars(args), inputs,
        [grid_path, best_path], best_payload, time.perf_counter() - t0,
    )
    _report({"command": "gridsearch", **best_payload})
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_train_flags(p):
    p.add_argument("--mode", choices=core.MODES, default="kcmtrf")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--divergence", default="squared_loss")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-outer", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--inner-sweeps", type=int, default=2)
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")


def build_parser() -> _Parser:
    parser = _Parser(prog="cmtrf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="clean and split a ratings file")
    p.add_argument("input")
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    p.add_argument("--columns", default="user,item,rating,timestamp")
    p.add_argument("--split", choices=("chronological", "uniform"),
                   default="chronological")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-frac", type=float, default=0.8)
    p.add_argument("--val-frac", type=float, default=0.1)
    p.add_argument("--skip-preprocess", action="store_true")
    p.add_argument("--out", default=_default_out("prepare"))
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--kind", choices=("sd1", "sd2"), default="sd1")
    p.add_argument("--users", type=int, default=300)
    p.add_argument("--items", type=int, default=200)
    p.add_argument("--rank", type=int, default=5)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--factor-mean", type=float, default=0.0)
    p.add_argument("--factor-std", type=float, default=1.0)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=_default_out("synth"))
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="fit one mode, optionally sweeping d")
    p.add_argument("--train", required=True)
    p.add_argument("--test")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--d", default="10",
                   help="rank, or comma list for a sweep (one row per d)")
    p.add_argument("--lambda-u", type=float, default=0.1)
    p.add_argument("--lambda-v", type=float, default=0.1)
    _add_train_flags(p)
    p.add_argument("--out", default=_default_out("train"))
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a trained bundle on a data file")
    p.add_argument("--model", required=True, help="bundle directory from train")
    p.add_argument("--data", required=True)
    p.add_argument("--format", choices=("tsv", "csv"), default="tsv")
    p.add_argument("--out", default=_default_out("eval"))
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gridsearch", help="tune lambda, K, d on validation MSE")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test")
    p.add_argument("--lambdas", default=",".join(repr(v) for v in LAMBDA_GRID))
    p.add_argument("--ks", default=",".join(str(k) for k in K_GRID))
    p.add_argument("--ds", default="10")
    _add_train_flags(p)
    p.add_argument("--out", default=_default_out("gridsearch"))
    p.set_defaults(func=cmd_gridsearch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as exc:
        print(f"cmtrf: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DomainError, NumericalError, np.linalg.LinAlgError) as exc:
        print(f"cmtrf: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"cmtrf: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

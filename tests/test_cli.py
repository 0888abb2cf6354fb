import hashlib
import json

import numpy as np
import pytest

from cmtrf.cli import main
from cmtrf.data import load_triplets


def _run(*argv):
    return main([str(a) for a in argv])


def _file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def synth_dir(tmp_path):
    out = tmp_path / "synth"
    assert _run(
        "synth", "--kind", "sd1", "--users", 30, "--items", 20,
        "--rank", 2, "--seed", 1, "--out", out,
    ) == 0
    return out


@pytest.fixture()
def prepared(tmp_path, synth_dir):
    out = tmp_path / "prep"
    assert _run(
        "prepare", synth_dir / "ratings.tsv", "--split", "uniform",
        "--seed", 3, "--out", out,
    ) == 0
    return out


class TestPrepare:
    def test_outputs_and_manifest(self, prepared):
        for name in ("train.tsv", "val.tsv", "test.tsv", "split.json",
                     "manifest.json"):
            assert (prepared / name).exists()
        summary = json.loads((prepared / "split.json").read_text())
        assert summary["strategy"] == "uniform"
        assert summary["n_train"] > 0 and summary["n_test"] > 0

    def test_uniform_rerun_is_byte_identical(self, tmp_path, synth_dir):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert _run(
                "prepare", synth_dir / "ratings.tsv", "--split", "uniform",
                "--seed", 7, "--out", out,
            ) == 0
            outs.append(out)
        for name in ("train.tsv", "val.tsv", "test.tsv", "split.json"):
            assert _file_hash(outs[0] / name) == _file_hash(outs[1] / name)

    def test_chronological_split_fractions(self, tmp_path):
        rows = [f"{r % 10}\t{r // 10}\t{1 + r % 4}\t{r}" for r in range(100)]
        src = tmp_path / "ts.tsv"
        src.write_text("".join(f"{r}\n" for r in rows))
        out = tmp_path / "chrono"
        assert _run(
            "prepare", src, "--split", "chronological", "--train-frac", "0.8",
            "--skip-preprocess", "--out", out,
        ) == 0
        summary = json.loads((out / "split.json").read_text())
        assert summary["n_train"] + summary["n_val"] == 80
        assert summary["n_test"] == 20

    def test_chronological_round_trip_keeps_every_value(self, tmp_path):
        # Shuffled nine-digit timestamps one second apart and a rating just
        # below a vocabulary value must all come back exactly.
        n = 50
        stamps = 874724710 + np.random.default_rng(0).permutation(n)
        ratings = [float(1 + r % 5) for r in range(n)]
        ratings[3] = 3.9999999
        rows = [(r % 5, r // 5, ratings[r], int(stamps[r])) for r in range(n)]
        src = tmp_path / "ts.tsv"
        src.write_text("".join(f"{u}\t{i}\t{v}\t{t}\n" for u, i, v, t in rows))
        out = tmp_path / "chrono"
        assert _run(
            "prepare", src, "--split", "chronological", "--skip-preprocess",
            "--out", out,
        ) == 0
        # Blocks by time rank (36 train, 4 val, 10 test), rows in input order.
        rank = np.argsort(np.argsort(stamps))
        bounds = {"train": (0, 36), "val": (36, 40), "test": (40, n)}
        for name, (lo, hi) in bounds.items():
            ds = load_triplets(out / f"{name}.tsv")
            reloaded = list(zip(
                ds.user_labels[ds.users].tolist(),
                ds.item_labels[ds.items].tolist(),
                ds.raw_values.tolist(),
                ds.timestamps.tolist(),
            ))
            assert reloaded == [row for row, k in zip(rows, rank) if lo <= k < hi]

    def test_chronological_without_timestamps_fails(self, tmp_path):
        src = tmp_path / "nots.tsv"
        src.write_text("1\t1\t3\n1\t2\t4\n2\t1\t4\n2\t2\t3\n")
        assert _run(
            "prepare", src, "--columns", "user,item,rating",
            "--split", "chronological", "--out", tmp_path / "x",
        ) == 2

    def test_missing_input_is_data_error(self, tmp_path):
        assert _run("prepare", tmp_path / "nope.tsv", "--out", tmp_path / "y") == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_rating_is_data_error(self, tmp_path, capsys, bad):
        src = tmp_path / "bad.tsv"
        src.write_text(f"1\t1\t3\t1\n1\t2\t{bad}\t2\n2\t1\t4\t3\n")
        assert _run("prepare", src, "--out", tmp_path / "p") == 2
        assert "line 2" in capsys.readouterr().err
        assert _run("train", "--train", src, "--out", tmp_path / "t") == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_finite_timestamp_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "bad.tsv"
        src.write_text("1\t1\t3\t1\n1\t2\t4\tnan\n2\t1\t4\tinf\n2\t2\t3\t4\n")
        assert _run(
            "prepare", src, "--skip-preprocess", "--out", tmp_path / "p"
        ) == 2
        assert "non-finite timestamp nan at line 2" in capsys.readouterr().err


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        hashes = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert _run(
                "synth", "--kind", "sd2", "--users", 25, "--items", 15,
                "--rank", 2, "--seed", 9, "--out", out,
            ) == 0
            hashes.append(_file_hash(out / "ratings.tsv"))
        assert hashes[0] == hashes[1]

    def test_ground_truth_sidecar(self, synth_dir):
        truth = np.load(synth_dir / "ground_truth.npz")
        assert truth["transforms"].shape == (30, 5)
        assert truth["user_factors"].shape == (30, 2)


class TestTrain:
    def test_k1_matches_global_mode(self, tmp_path, prepared):
        results = {}
        for mode, extra in (("kcmtrf", ["--k", "1"]), ("1cmtrf", [])):
            out = tmp_path / f"train-{mode}"
            assert _run(
                "train", "--train", prepared / "train.tsv", "--mode", mode,
                "--d", 2, "--max-outer", 15, "--seed", 0, "--out", out, *extra,
            ) == 0
            rows = json.loads((out / "metrics.json").read_text())
            results[mode] = rows[0]["objective"]
        assert results["kcmtrf"] == pytest.approx(results["1cmtrf"], abs=1e-6)

    def test_default_epsilon_honored(self, tmp_path, prepared):
        out = tmp_path / "train-eps"
        assert _run(
            "train", "--train", prepared / "train.tsv", "--mode", "ncmtrf",
            "--d", 2, "--max-outer", 10, "--out", out,
        ) == 0
        bundle = json.loads((out / "d2" / "bundle.json").read_text())
        assert bundle["epsilon"] == 0.5
        gaps = -np.diff(np.asarray(bundle["transforms"]), axis=1)
        assert gaps.min() >= 0.5 - 1e-9

    def test_rank_sweep_rows(self, tmp_path, prepared):
        out = tmp_path / "sweep"
        assert _run(
            "train", "--train", prepared / "train.tsv",
            "--test", prepared / "test.tsv", "--mode", "1cmtrf",
            "--d", "2,3", "--max-outer", 8, "--out", out,
        ) == 0
        rows = json.loads((out / "metrics.json").read_text())
        assert [row["d"] for row in rows] == [2, 3]
        assert all("mse" in row for row in rows)
        for row in rows:
            assert row["stop_reason"] in ("tol", "max_iters")
            assert row["converged"] == (row["stop_reason"] == "tol")
        manifest = json.loads((out / "manifest.json").read_text())
        assert [m["stop_reason"] for m in manifest["metrics"]] == [
            row["stop_reason"] for row in rows
        ]
        assert (out / "d2" / "model.txt").exists()
        assert (out / "d3" / "trace.jsonl").exists()

    def test_rerun_metrics_byte_identical(self, tmp_path, prepared):
        hashes = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert _run(
                "train", "--train", prepared / "train.tsv",
                "--test", prepared / "test.tsv", "--mode", "kcmtrf",
                "--k", 2, "--d", 2, "--max-outer", 8, "--seed", 5,
                "--out", out,
            ) == 0
            hashes.append(_file_hash(out / "metrics.json"))
        assert hashes[0] == hashes[1]

    def test_trace_is_jsonl_and_monotone(self, tmp_path, prepared):
        out = tmp_path / "trace"
        assert _run(
            "train", "--train", prepared / "train.tsv", "--mode", "kcmtrf",
            "--k", 2, "--d", 2, "--max-outer", 10, "--out", out,
        ) == 0
        lines = (out / "d2" / "trace.jsonl").read_text().splitlines()
        objectives = [json.loads(line)["objective"] for line in lines]
        assert all(b <= a + 1e-9 for a, b in zip(objectives, objectives[1:]))


class TestEval:
    @pytest.mark.parametrize(
        "mode", [["mf"], ["ncmtrf"], ["kcmtrf", "--k", 2]],
        ids=["mf", "ncmtrf", "kcmtrf"],
    )
    def test_metrics_match_direct_evaluation(self, tmp_path, prepared, mode):
        # A saved bundle and the in-memory fit are scored by one path.
        train_out = tmp_path / "m"
        assert _run(
            "train", "--train", prepared / "train.tsv",
            "--test", prepared / "test.tsv", "--mode", *mode,
            "--d", 2, "--max-outer", 10, "--out", train_out,
        ) == 0
        eval_out = tmp_path / "e"
        assert _run(
            "eval", "--model", train_out / "d2", "--data", prepared / "test.tsv",
            "--out", eval_out,
        ) == 0
        row = json.loads((eval_out / "metrics.json").read_text())
        trained = json.loads((train_out / "metrics.json").read_text())[0]
        assert row["mse"] == trained["mse"]
        assert row["mae"] == trained["mae"]
        assert row["n_scored"] == trained["n_scored"]
        assert row["K"] == trained["K"]
        assert 0 <= row["mse"] <= 16
        assert row["mae"] <= np.sqrt(row["mse"]) + 1e-9

    def test_unknown_labels_is_data_error(self, tmp_path, prepared):
        train_out = tmp_path / "m2"
        assert _run(
            "train", "--train", prepared / "train.tsv", "--mode", "1cmtrf",
            "--d", 2, "--max-outer", 5, "--out", train_out,
        ) == 0
        alien = tmp_path / "alien.tsv"
        alien.write_text("9991\t1\t3\t1\n9992\t2\t4\t2\n")
        assert _run(
            "eval", "--model", train_out / "d2", "--data", alien,
            "--out", tmp_path / "e2",
        ) == 2


class TestHeldOut:
    def test_sparse_pipeline_scores_known_rows(self, tmp_path):
        # Uniform splits of sparse data leave test rows whose user occurs
        # only in validation; train and eval drop those rows and count them.
        synth, prep = tmp_path / "s", tmp_path / "p"
        assert _run(
            "synth", "--kind", "sd2", "--users", 300, "--items", 200,
            "--density", 0.03, "--seed", 0, "--out", synth,
        ) == 0
        assert _run(
            "prepare", synth / "ratings.tsv", "--split", "uniform",
            "--seed", 0, "--out", prep,
        ) == 0
        n_test = len((prep / "test.tsv").read_text().splitlines())
        with pytest.warns(UserWarning, match=f"of {n_test} rows"):
            assert _run(
                "train", "--train", prep / "train.tsv", "--test",
                prep / "test.tsv", "--mode", "1cmtrf", "--d", 2,
                "--max-outer", 5, "--out", tmp_path / "t",
            ) == 0
        row = json.loads((tmp_path / "t" / "metrics.json").read_text())[0]
        assert 0 < row["n_scored"] < n_test
        with pytest.warns(UserWarning, match=f"of {n_test} rows"):
            assert _run(
                "eval", "--model", tmp_path / "t" / "d2", "--data",
                prep / "test.tsv", "--out", tmp_path / "e",
            ) == 0
        scored = json.loads((tmp_path / "e" / "metrics.json").read_text())
        assert scored["n_scored"] == row["n_scored"]
        assert scored["mse"] == pytest.approx(row["mse"])

    @pytest.mark.parametrize("value", ["3.9999999", "4.0000001"])
    def test_rating_off_the_vocabulary_is_data_error(
        self, tmp_path, prepared, value
    ):
        lines = (prepared / "test.tsv").read_text().splitlines()
        fields = lines[0].split("\t")
        fields[2] = value
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(["\t".join(fields), *lines[1:]]) + "\n")
        assert _run(
            "train", "--train", prepared / "train.tsv", "--test", bad,
            "--mode", "1cmtrf", "--d", 2, "--max-outer", 2,
            "--out", tmp_path / "t",
        ) == 2
        assert _run(
            "train", "--train", prepared / "train.tsv", "--mode", "1cmtrf",
            "--d", 2, "--max-outer", 2, "--out", tmp_path / "m",
        ) == 0
        assert _run(
            "eval", "--model", tmp_path / "m" / "d2", "--data", bad,
            "--out", tmp_path / "e",
        ) == 2
        assert _run(
            "gridsearch", "--train", prepared / "train.tsv", "--val", bad,
            "--mode", "1cmtrf", "--lambdas", "0.1", "--ds", 2,
            "--max-outer", 2, "--out", tmp_path / "g",
        ) == 2


    def _one_level(self, tmp_path, prepared):
        # Known test rows that all carry the first row's rating value.
        lines = (prepared / "test.tsv").read_text().splitlines()[:4]
        value = lines[0].split("\t")[2]
        rows = []
        for line in lines:
            fields = line.split("\t")
            fields[2] = value
            rows.append("\t".join(fields))
        path = tmp_path / "one_level.tsv"
        path.write_text("\n".join(rows) + "\n")
        return path, len(rows)

    def test_one_level_held_out_file_is_scored(self, tmp_path, prepared):
        held_out, n_rows = self._one_level(tmp_path, prepared)
        assert _run(
            "train", "--train", prepared / "train.tsv", "--test", held_out,
            "--mode", "1cmtrf", "--d", 2, "--max-outer", 2,
            "--out", tmp_path / "t",
        ) == 0
        row = json.loads((tmp_path / "t" / "metrics.json").read_text())[0]
        assert row["n_scored"] == n_rows
        assert _run(
            "eval", "--model", tmp_path / "t" / "d2", "--data", held_out,
            "--out", tmp_path / "e",
        ) == 0
        scored = json.loads((tmp_path / "e" / "metrics.json").read_text())
        assert scored["n_scored"] == n_rows
        assert scored["mse"] == row["mse"]

    def test_one_level_val_file_in_gridsearch(self, tmp_path, prepared):
        val, _ = self._one_level(tmp_path, prepared)
        assert _run(
            "gridsearch", "--train", prepared / "train.tsv", "--val", val,
            "--mode", "1cmtrf", "--lambdas", "0.1", "--ds", 2,
            "--max-outer", 2, "--out", tmp_path / "g",
        ) == 0

    def test_one_level_train_file_is_data_error(
        self, tmp_path, prepared, capsys
    ):
        train, _ = self._one_level(tmp_path, prepared)
        assert _run(
            "train", "--train", train, "--mode", "1cmtrf", "--d", 2,
            "--max-outer", 2, "--out", tmp_path / "t",
        ) == 2
        assert "two distinct levels" in capsys.readouterr().err


class TestGridsearch:
    def _grid(self, tmp_path, prepared, out, **kw):
        args = [
            "gridsearch", "--train", prepared / "train.tsv",
            "--val", prepared / "val.tsv", "--mode", "kcmtrf",
            "--lambdas", kw.get("lambdas", "0.1"),
            "--ks", kw.get("ks", "2,3"), "--ds", kw.get("ds", "2"),
            "--max-outer", 8, "--out", out,
        ]
        if kw.get("test"):
            args += ["--test", prepared / "test.tsv"]
        return _run(*args)

    def test_winner_is_grid_minimum(self, tmp_path, prepared):
        out = tmp_path / "g"
        assert self._grid(tmp_path, prepared, out) == 0
        best = json.loads((out / "best.json").read_text())["best"]
        cells = [
            json.loads(p.read_text()) for p in (out / "cells").glob("*.json")
        ]
        assert best["val_mse"] == min(c["val_mse"] for c in cells)

    def test_single_cell_grid(self, tmp_path, prepared):
        out = tmp_path / "g1"
        assert self._grid(tmp_path, prepared, out, ks="2") == 0
        best = json.loads((out / "best.json").read_text())["best"]
        assert best["K"] == 2 and best["lambda"] == 0.1

    def test_resume_reuses_cells_and_reproduces_table(self, tmp_path, prepared):
        out = tmp_path / "g2"
        assert self._grid(tmp_path, prepared, out) == 0
        first = _file_hash(out / "grid.csv")
        stamps = {p.name: p.stat().st_mtime_ns for p in (out / "cells").glob("*.json")}
        assert self._grid(tmp_path, prepared, out) == 0
        assert _file_hash(out / "grid.csv") == first
        after = {p.name: p.stat().st_mtime_ns for p in (out / "cells").glob("*.json")}
        assert stamps == after  # cells were not retrained

    def test_test_refit_reports_metrics(self, tmp_path, prepared):
        out = tmp_path / "g3"
        assert self._grid(tmp_path, prepared, out, ks="2", test=True) == 0
        payload = json.loads((out / "best.json").read_text())
        assert "test" in payload
        assert payload["test"]["test_mse"] >= 0
        assert (out / "winner" / "model.txt").exists()

    def test_empty_grid_is_error(self, tmp_path, prepared):
        assert self._grid(tmp_path, prepared, tmp_path / "g4", lambdas="") == 2


class TestEnvironment:
    def test_data_dir_resolves_relative_inputs(self, tmp_path, monkeypatch, synth_dir):
        monkeypatch.setenv("CMTRF_DATA_DIR", str(synth_dir))
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "env-prep"
        assert _run(
            "prepare", "ratings.tsv", "--split", "uniform", "--out", out
        ) == 0
        assert (out / "train.tsv").exists()

    def test_cache_dir_sets_default_out(self, tmp_path, monkeypatch, synth_dir):
        monkeypatch.setenv("CMTRF_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.chdir(tmp_path)
        assert _run(
            "prepare", synth_dir / "ratings.tsv", "--split", "uniform"
        ) == 0
        assert (tmp_path / "cache" / "prepare" / "train.tsv").exists()


class TestUsage:
    def test_unknown_flag_exits_one(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--no-such-flag"])
        assert excinfo.value.code == 1

    def test_bad_config_value_exits_one(self, tmp_path, prepared):
        assert _run(
            "train", "--train", prepared / "train.tsv", "--mode", "kcmtrf",
            "--k", 0, "--d", 2, "--out", tmp_path / "bad",
        ) == 1

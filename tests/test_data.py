import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import load_triplets_two_pass

from cmtrf.data import (
    SparseRatingDataset,
    SplitSpec,
    _levels_of,
    align,
    concat_rows,
    load_triplets,
    preprocess,
    split,
    write_triplets,
)
from cmtrf.errors import DataError


def _write(tmp_path, rows, name="ratings.tsv"):
    path = tmp_path / name
    path.write_text("".join(f"{r}\n" for r in rows))
    return path


class TestLoadTriplets:
    def test_basic_parse(self, tmp_path):
        path = _write(tmp_path, ["1\t10\t4\t100", "1\t11\t2\t90"])
        ds = load_triplets(path)
        assert ds.n_users == 1
        assert ds.n_items == 2
        np.testing.assert_allclose(ds.level_vocab, [2.0, 4.0])
        assert ds.n_levels == 2

    def test_half_step_scale(self, tmp_path):
        values = np.arange(0.5, 5.01, 0.5)
        rows = [f"{i}\t{i}\t{v}\t{i}" for i, v in enumerate(values)]
        # Two users per item so nobody is constant-rated.
        rows += [f"{i + 20}\t{i}\t{5.5 - v}\t{i}" for i, v in enumerate(values)]
        ds = load_triplets(_write(tmp_path, rows))
        assert ds.n_levels == 10
        # 3.5 sits at the 7th position of the ascending vocabulary.
        assert _levels_of(ds.level_vocab, [3.5])[0] == 6

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_triplets(_write(tmp_path, []))

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(tmp_path, ["1\t10\t4\t100", "1\tbroken"])
        with pytest.raises(DataError, match="line 2"):
            load_triplets(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_rating_reports_line(self, tmp_path, bad):
        path = _write(tmp_path, ["1\t10\t4\t100", f"1\t11\t{bad}\t90"])
        with pytest.raises(DataError, match="non-finite rating .* line 2"):
            load_triplets(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_timestamp_reports_line(self, tmp_path, bad):
        path = _write(tmp_path, ["1\t10\t4\t100", f"1\t11\t3\t{bad}"])
        with pytest.raises(DataError, match="non-finite timestamp .* line 2"):
            load_triplets(path)

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["1\t10\t4\t100", "1\t11\t3\t200", "2\t10\t5"], 3),
            (["1\t10\t4", "", "1\t11\t3", "2\t10\t5\t300"], 4),
        ],
        ids=["missing", "extra-after-blank"],
    )
    def test_timestamps_on_some_rows_report_line(self, tmp_path, rows, line):
        path = _write(tmp_path, rows)
        with pytest.raises(DataError, match=f"only some rows, at line {line}$"):
            load_triplets(path)

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = _write(tmp_path, ["1\t10\t4", "", "  ", "1\t11\tfour"])
        with pytest.raises(DataError, match="malformed row at line 4"):
            load_triplets(path)

    def test_duplicate_pairs_keep_last(self, tmp_path):
        path = _write(
            tmp_path, ["1\t10\t4\t100", "1\t10\t2\t200", "2\t10\t3\t50"]
        )
        with pytest.warns(UserWarning, match="duplicate"):
            ds = load_triplets(path)
        assert ds.n_ratings == 2
        row = np.flatnonzero(ds.user_labels[ds.users] == 1)[0]
        assert ds.raw_values[row] == 2.0

    def test_pair_repeated_three_times_keeps_last(self, tmp_path):
        path = _write(tmp_path, [
            "1\t10\t1\t1", "2\t10\t2\t2", "1\t10\t3\t3",
            "3\t11\t4\t4", "1\t10\t5\t5", "2\t11\t1\t6",
        ])
        with pytest.warns(UserWarning, match="^2 duplicate"):
            ds = load_triplets(path)
        # The surviving rows stay in file order.
        np.testing.assert_array_equal(ds.timestamps, [2, 4, 5, 6])
        np.testing.assert_array_equal(ds.user_labels[ds.users], [2, 3, 1, 2])
        np.testing.assert_array_equal(ds.raw_values, [2.0, 4.0, 5.0, 1.0])

    def test_two_defects_report_the_earlier_line(self, tmp_path):
        # Line 2 lacks the timestamp the first row has; line 4 does not parse.
        path = _write(tmp_path, ["1\t10\t4\t100", "1\t11\t3", "", "2\tbroken"])
        with pytest.raises(DataError, match="only some rows, at line 2$"):
            load_triplets(path)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (("user", "item", "rating", "rating"), "'rating' given twice"),
            (("user", "item", "rating", "time"), "unknown column role 'time'"),
        ],
        ids=["repeated", "unknown"],
    )
    def test_column_spec_names_a_bad_role(self, tmp_path, columns, message):
        path = _write(tmp_path, ["1\t10\t4\t100", "1\t11\t2\t90"])
        with pytest.raises(ValueError, match=message):
            load_triplets(path, columns=columns)

    def test_csv_and_column_order(self, tmp_path):
        path = _write(tmp_path, ["4,1,10,100", "2,1,11,90"], name="r.csv")
        ds = load_triplets(
            path, fmt="csv", columns=("rating", "user", "item", "timestamp")
        )
        np.testing.assert_allclose(ds.level_vocab, [2.0, 4.0])

    def test_round_trip_through_canonical_format(self, tmp_path):
        path = _write(tmp_path, ["1\t10\t4\t100", "1\t11\t2\t90", "2\t10\t3\t8"])
        ds = load_triplets(path)
        out = tmp_path / "canonical.tsv"
        write_triplets(ds, out)
        again = load_triplets(out)
        np.testing.assert_array_equal(again.raw_values, ds.raw_values)
        np.testing.assert_array_equal(again.timestamps, ds.timestamps)

    def test_labels_distinct_as_text_stay_distinct(self, tmp_path):
        path = _write(tmp_path, ["007\t1\t4\t1", "7\t1\t2\t2", "8\t1\t3\t3"])
        ds = load_triplets(path)
        assert ds.n_users == 3
        assert sorted(ds.user_labels.tolist()) == ["007", "7", "8"]

    def test_level_value_round_trip(self, tmp_path):
        path = _write(tmp_path, ["1\t1\t0.5\t1", "1\t2\t3.5\t2", "2\t1\t5\t3"])
        ds = load_triplets(path)
        for value in ds.level_vocab:
            level = _levels_of(ds.level_vocab, [value])[0]
            assert ds.level_vocab[level] == value


def _label_writer(rng):
    """One column's label text: integers, strings, or integers written both
    plainly and zero-padded, as ``7`` and ``007``."""
    kind = rng.integers(3)
    if kind == 0:
        return str
    if kind == 1:
        return lambda k: f"u{k}"
    return lambda k: f"{k // 2:03d}" if k % 2 else str(k // 2)


def _seeded_file(tmp_path, seed):
    """A small ratings file in a seeded layout with at most one defect.

    Returns its path, format and column spec. Layouts vary in labels,
    ratings, timestamps (none, integral, fractional), blank lines,
    duplicate pairs, delimiter, column order and skipped columns.
    """
    rng = np.random.default_rng(seed)
    fmt = ("tsv", "csv")[rng.integers(2)]
    ts_kind = rng.integers(3)  # 0 none, 1 integral, 2 fractional
    roles = ["user", "item", "rating"] + (["timestamp"] if ts_kind else [])
    roles = [roles[i] for i in rng.permutation(len(roles))]
    roles[rng.integers(len(roles) + 1):0] = ["-"] * rng.integers(3)
    if ts_kind == 0 and rng.random() < 0.3:
        roles.append("timestamp")  # a spec'd trailing column no row has
    user_text, item_text = _label_writer(rng), _label_writer(rng)
    scale = rng.choice([1.0, 0.5, 0.25])
    rows = []
    for _ in range(rng.integers(1, 30)):
        cells = {
            "user": user_text(int(rng.integers(12))),
            "item": item_text(int(rng.integers(12))),
            "rating": repr(float(scale * rng.integers(1, 11))),
            "timestamp": str(int(rng.integers(10**9)))
            if ts_kind == 1 else repr(float(rng.integers(100)) / 4),
            "-": "x",
        }
        if ts_kind == 0:
            cells.pop("timestamp")
        rows.append([cells.get(role) for role in roles])
    for _ in range(rng.integers(3)):  # repeat a pair with a new rating
        row = list(rows[rng.integers(len(rows))])
        row[roles.index("rating")] = repr(float(rng.integers(1, 6)))
        rows.insert(rng.integers(len(rows) + 1), row)
    defect = rng.integers(8)
    at = rng.integers(len(rows))
    ts_at = roles.index("timestamp") if "timestamp" in roles else None
    if defect == 1:
        rows[at] = rows[at][:1]
    elif defect == 2:
        rows[at][roles.index("rating")] = "four"
    elif defect == 3:
        rows[at][roles.index("rating")] = ("nan", "inf", "-inf")[rng.integers(3)]
    elif defect == 4 and ts_kind:
        rows[at][ts_at] = ("nan", "inf", "-inf", "t")[rng.integers(4)]
    elif defect == 5 and ts_kind and ts_at == len(roles) - 1:
        rows[at] = rows[at][:-1]  # one row without the trailing timestamp
    elif defect == 6 and ts_at == len(roles) - 1 and not ts_kind:
        rows[at][-1] = "7"  # one row with a timestamp the others lack
    elif defect == 7 and rng.random() < 0.2:
        rows = []
    delim = "\t" if fmt == "tsv" else ","
    lines = [delim.join(c for c in row if c is not None) for row in rows]
    for _ in range(rng.integers(3)):
        lines.insert(rng.integers(len(lines) + 1), ("", "  ")[rng.integers(2)])
    path = tmp_path / f"f{seed}.{fmt}"
    path.write_text("".join(f"{line}\n" for line in lines))
    return path, fmt, tuple(roles)


def _outcome(load, path, fmt, columns):
    """What a loader gives for a file: a dataset or an error, and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(path, fmt=fmt, columns=columns)
        except (DataError, ValueError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


class TestMatchesTwoPassLoader:
    def test_same_outputs_warnings_and_errors(self, tmp_path):
        kinds = set()
        for seed in range(400):
            path, fmt, columns = _seeded_file(tmp_path, seed)
            new, new_warned = _outcome(load_triplets, path, fmt, columns)
            old, old_warned = _outcome(load_triplets_two_pass, path, fmt, columns)
            assert new_warned == old_warned, seed
            if isinstance(old, tuple):
                assert new == old, seed
                kinds.add(old[1].split(": ")[1].split(" ")[0])
                continue
            kinds.add("none" if old.timestamps is None else old.timestamps.dtype.name)
            for name in ("users", "items", "levels", "timestamps", "level_vocab",
                         "user_labels", "item_labels"):
                a, b = getattr(new, name), getattr(old, name)
                assert (a is None) == (b is None), (seed, name)
                if a is not None:
                    assert a.dtype == b.dtype, (seed, name)
                    assert np.array_equal(a, b), (seed, name)
        # Every error ("no" is "no ratings found") and timestamp type came up.
        assert {"malformed", "non-finite", "timestamps", "no", "none", "int64",
                "float64"} <= kinds


def test_load_keeps_no_per_row_label_objects(tmp_path):
    # Per-row label strings and None timestamps cost ~240 bytes a row; the
    # parsed columns and the dedupe arrays cost ~120.
    rng = np.random.default_rng(0)
    n_users, n_items, n = 3000, 2000, 100_000
    keys = np.sort(rng.choice(n_users * n_items, n, replace=False))
    ds = SparseRatingDataset(
        keys // n_items, keys % n_items, rng.integers(0, 5, n),
        874724710 + rng.permutation(n), np.arange(1.0, 6.0),
        np.arange(n_users), np.arange(n_items),
    )
    path = tmp_path / "big.tsv"
    write_triplets(ds, path)
    tracemalloc.start()
    try:
        load_triplets(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 160


def _toy_dataset(n=40, seed=0, with_ts=True):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, 8, n)
    items = rng.integers(0, 10, n)
    keep = np.unique(users * 10 + items)
    users, items = keep // 10, keep % 10
    levels = rng.integers(0, 5, users.size)
    ts = np.arange(users.size) if with_ts else None
    return SparseRatingDataset(
        users, items, levels, ts,
        np.arange(1.0, 6.0), np.arange(8), np.arange(10),
    )


class TestInvariants:
    def test_repeated_pair_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            SparseRatingDataset(
                [0, 1, 0], [2, 0, 2], [0, 1, 1], None,
                [1.0, 2.0], np.arange(2), np.arange(3),
            )

    def test_one_level_accepted(self):
        # Held-out data may use any subset of a model's rating values.
        ds = SparseRatingDataset([0, 1], [0, 0], [0, 0], None, [4.0],
                                 np.arange(2), np.arange(1))
        assert ds.n_levels == 1


class TestSplit:
    def test_chronological_boundaries(self):
        ds = SparseRatingDataset(
            np.arange(10) % 3,
            np.arange(10),
            np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4]),
            np.arange(1, 11),
            np.arange(1.0, 6.0),
            np.arange(3),
            np.arange(10),
        )
        spec = SplitSpec("chronological", val_fraction=0.125)
        train, val, test = split(ds, spec)
        # 8 train rows total; the last one becomes validation.
        assert train.n_ratings == 7
        assert val.n_ratings == 1
        assert test.n_ratings == 2
        assert set(test.timestamps) == {9, 10}
        assert val.timestamps[0] == 8

    def test_uniform_is_deterministic(self):
        ds = _toy_dataset()
        spec = SplitSpec("uniform", seed=7)
        a = split(ds, spec)
        b = split(ds, spec)
        for part_a, part_b in zip(a, b):
            np.testing.assert_array_equal(part_a.users, part_b.users)
            np.testing.assert_array_equal(part_a.items, part_b.items)

    def test_uniform_fractions(self):
        rng = np.random.default_rng(1)
        users = np.repeat(np.arange(10), 10)
        items = np.tile(np.arange(10), 10)
        ds = SparseRatingDataset(
            users, items, rng.integers(0, 5, 100), None,
            np.arange(1.0, 6.0), np.arange(10), np.arange(10),
        )
        train, val, test = split(ds, SplitSpec("uniform", seed=3))
        assert train.n_ratings + val.n_ratings == 80
        assert test.n_ratings == 20

    def test_partition_is_exact(self):
        ds = _toy_dataset(seed=5)
        train, val, test = split(ds, SplitSpec("uniform", seed=2))
        total = train.n_ratings + (0 if val is None else val.n_ratings) + test.n_ratings
        assert total == ds.n_ratings
        keys = [
            set(zip(part.users.tolist(), part.items.tolist()))
            for part in (train, val, test)
            if part is not None
        ]
        union = set().union(*keys)
        assert len(union) == ds.n_ratings  # no overlap anywhere

    def test_chronological_requires_timestamps(self):
        ds = _toy_dataset(with_ts=False)
        with pytest.raises(DataError):
            split(ds, SplitSpec("chronological"))


class TestPreprocess:
    def test_constant_rating_user_removed(self):
        users = np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])
        items = np.array([0, 1, 2, 0, 1, 2, 0, 1, 2])
        levels = np.array([3, 3, 3, 0, 1, 2, 2, 1, 0])
        ds = SparseRatingDataset(
            users, items, levels, np.arange(9),
            np.arange(1.0, 6.0), np.arange(3), np.arange(3),
        )
        clean = preprocess(ds, SplitSpec("chronological", val_fraction=0.5))
        assert 0 not in set(clean.user_labels[clean.users].tolist())

    def test_cold_start_test_rows_dropped(self):
        # Item 9 appears only in the final (test) row and must vanish.
        users = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1])
        items = np.array([0, 0, 1, 1, 2, 2, 3, 3, 4, 9])
        levels = np.array([0, 1, 2, 3, 4, 0, 1, 2, 3, 4])
        ds = SparseRatingDataset(
            users, items, levels, np.arange(10),
            np.arange(1.0, 6.0), np.arange(2), np.arange(10),
        )
        clean = preprocess(ds, SplitSpec("chronological"))
        assert 9 not in set(clean.item_labels[clean.items].tolist())

    def test_clean_dataset_is_fixed_point(self):
        # A Latin-square layout: every user and item occurs throughout the
        # timeline, so the chronological split leaves nothing cold.
        rows = np.arange(36)
        users = rows % 6
        items = (rows // 6 + rows % 6) % 6
        levels = (rows % 6 + rows // 6) % 5
        ds = SparseRatingDataset(
            users, items, levels, rows,
            np.arange(1.0, 6.0), np.arange(6), np.arange(6),
        )
        clean = preprocess(ds, SplitSpec("chronological"))
        assert clean.n_ratings == ds.n_ratings

    def test_post_conditions_hold(self):
        ds = _toy_dataset(n=120, seed=11)
        spec = SplitSpec("uniform", seed=4)
        clean = preprocess(ds, spec)
        train, val, test = split(clean, spec)
        fit_users = set(train.users.tolist())
        fit_items = set(train.items.tolist())
        if val is not None:
            fit_users |= set(val.users.tolist())
            fit_items |= set(val.items.tolist())
        assert set(test.users.tolist()) <= fit_users
        assert set(test.items.tolist()) <= fit_items
        seen = {}
        for u, lv in zip(clean.users.tolist(), clean.levels.tolist()):
            seen.setdefault(u, set()).add(lv)
        assert all(len(lvls) > 1 for lvls in seen.values())

    def test_everything_filtered_raises(self):
        users = np.array([0, 0, 1, 1])
        items = np.array([0, 1, 0, 1])
        levels = np.array([2, 2, 3, 3])  # both users constant
        ds = SparseRatingDataset(
            users, items, levels, np.arange(4),
            np.arange(1.0, 6.0), np.arange(2), np.arange(2),
        )
        with pytest.raises(DataError):
            preprocess(ds, SplitSpec("chronological"))


def _align_to(reference, other):
    return align(
        other, reference.user_labels, reference.item_labels,
        reference.level_vocab,
    )


class TestAlignConcat:
    def test_align_to_reference(self, tmp_path):
        ref = load_triplets(
            _write(tmp_path, ["1\t10\t4\t1", "1\t11\t2\t2", "2\t10\t2\t3"])
        )
        other = load_triplets(
            _write(tmp_path, ["2\t10\t4\t9", "1\t11\t2\t8"], name="o.tsv")
        )
        aligned = _align_to(ref, other)
        assert aligned.n_users == ref.n_users
        np.testing.assert_array_equal(
            aligned.user_labels[aligned.users], [2, 1]
        )

    def test_align_rejects_unknown_label(self, tmp_path):
        # Rows of a user the reference never saw are dropped and counted;
        # a file with nothing left to score raises.
        ref = load_triplets(_write(tmp_path, ["1\t10\t4\t1", "2\t10\t2\t2"]))
        other = load_triplets(
            _write(tmp_path, ["7\t10\t4\t9", "1\t10\t2\t1"], name="o.tsv")
        )
        with pytest.warns(UserWarning, match="1 of 2 rows"):
            aligned = _align_to(ref, other)
        assert aligned.n_ratings == 1
        assert aligned.user_labels[aligned.users[0]] == 1
        alien = load_triplets(
            _write(tmp_path, ["7\t10\t4\t9", "8\t10\t2\t1"], name="a.tsv")
        )
        with pytest.raises(DataError, match="no row"):
            _align_to(ref, alien)

    def test_align_matches_labels_by_text(self, tmp_path):
        ref = load_triplets(
            _write(tmp_path, ["1\t10\t4\t1", "1\t11\t2\t2", "2\t10\t2\t3"])
        )
        # One non-integer label keeps every label of this file a string.
        other = load_triplets(
            _write(tmp_path, ["1\t10\t2\t1", "u9\t11\t4\t2"], name="o.tsv")
        )
        with pytest.warns(UserWarning, match="1 of 2 rows"):
            aligned = _align_to(ref, other)
        assert aligned.user_labels[aligned.users].tolist() == [1]
        assert aligned.item_labels[aligned.items].tolist() == [10]
        assert aligned.raw_values.tolist() == [2.0]

    @pytest.mark.parametrize("value", ["3.9999999", "4.0000001"])
    def test_align_requires_exact_rating_values(self, tmp_path, value):
        ref = load_triplets(_write(tmp_path, ["1\t10\t4\t1", "2\t10\t2\t2"]))
        other = load_triplets(
            _write(tmp_path, [f"1\t10\t{value}\t1", "2\t10\t2\t2"], name="o.tsv")
        )
        with pytest.raises(DataError, match="not in vocabulary"):
            _align_to(ref, other)

    def test_concat_requires_shared_spaces(self):
        ds = _toy_dataset(seed=6)
        train, _, test = split(ds, SplitSpec("uniform", seed=1))
        merged = concat_rows(train, test)
        assert merged.n_ratings == train.n_ratings + test.n_ratings

    def test_concat_of_overlapping_rows_raises(self):
        ds = _toy_dataset(seed=6)
        train, _, _ = split(ds, SplitSpec("uniform", seed=1))
        with pytest.raises(DataError, match="duplicate"):
            concat_rows(train, train.subset([0]))

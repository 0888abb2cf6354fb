"""Rating data ingestion, level encoding, preprocessing, and splitting.

Ratings are stored as (user, item, level) triplets with dense integer ids
and a sorted vocabulary of the distinct raw rating values; the level of a
triplet is its raw value's index in that vocabulary. Splits produce row
subsets that share the parent's id spaces and vocabulary, so factor models
and transforms line up across train, validation, and test.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class SparseRatingDataset:
    """Rating triplets; construction checks the rules every dataset keeps.

    These are: at least one rating, a strictly ascending vocabulary, levels
    inside it, and no repeated (user, item) pair. Training's own rule, two
    distinct levels, is checked by `core._TrainData`.
    """

    users: np.ndarray  # dense user ids
    items: np.ndarray  # dense item ids
    levels: np.ndarray  # 0-based index into level_vocab
    timestamps: np.ndarray | None
    level_vocab: np.ndarray  # distinct raw rating values, ascending
    user_labels: np.ndarray  # original labels; position = dense id
    item_labels: np.ndarray

    def __post_init__(self):
        self.users = np.asarray(self.users, dtype=np.int64)
        self.items = np.asarray(self.items, dtype=np.int64)
        self.levels = np.asarray(self.levels, dtype=np.int64)
        self.level_vocab = np.asarray(self.level_vocab, dtype=float)
        if self.n_ratings == 0:
            raise DataError("dataset has no ratings")
        if np.any(np.diff(self.level_vocab) <= 0):
            raise DataError("level vocabulary must be strictly ascending")
        if self.levels.min() < 0 or self.levels.max() >= self.level_vocab.size:
            raise DataError("level index out of vocabulary range")
        pairs = np.sort(self.users * (self.items.max() + 1) + self.items)
        if np.any(pairs[1:] == pairs[:-1]):
            raise DataError("duplicate (user, item) pairs")

    @property
    def n_ratings(self) -> int:
        return self.users.size

    @property
    def n_users(self) -> int:
        return self.user_labels.size

    @property
    def n_items(self) -> int:
        return self.item_labels.size

    @property
    def n_levels(self) -> int:
        return self.level_vocab.size

    @property
    def raw_values(self) -> np.ndarray:
        """Raw rating value per triplet."""
        return self.level_vocab[self.levels]

    def subset(self, index) -> "SparseRatingDataset":
        """Row subset sharing this dataset's id spaces and vocabulary."""
        index = np.asarray(index)
        return SparseRatingDataset(
            self.users[index],
            self.items[index],
            self.levels[index],
            None if self.timestamps is None else self.timestamps[index],
            self.level_vocab,
            self.user_labels,
            self.item_labels,
        )

    def compact(self) -> "SparseRatingDataset":
        """Renumber dense ids so every user and item has at least one row."""
        used_u, new_users = np.unique(self.users, return_inverse=True)
        used_i, new_items = np.unique(self.items, return_inverse=True)
        return SparseRatingDataset(
            new_users,
            new_items,
            self.levels,
            self.timestamps,
            self.level_vocab,
            self.user_labels[used_u],
            self.item_labels[used_i],
        )


@dataclass
class SplitSpec:
    strategy: str  # "chronological" or "uniform"
    seed: int = 0
    train_fraction: float = 0.8
    val_fraction: float = 0.1  # fraction of the train block held out

    def __post_init__(self):
        if self.strategy not in ("chronological", "uniform"):
            raise ValueError(f"unknown split strategy {self.strategy!r}")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if not 0 < self.val_fraction < 1:
            raise ValueError("val_fraction must lie in (0, 1)")


_DELIMS = {"tsv": "\t", "csv": ","}
WRITE_BLOCK_ROWS = 1 << 16


def load_triplets(
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
            raise DataError(f"{path}: timestamps present on only some rows")

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


def _number_text(values) -> list:
    """Shortest round-trip text of each number; integral floats drop ``.0``."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return [str(v) for v in values.tolist()]
    text = [repr(v) for v in values.tolist()]
    return [t[:-2] if t.endswith(".0") else t for t in text]


def write_triplets(dataset: SparseRatingDataset, path) -> None:
    """Write the canonical tab-separated triplet format.

    Ratings and timestamps are written as their shortest round-trip text, so
    reading the file back gives every value exactly.
    """
    users = np.asarray([str(v) for v in dataset.user_labels], dtype=object)
    items = np.asarray([str(v) for v in dataset.item_labels], dtype=object)
    values = np.asarray(_number_text(dataset.level_vocab), dtype=object)
    with open(path, "w") as fh:
        # Bounded blocks keep the text of a large file out of memory.
        for start in range(0, dataset.n_ratings, WRITE_BLOCK_ROWS):
            rows = slice(start, start + WRITE_BLOCK_ROWS)
            columns = [
                users[dataset.users[rows]].tolist(),
                items[dataset.items[rows]].tolist(),
                values[dataset.levels[rows]].tolist(),
            ]
            if dataset.timestamps is not None:
                columns.append(_number_text(dataset.timestamps[rows]))
            fh.writelines("\t".join(row) + "\n" for row in zip(*columns))


def _levels_of(level_vocab, values) -> np.ndarray:
    """Vocabulary index of each value; a value not in it exactly raises."""
    values = np.asarray(values, dtype=float)
    idx = np.minimum(np.searchsorted(level_vocab, values), level_vocab.size - 1)
    wrong = level_vocab[idx] != values
    if wrong.any():
        raise DataError(
            f"rating value {float(values[wrong][0])!r} not in vocabulary"
        )
    return idx


def _positions(labels, queries) -> np.ndarray:
    """Index of each query in `labels`, matched by text; -1 when absent."""
    text = np.asarray(labels).astype(str)
    order = np.argsort(text)
    ranked = text[order]
    queries = np.asarray(queries).astype(str)
    at = np.minimum(np.searchsorted(ranked, queries), ranked.size - 1)
    return np.where(ranked[at] == queries, order[at], -1)


def align(
    other: SparseRatingDataset, user_labels, item_labels, level_vocab
) -> SparseRatingDataset:
    """Re-express `other` in a trained model's id spaces and vocabulary.

    Labels match by their text. Rows whose user or item label is not among
    `user_labels`/`item_labels` cannot be scored: they are dropped with one
    warning giving their count. A rating value that is not exactly a
    `level_vocab` value, or nothing left to score, raises.
    """
    user_labels = np.asarray(user_labels)
    item_labels = np.asarray(item_labels)
    level_vocab = np.asarray(level_vocab, dtype=float)
    levels = _levels_of(level_vocab, other.level_vocab)[other.levels]
    users = _positions(user_labels, other.user_labels)[other.users]
    items = _positions(item_labels, other.item_labels)[other.items]
    keep = (users >= 0) & (items >= 0)
    if not keep.any():
        raise DataError("no row has a user and an item known to the model")
    dropped = other.n_ratings - int(keep.sum())
    if dropped:
        warnings.warn(
            f"{dropped} of {other.n_ratings} rows have a user or item the "
            "model never saw; dropped",
            stacklevel=2,
        )
    return SparseRatingDataset(
        users[keep],
        items[keep],
        levels[keep],
        None if other.timestamps is None else other.timestamps[keep],
        level_vocab,
        user_labels,
        item_labels,
    )


def concat_rows(
    a: SparseRatingDataset, b: SparseRatingDataset
) -> SparseRatingDataset:
    """Union of two row sets over identical id spaces and vocabulary."""
    if (
        not np.array_equal(a.user_labels, b.user_labels)
        or not np.array_equal(a.item_labels, b.item_labels)
        or not np.array_equal(a.level_vocab, b.level_vocab)
    ):
        raise DataError("datasets must share id spaces and vocabulary")
    timestamps = (
        None if a.timestamps is None or b.timestamps is None
        else np.concatenate([a.timestamps, b.timestamps])
    )
    return SparseRatingDataset(
        np.concatenate([a.users, b.users]),
        np.concatenate([a.items, b.items]),
        np.concatenate([a.levels, b.levels]),
        timestamps,
        a.level_vocab,
        a.user_labels,
        a.item_labels,
    )


def _split_indices(dataset: SparseRatingDataset, spec: SplitSpec):
    """Row indices of the (train, validation, test) blocks, each sorted."""
    n = dataset.n_ratings
    if spec.strategy == "chronological":
        if dataset.timestamps is None:
            raise DataError("chronological split requires timestamps")
        order = np.argsort(dataset.timestamps, kind="stable")
    else:
        order = np.random.default_rng(spec.seed).permutation(n)
    n_train = int(n * spec.train_fraction)
    n_val = int(n_train * spec.val_fraction)
    if n_train == 0 or n_train == n:
        raise DataError("split produced an empty train or test block")
    train_block = order[:n_train]
    return (
        np.sort(train_block[: n_train - n_val]),
        np.sort(train_block[n_train - n_val :]),
        np.sort(order[n_train:]),
    )


def split(dataset: SparseRatingDataset, spec: SplitSpec):
    """Partition rows into (train, validation, test) subsets.

    Chronological: sort by timestamp (ties keep input order), train on the
    earliest block, test on the rest, validation is the last slice of the
    train block. Uniform: a seeded shuffle plays the role of the ordering.
    The validation subset is None when its share rounds down to nothing.
    """
    train_idx, val_idx, test_idx = _split_indices(dataset, spec)
    return (
        dataset.subset(train_idx),
        dataset.subset(val_idx) if val_idx.size else None,
        dataset.subset(test_idx),
    )


def _constant_user_rows(dataset: SparseRatingDataset) -> np.ndarray:
    """Boolean mask of rows belonging to users with a single distinct level."""
    n_lv = dataset.n_levels
    seen = np.zeros((dataset.n_users, n_lv), dtype=bool)
    seen[dataset.users, dataset.levels] = True
    constant = seen.sum(axis=1) == 1
    return constant[dataset.users]


def preprocess(dataset: SparseRatingDataset, spec: SplitSpec) -> SparseRatingDataset:
    """Filter the dataset until its split is clean, then compact ids.

    Two filters run to a joint fixed point: users whose ratings are all one
    level are dropped, and test rows whose user or item never occurs in the
    train block (validation included) are dropped. Because removals shift
    the split boundary, the split is recomputed each round.
    """
    current = dataset
    while True:
        const_rows = _constant_user_rows(current)
        if const_rows.all():
            raise DataError("preprocessing removed every rating")
        if const_rows.any():
            current = current.subset(~const_rows)
            continue
        train_idx, val_idx, test_idx = _split_indices(current, spec)
        fit_users = np.zeros(current.n_users, dtype=bool)
        fit_items = np.zeros(current.n_items, dtype=bool)
        for idx in (train_idx, val_idx):
            fit_users[current.users[idx]] = True
            fit_items[current.items[idx]] = True
        cold = ~(
            fit_users[current.users[test_idx]]
            & fit_items[current.items[test_idx]]
        )
        if not cold.any():
            return current.compact()
        keep = np.ones(current.n_ratings, dtype=bool)
        keep[test_idx[cold]] = False
        if not keep.any():
            raise DataError("preprocessing removed every rating")
        current = current.subset(keep)

"""Interaction log ingestion, filtering, splitting, and positional tensor construction."""

from __future__ import annotations

import array
import contextlib
import csv
import gzip
import io
import itertools
import json
import numbers
import zipfile
import zlib
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DataError",
    "ParseError",
    "InteractionLog",
    "TimeSplit",
    "SparsePositionalTensor",
    "ingest_log",
    "core_filter",
    "timepoint_split",
    "boundary_for_count",
    "build_positional_tensor",
    "save_split",
    "load_split",
]

LOG_FORMAT_VERSION = 1
MAX_TIMESTAMP = np.iinfo(np.int64).max


class DataError(ValueError):
    pass


class ParseError(DataError):
    pass


@dataclass(frozen=True)
class InteractionLog:
    """Index-mapped interaction events in (user, time) order.

    ``users``, ``items``, ``timestamps`` are parallel int64 arrays. ``user_map``
    and ``item_map`` take external ids to contiguous 0-based indices. ``n_users``
    and ``n_items`` may exceed the number of distinct indices present (splits of
    a larger log share the parent's index space).

    The constructor owns the event order: each user's events run oldest
    first, ties in arrival order. Events given out of that order are stably
    sorted once here, so no consumer sorts. Only :func:`ingest_log`
    deduplicates; a log built by hand may repeat a (user, item) pair.
    """

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    user_map: dict = field(repr=False)
    item_map: dict = field(repr=False)
    n_users: int
    n_items: int

    def __post_init__(self):
        users, times = self.users, self.timestamps
        back = users[1:] < users[:-1]
        back |= (users[1:] == users[:-1]) & (times[1:] < times[:-1])
        if back.any():
            order = np.lexsort((times, users))  # stable: ties keep arrival order
            for name in ("users", "items", "timestamps"):
                object.__setattr__(self, name, getattr(self, name)[order])

    def __len__(self):
        return len(self.users)

    def item_counts(self):
        return np.bincount(self.items, minlength=self.n_items)

    def replace_events(self, users, items, timestamps):
        return InteractionLog(
            users=np.asarray(users, dtype=np.int64),
            items=np.asarray(items, dtype=np.int64),
            timestamps=np.asarray(timestamps, dtype=np.int64),
            user_map=self.user_map,
            item_map=self.item_map,
            n_users=self.n_users,
            n_items=self.n_items,
        )


@dataclass(frozen=True)
class TimeSplit:
    train: InteractionLog
    validation: InteractionLog
    test: InteractionLog
    t_valid: int
    t_test: int


@dataclass(frozen=True)
class SparsePositionalTensor:
    """COO-encoded binary tensor of right-aligned user histories.

    For user ``i`` with ``n_i`` retained items, the p-th retained item (1-based,
    oldest first) sits at position ``p - n_i + K`` so the most recent item is
    always at position ``K``. Positions are stored 1-based.
    """

    users: np.ndarray
    items: np.ndarray
    positions: np.ndarray
    shape: tuple

    @property
    def n_items(self):
        return self.shape[1]

    @property
    def max_position(self):
        return self.shape[2]

    def item_counts(self):
        return np.bincount(self.items, minlength=self.n_items)

    def to_dense(self):
        dense = np.zeros(self.shape)
        dense[self.users, self.items, self.positions - 1] = 1.0
        return dense


@contextlib.contextmanager
def _open_source(path, errors="strict"):
    """Text view of the file at path, closed on exit; gzip is detected from its
    magic bytes, and a leading UTF-8 byte-order mark is skipped. ``errors`` is
    the decoder's error handler."""
    with contextlib.ExitStack() as stack:
        raw = stack.enter_context(open(path, "rb"))
        if raw.peek(2)[:2] == b"\x1f\x8b":
            # closing a GzipFile leaves the file it reads from open
            raw = stack.enter_context(gzip.open(raw, "rb"))
        yield stack.enter_context(io.TextIOWrapper(raw, encoding="utf-8-sig", errors=errors))


def _utf8_lines(text):
    """The lines of a text read with ``errors="surrogateescape"``; pulling the
    first line that holds a byte that is not UTF-8 raises the
    :class:`ParseError` naming it."""
    for lineno, line in enumerate(text, 1):
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"line {lineno}: not UTF-8: {exc}") from None
        yield line


def _read_columns(lines, delimiter, user_col, item_col, time_col, header):
    """The user map, the item map, the user codes, item codes and float
    timestamps of the data rows as typed arrays, and by row the exact value
    of each timestamp of ASCII digits that a float cannot hold (2**53 on).

    Each row's user and item are coded as the row is read, each id by its rank
    of first appearance, so the only id strings kept are the maps' keys.
    Each row is checked as it is read, so the first bad line raises its
    :class:`ParseError`: a short row, a timestamp :func:`_check_timestamp`
    rejects, a field the csv module rejects or a corrupt gzip stream. A row
    is named by the physical line it starts on. A byte that is not UTF-8
    raises the decoder's error.
    """
    rows = csv.reader(lines, delimiter=delimiter)

    def line(row):  # the reader's line less the quoted newlines of the row
        return rows.line_num - sum(value.count("\n") for value in row)

    user_map = defaultdict(itertools.count().__next__)
    item_map = defaultdict(itertools.count().__next__)
    users, items, times, exact = array.array("q"), array.array("q"), array.array("d"), {}
    try:
        if header:
            names = next(rows, None)
            if names is None:
                raise ParseError("empty source")
            try:
                u_idx = names.index(user_col)
                i_idx = names.index(item_col)
                t_idx = names.index(time_col)
            except ValueError as exc:
                raise ParseError(f"missing column in header: {exc}") from None
        else:
            u_idx, i_idx, t_idx = user_col, item_col, time_col
        needed = max(u_idx, i_idx, t_idx) + 1
        # a one-field row may be a whitespace-only line even when one field is enough
        short = max(needed, 2)
        add_user, add_item, add_time = users.append, items.append, times.append
        for row in rows:
            if len(row) < short:
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) < needed:
                    raise ParseError(
                        f"line {line(row)}: expected at least {needed} columns, got {len(row)}")
            text = row[t_idx]
            try:
                t = float(text)
            except ValueError:
                _check_timestamp(text, line(row))
            # exactly the values int(t) maps into [0, 2**63); NaN fails too
            if not -1.0 < t < 2.0 ** 63:
                _check_timestamp(text, line(row))
            if t >= 2.0 ** 53 and text.isdigit() and text.isascii():
                exact[len(times)] = int(text)
            add_user(user_map[row[u_idx]])
            add_item(item_map[row[i_idx]])
            add_time(t)
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise ParseError(f"corrupt or truncated gzip stream: {exc}") from None
    except csv.Error as exc:
        raise ParseError(f"line {rows.line_num}: {exc}") from None
    return dict(user_map), dict(item_map), users, items, times, exact


def _check_timestamp(text, lineno):
    """Raise the :class:`ParseError` naming the line if ``int(float(text))``
    fails or falls outside [0, 2**63)."""
    try:
        ts = int(float(text))
    except ValueError:
        raise ParseError(f"line {lineno}: unparsable timestamp {text!r}") from None
    except OverflowError:
        raise ParseError(f"line {lineno}: timestamp {text!r} out of range") from None
    if ts < 0:
        raise ParseError(f"line {lineno}: negative timestamp {ts}")
    if ts > MAX_TIMESTAMP:
        raise ParseError(f"line {lineno}: timestamp {text!r} out of range")


def ingest_log(path, delimiter=",", user_col="user", item_col="item",
               time_col="timestamp", header=True):
    """Parse the delimited text file at ``path`` into an :class:`InteractionLog`.

    Rating columns, if present, are ignored: the signal is implicit/binary.
    Duplicate (user, item) pairs collapse to the earliest-timestamp occurrence.
    Column arguments are names when ``header`` is true, 0-based indices
    otherwise; an index that is not an integer >= 0 raises :class:`ParseError`.
    gzip is detected, and a truncated or corrupt gzip stream raises
    :class:`ParseError`; a leading UTF-8 byte-order mark is skipped.

    Each row is checked as it is read, and the first bad line raises a
    :class:`ParseError` that names it; a byte that is not UTF-8 is named by
    its line too. Users and items are coded as rows are read, so no row's id
    strings are held; deduplication and item re-indexing then run on whole
    code columns.
    """
    if not header:
        for col in (user_col, item_col, time_col):
            if isinstance(col, bool) or not isinstance(col, numbers.Integral) or col < 0:
                raise ParseError(f"column index must be an integer >= 0, got {col!r}")
    columns = (delimiter, user_col, item_col, time_col, header)
    try:
        with _open_source(path) as text:
            user_map, item_codes, users, items, times, exact = _read_columns(text, *columns)
    except UnicodeDecodeError:
        # the decoder names no line: read again, escaping the bad bytes, and
        # raise at the first line that holds one unless a row before it is bad
        with _open_source(path, errors="surrogateescape") as text:
            _read_columns(_utf8_lines(text), *columns)
        raise
    if not users:
        raise ParseError("empty source")
    # users are coded by first appearance in ingestion order; items are
    # re-indexed after deduplication
    uidx = np.frombuffer(users, dtype=np.int64)
    icode = np.frombuffer(items, dtype=np.int64)
    times = np.trunc(np.frombuffer(times, dtype=np.float64)).astype(np.int64)
    times[list(exact)] = list(exact.values())

    order = np.lexsort((times, uidx))  # stable: ties keep row order
    # keep the earliest occurrence of each (user, item) pair: np.unique
    # returns the first index of each pair code in (user, time, row) order
    _, first = np.unique(uidx[order] * len(item_codes) + icode[order], return_index=True)
    keep = order[np.sort(first)]

    # items indexed by first appearance in the sorted, deduplicated log
    kept = icode[keep]
    codes, first = np.unique(kept, return_index=True)
    ranked = codes[np.argsort(first)]
    remap = np.empty(len(item_codes), dtype=np.int64)
    remap[ranked] = np.arange(len(ranked))
    names = list(item_codes)
    item_map = dict(zip(map(names.__getitem__, ranked.tolist()), range(len(ranked))))

    return InteractionLog(
        users=uidx[keep],
        items=remap[kept],
        timestamps=times[keep],
        user_map=user_map,
        item_map=item_map,
        n_users=len(user_map),
        n_items=len(item_map),
    )


def _densify(log, user_keep, item_keep):
    """Re-densify index maps after dropping users/items (order-preserving)."""
    user_remap = np.cumsum(user_keep, dtype=np.int64) - 1  # rank among the kept
    item_remap = np.cumsum(item_keep, dtype=np.int64) - 1
    mask = user_keep[log.users] & item_keep[log.items]
    user_map = {k: int(user_remap[v]) for k, v in log.user_map.items() if user_keep[v]}
    item_map = {k: int(item_remap[v]) for k, v in log.item_map.items() if item_keep[v]}
    return InteractionLog(
        users=user_remap[log.users[mask]],
        items=item_remap[log.items[mask]],
        timestamps=log.timestamps[mask],
        user_map=user_map,
        item_map=item_map,
        n_users=int(user_keep.sum()),
        n_items=int(item_keep.sum()),
    )


def core_filter(log, k):
    """Iterate user/item peeling to a fixed point where every survivor has >= k interactions."""
    if k < 1:
        raise DataError("k must be >= 1")
    users = log.users
    items = log.items
    user_keep = np.ones(log.n_users, dtype=bool)
    item_keep = np.ones(log.n_items, dtype=bool)
    mask = np.ones(len(users), dtype=bool)
    while True:
        ucnt = np.bincount(users[mask], minlength=log.n_users)
        icnt = np.bincount(items[mask], minlength=log.n_items)
        drop_u = user_keep & (ucnt < k)
        drop_i = item_keep & (icnt < k)
        if not drop_u.any() and not drop_i.any():
            break
        user_keep &= ~drop_u
        item_keep &= ~drop_i
        mask = user_keep[users] & item_keep[items]
    if not mask.any():
        raise DataError("k-core empty")
    return _densify(log, user_keep, item_keep)


def timepoint_split(log, t_valid, t_test):
    """Partition by timestamp into [-inf, t_valid), [t_valid, t_test), [t_test, inf).

    A boundary timestamp belongs to the later split. Users/items appearing only
    in validation or test keep their indices; they are skipped at scoring time.
    """
    # equal boundaries leave validation empty, which is reported with the others
    if t_valid > t_test:
        raise DataError("t_valid must be < t_test")
    ts = log.timestamps
    train_mask = ts < t_valid
    valid_mask = (ts >= t_valid) & (ts < t_test)
    test_mask = ts >= t_test
    for name, mask in (("train", train_mask), ("validation", valid_mask), ("test", test_mask)):
        if not mask.any():
            raise DataError(f"{name} split is empty")
    parts = [
        log.replace_events(log.users[m], log.items[m], ts[m])
        for m in (train_mask, valid_mask, test_mask)
    ]
    return TimeSplit(train=parts[0], validation=parts[1], test=parts[2],
                     t_valid=int(t_valid), t_test=int(t_test))


def boundary_for_count(log, tail_count):
    """Smallest log timestamp t such that the interval [t, inf) holds <= tail_count
    interactions; one past the latest timestamp when no log timestamp does."""
    if tail_count < 0:
        raise DataError("tail count must be >= 0")
    ts = np.sort(log.timestamps)
    if not len(ts):
        raise DataError("cannot place a boundary in an empty log")
    if tail_count >= len(ts):
        return int(ts[0])
    # every event tied with the latest one that must stay before the boundary
    # stays before it too
    cut = np.searchsorted(ts, ts[len(ts) - tail_count - 1], side="right")
    return int(ts[cut]) if cut < len(ts) else int(ts[-1]) + 1


def build_positional_tensor(train, K):
    """Encode each user's time-sorted history as right-aligned 1-based positions.

    Histories longer than ``K`` keep only the ``K`` most recent items; shorter
    histories leave leading positions empty.
    """
    if K < 1:
        raise DataError("K must be >= 1")
    # in (user, time) order, an event's distance from its user's newest event
    # is the user's end offset minus its own offset
    users, items = train.users, train.items
    distance = np.cumsum(np.bincount(users))[users] - np.arange(len(users))
    keep = distance <= K
    return SparsePositionalTensor(users=users[keep], items=items[keep],
                                  positions=K + 1 - distance[keep],
                                  shape=(train.n_users, train.n_items, K))


def _write_archive(path, meta, arrays):
    """Store ``meta`` as JSON next to the named arrays in one npz archive."""
    np.savez(path, meta=np.array(json.dumps(meta)), **arrays)


def _read_archive(path, version, build, what):
    """``build(meta, arrays)`` of the archive :func:`_write_archive` wrote to
    path, once its meta holds ``version``.

    Any failure, the builder's included, is one :class:`DataError` that names
    the file as not a readable ``what`` file.
    """
    try:
        # np.load(path) leaves the file open when the archive is unreadable
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
            meta = json.loads(str(data["meta"]))
            if meta["version"] != version:
                raise DataError(f"format version {meta['version']}, not {version}")
            return build(meta, data)
    except (zipfile.BadZipFile, EOFError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path} is not a readable {what} file: {exc}") from None


# each part of a split and the prefix of its arrays in split.npz
_SPLIT_PARTS = {"train": "train_", "validation": "valid_", "test": "test_"}
_LOG_ARRAYS = ("users", "items", "timestamps")


def save_split(split, path):
    meta = {
        "version": LOG_FORMAT_VERSION,
        "n_users": split.train.n_users,
        "n_items": split.train.n_items,
        "user_map": {str(k): v for k, v in split.train.user_map.items()},
        "item_map": {str(k): v for k, v in split.train.item_map.items()},
        "t_valid": split.t_valid,
        "t_test": split.t_test,
    }
    _write_archive(path, meta, {prefix + name: getattr(getattr(split, part), name)
                                for part, prefix in _SPLIT_PARTS.items()
                                for name in _LOG_ARRAYS})


def load_split(path):
    """The TimeSplit that save_split wrote to path; DataError if it cannot be read."""
    def build(meta, data):
        index = {key: meta[key] for key in ("user_map", "item_map", "n_users", "n_items")}
        logs = {part: InteractionLog(**{name: data[prefix + name] for name in _LOG_ARRAYS},
                                     **index)
                for part, prefix in _SPLIT_PARTS.items()}
        return TimeSplit(**logs, t_valid=meta["t_valid"], t_test=meta["t_test"])

    return _read_archive(path, LOG_FORMAT_VERSION, build, "split")

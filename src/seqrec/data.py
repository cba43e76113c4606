"""Interaction log ingestion, filtering, splitting, and positional tensor construction."""

from __future__ import annotations

import contextlib
import csv
import gzip
import io
import json
import zlib
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
def _open_source(source):
    """Text view of a path or binary stream, gzip detected from its magic bytes.

    A file opened here is closed on exit; a caller's stream is left open.
    """
    with contextlib.ExitStack() as stack:
        if isinstance(source, (str, bytes)) or hasattr(source, "__fspath__"):
            raw = stack.enter_context(open(source, "rb"))
        else:
            raw = source
        if not hasattr(raw, "peek"):
            raw = io.BufferedReader(raw)
            stack.callback(raw.detach)
        if raw.peek(2)[:2] == b"\x1f\x8b":
            # closing a GzipFile leaves the stream it reads from open
            raw = stack.enter_context(gzip.open(raw, "rb"))
        text = io.TextIOWrapper(raw, encoding="utf-8")
        stack.callback(text.detach)
        yield text


def _read_columns(text, delimiter, user_col, item_col, time_col, header):
    """Raw user ids, item ids and timestamps of the data rows, read once.

    Returns ``(columns, first_line, blanks, fault)``: the three columns; the
    line number of the first data row; for each skipped blank line, the number
    of data rows read before it; and the error that ended the read early (a
    short row or a corrupt stream) or None. The rows read before a fault still
    have their timestamps checked first, so the earliest bad line wins.
    """
    rows = csv.reader(text, delimiter=delimiter)
    users, items, times, blanks = [], [], [], []
    first_line = 2 if header else 1
    fault = None
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
            u_idx, i_idx, t_idx = int(user_col), int(item_col), int(time_col)
        needed = max(u_idx, i_idx, t_idx) + 1
        # a one-field row may be a whitespace-only line even when one field is enough
        short = max(needed, 2)
        add_user, add_item, add_time = users.append, items.append, times.append
        for row in rows:
            if len(row) < short:
                if not row or (len(row) == 1 and not row[0].strip()):
                    blanks.append(len(times))
                    continue
                if len(row) < needed:
                    lineno = first_line + len(times) + len(blanks)
                    fault = ParseError(
                        f"line {lineno}: expected at least {needed} columns, got {len(row)}")
                    break
            add_user(row[u_idx])
            add_item(row[i_idx])
            add_time(row[t_idx])
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        fault = ParseError(f"corrupt or truncated gzip stream: {exc}")
    except (csv.Error, UnicodeDecodeError) as exc:
        fault = exc
    return (users, items, times), first_line, blanks, fault


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


def _timestamps(raw_times, first_line, blanks):
    """Every raw timestamp as ``int(float(text))`` in one int64 array.

    A non-numeric, non-finite, negative or >= 2**63 value sends the column
    through :func:`_check_timestamp` row by row, which raises for the earliest
    bad line.
    """
    try:
        values = np.trunc(np.fromiter(map(float, raw_times), np.float64, len(raw_times)))
    except ValueError:
        values = None
    # NaN fails both comparisons
    if values is None or not ((values >= 0) & (values < 2.0 ** 63)).all():
        rows = np.arange(len(raw_times))
        lines = first_line + rows + np.searchsorted(blanks, rows, side="right")
        for text, lineno in zip(raw_times, lines.tolist()):
            _check_timestamp(text, lineno)
    return values.astype(np.int64)


def _first_appearance(keys):
    """Map each distinct key to its rank of first appearance."""
    return dict(zip(dict.fromkeys(keys), range(len(keys))))


def ingest_log(source, delimiter=",", user_col="user", item_col="item",
               time_col="timestamp", header=True):
    """Parse delimited text into an :class:`InteractionLog`.

    Rating columns, if present, are ignored: the signal is implicit/binary.
    Duplicate (user, item) pairs collapse to the earliest-timestamp occurrence.
    Column arguments are names when ``header`` is true, 0-based indices
    otherwise. ``source`` may be a path or a binary stream; gzip is detected,
    and a truncated or corrupt gzip stream raises :class:`ParseError`. Of
    several bad lines, the earliest is reported.

    Each row is read once; checks, indexing and deduplication then run on
    whole columns.
    """
    with _open_source(source) as text:
        (raw_users, raw_items, raw_times), first_line, blanks, fault = _read_columns(
            text, delimiter, user_col, item_col, time_col, header)
    times = _timestamps(raw_times, first_line, blanks)
    if fault is not None:
        raise fault
    n = len(raw_users)
    if not n:
        raise ParseError("empty source")

    # users indexed by first appearance in ingestion order
    user_map = _first_appearance(raw_users)
    uidx = np.fromiter(map(user_map.__getitem__, raw_users), np.int64, n)
    # items coded by first appearance here, re-indexed after deduplication
    item_codes = _first_appearance(raw_items)
    icode = np.fromiter(map(item_codes.__getitem__, raw_items), np.int64, n)
    del raw_users, raw_items, raw_times  # free the id strings before the sorts

    order = np.lexsort((np.arange(n), times, uidx))
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
    old_users = np.flatnonzero(user_keep)
    old_items = np.flatnonzero(item_keep)
    user_remap = -np.ones(log.n_users, dtype=np.int64)
    item_remap = -np.ones(log.n_items, dtype=np.int64)
    user_remap[old_users] = np.arange(len(old_users))
    item_remap[old_items] = np.arange(len(old_items))
    mask = user_keep[log.users] & item_keep[log.items]
    user_map = {k: int(user_remap[v]) for k, v in log.user_map.items() if user_keep[v]}
    item_map = {k: int(item_remap[v]) for k, v in log.item_map.items() if item_keep[v]}
    return InteractionLog(
        users=user_remap[log.users[mask]],
        items=item_remap[log.items[mask]],
        timestamps=log.timestamps[mask],
        user_map=user_map,
        item_map=item_map,
        n_users=len(old_users),
        n_items=len(old_items),
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
    # entities may retain keep=True yet have no interactions left; drop them too
    ucnt = np.bincount(users[mask], minlength=log.n_users)
    icnt = np.bincount(items[mask], minlength=log.n_items)
    user_keep &= ucnt > 0
    item_keep &= icnt > 0
    return _densify(log, user_keep, item_keep)


def timepoint_split(log, t_valid, t_test):
    """Partition by timestamp into [-inf, t_valid), [t_valid, t_test), [t_test, inf).

    A boundary timestamp belongs to the later split. Users/items appearing only
    in validation or test keep their indices; they are skipped at scoring time.
    """
    if t_valid >= t_test:
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


def _log_payload(log, prefix):
    return {
        f"{prefix}users": log.users,
        f"{prefix}items": log.items,
        f"{prefix}timestamps": log.timestamps,
    }


def _log_from_arrays(data, prefix, meta):
    return InteractionLog(
        users=data[f"{prefix}users"],
        items=data[f"{prefix}items"],
        timestamps=data[f"{prefix}timestamps"],
        user_map=meta["user_map"],
        item_map=meta["item_map"],
        n_users=meta["n_users"],
        n_items=meta["n_items"],
    )


def save_split(split, path):
    meta = json.dumps({
        "version": LOG_FORMAT_VERSION,
        "n_users": split.train.n_users,
        "n_items": split.train.n_items,
        "user_map": {str(k): v for k, v in split.train.user_map.items()},
        "item_map": {str(k): v for k, v in split.train.item_map.items()},
        "t_valid": split.t_valid,
        "t_test": split.t_test,
    })
    payload = {}
    for name, log in (("train_", split.train), ("valid_", split.validation), ("test_", split.test)):
        payload.update(_log_payload(log, name))
    np.savez(path, meta=np.array(meta), **payload)


def load_split(path):
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["meta"]))
        if meta["version"] != LOG_FORMAT_VERSION:
            raise DataError(f"unsupported log format version {meta['version']}")
        return TimeSplit(
            train=_log_from_arrays(data, "train_", meta),
            validation=_log_from_arrays(data, "valid_", meta),
            test=_log_from_arrays(data, "test_", meta),
            t_valid=meta["t_valid"],
            t_test=meta["t_test"],
        )

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
    """Deduplicated, index-mapped interaction events sorted by (user, time).

    ``users``, ``items``, ``timestamps`` are parallel int64 arrays. ``user_map``
    and ``item_map`` take external ids to contiguous 0-based indices. ``n_users``
    and ``n_items`` may exceed the number of distinct indices present (splits of
    a larger log share the parent's index space).
    """

    users: np.ndarray
    items: np.ndarray
    timestamps: np.ndarray
    user_map: dict = field(repr=False)
    item_map: dict = field(repr=False)
    n_users: int
    n_items: int

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

    def __len__(self):
        return len(self.users)

    @property
    def n_users(self):
        return self.shape[0]

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


def _read_rows(text, delimiter, user_col, item_col, time_col, header):
    """Raw user ids, item ids and timestamps of every non-blank data row."""
    rows = iter(csv.reader(text, delimiter=delimiter))
    lineno = 0
    if header:
        lineno += 1
        try:
            names = next(rows)
        except StopIteration:
            raise ParseError("empty source") from None
        try:
            u_idx = names.index(user_col)
            i_idx = names.index(item_col)
            t_idx = names.index(time_col)
        except ValueError as exc:
            raise ParseError(f"missing column in header: {exc}") from None
    else:
        u_idx, i_idx, t_idx = int(user_col), int(item_col), int(time_col)

    raw_users, raw_items, raw_times = [], [], []
    needed = max(u_idx, i_idx, t_idx) + 1
    for row in rows:
        lineno += 1
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < needed:
            raise ParseError(f"line {lineno}: expected at least {needed} columns, got {len(row)}")
        try:
            ts = int(float(row[t_idx]))
        except ValueError:
            raise ParseError(f"line {lineno}: unparsable timestamp {row[t_idx]!r}") from None
        except OverflowError:
            raise ParseError(f"line {lineno}: timestamp {row[t_idx]!r} out of range") from None
        if ts < 0:
            raise ParseError(f"line {lineno}: negative timestamp {ts}")
        if ts > MAX_TIMESTAMP:
            raise ParseError(f"line {lineno}: timestamp {row[t_idx]!r} out of range")
        raw_users.append(row[u_idx])
        raw_items.append(row[i_idx])
        raw_times.append(ts)
    return raw_users, raw_items, raw_times


def ingest_log(source, delimiter=",", user_col="user", item_col="item",
               time_col="timestamp", header=True):
    """Parse delimited text into an :class:`InteractionLog`.

    Rating columns, if present, are ignored: the signal is implicit/binary.
    Duplicate (user, item) pairs collapse to the earliest-timestamp occurrence.
    Column arguments are names when ``header`` is true, 0-based indices
    otherwise. ``source`` may be a path or a binary stream; gzip is detected,
    and a truncated or corrupt gzip stream raises :class:`ParseError`.
    """
    with _open_source(source) as text:
        try:
            raw_users, raw_items, raw_times = _read_rows(
                text, delimiter, user_col, item_col, time_col, header)
        except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
            raise ParseError(f"corrupt or truncated gzip stream: {exc}") from None
    if not raw_users:
        raise ParseError("empty source")

    # users indexed by first appearance in ingestion order
    user_map = {}
    for u in raw_users:
        if u not in user_map:
            user_map[u] = len(user_map)
    uidx = np.array([user_map[u] for u in raw_users], dtype=np.int64)
    times = np.array(raw_times, dtype=np.int64)

    order = np.lexsort((np.arange(len(uidx)), times, uidx))
    # keep the earliest occurrence of each (user, item) pair
    seen = set()
    keep = []
    for pos in order:
        key = (raw_users[pos], raw_items[pos])
        if key in seen:
            continue
        seen.add(key)
        keep.append(pos)
    keep = np.array(keep, dtype=np.int64)

    # items indexed by first appearance in the sorted, deduplicated log
    item_map = {}
    iidx = np.empty(len(keep), dtype=np.int64)
    for out, pos in enumerate(keep):
        it = raw_items[pos]
        if it not in item_map:
            item_map[it] = len(item_map)
        iidx[out] = item_map[it]

    return InteractionLog(
        users=uidx[keep],
        items=iidx,
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
    users = train.users
    M, N = train.n_users, train.n_items
    # train logs are sorted by (user, time); recover per-user slices
    order = np.lexsort((np.arange(len(users)), train.timestamps, users))
    su, si = users[order], train.items[order]
    out_u, out_i, out_p = [], [], []
    start = 0
    for end in np.flatnonzero(np.diff(su, append=-1) != 0) + 1:
        u = su[start]
        hist = si[start:end][-K:]
        n_i = len(hist)
        out_u.append(np.full(n_i, u, dtype=np.int64))
        out_i.append(hist)
        out_p.append(np.arange(K - n_i + 1, K + 1, dtype=np.int64))
        start = end
    if out_u:
        users_a = np.concatenate(out_u)
        items_a = np.concatenate(out_i)
        pos_a = np.concatenate(out_p)
    else:
        users_a = items_a = pos_a = np.empty(0, dtype=np.int64)
    return SparsePositionalTensor(users=users_a, items=items_a, positions=pos_a,
                                  shape=(M, N, K))


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

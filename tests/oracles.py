"""Independent dense reference implementations used to check the streaming paths."""

import csv
import gzip
import zlib
from dataclasses import dataclass

import numpy as np


def unfold(tensor, mode):
    """Mode-k unfolding with lower modes varying fastest along columns."""
    return np.reshape(np.moveaxis(tensor, mode, 0), (tensor.shape[mode], -1), order="F")


def kron_chain(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_weighted_tensor(tensor, d, attention):
    """Materialize the positional tensor scaled on the item mode with the
    attention transpose applied on the position mode."""
    dense = tensor.to_dense() * d[None, :, None]
    a = attention.dense()
    return np.einsum("ijk,kl->ijl", dense, a)


def dense_hankelized_tensor(tensor, d, attention, window):
    """Materialize the 4-d hankelized tensor with item scaling and the
    window-attention transpose applied on mode 3."""
    m, n, k = tensor.shape
    k_s = k - window + 1
    four = np.zeros((m, n, window, k_s))
    for i, j, pos in zip(tensor.users, tensor.items, tensor.positions - 1):
        for l in range(window):
            s = pos - l
            if 0 <= s < k_s:
                four[i, j, l, s] = d[j]
    a = attention.dense()
    return np.einsum("ijls,lt->ijts", four, a)


def dense_ga_unfoldings(tensor, d, attention, u, v, w):
    """Compressed unfoldings of the attended third-order tensor, all modes.

    The attention transpose is applied to the materialized tensor, so the
    auxiliary-space factor ``w`` (not its attention image) compresses mode 3.
    """
    y = dense_weighted_tensor(tensor, d, attention)
    return {
        1: unfold(y, 0) @ kron_chain(w, v),
        2: unfold(y, 1) @ kron_chain(w, u),
        3: unfold(y, 2) @ kron_chain(v, u),
    }


def dense_la_unfoldings(tensor, d, attention, window, u, v, w_l, w_s):
    y = dense_hankelized_tensor(tensor, d, attention, window)
    return {
        1: unfold(y, 0) @ kron_chain(w_s, w_l, v),
        2: unfold(y, 1) @ kron_chain(w_s, w_l, u),
        3: unfold(y, 2) @ kron_chain(w_s, v, u),
        4: unfold(y, 3) @ kron_chain(w_l, v, u),
    }


def dense_hooi(dense, ranks, init, sweeps):
    """Plain HOOI on a dense tensor with exact SVDs, same update order as the
    streaming trainers: mode 1 first from the initial trailing factors."""
    n_modes = dense.ndim
    factors = [None] + [init[m] for m in range(1, n_modes)]
    fits = []
    for _ in range(sweeps):
        for mode in range(n_modes):
            others = [factors[m] for m in reversed(range(n_modes)) if m != mode]
            compressed = unfold(dense, mode) @ kron_chain(*others)
            uu, ss, _ = np.linalg.svd(compressed, full_matrices=False)
            factors[mode] = uu[:, :ranks[mode]]
        fits.append(float(np.sum(ss[:ranks[-1]] ** 2)))
    return factors, fits


def _read_rows_reference(text, delimiter, user_col, item_col, time_col, header):
    """Raw user ids, item ids and timestamps of every non-blank data row,
    checking each row as it is read. A field the csv module rejects is a
    ParseError naming the line the reader stopped on."""
    from seqrec.data import ParseError

    rows = csv.reader(text, delimiter=delimiter)
    try:
        return _checked_rows_reference(rows, user_col, item_col, time_col, header)
    except csv.Error as exc:
        raise ParseError(f"line {rows.line_num}: {exc}") from None


def _utf8_lines_reference(text):
    """Each line of a text read with ``errors="surrogateescape"``, checked for
    an escaped byte before the csv reader gets it: a line that holds one is a
    ParseError naming it, with the reason its bytes fail to decode."""
    from seqrec.data import ParseError

    for lineno, line in enumerate(text, 1):
        if any("\udc80" <= ch <= "\udcff" for ch in line):
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"line {lineno}: not UTF-8: {exc}") from None
        yield line


def _checked_rows_reference(rows, user_col, item_col, time_col, header):
    from seqrec.data import MAX_TIMESTAMP, ParseError

    if header:
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
    last = rows.line_num
    for row in rows:
        # a row is numbered by the physical line it starts on
        lineno, last = last + 1, rows.line_num
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
        if row[t_idx].isascii() and row[t_idx].isdigit():
            ts = int(row[t_idx])  # exactly, where the float rounds
        raw_users.append(row[u_idx])
        raw_items.append(row[i_idx])
        raw_times.append(ts)
    return raw_users, raw_items, raw_times


def ingest_reference(path, delimiter=",", user_col="user", item_col="item",
                     time_col="timestamp", header=True):
    """:func:`seqrec.data.ingest_log` one row at a time: the source is read
    once, each physical line is checked for bytes that are not UTF-8 and each
    row is checked as it is read, and duplicate (user, item) pairs are dropped
    by walking the (user, time, row) order through a set of seen pairs."""
    from seqrec.data import InteractionLog, ParseError, _open_source

    with _open_source(path, errors="surrogateescape") as text:
        try:
            raw_users, raw_items, raw_times = _read_rows_reference(
                _utf8_lines_reference(text), delimiter, user_col, item_col, time_col, header)
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


def brute_force_kcore(users, items, k):
    """Peel users/items below k interactions one at a time until stable."""
    events = list(zip(users, items))
    while True:
        ucnt, icnt = {}, {}
        for u, i in events:
            ucnt[u] = ucnt.get(u, 0) + 1
            icnt[i] = icnt.get(i, 0) + 1
        bad_u = {u for u, c in ucnt.items() if c < k}
        bad_i = {i for i, c in icnt.items() if c < k}
        if not bad_u and not bad_i:
            return events
        events = [(u, i) for u, i in events if u not in bad_u and i not in bad_i]
        if not events:
            return []


def random_tensor(m, n, k, seed, min_len=1):
    """Random positional tensor: each user gets a right-aligned random item sequence."""
    from seqrec.data import SparsePositionalTensor

    rng = np.random.default_rng(seed)
    uu, ii, pp = [], [], []
    for i in range(m):
        n_i = rng.integers(min_len, min(n, k) + 1)
        items = rng.choice(n, size=n_i, replace=False)
        uu.extend([i] * n_i)
        ii.extend(items.tolist())
        pp.extend(range(k - n_i + 1, k + 1))
    return SparsePositionalTensor(
        users=np.array(uu, dtype=np.int64),
        items=np.array(ii, dtype=np.int64),
        positions=np.array(pp, dtype=np.int64),
        shape=(m, n, k),
    )


@dataclass(frozen=True)
class HankelView:
    """K_L x K_S window view over a length-K vector; entry (l, s) = source[l + s].

    Indexes the source by arithmetic only; no data is copied. Indices here are
    0-based; the skew diagonal l + s = q holds source[q].
    """

    source: np.ndarray
    n_rows: int

    @property
    def n_cols(self):
        return len(self.source) - self.n_rows + 1

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    def __getitem__(self, idx):
        l, s = idx
        return self.source[l + s]

    def to_dense(self):
        l = np.arange(self.n_rows)[:, None]
        s = np.arange(self.n_cols)[None, :]
        return np.asarray(self.source, dtype=float)[l + s]

    def matvec(self, v):
        return self.to_dense() @ v

    def rmatvec(self, v):
        return self.to_dense().T @ v


def hankelize(p, window):
    """Expose vector ``p`` as a ``window x (len(p) - window + 1)`` Hankel view."""
    p = np.asarray(p)
    if not 1 <= window <= len(p):
        raise ValueError(f"window must be in [1, {len(p)}], got {window}")
    return HankelView(source=p, n_rows=window)


def evaluate_reference(model, train, test, n=10):
    """The evaluation walk one event at a time: each user's history is a list
    that grows by every test target, cold or not, and each warm event is
    ranked by :func:`predict_next`."""
    from seqrec.evaluation import EvaluationReport, ndcg_single
    from seqrec.models import ColdUserError, predict_next

    def se(values):
        values = np.asarray(values, dtype=float)
        return float(values.std(ddof=1) / np.sqrt(len(values))) if len(values) > 1 else 0.0

    if len(test) == 0:
        raise ValueError("empty test split")
    histories = {}
    order = np.lexsort((np.arange(len(train)), train.timestamps, train.users))
    for user, item in zip(train.users[order].tolist(), train.items[order].tolist()):
        histories.setdefault(user, []).append(item)
    test_order = np.lexsort((np.arange(len(test)), test.timestamps))
    hits, gains = [], []
    recommended = set()
    skipped = 0
    for user, target in zip(test.users[test_order].tolist(), test.items[test_order].tolist()):
        history = histories.setdefault(user, [])
        try:
            top = predict_next(model, history, n, exclude_seen=True)
        except ColdUserError:
            skipped += 1
            history.append(target)
            continue
        recommended.update(top.tolist())
        where = np.flatnonzero(top == target)
        rank = int(where[0]) + 1 if len(where) else None
        hits.append(1.0 if rank is not None else 0.0)
        gains.append(ndcg_single(rank, n))
        history.append(target)
    if not hits:
        return EvaluationReport(hr=0.0, hr_se=0.0, ndcg=0.0, ndcg_se=0.0, cov=0.0,
                                n=n, evaluated_count=0, skipped_cold_count=skipped)
    return EvaluationReport(
        hr=float(np.mean(hits)), hr_se=se(hits),
        ndcg=float(np.mean(gains)), ndcg_se=se(gains),
        cov=len(recommended) / model.n_items,
        n=n, evaluated_count=len(hits), skipped_cold_count=skipped,
    )

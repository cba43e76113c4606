"""Shared construction helpers for the test suite."""

import numpy as np

import seqrec.linalg
from seqrec.data import InteractionLog
from seqrec.linalg import ImplicitMatrix

_GRAM_FITS = seqrec.linalg._gram_fits


def propack_first(monkeypatch, fallback=True):
    """Send every operator's solve to PROPACK, as the path rule sends one
    whose Gram outgrows the first run's Lanczos bases. A failed run falls
    back to the Gram path as the rule says for the retry run's bases, or,
    without ``fallback``, never."""
    monkeypatch.setattr(seqrec.linalg, "_gram_fits", lambda y, r, factor: (
        fallback and factor != seqrec.linalg.LANCZOS_BASIS_FACTOR
        and _GRAM_FITS(y, r, factor)))


def shaped(shape, carried=False):
    """An operator of ``shape`` for the path rule, carrying a Gram if ``carried``."""
    op = ImplicitMatrix(tuple(shape), matvec=None, rmatvec=None)
    if carried:
        op.gram = lambda: None
    return op


def make_log(rows, n_users=None, n_items=None):
    """Build an InteractionLog from (user, item, timestamp) tuples."""
    if rows:
        users, items, times = (np.array(col, dtype=np.int64) for col in zip(*rows))
    else:
        users = items = times = np.empty(0, dtype=np.int64)
    return InteractionLog(
        users=users,
        items=items,
        timestamps=times,
        user_map={},
        item_map={},
        n_users=int(users.max()) + 1 if n_users is None else n_users,
        n_items=int(items.max()) + 1 if n_items is None else n_items,
    )


# Deterministic first-order Markov catalog used by the synthetic-signal tests.
# successor(j) = j - 1 mod 10; labels decrease along the walk so popularity
# ties never hand the target to the popularity baseline.
MARKOV_CYCLE = [9, 8, 7, 6, 5, 4, 3, 2, 1, 0]
MARKOV_PHASES = [0, 1, 2, 3, 5, 6, 7, 8]
MARKOV_ARC = 5


def markov_logs(n_users=200, n_items=10):
    """200 users walking the deterministic successor chain from 8 staggered
    start states; each contributes a 5-item training arc and one held-out
    next item. Returns (train_log, eval_log)."""
    tr_rows, ev_rows = [], []
    for u in range(n_users):
        phase = MARKOV_PHASES[u % len(MARKOV_PHASES)]
        for t in range(MARKOV_ARC):
            tr_rows.append((u, MARKOV_CYCLE[(phase + t) % n_items], t))
        ev_rows.append((u, MARKOV_CYCLE[(phase + MARKOV_ARC) % n_items], MARKOV_ARC))
    train = make_log(tr_rows, n_users=n_users, n_items=n_items)
    ev = make_log(ev_rows, n_users=n_users, n_items=n_items)
    return train, ev

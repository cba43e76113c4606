"""Per-interaction ranking metrics, metric-based early stopping, and budgeted grid search."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .models import _block_scorer, predict_next

__all__ = [
    "EvaluationReport",
    "GridSpace",
    "GridPoint",
    "ndcg_single",
    "evaluate",
    "early_stopping_train",
    "grid_search",
]


@dataclass(frozen=True)
class EvaluationReport:
    hr: float
    hr_se: float
    ndcg: float
    ndcg_se: float
    cov: float
    n: int
    evaluated_count: int
    skipped_cold_count: int

    def as_dict(self):
        return asdict(self)


def ndcg_single(rank, n):
    """Discounted gain of the single relevant item: 1 / log2(rank + 1) inside the cutoff."""
    if n < 1:
        raise ValueError("cutoff n must be >= 1")
    if rank is None:
        return 0.0
    if rank < 1:
        raise ValueError("rank must be >= 1")
    if rank > n:
        return 0.0
    return 1.0 / math.log2(rank + 1)


def _se(values):
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


# Memory of one score block's scores and their selection indices, 16 bytes
# per (event, item): 21 rows at 3000 items, 327 at 200. Each history is
# projected on its own by the model's _projection, so a block holds besides
# only its rows x r projections and one history's gathered rows of V, and its
# scores lie within 2 tau64 of predict_next's (_block_scorer). Larger blocks
# were faster on a 3000-item catalog (8 MiB of scores: 0.10 s against 0.14 s
# per 2000 events on 2 cores), but a 200-item walk then fit in one block and
# its run peaked 3.3 MB (5 %) higher.
BLOCK_BYTES = 1 << 20


def _histories(train, test, n_items):
    """Every test event's history in one pass.

    Returns the walk order of the test events (by time, then position) and,
    for each event in that order, the bounds of its history in one flat item
    array: the user's train items in time order, then their earlier test
    targets in walk order (skipped cold ones included). Items outside the
    catalog are dropped, as :func:`predict_next` drops them.
    """
    walk = np.lexsort((np.arange(len(test)), test.timestamps))
    users = np.concatenate([train.users, test.users[walk]])
    items = np.concatenate([train.items, test.items[walk]])
    # a stable sort by user keeps each user's train items ahead of their
    # test targets, and both in order
    seq = np.argsort(users, kind="stable")
    items = items[seq]
    usable = (items >= 0) & (items < n_items)
    before = np.cumsum(usable) - usable  # usable items ahead of each entry
    place = np.empty_like(seq)
    place[seq] = np.arange(len(seq))
    first = np.searchsorted(users[seq], test.users[walk])
    return walk, items[usable], before[first], before[place[len(train):]]


def _top_n(scores, tau, n):
    """Top-n of each row by score and then item index, and whether it is
    also the top-n of every row within ``tau`` of it entrywise.

    The top n + 1 are picked by a partial selection and sorted. A row is
    safe when each gap between consecutive ones exceeds ``2 tau``: then no
    change of up to ``tau`` per score can reorder them or let another item
    in. Ties, ``-inf`` pairs included, are never safe.
    """
    n_items = scores.shape[1]
    m = min(n + 1, n_items)
    picked = np.argpartition(scores, n_items - m, axis=1)[:, n_items - m:]
    values = np.take_along_axis(scores, picked, axis=1)
    order = np.lexsort((picked, -values), axis=1)
    picked = np.take_along_axis(picked, order, axis=1)
    values = np.take_along_axis(values, order, axis=1)
    with np.errstate(invalid="ignore"):
        safe = np.all(values[:, :-1] - values[:, 1:] > 2 * tau[:, None], axis=1)
    return picked[:, :n], safe


def _rank_block(model, score, flat, starts, ends, n):
    """Top-n lists of a block of warm events: one product for the block, and
    :func:`predict_next` for each row the block's rounding could reorder."""
    lengths = ends - starts
    indptr = np.concatenate(([0], np.cumsum(lengths)))
    items = flat[np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])]
    scores, tau = score(items, indptr)
    scores[np.repeat(np.arange(len(lengths)), lengths), items] = -np.inf
    top, safe = _top_n(scores, tau, n)
    for row in np.flatnonzero(~safe):
        top[row] = predict_next(model, items[indptr[row]:indptr[row + 1]], n)
    return top


def evaluate(model, train, test, n=10):
    """Walk test interactions in time order, folding each user's earlier test
    items into their history, and score the hidden item on the full catalog.

    Warm events are scored in blocks of :data:`BLOCK_BYTES`; the top-n lists
    equal :func:`predict_next`'s for the same histories. Cold steps (no
    usable history) are skipped and counted. Coverage is the fraction of the
    model's training catalog ever recommended.
    """
    if len(test) == 0:
        raise ValueError("empty test split")
    if n < 1:
        raise ValueError("n must be >= 1")
    walk, flat, starts, ends = _histories(train, test, model.n_items)
    warm = np.flatnonzero(ends > starts)
    skipped = len(walk) - len(warm)
    if not len(warm):
        return EvaluationReport(hr=0.0, hr_se=0.0, ndcg=0.0, ndcg_se=0.0, cov=0.0,
                                n=n, evaluated_count=0, skipped_cold_count=skipped)
    rows = max(1, BLOCK_BYTES // (16 * model.n_items))
    score = _block_scorer(model)
    top = np.concatenate([
        _rank_block(model, score, flat, starts[block], ends[block], n)
        for block in (warm[lo:lo + rows] for lo in range(0, len(warm), rows))
    ])
    found = top == test.items[walk[warm], None]
    hits = found.any(axis=1).astype(float)
    # gain by rank, with rank 0 for a miss
    gain_at = np.array([0.0] + [ndcg_single(r, n) for r in range(1, top.shape[1] + 1)])
    gains = gain_at[np.where(hits > 0, found.argmax(axis=1) + 1, 0)]
    return EvaluationReport(
        hr=float(np.mean(hits)), hr_se=_se(hits),
        ndcg=float(np.mean(gains)), ndcg_se=_se(gains),
        cov=np.count_nonzero(np.bincount(top.ravel(), minlength=model.n_items)) / model.n_items,
        n=n, evaluated_count=len(warm), skipped_cold_count=skipped,
    )


def early_stopping_train(trainer, train, valid, n=10, patience=3, max_sweeps=10):
    """Run one-sweep increments, evaluating NDCG on validation after each.

    Stops when the best value has not improved within the last ``patience``
    evaluations (or at the hard cap) and returns the best snapshot, its sweep
    count, the metric trace, and the best snapshot's validation report.
    """
    best_model = best_report = None
    best_sweep = 0
    trace = []
    for sweep in range(1, max_sweeps + 1):
        trainer.sweep()
        snap = trainer.snapshot()
        report = evaluate(snap, train, valid, n=n)
        trace.append(report.ndcg)
        if best_report is None or report.ndcg > best_report.ndcg:
            best_model, best_report, best_sweep = snap, report, sweep
        if sweep - best_sweep >= patience:
            break
    return best_model, best_sweep, trace, best_report


@dataclass(frozen=True)
class GridSpace:
    """Cartesian hyperparameter grid with constraint predicates and a point budget."""

    values: dict
    constraints: tuple = ()
    budget: int = 200

    def points(self, seed=0):
        keys = list(self.values)
        all_points = [
            dict(zip(keys, combo))
            for combo in itertools.product(*(self.values[k] for k in keys))
        ]
        feasible = [p for p in all_points if all(c(p) for c in self.constraints)]
        if not feasible:
            raise ValueError("no feasible grid point")
        if len(feasible) <= self.budget:
            return feasible
        rng = np.random.default_rng(seed)
        picked = sorted(rng.choice(len(feasible), size=self.budget, replace=False))
        return [feasible[i] for i in picked]


@dataclass(frozen=True)
class GridPoint:
    config: dict
    report: EvaluationReport
    sweep_count: int
    wall_time: float = 0.0

    def as_dict(self):
        return {"config": self.config, "sweep_count": self.sweep_count,
                "wall_time": self.wall_time, **self.report.as_dict()}


_RANK_KEYS = ("r1", "r2", "r3", "r4", "rank")


def _total_rank(config):
    return sum(int(config[k]) for k in _RANK_KEYS if k in config)


def grid_search(space, factory, train, valid, n=10, seed=0, patience=3, max_sweeps=10):
    """Evaluate up to ``space.budget`` feasible points and pick the best by NDCG.

    ``factory(config)`` returns either a finished model or a trainer exposing
    ``sweep``/``snapshot`` (which is then run with early stopping). Ties are
    broken by lower total rank, then enumeration order.
    """
    log = []
    for config in space.points(seed=seed):
        start = time.perf_counter()
        built = factory(config)
        if hasattr(built, "sweep"):
            _, sweeps, _, report = early_stopping_train(
                built, train, valid, n=n, patience=patience, max_sweeps=max_sweeps)
        else:
            sweeps, report = 0, evaluate(built, train, valid, n=n)
        log.append(GridPoint(config=config, report=report, sweep_count=sweeps,
                             wall_time=time.perf_counter() - start))
    best = min(range(len(log)),
               key=lambda i: (-log[i].report.ndcg, _total_rank(log[i].config), i))
    return log[best], log

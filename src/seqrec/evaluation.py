"""Per-interaction ranking metrics, metric-based early stopping, and budgeted grid search."""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .models import ColdUserError, predict_next

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


def evaluate(model, train, test, n=10):
    """Walk test interactions in time order, folding each user's earlier test
    items into their history, and score the hidden item on the full catalog.

    Cold steps (no usable history) are skipped and counted. Coverage is the
    fraction of the model's training catalog ever recommended.
    """
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
        hr=float(np.mean(hits)), hr_se=_se(hits),
        ndcg=float(np.mean(gains)), ndcg_se=_se(gains),
        cov=len(recommended) / model.n_items,
        n=n, evaluated_count=len(hits), skipped_cold_count=skipped,
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


_RANK_KEYS = ("r", "r1", "r2", "r3", "r4", "rank")


def _total_rank(config):
    return sum(int(config[k]) for k in _RANK_KEYS if k in config)


def grid_search(space, factory, train, valid, n=10, seed=0, patience=3, max_sweeps=10):
    """Evaluate up to ``space.budget`` feasible points and pick the best by NDCG.

    ``factory(config)`` returns either a finished model or a trainer exposing
    ``sweep``/``snapshot`` (which is then run with early stopping). Ties are
    broken by lower total rank, then enumeration order.
    """
    log = []
    best_idx = None
    for idx, config in enumerate(space.points(seed=seed)):
        start = time.perf_counter()
        built = factory(config)
        if hasattr(built, "sweep"):
            _, sweeps, _, report = early_stopping_train(
                built, train, valid, n=n, patience=patience, max_sweeps=max_sweeps)
        else:
            sweeps, report = 0, evaluate(built, train, valid, n=n)
        point = GridPoint(config=config, report=report, sweep_count=sweeps,
                          wall_time=time.perf_counter() - start)
        log.append(point)
        if best_idx is None:
            best_idx = idx
        else:
            best = log[best_idx]
            key_new = (-point.report.ndcg, _total_rank(config), idx)
            key_old = (-best.report.ndcg, _total_rank(best.config), best_idx)
            if key_new < key_old:
                best_idx = idx
    return log[best_idx], log

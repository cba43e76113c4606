"""Metrics, the sequential evaluation walk, early stopping, and grid search."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import seqrec.evaluation
from helpers import make_log
from seqrec.evaluation import (
    GridSpace,
    early_stopping_train,
    evaluate,
    grid_search,
    ndcg_single,
)
from seqrec.models import train_mp


class TestNdcgSingle:
    def test_values(self):
        assert ndcg_single(1, 10) == 1.0
        assert ndcg_single(3, 10) == pytest.approx(0.5)
        assert ndcg_single(2, 10) == pytest.approx(1.0 / math.log2(3))

    def test_outside_cutoff(self):
        assert ndcg_single(11, 10) == 0.0
        assert ndcg_single(None, 10) == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            ndcg_single(1, 0)
        with pytest.raises(ValueError):
            ndcg_single(0, 10)


@dataclass
class _StubModel:
    scores: np.ndarray = field(repr=False)
    kind = "stub"

    @property
    def n_items(self):
        return len(self.scores)

    def score_history(self, history):
        return self.scores.copy()


class TestEvaluate:
    def _mp_fixture(self):
        train = make_log([(0, 0, 0), (0, 1, 1), (1, 1, 2), (1, 3, 3)], 3, 5)
        test = make_log([(0, 3, 10), (1, 2, 11), (2, 1, 12), (2, 0, 13),
                         (2, 4, 14)], 3, 5)
        return train_mp(train), train, test

    def test_hand_walk_with_popularity(self):
        # counts [1,2,0,1,0] -> ranking [1,0,3,2,4]; the cold third user's
        # skipped target still enters their history for the next step
        model, train, test = self._mp_fixture()
        report = evaluate(model, train, test, n=2)
        assert report.hr == pytest.approx(0.75)
        assert report.ndcg == pytest.approx((1.0 + 1.0 / math.log2(3) + 1.0) / 4)
        assert report.cov == pytest.approx(3 / 5)
        assert report.evaluated_count == 4
        assert report.skipped_cold_count == 1
        assert report.n == 2

    def test_two_point_average_and_se(self):
        train = make_log([(0, 0, 0), (1, 0, 1)], 2, 4)
        test = make_log([(0, 1, 5), (1, 3, 6)], 2, 4)
        model = _StubModel(np.array([0.0, 3.0, 2.0, 1.0]))
        report = evaluate(model, train, test, n=2)
        # user0 target 1: rank 1 hit; user1 target 3: top2 [1,2] miss
        assert report.hr == pytest.approx(0.5)
        assert report.hr_se == pytest.approx(np.std([1.0, 0.0], ddof=1) / np.sqrt(2))
        assert report.ndcg == pytest.approx(0.5)

    def test_all_cold(self):
        train = make_log([(0, 0, 0)], 3, 3)
        test = make_log([(1, 1, 5), (2, 2, 6)], 3, 3)
        report = evaluate(_StubModel(np.zeros(3)), train, test, n=1)
        assert report.evaluated_count == 0
        assert report.skipped_cold_count == 2
        assert report.hr == 0.0 and report.cov == 0.0

    def test_empty_test_rejected(self):
        train = make_log([(0, 0, 0)], 1, 2)
        with pytest.raises(ValueError, match="empty"):
            evaluate(_StubModel(np.zeros(2)), train, make_log([], 1, 2), n=1)

    def test_deterministic(self):
        model, train, test = self._mp_fixture()
        a = evaluate(model, train, test, n=2)
        b = evaluate(model, train, test, n=2)
        assert a == b

    def test_hr_bounds_ndcg(self):
        model, train, test = self._mp_fixture()
        for n in (1, 2, 3, 5):
            report = evaluate(model, train, test, n=n)
            assert 0.0 <= report.ndcg <= report.hr <= 1.0


class _ScriptedTrainer:
    """Stub trainer whose sweep-i snapshot ranks the single validation target
    at a prescribed position, making the NDCG trace fully scripted."""

    N_ITEMS = 8
    TARGET = 7

    def __init__(self, ranks):
        self.ranks = ranks
        self.i = 0

    def sweep(self):
        self.i += 1

    def snapshot(self):
        scores = -np.arange(self.N_ITEMS, dtype=float)
        scores[self.TARGET] = -(self.ranks[self.i - 1] - 0.5)
        model = _StubModel(scores)
        model.sweep_tag = self.i
        return model


def _scripted_split():
    train = make_log([(0, 0, 0)], 1, _ScriptedTrainer.N_ITEMS)
    valid = make_log([(0, _ScriptedTrainer.TARGET, 1)], 1,
                     _ScriptedTrainer.N_ITEMS)
    return train, valid


class TestEarlyStopping:
    def test_stops_after_patience_stalls(self):
        train, valid = _scripted_split()
        best, best_sweep, trace, _ = early_stopping_train(
            _ScriptedTrainer([3, 2, 2, 4, 1, 1]), train, valid,
            n=10, patience=2, max_sweeps=10)
        assert best_sweep == 2
        assert best.sweep_tag == 2
        assert len(trace) == 4  # sweeps 3 and 4 fail to improve, then stop
        assert trace == pytest.approx([ndcg_single(r, 10) for r in [3, 2, 2, 4]])

    def test_hard_cap(self):
        train, valid = _scripted_split()
        best, best_sweep, trace, _ = early_stopping_train(
            _ScriptedTrainer([6, 5, 4, 3, 2, 1]), train, valid,
            n=10, patience=3, max_sweeps=4)
        assert best_sweep == 4
        assert len(trace) == 4
        assert best.sweep_tag == 4

    def test_patience_one(self):
        train, valid = _scripted_split()
        _, best_sweep, trace, _ = early_stopping_train(
            _ScriptedTrainer([2, 2, 1, 1]), train, valid,
            n=10, patience=1, max_sweeps=10)
        assert best_sweep == 1
        assert len(trace) == 2

    def test_returns_best_report(self):
        train, valid = _scripted_split()
        best, _, _, report = early_stopping_train(
            _ScriptedTrainer([3, 2, 2, 4, 1, 1]), train, valid,
            n=10, patience=2, max_sweeps=10)
        assert report == evaluate(best, train, valid, n=10)


class TestGridSpace:
    def test_full_enumeration_order(self):
        space = GridSpace(values={"r": [1, 2], "f": [0.0, 1.0]})
        points = space.points()
        assert points == [{"r": 1, "f": 0.0}, {"r": 1, "f": 1.0},
                          {"r": 2, "f": 0.0}, {"r": 2, "f": 1.0}]

    def test_constraints_filter(self):
        space = GridSpace(values={"r": [1, 2, 3]},
                          constraints=(lambda p: p["r"] != 2,))
        assert space.points() == [{"r": 1}, {"r": 3}]

    def test_no_feasible_point(self):
        space = GridSpace(values={"r": [1]}, constraints=(lambda p: False,))
        with pytest.raises(ValueError, match="feasible"):
            space.points()

    def test_budget_subsample_deterministic(self):
        space = GridSpace(values={"r": list(range(12))}, budget=5)
        a = space.points(seed=3)
        b = space.points(seed=3)
        assert a == b and len(a) == 5
        assert a != space.points(seed=4)
        # enumeration order is preserved within the sample
        picked = [p["r"] for p in a]
        assert picked == sorted(picked)


class TestGridSearch:
    def test_single_point(self):
        train, valid = _scripted_split()
        space = GridSpace(values={"r": [2]})
        scores = -np.arange(8, dtype=float)
        scores[7] = -0.5
        best, log = grid_search(space, lambda cfg: _StubModel(scores),
                                train, valid, n=10)
        assert len(log) == 1
        assert best.config == {"r": 2}
        assert best.report.ndcg == pytest.approx(1.0)
        assert best.wall_time >= 0.0

    def test_tie_prefers_lower_total_rank(self):
        train, valid = _scripted_split()
        scores = -np.arange(8, dtype=float)
        scores[7] = -0.5  # rank 1 for every config: NDCG ties at 1.0
        space = GridSpace(values={"r1": [3, 2], "r2": [1]})
        best, log = grid_search(space, lambda cfg: _StubModel(scores),
                                train, valid, n=10)
        assert [p.config["r1"] for p in log] == [3, 2]
        assert best.config == {"r1": 2, "r2": 1}

    def test_full_tie_prefers_enumeration_order(self):
        train, valid = _scripted_split()
        scores = -np.arange(8, dtype=float)
        scores[7] = -0.5
        space = GridSpace(values={"f": [0.0, 1.0], "r": [2]})
        best, _ = grid_search(space, lambda cfg: _StubModel(scores),
                              train, valid, n=10)
        assert best.config == {"f": 0.0, "r": 2}

    def test_trainer_factory_uses_early_stopping(self):
        train, valid = _scripted_split()
        space = GridSpace(values={"r": [1]})
        best, log = grid_search(
            space, lambda cfg: _ScriptedTrainer([3, 2, 2, 4, 1]),
            train, valid, n=10, patience=2, max_sweeps=10)
        assert best.sweep_count == 2
        assert best.report.ndcg == pytest.approx(ndcg_single(2, 10))

    def test_trainer_point_evaluates_each_sweep_once(self, monkeypatch):
        # sweeps 1-4 are scored during early stopping; the best one is not rescored
        calls = []
        counted = seqrec.evaluation.evaluate

        def counting(*args, **kwargs):
            calls.append(1)
            return counted(*args, **kwargs)

        monkeypatch.setattr(seqrec.evaluation, "evaluate", counting)
        train, valid = _scripted_split()
        grid_search(GridSpace(values={"r": [1]}),
                    lambda cfg: _ScriptedTrainer([3, 2, 2, 4, 1]),
                    train, valid, n=10, patience=2, max_sweeps=10)
        assert len(calls) == 4

    def test_picks_highest_ndcg(self):
        train, valid = _scripted_split()

        def factory(cfg):
            scores = -np.arange(8, dtype=float)
            scores[7] = -(cfg["r"] - 0.5)  # config r is the target's rank
            return _StubModel(scores)

        space = GridSpace(values={"r": [4, 2, 6]})
        best, log = grid_search(space, factory, train, valid, n=10)
        assert best.config == {"r": 2}
        assert len(log) == 3
        assert [p.report.ndcg for p in log] == pytest.approx(
            [ndcg_single(r, 10) for r in [4, 2, 6]])

"""Metrics, the sequential evaluation walk, early stopping, and grid search."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

import seqrec.evaluation
from helpers import make_log
from oracles import evaluate_reference
from seqrec.data import build_positional_tensor
from seqrec.evaluation import (
    GridSpace,
    early_stopping_train,
    evaluate,
    grid_search,
    ndcg_single,
)
from seqrec.linalg import random_orthonormal
from seqrec.models import (
    SVDModel,
    build_scaling,
    predict_next,
    train_gasatf,
    train_lasatf,
    train_mp,
    train_puresvd,
)


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


N_USERS, N_ITEMS, BLOCK_ROWS = 12, 9, 4


def _random_split(seed, n_test, cold):
    """Train histories with repeated items for users 0-9 (users 10 and 11 have
    none), and a test log whose users repeat, whose timestamps tie and whose
    last item index lies outside the catalog."""
    rng = np.random.default_rng(seed)
    rows = [(u, int(rng.integers(N_ITEMS)), t)
            for u in range(N_USERS - 2) for t in range(int(rng.integers(2, 7)))]
    train = make_log(rows, N_USERS, N_ITEMS)
    users = rng.integers(0, N_USERS if cold else N_USERS - 2, size=n_test)
    test = make_log([(int(u), int(rng.integers(N_ITEMS + 1)), 100 + int(rng.integers(4)))
                     for u in users], N_USERS, N_ITEMS + 1)
    return train, test


def _model(kind, train):
    if kind == "mp":
        return train_mp(train)
    if kind.startswith("svd"):
        return train_puresvd(train, r=3, s=0.5, regime=kind.split("-")[1])
    tensor = build_positional_tensor(train, 4)
    if kind == "global":
        return train_gasatf(tensor, f=1.0, ranks=(4, 3, 2), s=0.5, seed=0, sweeps=2,
                            regime="restored")
    return train_lasatf(tensor, window=2, f=0.5, ranks=(4, 3, 2, 2), s=0.5, seed=0,
                        sweeps=2, regime=kind.split("-")[1])


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(seqrec.evaluation, "BLOCK_BYTES", 16 * N_ITEMS * BLOCK_ROWS)


def _counting_predict_next(monkeypatch):
    calls = []
    inner = seqrec.evaluation.predict_next

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(seqrec.evaluation, "predict_next", counting)
    return calls


def _tied_svd(seed):
    """A plain PureSVD model whose items 5-8 repeat the V rows of items 0-3,
    so their scores tie exactly."""
    v = random_orthonormal(N_ITEMS, 3, seed)
    v[5:] = v[:4]
    return SVDModel(v=v, scaling=build_scaling(np.ones(N_ITEMS), 1.0), regime="plain")


class TestBatchedWalk:
    """The block walk against the per-event reference walk in ``oracles``."""

    @pytest.mark.parametrize("n", [3, 12])
    @pytest.mark.parametrize("n_test, cold", [
        (1, False), (BLOCK_ROWS, False), (BLOCK_ROWS + 1, False), (23, True)],
        ids=["one-event", "one-block", "block-plus-one", "cold-and-repeat-users"])
    @pytest.mark.parametrize("kind", ["mp", "svd-plain", "svd-restored", "global",
                                      "local-plain", "local-restored"])
    def test_matches_reference_walk(self, small_blocks, kind, n_test, cold, n):
        train, test = _random_split(n_test, n_test, cold)
        model = _model(kind, train)
        report = evaluate(model, train, test, n=n)
        assert report == evaluate_reference(model, train, test, n=n)
        assert report.evaluated_count + report.skipped_cold_count == n_test
        if not cold:
            assert report.skipped_cold_count == 0

    def test_default_block_matches_reference_walk(self):
        train, test = _random_split(5, 40, True)
        for kind in ("svd-restored", "local-plain"):
            model = _model(kind, train)
            assert evaluate(model, train, test, n=3) == evaluate_reference(
                model, train, test, n=3)

    def test_untied_rows_skip_predict_next(self, small_blocks, monkeypatch):
        train, test = _random_split(3, 23, True)
        model = _model("svd-plain", train)
        expected = evaluate_reference(model, train, test, n=3)
        calls = _counting_predict_next(monkeypatch)
        assert evaluate(model, train, test, n=3) == expected
        assert len(calls) < expected.evaluated_count // 2

    def test_exact_ties_go_through_predict_next(self, small_blocks, monkeypatch):
        train, test = _random_split(4, 23, True)
        model = _tied_svd(0)
        expected = evaluate_reference(model, train, test, n=6)
        calls = _counting_predict_next(monkeypatch)
        assert evaluate(model, train, test, n=6) == expected
        # a top-7 out of 9 items always holds one of the four tied pairs
        assert len(calls) == expected.evaluated_count

    def test_rows_within_half_the_bound_rank_alike(self):
        # Moving every block score by up to tau / 2 breaks the exact ties one
        # way or the other. Rows whose top gaps do not clear 2 tau must still
        # get predict_next's list, tie order included.
        model = _tied_svd(1)
        rng = np.random.default_rng(0)
        histories = [rng.choice(N_ITEMS, size=int(rng.integers(1, 4)), replace=False)
                     for _ in range(30)]
        ends = np.cumsum([len(h) for h in histories])
        starts = ends - [len(h) for h in histories]
        inner = seqrec.evaluation._block_scorer(model)

        def jittered(*args):
            scores, tau = inner(*args)
            return scores + rng.choice([-0.5, 0.5], size=scores.shape) * tau[:, None], tau

        top = seqrec.evaluation._rank_block(model, jittered, np.concatenate(histories),
                                            starts, ends, 6)
        for row, history in enumerate(histories):
            assert top[row].tolist() == predict_next(model, history, 6).tolist()

    def test_shuffled_train_log_gives_the_same_tensor_and_report(self):
        train, test = _random_split(6, 23, True)
        rng = np.random.default_rng(6)
        rows = list(zip(train.users.tolist(), train.items.tolist(), train.timestamps.tolist()))
        shuffled = make_log([rows[i] for i in rng.permutation(len(rows))], N_USERS, N_ITEMS)
        tensors = [build_positional_tensor(log, 4) for log in (train, shuffled)]
        for name in ("users", "items", "positions"):
            assert np.array_equal(getattr(tensors[0], name), getattr(tensors[1], name))
        for kind in ("mp", "svd-plain", "global", "local-restored"):
            assert (evaluate(_model(kind, shuffled), shuffled, test, n=3)
                    == evaluate(_model(kind, train), train, test, n=3))

    def test_cutoff_below_one_rejected(self):
        train, test = _random_split(0, 3, False)
        with pytest.raises(ValueError, match="n must be"):
            evaluate(_model("svd-plain", train), train, test, n=0)


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

"""Models: baselines, mode operators vs dense oracles, trainers, prediction, serialization."""

import json
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_ga_unfoldings,
    dense_hankelized_tensor,
    dense_hooi,
    dense_la_unfoldings,
    dense_weighted_tensor,
    hankelize,
    random_tensor,
)
from helpers import make_log
import seqrec.linalg
import seqrec.models
from seqrec.attention import AttentionMatrix, build_attention
from seqrec.data import build_positional_tensor
from seqrec.linalg import DENSE_SVD_DIM, random_orthonormal, skew_block_cache
from seqrec.models import (
    ColdUserError,
    GlobalAttentionTrainer,
    LocalAttentionTrainer,
    build_scaling,
    ga_mode_operator,
    la_mode_operator,
    load_model,
    predict_next,
    save_model,
    train_gasatf,
    train_lasatf,
    train_mp,
    train_puresvd,
)


class TestBuildScaling:
    def test_s_one_disables(self):
        sc = build_scaling([1, 5, 9], 1)
        assert np.array_equal(sc.d, np.ones(3))

    def test_s_zero_inverse_sqrt(self):
        sc = build_scaling([1.0, 4.0, 9.0], 0.0)
        assert np.allclose(sc.d, [1.0, 0.5, 1.0 / 3.0])

    def test_s_three_linear(self):
        sc = build_scaling([2.0, 3.0], 3.0)
        assert np.allclose(sc.d, [2.0, 3.0])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            build_scaling([3.0, 0.0], 0.5)

    def test_zero_count_neutral(self):
        sc = build_scaling([4.0, 0.0], 0.0, neutral_missing=True)
        assert np.allclose(sc.d, [0.5, 1.0])


class TestMostPopular:
    def test_ranking_with_tie(self):
        log = make_log([(u, j, t) for t, (u, j) in enumerate(
            [(0, 1)] * 7 + [(1, 2)] * 7 + [(2, 0)] * 3 + [(3, 3)])], 4, 4)
        mp = train_mp(log)
        assert list(mp.counts) == [3, 7, 7, 1]
        assert list(mp.ranking) == [1, 2, 0, 3]

    def test_scores_are_counts(self):
        log = make_log([(0, 0, 0), (0, 2, 1), (1, 2, 2)], 2, 4)
        mp = train_mp(log)
        assert np.array_equal(mp.score_history([0]), [1.0, 0.0, 2.0, 0.0])

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 5)), min_size=1,
                    max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_counting_oracle(self, pairs):
        rows = [(u, j, t) for t, (u, j) in enumerate(pairs)]
        mp = train_mp(make_log(rows, 5, 6))
        expected = np.zeros(6)
        for _, j in pairs:
            expected[j] += 1
        assert np.array_equal(mp.counts, expected)


class TestPureSVD:
    def test_full_rank_projector_is_identity(self):
        log = make_log([(0, 0, 0), (0, 1, 1), (1, 1, 2), (2, 2, 3)], 3, 3)
        svd = train_puresvd(log, r=3)
        assert np.abs(svd.v @ svd.v.T - np.eye(3)).max() < 1e-10
        p = np.zeros(3)
        p[[0, 1]] = 1.0
        assert np.allclose(svd.score_history([0, 1]), p, atol=1e-10)

    def test_two_block_structure(self):
        # items {0,1} and {2,3} never co-occur: rank-2 scores stay in-block
        rows = []
        t = 0
        for u in range(4):
            for j in (0, 1):
                rows.append((u, j, t)); t += 1
        for u in range(4, 8):
            for j in (2, 3):
                rows.append((u, j, t)); t += 1
        svd = train_puresvd(make_log(rows, 8, 4), r=2)
        sc = svd.score_history([0])
        assert min(sc[0], sc[1]) > 0.4
        assert max(abs(sc[2]), abs(sc[3])) < 1e-10

    def test_s_one_regimes_agree(self):
        log = make_log([(u, (u + d) % 5, t) for t, (u, d) in enumerate(
            (u, d) for u in range(6) for d in range(3))], 6, 5)
        a = train_puresvd(log, r=3, s=1.0, regime="plain")
        b = train_puresvd(log, r=3, s=1.0, regime="restored")
        for hist in ([0], [1, 4], [2, 3, 0]):
            assert np.allclose(a.score_history(hist), b.score_history(hist),
                               atol=1e-12)

    def test_rank_too_large(self):
        log = make_log([(0, 0, 0), (1, 1, 1)], 2, 3)
        with pytest.raises(ValueError, match="rank"):
            train_puresvd(log, r=3)

    def test_restored_regime_formula(self):
        # restored scores are D^{-1} V V^T D p against a hand computation
        log = make_log([(0, 0, 0), (0, 1, 1), (1, 0, 2), (2, 2, 3)], 3, 3)
        svd = train_puresvd(log, r=2, s=0.0, regime="restored")
        d = svd.scaling.d
        p = np.zeros(3)
        p[1] = 1.0
        expected = (svd.v @ (svd.v.T @ (d * p))) / d
        assert np.allclose(svd.score_history([1]), expected, atol=1e-12)


def _rand_factors(rng, shapes):
    return [rng.standard_normal(s) for s in shapes]


class TestGlobalModeOperators:
    @pytest.mark.parametrize("mode", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_oracle(self, mode, seed):
        tensor = random_tensor(7, 6, 5, seed=seed)
        rng = np.random.default_rng(100 + seed)
        u, v, w = _rand_factors(rng, [(7, 3), (6, 2), (5, 2)])
        att = build_attention(5, f=1.0)
        scaling = build_scaling(tensor.item_counts(), 0.5)
        op = ga_mode_operator(
            tensor, {"U": u, "V": v, "W_A": att.apply(w)}, att, scaling, mode)
        ref = dense_ga_unfoldings(tensor, scaling.d, att, u, v, w)[mode]
        assert np.abs(op.materialize() - ref).max() < 1e-12
        # adjoint against the same dense matrix
        probe = rng.standard_normal(op.shape[0])
        assert np.allclose(op.rmatvec(probe), ref.T @ probe, atol=1e-12)

    def test_bad_mode(self):
        tensor = random_tensor(3, 3, 3, seed=0)
        with pytest.raises(ValueError, match="mode"):
            ga_mode_operator(tensor, {}, build_attention(3, f=0.0),
                             build_scaling([1, 1, 1], 1), 5)

    def test_factor_shape_mismatch(self):
        tensor = random_tensor(3, 4, 5, seed=0)
        att = build_attention(5, f=0.0)
        scaling = build_scaling(tensor.item_counts(), 1)
        with pytest.raises(ValueError, match="shape"):
            ga_mode_operator(tensor, {"V": np.ones((4, 2)), "W_A": np.ones((4, 2))},
                             att, scaling, 1)


class TestLocalModeOperators:
    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_matches_dense_oracle(self, mode, window):
        tensor = random_tensor(6, 5, 4, seed=mode * 10 + window)
        k_s = 4 - window + 1
        rng = np.random.default_rng(mode + window)
        u, v, w_l, w_s = _rand_factors(
            rng, [(6, 2), (5, 3), (window, min(2, window)), (k_s, min(2, k_s))])
        att = build_attention(window, f=0.7)
        scaling = build_scaling(tensor.item_counts(), 0.0)
        factors = {"U": u, "V": v, "W_A": att.apply(w_l), "W_S": w_s,
                   "scaling": scaling}
        cache = skew_block_cache(factors["W_A"], w_s) if mode in (1, 2) else None
        op = la_mode_operator(tensor, factors, att, cache, mode)
        ref = dense_la_unfoldings(tensor, scaling.d, att, window, u, v, w_l, w_s)[mode]
        assert np.abs(op.materialize() - ref).max() < 1e-12
        probe = rng.standard_normal(op.shape[0])
        assert np.allclose(op.rmatvec(probe), ref.T @ probe, atol=1e-12)

    def test_stale_cache_rejected(self):
        tensor = random_tensor(4, 4, 3, seed=0)
        att = build_attention(2, f=0.0)
        w_a = att.apply(random_orthonormal(2, 1, seed=0))
        w_s = random_orthonormal(2, 1, seed=1)
        cache = skew_block_cache(w_a, w_s)
        factors = {"U": np.ones((4, 2)), "V": np.ones((4, 2)),
                   "W_A": w_a.copy(), "W_S": w_s,
                   "scaling": build_scaling(tensor.item_counts(), 1)}
        with pytest.raises(ValueError, match="stale"):
            la_mode_operator(tensor, factors, att, cache, 1)

    def test_bad_mode(self):
        tensor = random_tensor(3, 3, 3, seed=0)
        with pytest.raises(ValueError, match="mode"):
            la_mode_operator(tensor, {"scaling": build_scaling([1, 1, 1], 1)},
                             build_attention(2, f=0.0), None, 0)


def _la_operator_case(m, n, k, window, ranks, seed):
    """A random LA operator setup: tensor, factors, attention and the dense oracle."""
    tensor = random_tensor(m, n, k, seed=seed, min_len=2)
    r1, r2, r3, r4 = ranks
    rng = np.random.default_rng(seed)
    u, v, w_l, w_s = _rand_factors(rng, [(m, r1), (n, r2), (window, r3), (k - window + 1, r4)])
    att = build_attention(window, f=0.7)
    scaling = build_scaling(tensor.item_counts(), 0.0)
    factors = {"U": u, "V": v, "W_A": att.apply(w_l), "W_S": w_s, "scaling": scaling}
    refs = dense_la_unfoldings(tensor, scaling.d, att, window, u, v, w_l, w_s)
    return tensor, factors, att, refs, rng


class TestLongWindowOperators:
    """Windows longer than DENSE_SVD_DIM: the explicit mode-3 unfolding is wide
    enough for the iterative solver."""

    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, mode):
        window = 34
        assert window > DENSE_SVD_DIM
        tensor, factors, att, refs, rng = _la_operator_case(9, 7, 40, window, (3, 2, 2, 3), 5)
        cache = skew_block_cache(factors["W_A"], factors["W_S"]) if mode in (1, 2) else None
        op = la_mode_operator(tensor, factors, att, cache, mode)
        ref = refs[mode]
        assert np.abs(op.materialize() - ref).max() < 1e-12
        probe = rng.standard_normal(op.shape[0])
        assert np.allclose(op.rmatvec(probe), ref.T @ probe, atol=1e-12)


def _column_operators():
    """Every GA and LA operator on small random data, with its dense oracle."""
    tensor = random_tensor(7, 6, 5, seed=2)
    rng = np.random.default_rng(3)
    u, v, w = _rand_factors(rng, [(7, 3), (6, 2), (5, 2)])
    att = build_attention(5, f=1.0)
    scaling = build_scaling(tensor.item_counts(), 0.5)
    ga_refs = dense_ga_unfoldings(tensor, scaling.d, att, u, v, w)
    cases = {f"ga{mode}": (ga_mode_operator(tensor, {"U": u, "V": v, "W_A": att.apply(w)},
                                            att, scaling, mode), ga_refs[mode])
             for mode in (1, 2, 3)}
    tensor, factors, att, refs, _ = _la_operator_case(6, 5, 6, 3, (2, 3, 2, 2), 4)
    cache = skew_block_cache(factors["W_A"], factors["W_S"])
    cases.update({f"la{mode}": (la_mode_operator(tensor, factors, att, cache, mode), refs[mode])
                  for mode in (1, 2, 3, 4)})
    return cases


@pytest.mark.parametrize("name", ["ga1", "ga2", "ga3", "la1", "la2", "la3", "la4"])
def test_column_inputs_through_linear_operator(name):
    # iterative solvers hand (n, 1) columns to the scipy view of an operator
    op, ref = _column_operators()[name]
    lin = op.to_linear_operator()
    rng = np.random.default_rng(0)
    x = rng.standard_normal((ref.shape[1], 1))
    y = rng.standard_normal((ref.shape[0], 1))
    assert lin.matvec(x).shape == (ref.shape[0], 1)
    assert np.allclose(lin.matvec(x), ref @ x, atol=1e-12)
    assert np.allclose(lin.rmatvec(y), ref.T @ y, atol=1e-12)
    xs = rng.standard_normal((ref.shape[1], 3))
    ys = rng.standard_normal((ref.shape[0], 3))
    assert np.allclose(lin.matmat(xs), ref @ xs, atol=1e-12)
    assert np.allclose(lin.rmatmat(ys), ref.T @ ys, atol=1e-12)


def _assert_iterative_agrees(monkeypatch, make, iterative_shapes, factor_names, sweeps=3):
    """Trainers built by ``make(exact_svd)`` agree sweep by sweep, and the
    iterative one sends operators of ``iterative_shapes`` to ARPACK."""
    shapes = []
    svds = seqrec.linalg.svds

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svds(a, *args, **kwargs)

    monkeypatch.setattr(seqrec.linalg, "svds", recording)
    iterative, exact = make(False), make(True)
    for _ in range(sweeps):
        iterative.sweep()
        exact.sweep()
    assert set(iterative_shapes) <= set(shapes)
    assert np.allclose(iterative.fit_history, exact.fit_history, rtol=1e-8)
    for name in factor_names:
        a, b = getattr(iterative, name), getattr(exact, name)
        assert np.abs(a @ a.T - b @ b.T).max() < 1e-6


class TestIterativeAgreesWithExact:
    """ARPACK on tall and wide unfoldings against dense SVDs."""

    def test_global_wide_mode_one(self, monkeypatch):
        tensor = random_tensor(50, 80, 12, seed=0)
        _assert_iterative_agrees(monkeypatch, lambda exact: GlobalAttentionTrainer(
            tensor, build_attention(12, f=1.0), (10, 20, 5), seed=0, exact_svd=exact),
            [(50, 100), (80, 50)], ("u", "v", "w"))

    def test_local_wide_mode_one(self, monkeypatch):
        tensor = random_tensor(50, 80, 12, seed=0)
        _assert_iterative_agrees(monkeypatch, lambda exact: LocalAttentionTrainer(
            tensor, 12, build_attention(12, f=1.0), (10, 20, 5, 1), seed=0,
            exact_svd=exact), [(50, 100), (80, 50)], ("u", "v", "w_l", "w_s"))

    def test_local_long_window_mode_three(self, monkeypatch):
        # window 34 > DENSE_SVD_DIM: the 34 x r4*r2*r1 unfolding goes to ARPACK
        tensor = random_tensor(30, 40, 40, seed=1, min_len=5)
        _assert_iterative_agrees(monkeypatch, lambda exact: LocalAttentionTrainer(
            tensor, 34, build_attention(34, f=1.0), (4, 4, 2, 3), seed=0,
            exact_svd=exact), [(34, 3 * 4 * 4)], ("u", "v", "w_l", "w_s"))


def _histories(first, n_items, k):
    """``first``, then histories of distinct items with 1, K - 1, K and K + 3 entries."""
    rng = np.random.default_rng(0)
    return [first] + [list(rng.permutation(n_items)[:length]) for length in (1, k - 1, k, k + 3)]


class TestGlobalTrainer:
    def test_identity_attention_equals_dense_hooi(self):
        tensor = random_tensor(8, 7, 5, seed=3)
        ranks = (4, 3, 2)
        v0 = random_orthonormal(7, 3, seed=11)
        w0 = random_orthonormal(5, 2, seed=12)
        ga = train_gasatf(tensor, f=0.0, ranks=ranks, seed=11, sweeps=3,
                          attention_mode="identity", exact_svd=True,
                          init={"V": v0, "W": w0})
        dense = tensor.to_dense()
        factors, fits = dense_hooi(dense, ranks, {1: v0, 2: w0}, sweeps=3)
        assert np.abs(ga.v @ ga.v.T - factors[1] @ factors[1].T).max() < 1e-8
        assert np.abs(ga.w @ ga.w.T - factors[2] @ factors[2].T).max() < 1e-8

    def test_full_rank_captures_all_energy(self):
        tensor = random_tensor(5, 4, 3, seed=4)
        att = build_attention(3, f=1.0)
        scaling = build_scaling(tensor.item_counts(), 0.5)
        y = dense_weighted_tensor(tensor, scaling.d, att)
        trainer_fit = train_gasatf(tensor, f=1.0, ranks=(5, 4, 3), s=0.5,
                                   seed=0, sweeps=2, exact_svd=True)
        # snapshot discards fits; re-run a trainer to inspect them
        from seqrec.models import GlobalAttentionTrainer
        tr = GlobalAttentionTrainer(tensor, att, (5, 4, 3), s=0.5, seed=0,
                                    exact_svd=True)
        tr.sweep(); tr.sweep()
        assert tr.fit_history[-1] == pytest.approx(np.sum(y ** 2), rel=1e-8)
        assert trainer_fit.v.shape == (4, 4)

    def test_monotone_fit(self):
        tensor = random_tensor(12, 9, 6, seed=5)
        from seqrec.models import GlobalAttentionTrainer
        tr = GlobalAttentionTrainer(tensor, build_attention(6, f=1.0),
                                    (4, 3, 2), seed=2, exact_svd=True)
        for _ in range(5):
            tr.sweep()
        diffs = np.diff(tr.fit_history)
        assert (diffs >= -1e-10 * max(tr.fit_history)).all()

    def test_rank_infeasible(self):
        tensor = random_tensor(3, 4, 2, seed=0)
        with pytest.raises(ValueError, match="infeasible"):
            train_gasatf(tensor, f=0.0, ranks=(3, 5, 2))

    def test_repeated_sequence_learned_exactly(self):
        # four identical three-item journeys: full rank fits exactly,
        # and the model continues the pattern
        rows = [(u, j, j) for u in range(4) for j in range(3)]
        x = build_positional_tensor(make_log(rows, 4, 3), 3)
        ga = train_gasatf(x, f=0.0, ranks=(3, 3, 3), seed=0, sweeps=3,
                          exact_svd=True)
        assert list(predict_next(ga, [0, 1], 1)) == [2]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_co_occurrence_transfer(self, seed):
        # A is followed by B or C; D,E live in separate journeys. A user who
        # saw only A should prefer {B, C} over {D, E}.
        rows = []
        u = 0
        for _ in range(3):
            rows += [(u, 0, 0), (u, 1, 1)]; u += 1
            rows += [(u, 0, 0), (u, 2, 1)]; u += 1
            rows += [(u, 3, 0), (u, 4, 1)]; u += 1
        x = build_positional_tensor(make_log(rows, u, 5), 2)
        ga = train_gasatf(x, f=0.0, ranks=(3, 3, 2), seed=seed, sweeps=4,
                          exact_svd=True)
        sc = ga.score_history([0])
        assert min(sc[1], sc[2]) > max(sc[3], sc[4])

    def test_score_matches_dense_pipeline(self):
        # score = V V^T p where p places the restored attended position profile
        # (computed here with dense triangular solves) on the shifted history
        tensor = random_tensor(9, 8, 5, seed=6, min_len=2)
        ga = train_gasatf(tensor, f=1.0, ranks=(4, 4, 3), seed=1, sweeps=2)
        a = ga.attention.dense()
        w_hat = np.linalg.solve(a.T, ga.w)
        q = a @ ga.w @ w_hat[-1]
        k = 5
        for hist in _histories([2, 5, 0], 8, k):
            p = np.zeros(8)
            for back, item in enumerate(reversed(hist)):
                pos = k - back  # original right-aligned position
                if pos - 1 >= 1:  # shift one step toward the past
                    p[item] = q[pos - 2]
            expected = ga.v @ (ga.v.T @ p)
            assert np.allclose(ga.score_history(hist), expected, atol=1e-10)


class TestLocalTrainer:
    def test_window_one_equals_third_order(self):
        tensor = random_tensor(8, 7, 4, seed=7)
        v0 = random_orthonormal(7, 3, seed=20)
        w0 = random_orthonormal(4, 2, seed=21)
        ga = train_gasatf(tensor, f=0.0, ranks=(3, 3, 2), seed=5, sweeps=3,
                          attention_mode="identity", exact_svd=True,
                          init={"V": v0, "W": w0})
        la = train_lasatf(tensor, window=1, f=0.0, ranks=(3, 3, 1, 2), seed=5,
                          sweeps=3, exact_svd=True,
                          init={"V": v0, "W_L": np.ones((1, 1)), "W_S": w0})
        assert np.abs(ga.v @ ga.v.T - la.v @ la.v.T).max() < 1e-8
        assert np.abs(ga.w @ ga.w.T - la.w_s @ la.w_s.T).max() < 1e-8

    def test_full_rank_captures_all_energy(self):
        tensor = random_tensor(5, 4, 4, seed=8)
        window = 2
        att = build_attention(window, f=1.0)
        scaling = build_scaling(tensor.item_counts(), 1)
        y = dense_hankelized_tensor(tensor, scaling.d, att, window)
        from seqrec.models import LocalAttentionTrainer
        tr = LocalAttentionTrainer(tensor, window, att, (5, 4, 2, 3), seed=0,
                                   exact_svd=True)
        tr.sweep(); tr.sweep()
        assert tr.fit_history[-1] == pytest.approx(np.sum(y ** 2), rel=1e-8)

    def test_monotone_fit(self):
        tensor = random_tensor(12, 9, 6, seed=9)
        from seqrec.models import LocalAttentionTrainer
        tr = LocalAttentionTrainer(tensor, 3, build_attention(3, f=0.5),
                                   (4, 3, 2, 2), seed=3, exact_svd=True)
        for _ in range(5):
            tr.sweep()
        diffs = np.diff(tr.fit_history)
        assert (diffs >= -1e-10 * max(tr.fit_history)).all()

    @pytest.mark.parametrize("window", [3, 6])
    def test_position_cores_built_once_per_sweep(self, monkeypatch, window):
        # window 3 solves modes 3 and 4 from the same cores, window = K mode 3 only
        from seqrec.models import LocalAttentionTrainer
        tensor = random_tensor(10, 9, 6, seed=12, min_len=2)
        ranks = (4, 3, 2, 1 if window == 6 else 2)

        def train():
            tr = LocalAttentionTrainer(tensor, window, build_attention(window, f=0.5), ranks,
                                       s=0.5, seed=4, regime="restored")
            for _ in range(3):
                tr.sweep()
            return tr

        calls = []
        cores = seqrec.models._position_cores
        monkeypatch.setattr(seqrec.models, "_position_cores",
                            lambda *args: calls.append(1) or cores(*args))
        shared = train()
        assert len(calls) == 3
        # reference: each window/offset operator builds its own cores
        factors = LocalAttentionTrainer._factors
        monkeypatch.setattr(LocalAttentionTrainer, "_factors",
                            lambda self, cores=None: factors(self))
        separate = train()
        assert shared.fit_history == separate.fit_history
        for name in ("u", "v", "w_l", "w_s"):
            assert np.array_equal(getattr(shared, name), getattr(separate, name))
        a, b = shared.snapshot(), separate.snapshot()
        for hist in ([0], [2, 5], [1, 3, 4, 7, 8]):
            assert np.array_equal(a.score_history(hist), b.score_history(hist))

    def test_window_and_rank_validation(self):
        tensor = random_tensor(4, 4, 3, seed=0)
        with pytest.raises(ValueError, match="window"):
            train_lasatf(tensor, window=4, f=0.0, ranks=(2, 2, 1, 1))
        with pytest.raises(ValueError, match="infeasible"):
            train_lasatf(tensor, window=2, f=0.0, ranks=(2, 2, 1, 3))

    def test_score_matches_skew_diagonal_oracle(self):
        # gamma at position q is the bilinear form of the one-hot Hankel slice
        tensor = random_tensor(9, 8, 5, seed=10, min_len=2)
        la = train_lasatf(tensor, window=2, f=0.5, ranks=(4, 4, 2, 2), seed=2,
                          sweeps=2)
        a = la.attention.dense()
        w_hat = np.linalg.solve(a.T, la.w_l)
        left = a @ la.w_l @ w_hat[-1]
        right = la.w_s @ la.w_s[-1]
        k = 5
        gamma = np.array([
            left @ hankelize(np.eye(k)[q], 2).to_dense() @ right
            for q in range(k)
        ])
        for hist in _histories([1, 6, 3], 8, k):
            p = np.zeros(8)
            for back, item in enumerate(reversed(hist)):
                pos = k - back
                if pos - 1 >= 1:
                    p[item] = gamma[pos - 2]
            expected = la.v @ (la.v.T @ p)
            assert np.allclose(la.score_history(hist), expected, atol=1e-10)


_SINGLE_POSITION_TRAINERS = {
    "global": lambda x: train_gasatf(x, f=1.0, ranks=(3, 3, 1), seed=0, sweeps=1),
    "local": lambda x: train_lasatf(x, window=1, f=1.0, ranks=(3, 3, 1, 1), seed=0, sweeps=1),
}


class TestScoring:
    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_single_position_scores_nothing(self, kind):
        # at K = 1 the only position shifts out: no history item keeps a weight
        model = _SINGLE_POSITION_TRAINERS[kind](random_tensor(6, 5, 1, seed=11))
        for hist in ([2], [0, 3], [4, 1, 0]):
            assert np.array_equal(model.score_history(hist), np.zeros(5))

    def test_position_profile_built_once_per_model(self, monkeypatch):
        tensor = random_tensor(9, 8, 5, seed=10, min_len=2)
        model = train_lasatf(tensor, window=2, f=0.5, ranks=(4, 4, 2, 2), seed=2, sweeps=1)
        calls = []
        apply = AttentionMatrix.apply
        monkeypatch.setattr(AttentionMatrix, "apply",
                            lambda self, x: calls.append(1) or apply(self, x))
        first = model.score_history([1, 6, 3])
        for _ in range(3):
            assert np.array_equal(model.score_history([1, 6, 3]), first)
        assert len(calls) <= 1


@dataclass
class _StubModel:
    scores: np.ndarray = field(repr=False)
    kind = "stub"

    @property
    def n_items(self):
        return len(self.scores)

    def score_history(self, history):
        return self.scores.copy()


class TestPredictNext:
    def test_tie_broken_by_index(self):
        stub = _StubModel(np.array([0.1, 0.9, 0.5, 0.9]))
        assert list(predict_next(stub, [0], 2)) == [1, 3]

    def test_exclude_seen(self):
        stub = _StubModel(np.array([0.1, 0.9, 0.5, 0.9]))
        assert list(predict_next(stub, [1], 3)) == [3, 2, 0]
        assert list(predict_next(stub, [1], 3, exclude_seen=False)) == [1, 3, 2]

    def test_unknown_items_dropped(self):
        stub = _StubModel(np.array([0.1, 0.9, 0.5]))
        assert list(predict_next(stub, [0, 99, -1], 1)) == [1]
        assert list(predict_next(stub, [1, 99, -1], 1)) == [2]

    def test_cold_user(self):
        stub = _StubModel(np.array([1.0, 2.0]))
        with pytest.raises(ColdUserError):
            predict_next(stub, [7, -3], 1)

    def test_bad_cutoff(self):
        stub = _StubModel(np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="n"):
            predict_next(stub, [0], 0)

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(0)
        scores = rng.standard_normal(12)
        a = predict_next(_StubModel(scores), [0], 5)
        b = predict_next(_StubModel(scores * 3.7), [0], 5)
        assert np.array_equal(a, b)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_items=st.integers(1, 40), exclude_seen=st.booleans())
    def test_matches_full_lexsort(self, data, n_items, exclude_seen):
        # few distinct values force heavy ties; -inf also stands in for seen items
        values = st.sampled_from([-np.inf, -1.0, 0.0, 0.25, 1.0, np.inf]) | st.floats(
            -3, 3, allow_nan=False)
        scores = np.array(data.draw(st.lists(values, min_size=n_items, max_size=n_items)))
        history = data.draw(st.lists(st.integers(0, n_items - 1), min_size=1, max_size=5))
        n = data.draw(st.integers(1, n_items + 3))
        full = scores.copy()
        if exclude_seen:
            full[history] = -np.inf
        expected = np.lexsort((np.arange(n_items), -full))[:n]
        got = predict_next(_StubModel(scores), history, n, exclude_seen=exclude_seen)
        assert got.tolist() == expected.tolist()


class TestSerialization:
    def _models(self):
        rows = [(u, (u + d) % 6, 10 * u + d) for u in range(8) for d in range(4)]
        log = make_log(rows, 8, 6)
        x = build_positional_tensor(log, 3)
        return {
            "mp": train_mp(log),
            "svd": train_puresvd(log, r=3, s=0.5, regime="restored"),
            "global": train_gasatf(x, f=1.0, ranks=(4, 3, 2), s=0.5, seed=0,
                                   sweeps=2, regime="restored"),
            "local": train_lasatf(x, window=2, f=0.5, ranks=(4, 3, 2, 2),
                                  seed=0, sweeps=2),
        }

    @pytest.mark.parametrize("kind", ["mp", "svd", "global", "local"])
    def test_round_trip_bit_exact(self, kind, tmp_path):
        model = self._models()[kind]
        path = tmp_path / f"{kind}.npz"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.kind == model.kind
        for name in ("counts", "v", "w", "w_hat", "w_l", "w_l_hat", "w_s"):
            if hasattr(model, name):
                assert np.array_equal(getattr(model, name), getattr(loaded, name))
        if kind != "mp":
            assert np.array_equal(model.scaling.d, loaded.scaling.d)
            assert model.regime == loaded.regime
        # scores agree up to BLAS memory-layout rounding
        for hist in ([0], [2, 4], [1, 3, 5]):
            assert np.allclose(model.score_history(hist),
                               loaded.score_history(hist), atol=1e-12)

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(_mp_fixture(), path)
        with np.load(path, allow_pickle=False) as data:
            counts = data["counts"]
        np.savez(path, params=np.array(json.dumps({"kind": "mp", "version": 99})),
                 counts=counts)
        with pytest.raises(ValueError, match="version"):
            load_model(path)


def _mp_fixture():
    return train_mp(make_log([(0, 0, 0), (0, 1, 1), (1, 1, 2)], 2, 3))

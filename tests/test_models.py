"""Models: baselines, mode operators vs dense oracles, trainers, prediction, serialization."""

import dataclasses
import json
import re
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
from helpers import _GRAM_FITS, make_log, propack_first, shaped
import seqrec.linalg
import seqrec.models
from seqrec.evaluation import _top_n
from seqrec.attention import AttentionMatrix, build_attention
from seqrec.data import SparsePositionalTensor, build_positional_tensor
from seqrec.linalg import ImplicitMatrix, random_orthonormal, skew_block_cache
from seqrec.models import (
    ColdUserError,
    GlobalAttentionTrainer,
    LocalAttentionModel,
    LocalAttentionTrainer,
    ScalingDiag,
    SVDModel,
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
        assert list(predict_next(mp, [0], 4, exclude_seen=False)) == [1, 2, 0, 3]

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
        a = train_puresvd(log, r=3, s=1.0)
        b = dataclasses.replace(train_puresvd(log, r=3, s=1.0), regime="restored")
        for hist in ([0], [1, 4], [2, 3, 0]):
            assert np.allclose(a.score_history(hist), b.score_history(hist),
                               atol=1e-12)
        with pytest.raises(ValueError, match="unknown regime 'bogus'"):
            dataclasses.replace(a, regime="bogus").score_history([0])

    def test_rank_too_large(self):
        # and ranks below 1 or not integers
        log = make_log([(0, 0, 0), (1, 1, 1)], 2, 3)
        for r in (3, -1, 0, 2.0, True):
            with pytest.raises(ValueError, match=f"rank {r} infeasible"):
                train_puresvd(log, r=r)

    @pytest.mark.parametrize("s", [0.0, 0.4])
    def test_iterative_path_matches_dense_projector(self, monkeypatch, s):
        # 60 x 50 at rank 5, sent to PROPACK, goes to one PROPACK solve, then
        # the one-vector solve on the deflated operator that finds no missed
        # copy
        propack_first(monkeypatch)
        dense = np.random.default_rng(3).random((60, 50)) < 0.2
        rows = [(u, j, t) for t, (u, j) in enumerate(zip(*np.nonzero(dense)))]
        calls = []
        svds = seqrec.linalg.svds
        monkeypatch.setattr(seqrec.linalg, "svds", lambda *args, **kwargs:
                            calls.append(kwargs["k"]) or svds(*args, **kwargs))
        svd = train_puresvd(make_log(rows, 60, 50), r=5, s=s)
        assert calls == [5, 1]
        d = svd.scaling.d
        vt = np.linalg.svd(dense * d, full_matrices=False)[2][:5]
        projector = vt.T @ vt
        assert np.abs(svd.v @ svd.v.T - projector).max() < 1e-10
        hist = [3, 17, 42, 8]
        p = np.zeros(50)
        p[hist] = 1.0
        for regime, scale in (("plain", np.ones(50)), ("restored", d)):
            expected = (projector @ (scale * p)) / scale
            scores = dataclasses.replace(svd, regime=regime).score_history(hist)
            assert np.allclose(scores, expected, atol=1e-10)

    def test_repeated_item_counts_once(self):
        log = make_log([(u, (u + d) % 5, t) for t, (u, d) in enumerate(
            (u, d) for u in range(6) for d in range(3))], 6, 5)
        for regime in ("plain", "restored"):
            svd = dataclasses.replace(train_puresvd(log, r=3, s=0.0), regime=regime)
            assert np.array_equal(svd.score_history([3, 1, 3]), svd.score_history([1, 3]))

    def test_restored_regime_formula(self):
        # restored scores are D^{-1} V V^T D p against a hand computation
        log = make_log([(0, 0, 0), (0, 1, 1), (1, 0, 2), (2, 2, 3)], 3, 3)
        svd = dataclasses.replace(train_puresvd(log, r=2, s=0.0), regime="restored")
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

    @pytest.mark.parametrize("use_fft", [False, True])
    def test_cache_of_float32_factors_matches_them(self, use_fft):
        tensor = random_tensor(4, 4, 3, seed=0)
        att = build_attention(2, f=0.0)
        w_a = att.apply(random_orthonormal(2, 1, seed=0)).astype(np.float32)
        w_s = random_orthonormal(2, 1, seed=1)
        factors = {"U": np.ones((4, 2)), "V": np.ones((4, 2)), "W_A": w_a, "W_S": w_s,
                   "scaling": build_scaling(tensor.item_counts(), 1)}
        for mode in (1, 2):
            cached = la_mode_operator(tensor, factors, att,
                                      skew_block_cache(w_a, w_s, use_fft=use_fft), mode)
            built = la_mode_operator(tensor, factors, att, None, mode)
            assert np.allclose(cached.materialize(), built.materialize(), atol=1e-12)

    def test_bad_mode(self):
        tensor = random_tensor(3, 3, 3, seed=0)
        with pytest.raises(ValueError, match="mode"):
            la_mode_operator(tensor, {"scaling": build_scaling([1, 1, 1], 1)},
                             build_attention(2, f=0.0), None, 0)

    @pytest.mark.parametrize("mode, name", [
        (1, "V"), (1, "W_A"), (1, "W_S"), (2, "U"), (2, "W_A"), (2, "W_S"),
        (3, "U"), (3, "V"), (3, "W_S"), (4, "U"), (4, "V"), (4, "W_A")])
    def test_factor_with_an_extra_row_rejected(self, mode, name):
        tensor = random_tensor(6, 5, 6, seed=4)
        att = build_attention(3, f=0.5)
        factors = {"U": np.ones((6, 2)), "V": np.ones((5, 2)), "W_A": np.ones((3, 2)),
                   "W_S": np.ones((4, 2)), "scaling": build_scaling(tensor.item_counts(), 1)}
        factors[name] = np.ones((len(factors[name]) + 1, 2))
        with pytest.raises(ValueError, match="factor shapes do not match tensor dimensions"):
            la_mode_operator(tensor, factors, att, None, mode)

    @pytest.mark.parametrize("mode, name", [(1, "U"), (2, "V"), (3, "W_A"), (4, "W_S")])
    def test_factor_the_mode_solves_is_not_read(self, mode, name):
        # mode 3 solves W_L, so neither W_L nor W_A = A W_L enters its operator
        tensor, factors, att, refs, _ = _la_operator_case(6, 5, 6, 3, (2, 3, 2, 2), 4)
        factors = dict(factors, **{name: np.ones((1, 1))})
        op = la_mode_operator(tensor, factors, att, None, mode)
        assert np.abs(op.materialize() - refs[mode]).max() < 1e-12


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
    """Windows of 34: the explicit mode-3 unfolding is 34 rows high."""

    @pytest.mark.parametrize("mode", [1, 2, 3, 4])
    def test_matches_dense_oracle(self, mode):
        window = 34
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


def _mode_operators(kind, k):
    """Every GA or LA mode operator at K = k on a 30 x 25 tensor whose users
    0, 3, 6, ... have no entries, so mode 1 has empty rows."""
    full = random_tensor(30, 25, k, seed=k)
    keep = full.users % 3 != 0
    tensor = SparsePositionalTensor(users=full.users[keep], items=full.items[keep],
                                    positions=full.positions[keep], shape=full.shape)
    rng = np.random.default_rng(k)
    scaling = build_scaling(tensor.item_counts(), 0.3, neutral_missing=True)
    if kind == "ga":
        u, v, w = _rand_factors(rng, [(30, 3), (25, 4), (k, 2)])
        att = build_attention(k, f=0.5)
        return {mode: ga_mode_operator(tensor, {"U": u, "V": v, "W_A": att.apply(w)},
                                       att, scaling, mode) for mode in (1, 2, 3)}
    window = k // 2
    u, v, w_l, w_s = _rand_factors(rng, [(30, 3), (25, 4), (window, 2), (k - window + 1, 3)])
    att = build_attention(window, f=0.5)
    factors = {"U": u, "V": v, "W_A": att.apply(w_l), "W_S": w_s, "scaling": scaling}
    cache = skew_block_cache(factors["W_A"], w_s)
    return {mode: la_mode_operator(tensor, factors, att, cache if mode < 3 else None, mode)
            for mode in (1, 2, 3, 4)}


# a short and a long K; both build their skew blocks by the shift stack
@pytest.mark.parametrize("k", [6, 40], ids=["direct-skew", "fft-skew"])
@pytest.mark.parametrize("kind, mode", [("ga", 1), ("ga", 2), ("la", 1), ("la", 2)])
def test_dense_build_matches_column_loop(kind, mode, k):
    # modes 1/2 build their dense matrix themselves, without one apply per column
    op = _mode_operators(kind, k)[mode]
    columns = ImplicitMatrix(shape=op.shape, matvec=op.matvec, rmatvec=op.rmatvec).materialize()
    if mode == 1:
        assert not columns[::3].any()
    applies = []
    op.matvec = op.rmatvec = applies.append
    assert np.abs(op.materialize() - columns).max() < 1e-12
    assert not applies


@pytest.mark.parametrize("kind, mode", [("ga", 3), ("la", 3), ("la", 4)])
def test_attention_enters_the_window_mode_once(monkeypatch, kind, mode):
    # the window mode takes A^T into its shift stack when it is built, and
    # its applies, dense build and Gram multiply by no attention after that
    if kind == "la":
        tensor, factors, att, refs, rng = _la_operator_case(6, 5, 6, 3, (2, 3, 2, 2), 4)
    else:
        tensor = random_tensor(7, 6, 5, seed=2)
        rng = np.random.default_rng(3)
        u, v, w = _rand_factors(rng, [(7, 3), (6, 2), (5, 2)])
        att = build_attention(5, f=1.0)
        scaling = build_scaling(tensor.item_counts(), 0.5)
        factors = {"U": u, "V": v, "W_A": att.apply(w)}
        refs = dense_ga_unfoldings(tensor, scaling.d, att, u, v, w)
    calls = []
    for name in ("apply", "apply_transpose"):
        method = getattr(AttentionMatrix, name)
        monkeypatch.setattr(AttentionMatrix, name,
                            lambda self, x, _name=name, _method=method:
                            calls.append(_name) or _method(self, x))
    if kind == "ga":
        op = ga_mode_operator(tensor, factors, att, scaling, mode)
    else:
        op = la_mode_operator(tensor, factors, att, None, mode)
    assert calls == (["apply_transpose"] if mode == 3 else [])
    calls.clear()
    ref = refs[mode]
    x, y = rng.standard_normal(op.shape[1]), rng.standard_normal(op.shape[0])
    assert np.allclose(op.matvec(x), ref @ x, atol=1e-12)
    assert np.allclose(op.rmatvec(y), ref.T @ y, atol=1e-12)
    assert np.abs(op.materialize() - ref).max() < 1e-12
    assert np.abs(op.gram() - ref @ ref.T).max() < 1e-12
    assert calls == []


@pytest.mark.parametrize("kind", ["la", "ga"])
def test_sweeps_build_skew_blocks_without_fft(monkeypatch, kind):
    # K = 40: long windows build their skew blocks from the shift stack too
    def refuse(*args, **kwargs):
        raise AssertionError("FFT ran")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    tensor = random_tensor(30, 25, 40, seed=4)
    if kind == "la":
        trainer = LocalAttentionTrainer(tensor, 20, build_attention(20, f=0.5), (3, 4, 2, 2))
    else:
        trainer = GlobalAttentionTrainer(tensor, build_attention(40, f=0.5), (3, 4, 2))
    trainer.sweep()
    trainer.sweep()
    assert len(trainer.fit_history) == 2 and np.isfinite(trainer.fit_history).all()


def _assert_iterative_agrees(monkeypatch, make, iterative_shapes, factor_names, sweeps=3):
    """Trainers built by ``make(exact_svd)`` agree sweep by sweep, and the
    iterative one sends operators of ``iterative_shapes`` to PROPACK."""
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
    return shapes


class TestIterativeAgreesWithExact:
    """PROPACK on tall and wide unfoldings against dense SVDs, with every
    first run sent to PROPACK so that these small unfoldings reach it."""

    @pytest.fixture(autouse=True)
    def no_first_gram(self, monkeypatch):
        propack_first(monkeypatch)

    def test_global_wide_mode_one(self, monkeypatch):
        tensor = random_tensor(50, 80, 12, seed=0)
        _assert_iterative_agrees(monkeypatch, lambda exact: GlobalAttentionTrainer(
            tensor, build_attention(12, f=1.0), (10, 20, 5), seed=0, exact_svd=exact),
            [(50, 100), (80, 50)], ("u", "v", "w_l"))

    def test_local_wide_mode_one(self, monkeypatch):
        tensor = random_tensor(50, 80, 12, seed=0)
        _assert_iterative_agrees(monkeypatch, lambda exact: LocalAttentionTrainer(
            tensor, 12, build_attention(12, f=1.0), (10, 20, 5, 1), seed=0,
            exact_svd=exact), [(50, 100), (80, 50)], ("u", "v", "w_l", "w_s"))

    def test_local_long_window_mode_three(self, monkeypatch):
        # window 34: under the path rule as it stands, mode 3 takes the
        # window x window Gram of its 34 x r4*r2*r1 unfolding, not PROPACK
        monkeypatch.setattr(seqrec.linalg, "_gram_fits", _GRAM_FITS)
        tensor = random_tensor(30, 40, 40, seed=1, min_len=5)
        shapes = _assert_iterative_agrees(monkeypatch, lambda exact: LocalAttentionTrainer(
            tensor, 34, build_attention(34, f=1.0), (4, 4, 2, 3), seed=0,
            exact_svd=exact), [], ("u", "v", "w_l", "w_s"))
        assert (34, 3 * 4 * 4) not in shapes


def test_natural_size_mode_one_reaches_propack(monkeypatch):
    # a wide mode 1 of 700 x r3*r2 = 800 at r1 = 20: its 700 x 700 Gram
    # outgrows the 300-vector bases of PROPACK's first run, (700 + 800) * 300
    # numbers, so PROPACK runs with no rule changed
    tensor = random_tensor(700, 200, 12, seed=5, min_len=2)
    trainers = []

    def make(exact):
        trainers.append(GlobalAttentionTrainer(tensor, build_attention(12, f=1.0),
                                               (20, 100, 8), seed=0, exact_svd=exact))
        return trainers[-1]

    assert not seqrec.linalg._gram_fits(shaped((700, 800), carried=True), 20,
                                        seqrec.linalg.LANCZOS_BASIS_FACTOR)
    _assert_iterative_agrees(monkeypatch, make, [(700, 800)], ("u", "v", "w_l"), sweeps=2)
    paths = {(r["mode"], r["path"]) for r in trainers[0].solves}
    assert paths == {(1, "propack"), (2, "matrix-gram"), (3, "operator-gram")}


def _no_svd_sweeps(monkeypatch, trainer, sweeps):
    """Run ``sweeps`` sweeps of ``trainer`` with every SVD routine refused."""

    def refuse(*args, **kwargs):
        raise AssertionError("an SVD ran where a Gram eigensolve should")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "svd", refuse)
        patch.setattr(seqrec.linalg, "svds", refuse)
        for _ in range(sweeps):
            trainer.sweep()
    return trainer


class TestGramAgreesWithExact:
    """Without exact_svd every mode update of the small trainers below is a
    Gram eigensolve: the short side's Gram for modes 1/2 (tall or wide), the
    window x window and offset x offset Gram from the position cores for
    modes 3/4. It agrees with the dense SVDs of exact_svd."""

    @pytest.mark.parametrize("kind, shape, ranks", [
        # tall: 60 x 20 and 40 x 24 (LA), 60 x 15 and 40 x 18 (GA) modes 1/2
        ("local", (60, 40, 8), (6, 5, 2, 2)),
        ("global", (60, 40, 6), (6, 5, 3)),
        # wide: 12 x 36 and 10 x 36 (LA), 12 x 15 and 10 x 15 (GA)
        ("local", (12, 10, 8), (4, 4, 3, 3)),
        ("global", (12, 10, 6), (5, 5, 3)),
    ], ids=["local-tall", "global-tall", "local-wide", "global-wide"])
    def test_matches_exact(self, monkeypatch, kind, shape, ranks):
        tensor = random_tensor(*shape, seed=sum(shape), min_len=2)
        k = shape[2]

        def make(exact):
            if kind == "local":
                return LocalAttentionTrainer(tensor, 4, build_attention(4, f=1.0), ranks,
                                             s=0.4, seed=1, exact_svd=exact)
            return GlobalAttentionTrainer(tensor, build_attention(k, f=1.0), ranks,
                                          s=0.4, seed=1, exact_svd=exact)

        gram = _no_svd_sweeps(monkeypatch, make(False), 3)
        exact = make(True)
        for _ in range(3):
            exact.sweep()
        assert np.allclose(gram.fit_history, exact.fit_history, rtol=1e-8, atol=0)
        for name in ("u", "v", "w_l", "w_s"):
            a, b = getattr(gram, name), getattr(exact, name)
            assert np.abs(a @ a.T - b @ b.T).max() < 1e-8

    def test_rank_past_the_unfolding_rank(self, monkeypatch):
        # four identical users: the 4 x 12 user unfolding has rank 1 < r1 = 3
        rows = [(u, j, j) for u in range(4) for j in range(3)]
        tensor = build_positional_tensor(make_log(rows, 4, 3), 3)
        trainer = LocalAttentionTrainer(tensor, 2, build_attention(2, f=0.5), (3, 3, 2, 2),
                                        seed=0)
        _no_svd_sweeps(monkeypatch, trainer, 3)
        for name in ("u", "v", "w_l", "w_s"):
            factor = getattr(trainer, name)
            assert np.isfinite(factor).all()
            assert np.abs(factor.T @ factor - np.eye(factor.shape[1])).max() < 1e-12
        assert np.isfinite(trainer.fit_history).all()
        exact = LocalAttentionTrainer(tensor, 2, build_attention(2, f=0.5), (3, 3, 2, 2),
                                      seed=0, exact_svd=True)
        for _ in range(3):
            exact.sweep()
        assert np.allclose(trainer.fit_history, exact.fit_history, rtol=1e-8, atol=0)

    def test_small_puresvd_and_la_sweep_take_no_svd(self, monkeypatch):
        # truncated_svd picks the Gram path for every small operator, PureSVD's
        # 7 x 9 item operator among them, whichever model builds it
        rng = np.random.default_rng(6)
        users, items = np.nonzero(rng.random((9, 7)) < 0.5)
        log = make_log([(u, j, t) for t, (u, j) in enumerate(zip(users, items))], 9, 7)
        x = np.zeros((9, 7))
        x[users, items] = 1.0
        v_ref = np.linalg.svd(x)[2][:3].T  # s = 1 leaves the items unscaled
        trainer = LocalAttentionTrainer(build_positional_tensor(log, 4), 2,
                                        build_attention(2, f=0.5), (2, 2, 1, 1), seed=0)

        def refuse(*args, **kwargs):
            raise AssertionError("an SVD ran where a Gram eigensolve should")

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", refuse)
            patch.setattr(seqrec.linalg, "svds", refuse)
            svd = train_puresvd(log, r=3, s=1.0)
            trainer.sweep()
        assert np.abs(svd.v @ svd.v.T - v_ref @ v_ref.T).max() < 1e-8
        assert len(trainer.fit_history) == 1 and np.isfinite(trainer.fit_history).all()

    @pytest.mark.parametrize("mode", [3, 4])
    def test_window_and_offset_modes_within_a_byte_budget(self, mode):
        # ranks 60/60/8/8 at K = 40 and window 10: the explicit unfoldings are
        # 10 x 28800 (2.3 MB) and 31 x 28800 (7.1 MB), past a 1 MB budget that
        # the cores' Gram keeps to
        import tracemalloc

        budget = 1 << 20
        tensor = random_tensor(80, 70, 40, seed=9, min_len=2)
        rng = np.random.default_rng(9)
        u, v, w_l, w_s = (np.linalg.qr(rng.standard_normal(shape))[0]
                          for shape in [(80, 60), (70, 60), (10, 8), (31, 8)])
        att = build_attention(10, f=1.0)
        scaling = build_scaling(tensor.item_counts(), 0.2, neutral_missing=True)
        cores = seqrec.models._position_cores(tensor, scaling.d[tensor.items], u, v)
        factors = {"U": u, "V": v, "W_A": att.apply(w_l), "W_S": w_s, "scaling": scaling,
                   "cores": cores}

        def solve(exact):
            tracemalloc.start()
            try:
                op = la_mode_operator(tensor, factors, att, None, mode)
                result = seqrec.models.truncated_svd(op, 8, exact=exact)
                return result, op.shape, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (u_gram, s_gram), shape, peak = solve(False)
        assert shape[0] * shape[1] * 8 > budget
        assert peak < budget
        (u_svd, s_svd), _, explicit_peak = solve(True)
        assert explicit_peak > budget  # the measure sees the unfolding when it is built
        assert np.allclose(s_gram, s_svd, rtol=1e-10)
        assert np.abs(u_gram @ u_gram.T - u_svd @ u_svd.T).max() < 1e-8


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
        operator = seqrec.models.la_mode_operator
        monkeypatch.setattr(seqrec.models, "la_mode_operator", lambda tensor, factors, *rest:
                            operator(tensor, dict(factors, cores=None, core_gram=None), *rest))
        separate = train()
        assert shared.fit_history == separate.fit_history
        for name in ("u", "v", "w_l", "w_s"):
            assert np.array_equal(getattr(shared, name), getattr(separate, name))
        a, b = shared.snapshot(), separate.snapshot()
        for hist in ([0], [2, 5], [1, 3, 4, 7, 8]):
            assert np.array_equal(a.score_history(hist), b.score_history(hist))

    def test_core_gram_formed_once_per_sweep(self, monkeypatch):
        # at window < K modes 3 and 4 both solve from the cores' C C^T; the
        # sweep forms it once, and operators left to themselves form it twice
        tensor = random_tensor(10, 9, 6, seed=12, min_len=2)
        calls = []
        core_gram = seqrec.models._core_gram
        monkeypatch.setattr(seqrec.models, "_core_gram",
                            lambda cores: calls.append(1) or core_gram(cores))

        def train():
            calls.clear()
            tr = LocalAttentionTrainer(tensor, 3, build_attention(3, f=0.5), (4, 3, 2, 2),
                                       s=0.5, seed=4)
            for _ in range(3):
                tr.sweep()
            return tr, len(calls)

        shared, count = train()
        assert count == 3
        operator = seqrec.models.la_mode_operator
        monkeypatch.setattr(seqrec.models, "la_mode_operator", lambda tensor, factors, *rest:
                            operator(tensor, dict(factors, core_gram=None), *rest))
        separate, count = train()
        assert count == 3 + 2 * 3  # the sweep's, unused, and one per operator
        assert shared.fit_history == separate.fit_history
        for name in ("u", "v", "w_l", "w_s"):
            assert np.array_equal(getattr(shared, name), getattr(separate, name))

    def test_start_is_the_user_item_spectrum_and_the_newest_slots(self, monkeypatch):
        built = []
        solve = seqrec.models.truncated_svd
        monkeypatch.setattr(seqrec.models, "truncated_svd", lambda op, *args, **kwargs:
                            built.append(op.dense()) or solve(op, *args, **kwargs))
        # the second tensor gives each user 1 to 4 copies of two items within
        # its K = 6 positions, and D X^T counts each copy
        rng = np.random.default_rng(4)
        first = rng.integers(1, 5, size=12)
        copies = np.column_stack((first, rng.integers(1, np.minimum(5, 7 - first))))
        pairs = np.array([rng.choice(9, size=2, replace=False) for _ in range(12)])
        lengths = copies.sum(axis=1)
        repeated = SparsePositionalTensor(
            users=np.repeat(np.arange(12), lengths),
            items=np.repeat(pairs.ravel(), copies.ravel()),
            positions=np.concatenate([np.arange(7 - n, 7) for n in lengths]), shape=(12, 9, 6))
        for tensor in (random_tensor(12, 9, 6, seed=9, min_len=2), repeated):
            tr = LocalAttentionTrainer(tensor, 3, build_attention(3, f=0.5), (4, 3, 2, 2),
                                       s=0.5)
            x = np.zeros((12, 9))
            np.add.at(x, (tensor.users, tensor.items), 1.0)
            dx = tr.scaling.d[:, None] * x.T
            assert np.abs(built[-1] - dx).max() <= 1e-15 * np.abs(dx).max()
            u, sigma, _ = np.linalg.svd(dx)
            assert sigma[2] > 1.01 * sigma[3]
            assert np.abs(tr.v @ tr.v.T - u[:, :3] @ u[:, :3].T).max() < 1e-8
            assert np.array_equal(tr.w_l, [[0, 0], [0, 1], [1, 0]])
            assert np.array_equal(tr.w_s, [[0, 0], [0, 0], [0, 1], [1, 0]])
        assert x.max() == 4

    def test_seed_reaches_no_eigensolve_sweep(self):
        # every solve of this small tensor is an eigensolve and the start draws
        # nothing, so the seed changes no bit
        tensor = random_tensor(12, 9, 6, seed=9, min_len=2)

        def swept(seed):
            tr = LocalAttentionTrainer(tensor, 3, build_attention(3, f=0.5), (4, 3, 2, 2),
                                       s=0.5, seed=seed)
            tr.sweep()
            return tr

        a, b = swept(0), swept(7)
        # modes 1 (12 x 12) and 2 (9 x 16, wide: it carries its Gram), 3 and 4
        assert [r["path"] for r in a.solves] == ["matrix-gram"] + ["operator-gram"] * 3
        assert a.fit_history == b.fit_history
        for name in ("u", "v", "w_l", "w_s"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_supplied_v_runs_no_start_solve(self, monkeypatch):
        calls = []
        solve = seqrec.models.truncated_svd
        monkeypatch.setattr(seqrec.models, "truncated_svd",
                            lambda op, *args, **kwargs: calls.append(op.shape)
                            or solve(op, *args, **kwargs))
        tensor = random_tensor(12, 9, 6, seed=9, min_len=2)
        att = build_attention(3, f=0.5)
        v0 = random_orthonormal(9, 3, seed=1)
        tr = LocalAttentionTrainer(tensor, 3, att, (4, 3, 2, 2), init={"V": v0})
        assert not calls and tr.v is v0
        tr = LocalAttentionTrainer(tensor, 3, att, (4, 3, 2, 2))
        assert calls == [(9, 12)] and not tr.solves

    @pytest.mark.parametrize("kind, init, named", [
        ("local", {"v": 0}, "'v'"), ("local", {"W": 0}, "'W'"),
        ("global", {"W_S": 0}, "'W_S'"), ("global", {"W": 0, "W_L": 0}, "'W', 'W_L'")],
        ids=["local-v", "local-W", "global-W_S", "global-W-and-W_L"])
    def test_init_keys_it_does_not_read_rejected(self, kind, init, named):
        # the keys are checked before any is read, so their values do not matter
        tensor = random_tensor(12, 9, 6, seed=9, min_len=2)
        with pytest.raises(ValueError, match=f"init takes .*{named}"):
            if kind == "local":
                LocalAttentionTrainer(tensor, 3, build_attention(3, f=0.5), (4, 3, 2, 2),
                                      init=init)
            else:
                GlobalAttentionTrainer(tensor, build_attention(6, f=0.5), (4, 3, 2), init=init)

    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_start_past_the_user_count(self, kind):
        # r2 = 4 items from 3 users: D X^T has rank 3 at most, and the start
        # completes its range to 4 orthonormal columns
        tensor = random_tensor(3, 8, 4, seed=2, min_len=2)
        if kind == "local":
            tr = LocalAttentionTrainer(tensor, 2, build_attention(2, f=0.5), (2, 4, 2, 1))
        else:
            tr = GlobalAttentionTrainer(tensor, build_attention(4, f=0.5), (2, 4, 2))
        x = np.zeros((3, 8))
        np.add.at(x, (tensor.users, tensor.items), 1.0)
        assert tr.v.shape == (8, 4)
        assert np.abs(tr.v.T @ tr.v - np.eye(4)).max() < 1e-12
        assert np.abs(x.T - tr.v @ (tr.v.T @ x.T)).max() < 1e-12
        tr.sweep()
        assert np.isfinite(tr.fit_history).all()

    def test_window_and_rank_validation(self):
        tensor = random_tensor(4, 4, 3, seed=0)
        with pytest.raises(ValueError, match="window"):
            train_lasatf(tensor, window=4, f=0.0, ranks=(2, 2, 1, 1))
        for ranks in ((2, 2, 1, 3), (0, 0, 0, 0)):
            with pytest.raises(ValueError, match="infeasible"):
                train_lasatf(tensor, window=2, f=0.0, ranks=ranks)
        with pytest.raises(ValueError, match="attention size must equal the window size"):
            LocalAttentionTrainer(tensor, 2, build_attention(3), (2, 2, 1, 1))

    @pytest.mark.parametrize("train", [
        lambda tensor: train_lasatf(tensor, window=2, f=0.0, ranks=(3, 1, 1, 1)),
        lambda tensor: train_gasatf(tensor, f=0.0, ranks=(3, 1, 1)),
    ], ids=["local", "global"])
    def test_tucker_infeasible_ranks_fail_before_any_sweep(self, monkeypatch, train):
        # r1 = 3 fits the 3 users but exceeds the product of the other ranks
        calls = []
        sweep = LocalAttentionTrainer.sweep

        def counted(self):
            calls.append(self)
            sweep(self)

        monkeypatch.setattr(LocalAttentionTrainer, "sweep", counted)
        with pytest.raises(ValueError, match="infeasible"):
            train(random_tensor(3, 4, 3, seed=0))
        assert not calls

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

    @pytest.mark.parametrize("regime", ["plain", "restored"])
    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_repeated_item_sums_its_weights(self, kind, regime):
        # the skew-diagonal oracle with each position's weight added to its
        # item; whole-sequence attention is the window = K case
        tensor = random_tensor(9, 8, 5, seed=10, min_len=2)
        k = 5
        if kind == "global":
            model = train_gasatf(tensor, f=0.5, ranks=(4, 4, 2), s=0.5, seed=2, sweeps=2)
        else:
            model = train_lasatf(tensor, window=2, f=0.5, ranks=(4, 4, 2, 2), s=0.5, seed=2,
                                 sweeps=2)
        model = dataclasses.replace(model, regime=regime)
        window = model.attention.size
        a = model.attention.dense()
        left = a @ model.w_l @ np.linalg.solve(a.T, model.w_l)[-1]
        right = model.w_s @ model.w_s[-1]
        gamma = np.array([left @ hankelize(np.eye(k)[q], window).to_dense() @ right
                          for q in range(k)])
        d = model.scaling.d if regime == "restored" else np.ones(8)
        for hist in ([1, 6, 1, 3], [4, 4], [2, 0, 2, 5, 2, 7], [3, 0, 1, 2, 3]):
            p = np.zeros(8)
            for back, item in enumerate(reversed(hist)):
                pos = k - back
                if pos - 1 >= 1:
                    p[item] += gamma[pos - 2]
            expected = (model.v @ (model.v.T @ (d * p))) / d
            assert np.allclose(model.score_history(hist), expected, atol=1e-10)

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


def _factor_model(kind, v, d, regime):
    """A PureSVD or windowed model over the given V and scaling diagonal: the
    windowed one has window 3, three offsets and fixed attention factors."""
    scaling = ScalingDiag(d=np.asarray(d, dtype=float), s=0.5)
    if kind == "svd":
        return SVDModel(v=v, scaling=scaling, regime=regime)
    w = np.array([[1.0, 0.5], [0.5, -1.0], [0.25, 0.5]])
    return LocalAttentionModel(v=v, w_l=w, w_l_hat=w[::-1].copy(), w_s=np.abs(w),
                               attention=build_attention(3, f=0.5), scaling=scaling,
                               regime=regime, ranks=(2, v.shape[1], 2, 2), max_position=5)


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

    @pytest.mark.parametrize("history, entry", [
        ([1.7], "1.7"), ([True], "True"), (["2"], "'2'"), ([0, 2.0], "2.0"),
        ([0, "a"], "'a'"), ([np.False_], "False"), (np.array([0.0, 1.5]), "0.0"),
        ([2, True], "True"), ([True, 3], "True"), ([2, np.True_], "True")])
    def test_non_integer_ids_rejected(self, history, entry):
        stub = _StubModel(np.array([0.1, 0.9, 0.5]))
        with pytest.raises(ValueError, match=f"history entry .*{re.escape(entry)}") as err:
            predict_next(stub, history, 2)
        assert not isinstance(err.value, ColdUserError)

    def test_zero_dimensional_array_rejected(self):
        # only a 1-d array is taken as it is; a 0-d one cannot be iterated
        with pytest.raises(TypeError):
            predict_next(_StubModel(np.array([0.1, 0.9, 0.5])), np.array(5), 2)

    @pytest.mark.parametrize("history", [
        [np.int32(1), 2], np.array([1, 2], dtype=np.uint8), np.array([[1, 2]]).ravel(),
        (i for i in (1, 2)), [np.int64(1), 2, 7]])
    def test_integer_ids_accepted(self, history):
        stub = _StubModel(np.array([0.1, 0.9, 0.5, 0.7]))
        assert predict_next(stub, history, 2).tolist() == [3, 0]

    @pytest.mark.parametrize("history", [[], np.array([]), np.array([], dtype=np.int8)])
    def test_empty_history_is_cold(self, history):
        with pytest.raises(ColdUserError):
            predict_next(_StubModel(np.array([1.0, 2.0])), history, 1)

    def test_screen_rescores_an_order_float32_reverses(self, monkeypatch):
        # In float64 item 1 scores 3 * 2**-26 and item 2 scores 2**-27. Item
        # 1's first entry rounds to 1 in float32, which screens it at 0, below
        # item 2: only the float64 rescore of the candidates puts it first.
        v = np.array([[1.0, -1.0], [1 + 3 * 2.0**-26, 1.0], [2.0**-27, 0.0]])
        for kind in ("svd", "local"):
            model = _factor_model(kind, v, np.ones(3), "plain")
            assert predict_next(model, [0], 1).tolist() == [1]
            # below SCREEN_MIN_ENTRIES no float32 copy of V is made
            assert "_screen" not in model.__dict__
        model = _factor_model("svd", v, np.ones(3), "plain")
        monkeypatch.setattr(seqrec.models, "SCREEN_MIN_ENTRIES", 0)
        assert predict_next(model, [0], 1).tolist() == [1]
        assert "_screen" in model.__dict__

    def test_screen_is_not_taken_where_float32_underflows(self, monkeypatch):
        # Item 1 scores 0.57 * 2**-149 above item 2, but both screen on
        # float32's subnormal grid of 2**-149, where item 2 rounds above item
        # 1, far outside the relative bound. Restored, item 0 projects to
        # h = [1, 1] and beta is about 2**-139.5; plain, h is [2**-140] * 2.
        tiny, grid = 2.0**-140, 2.0**-149
        v = np.array([[tiny, tiny], [tiny + 0.49 * grid, tiny + 0.49 * grid],
                      [tiny + 0.51 * grid, tiny - 0.1 * grid]])
        monkeypatch.setattr(seqrec.models, "SCREEN_MIN_ENTRIES", 0)
        model = _factor_model("svd", v, [2.0**140, 1.0, 1.0], "restored")
        assert predict_next(model, [0], 1).tolist() == [1]
        assert model._screen is None
        model = _factor_model("svd", np.vstack([v[:1], v[1:] / tiny]), np.ones(3), "plain")
        assert predict_next(model, [0], 1).tolist() == [1]

    def test_screen_keeps_the_catalog_rounding_of_equal_rows(self, monkeypatch):
        # Rows 0, 1 and 100 are equal, so items 0 and 100 tie exactly after
        # item 1, but the catalog product may round them apart in the last
        # bit (OpenBLAS takes row 100, left over from its 4-row blocks,
        # through another kernel), unlike a product over their gathered rows.
        monkeypatch.setattr(seqrec.models, "SCREEN_MIN_ENTRIES", 0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.standard_normal((101, 100)) * 0.1
            v[0] = v[1] = v[100] = rng.standard_normal(100)
            model = _factor_model("svd", v, np.ones(101), "plain")
            full = model.score_history([1])
            full[1] = -np.inf
            expected = np.lexsort((np.arange(101), -full))[:2]
            assert predict_next(model, [1], 2).tolist() == expected.tolist()

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["svd", "local"]),
           regime=st.sampled_from(["plain", "restored"]), exclude_seen=st.booleans(),
           n_items=st.integers(1, 30), r=st.integers(1, 5), small_ints=st.booleans())
    def test_screen_matches_full_lexsort(self, data, kind, regime, exclude_seen, n_items, r,
                                         small_ints):
        # Small-integer V (and d a power of two) score exactly, so exact ties
        # must come back in index order; the near-1 entries round to 1 in
        # float32, so the screen misorders what float64 tells apart.
        entries = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
        if not small_ints:
            entries = entries | st.sampled_from([1 + 2.0**-26, 1 - 3 * 2.0**-26, 2.0**-27]) | (
                st.floats(-2, 2, allow_nan=False))
        v = np.array(data.draw(st.lists(entries, min_size=n_items * r, max_size=n_items * r)))
        d = data.draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]) if small_ints
                               else st.floats(0.1, 10), min_size=n_items, max_size=n_items))
        model = _factor_model(kind, v.reshape(n_items, r), d, regime)
        history = data.draw(st.lists(st.integers(-2, n_items + 1), min_size=1, max_size=8))
        n = data.draw(st.integers(1, n_items + 3))
        known = [i for i in history if 0 <= i < n_items]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(seqrec.models, "SCREEN_MIN_ENTRIES", 0)
            if not known:
                with pytest.raises(ColdUserError):
                    predict_next(model, history, n, exclude_seen=exclude_seen)
                return
            got = predict_next(model, history, n, exclude_seen=exclude_seen)
        full = model.score_history(known)
        if exclude_seen:
            full[known] = -np.inf
        assert got.tolist() == np.lexsort((np.arange(n_items), -full))[:n].tolist()
        assert "_screen" in model.__dict__

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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n_items=st.integers(1, 40))
    def test_block_ranking_matches_predict_next(self, data, n_items):
        # The block ranking of evaluate, with a zero error bound, keeps a row
        # only when its top n + 1 hold no tie; that row must be predict_next's
        # list, and every other row goes through predict_next.
        values = st.sampled_from([-np.inf, -1.0, 0.0, 0.25, 1.0, np.inf]) | st.floats(
            -3, 3, allow_nan=False)
        scores = np.array(data.draw(st.lists(values, min_size=n_items, max_size=n_items)))
        histories = data.draw(st.lists(
            st.lists(st.integers(0, n_items - 1), min_size=1, max_size=5),
            min_size=1, max_size=4))
        n = data.draw(st.integers(1, n_items + 3))
        block = np.tile(scores, (len(histories), 1))
        for row, history in enumerate(histories):
            block[row, history] = -np.inf
        top, safe = _top_n(block, np.zeros(len(histories)), n)
        for row, history in enumerate(histories):
            head = np.sort(block[row])[::-1][:n + 1]
            assert safe[row] == bool(np.all(head[:-1] > head[1:]))
            if safe[row]:
                expected = predict_next(_StubModel(scores), history, n)
                assert top[row].tolist() == expected.tolist()


class TestSerialization:
    def _models(self):
        rows = [(u, (u + d) % 6, 10 * u + d) for u in range(8) for d in range(4)]
        log = make_log(rows, 8, 6)
        x = build_positional_tensor(log, 3)
        return {
            "mp": train_mp(log),
            "svd": dataclasses.replace(train_puresvd(log, r=3, s=0.5), regime="restored"),
            "global": dataclasses.replace(train_gasatf(x, f=1.0, ranks=(4, 3, 2), s=0.5,
                                                       seed=0, sweeps=2), regime="restored"),
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

    @staticmethod
    def _layout_models():
        rng = np.random.default_rng(3)
        rows = [(u, int(j), 100 * u + t) for u in range(200)
                for t, j in enumerate(rng.choice(120, size=8, replace=False))]
        log = make_log(rows, 200, 120)
        x = build_positional_tensor(log, 6)
        ga = GlobalAttentionTrainer(x, build_attention(6, f=1.0), (5, 4, 2), s=0.5, seed=1)
        la = LocalAttentionTrainer(x, 3, build_attention(3, f=0.5), (5, 4, 2, 2), seed=1,
                                   regime="restored")
        ga.sweep()
        la.sweep()
        return {
            "mp": train_mp(log),
            # PROPACK's factor comes out in Fortran order at this size
            "svd-iterative": train_puresvd(log, r=10, s=0.4),
            "svd-dense": dataclasses.replace(train_puresvd(log, r=3, s=0.5),
                                             regime="restored"),
            "global": train_gasatf(x, f=1.0, ranks=(5, 4, 2), s=0.5, seed=0, sweeps=2),
            "local": dataclasses.replace(train_lasatf(x, window=3, f=0.5, ranks=(5, 4, 2, 2),
                                                      s=0.4, seed=0, sweeps=2),
                                         regime="restored"),
            "global-snapshot": ga.snapshot(),
            "local-snapshot": la.snapshot(),
        }

    def test_models_score_like_their_saved_copy(self, tmp_path, monkeypatch):
        # Factors are C-contiguous, as load_model returns them, so BLAS rounds
        # the in-memory and the reloaded model's scores alike. Every first run
        # sent to PROPACK keeps "svd-iterative" there.
        propack_first(monkeypatch)
        for name, model in self._layout_models().items():
            for field_name, value in vars(model).items():
                if isinstance(value, np.ndarray):
                    assert value.flags.c_contiguous, (name, field_name)
            path = tmp_path / f"{name}.npz"
            save_model(model, path)
            loaded = load_model(path)
            for hist in ([0], [7, 3], list(range(0, 50, 3)), list(range(49, 0, -2))):
                assert np.array_equal(model.score_history(hist), loaded.score_history(hist)), name
                assert np.array_equal(predict_next(model, hist, 10),
                                      predict_next(loaded, hist, 10)), name

    def test_whole_sequence_model_is_stored_as_the_windowed_one(self, tmp_path):
        models = self._models()
        for kind in ("global", "local"):
            save_model(models[kind], tmp_path / f"{kind}.npz")
        with np.load(tmp_path / "global.npz") as ga, np.load(tmp_path / "local.npz") as la:
            assert ga.files == la.files
            meta = json.loads(str(ga["meta"]))
            assert np.array_equal(ga["w_l"], models["global"].w)
            assert np.array_equal(ga["w_s"], [[1.0]])
        assert meta["max_position"] == meta["attention"]["size"] == 3

    def test_version_check(self, tmp_path):
        path = tmp_path / "m.npz"
        np.savez(path, meta=np.array(json.dumps({"kind": "mp", "version": 99})),
                 counts=np.ones(3))
        with pytest.raises(ValueError, match=re.escape(
                f"{path} is not a readable model file: format version 99")):
            load_model(path)

    def test_damaged_file_is_value_error_naming_it(self, tmp_path):
        path = tmp_path / "m.npz"
        save_model(_mp_fixture(), path)
        path.write_bytes(path.read_bytes()[:-50])
        with pytest.raises(ValueError, match="m.npz is not a readable model file"):
            load_model(path)

    @pytest.mark.parametrize("layout, reason", [
        ("no meta", ""), ("version 1", ""), ("unknown kind", ": unknown model kind 'stub'"),
    ], ids=["no meta", "version 1", "unknown kind"])
    def test_foreign_layout_is_value_error_naming_it(self, tmp_path, layout, reason):
        path = tmp_path / "m.npz"
        if layout == "no meta":
            np.savez(path, counts=np.ones(3))
        elif layout == "unknown kind":
            # save_model refuses the kind, and load_model a file that names it
            with pytest.raises(ValueError, match="unknown model kind 'stub'"):
                save_model(_StubModel(np.zeros(3)), path)
            np.savez(path, meta=np.array(json.dumps({
                "kind": "stub", "version": seqrec.models.MODEL_FORMAT_VERSION, "s": 1.0})),
                d=np.ones(3))
        else:
            # the layout of format version 1: JSON params, not meta
            np.savez(path, params=np.array(json.dumps({"kind": "mp", "version": 1})),
                     counts=np.ones(3))
        with pytest.raises(ValueError, match=re.escape(
                f"{path} is not a readable model file{reason}")):
            load_model(path)


def _mp_fixture():
    return train_mp(make_log([(0, 0, 0), (0, 1, 1), (1, 1, 2)], 2, 3))

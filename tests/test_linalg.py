"""Numerical kernels: implicit SVD, orthonormal init, skew blocks."""

import ctypes
import errno
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_log, propack_first, shaped
from oracles import random_tensor
import seqrec.linalg
from seqrec.attention import build_attention
from seqrec.linalg import (
    LANCZOS_BASIS_FACTOR,
    MIN_LANCZOS_BASIS,
    MISS_SEARCH_BASIS,
    MISS_SEARCH_TOL,
    RETRY_BASIS_FACTOR,
    SVD_TOL,
    ConvergenceError,
    ImplicitMatrix,
    random_orthonormal,
    skew_block_cache,
    truncated_svd,
)
from seqrec.models import build_scaling, la_mode_operator, train_puresvd

_SVDS = seqrec.linalg.svds
_LIBC = ctypes.CDLL(None)


def _implicit_from_dense(a):
    return ImplicitMatrix(shape=a.shape, matvec=lambda v: a @ v,
                          rmatvec=lambda u: a.T @ u)


def _iterative_only(a):
    """Implicit view of ``a`` that fails if a Gram path materializes it.

    It refuses through its ``dense`` builder, which the solve's counted copy
    of the operator keeps; a replaced ``materialize`` would be dropped."""
    y = _implicit_from_dense(a)

    def refuse():
        raise AssertionError("Gram path taken")

    y.dense = refuse
    return y


def _low_rank(rows, cols, rank, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))


def _principal_angle(u, v):
    """Sine of the largest principal angle between the column spaces of u and v.

    Computed as the spectral distance between the orthogonal projectors, which
    stays accurate for tiny angles (arccos of an inner product loses half the
    significant digits near zero).
    """
    return float(np.linalg.norm(u @ u.T - v @ v.T, 2))


class TestRandomOrthonormal:
    def test_orthonormal(self):
        m = random_orthonormal(4, 2, seed=0)
        assert np.abs(m.T @ m - np.eye(2)).max() < 1e-12

    def test_deterministic(self):
        a = random_orthonormal(6, 3, seed=42)
        b = random_orthonormal(6, 3, seed=42)
        assert np.array_equal(a, b)
        c = random_orthonormal(6, 3, seed=43)
        assert not np.array_equal(a, c)

    def test_too_many_columns(self):
        with pytest.raises(ValueError):
            random_orthonormal(3, 5, seed=0)


class TestTruncatedSvd:
    def test_diagonal_case(self):
        y = _implicit_from_dense(np.diag([3.0, 2.0, 1.0]))
        u, s = truncated_svd(y, 2)
        assert np.allclose(s, [3.0, 2.0])
        # span{e1, e2}: projector matches
        p = u @ u.T
        assert np.allclose(p, np.diag([1.0, 1.0, 0.0]), atol=1e-10)

    def test_small_dense_matches_oracle(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 6))
        u, s = truncated_svd(_implicit_from_dense(a), 3)
        u_ref, s_ref, _ = np.linalg.svd(a)
        assert np.allclose(s, s_ref[:3], atol=1e-10)
        assert _principal_angle(u, u_ref[:, :3]) < 1e-8

    def test_iterative_path_matches_oracle(self, monkeypatch):
        propack_first(monkeypatch)
        rng = np.random.default_rng(1)
        a = rng.standard_normal((64, 50))
        u, s = truncated_svd(_implicit_from_dense(a), 3, seed=7)
        u_ref, s_ref, _ = np.linalg.svd(a)
        assert np.allclose(s, s_ref[:3], atol=1e-8)
        assert _principal_angle(u, u_ref[:, :3]) < 1e-8

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((7, 5))
        u, s = truncated_svd(_implicit_from_dense(a), 5)
        # left basis is complete: U U^T A = A
        assert np.abs(u @ (u.T @ a) - a).max() < 1e-8

    def test_always_orthonormal(self, monkeypatch):
        propack_first(monkeypatch)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 35))
        u, _ = truncated_svd(_implicit_from_dense(a), 4, seed=0)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-10

    def test_rank_too_large(self, monkeypatch):
        # and ranks below 1 or not integers, on the Gram, exact and PROPACK paths
        y = _implicit_from_dense(np.eye(4))
        for r, exact in ((5, False), (-1, False), (0, False), (2.0, False), (True, False),
                         (-1, True), (0, True), (2.0, True), (True, True)):
            with pytest.raises(ValueError, match=f"^rank {r} "):
                truncated_svd(y, r, exact=exact)
        propack_first(monkeypatch)
        for r in (-1, 0, 2.0, True):
            with pytest.raises(ValueError, match=f"^rank {r} "):
                truncated_svd(y, r)

    def test_exact_flag_matches_iterative(self, monkeypatch):
        propack_first(monkeypatch)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((60, 45))
        y = _implicit_from_dense(a)
        u1, s1 = truncated_svd(y, 3, seed=0)
        u2, s2 = truncated_svd(y, 3, seed=0, exact=True)
        assert np.allclose(s1, s2, atol=1e-8)
        assert _principal_angle(u1, u2) < 1e-8

    @pytest.mark.parametrize("size, solver_calls", [(300, False), (301, True)],
                             ids=["at-size", "one-past-size"])
    def test_dense_size_boundary(self, monkeypatch, size, solver_calls):
        # at r = 3 PROPACK's first run gets 300-vector bases: an n x n
        # operator's matrix and Gram, 2 n ** 2 numbers, are no larger than
        # the bases' 2 n * 300 up to n = 300, and PROPACK runs from n = 301
        a = np.random.default_rng(5).standard_normal((size, size))
        assert (2 * size ** 2 <= 2 * size * MIN_LANCZOS_BASIS) != solver_calls
        calls = []
        svds = seqrec.linalg.svds
        monkeypatch.setattr(seqrec.linalg, "svds", lambda *args, **kwargs:
                            calls.append(kwargs["k"]) or svds(*args, **kwargs))
        u, s = truncated_svd(_implicit_from_dense(a), 3, seed=0)
        assert bool(calls) == solver_calls
        _assert_matches_oracle(a, u, s)


class TestPathRule:
    """The Gram eigensolve exactly where what it holds, the Gram and, for an
    operator that carries none, its materialized matrix, is no larger than
    the Lanczos bases of PROPACK's first run; a failed run falls back to it
    within the retry run's bases."""

    @pytest.mark.parametrize("shape, r, carried, gram", [
        ((197, 256), 20, False, True), ((256, 180), 20, False, True),
        ((197, 180), 20, False, True), ((2997, 5988), 100, False, False),
        ((200, 995), 32, False, True), ((995, 100), 20, False, True),
        ((200, 593), 50, False, True),
        ((5997, 10000), 100, True, False), ((3700, 10000), 100, True, False),
        ((5997, 50000), 500, True, True), ((3700, 50000), 500, True, True),
        ((5997, 32), 16, False, True), ((3700, 32), 16, False, True),
        ((3700, 6000), 500, False, False), ((3700, 6000), 200, False, False),
        ((3700, 100000), 100, False, False), ((3700, 100000), 100, True, True),
        ((3700, 2500), 300, False, False), ((5997, 2500), 400, False, False),
        ((3700, 2500), 500, False, True),
    ], ids=["la-k40-start", "la-k40-item-mode", "la-k40-user-mode", "svd-230k",
            "ga-k32-start", "ga-k32-user-mode", "ga-k50-start",
            "ml-1m-user-mode-r100", "ml-1m-item-mode-r100", "ml-1m-user-mode-r500",
            "ml-1m-item-mode-r500", "ml-1m-narrow-user-mode", "ml-1m-narrow-item-mode",
            "ml-1m-puresvd-r500", "ml-1m-puresvd-r200",
            "puresvd-many-users", "carried-gram-many-columns",
            "ml-1m-tall-item-mode-r300", "ml-1m-tall-user-mode-r400",
            "ml-1m-tall-item-mode-r500"])
    def test_rule(self, shape, r, carried, gram):
        # puresvd-many-users and carried-gram-many-columns differ only in
        # what the Gram path would hold: a 3700 x 100,000 matrix outgrows the
        # bases, its 3700 ** 2 Gram does not; at r = 500 PureSVD's
        # 3700 x 6000 matrix and Gram, 3.6e7 numbers, outgrow the 2.4e7 of
        # the bases. A tall mode without a Gram takes the eigensolve only once
        # kmax reaches its short side: 2500 at r = 500
        for rows, cols in (shape, shape[::-1]):
            y = shaped((rows, cols), carried)
            assert seqrec.linalg._gram_fits(y, r, LANCZOS_BASIS_FACTOR) == gram

    @staticmethod
    def _failing_check(monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("inaccurate triplets (drift 1.0e+00, residual 1.0e+00)")

        monkeypatch.setattr(seqrec.linalg, "_checked_propack", failing)

    def test_failed_run_takes_the_gram_fallback(self, monkeypatch):
        # 400 x 400 at r = 40: the matrix and its Gram, 320,000 numbers,
        # outgrow the first run's 800 * 300 and fit the retry run's 800 * 400
        a = np.random.default_rng(31).standard_normal((400, 400))
        assert not seqrec.linalg._gram_fits(shaped(a.shape), 40, LANCZOS_BASIS_FACTOR)
        assert seqrec.linalg._gram_fits(shaped(a.shape), 40, RETRY_BASIS_FACTOR)
        self._failing_check(monkeypatch)
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs:
                            calls.append(1) or svd(*args, **kwargs))
        record = {}
        u, s = truncated_svd(_implicit_from_dense(a), 40, seed=0, record=record)
        assert record["path"] == "gram-fallback" and not calls
        assert record["applies"]["solve"] == 400
        _assert_matches_oracle(a, u, s)

    def test_failed_run_past_the_retry_bases_raises(self, monkeypatch):
        # 1000 x 1000 at r = 40: the Gram outgrows the retry run's 2000 * 400
        assert not seqrec.linalg._gram_fits(shaped((1000, 1000)), 40, RETRY_BASIS_FACTOR)
        self._failing_check(monkeypatch)
        y = ImplicitMatrix((1000, 1000), matvec=lambda x: np.zeros(1000),
                           rmatvec=lambda x: np.zeros(1000))
        y.dense = lambda: pytest.fail("Gram fallback taken")
        record = {}
        with pytest.raises(ConvergenceError, match="inaccurate triplets"):
            truncated_svd(y, 40, seed=0, record=record)
        assert record["path"] == "propack"


def _stress_matrix(seed, trial):
    """Matrix ``trial`` of a seeded stress run over sparse 0/1 matrices, every
    third one with a third of its rows zeroed and every third with duplicated rows."""
    rng = np.random.default_rng(seed)
    for t in range(trial + 1):
        m, n = int(rng.integers(40, 300)), int(rng.integers(40, 300))
        a = (rng.random((m, n)) < rng.uniform(0.01, 0.2)).astype(float)
        if t % 3 == 1:
            a[rng.integers(0, m, m // 3)] = 0
        elif t % 3 == 2:
            a = a[rng.integers(0, m // 4 + 1, m)]
        rng.integers(0, 8)  # the stress run drew its rank here
    return a


def _assert_matches_oracle(a, u, s):
    """sigma within 1e-10 of sigma_1; the subspace wherever a gap fixes it."""
    r = len(s)
    u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
    assert np.abs(s - s_ref[:r]).max() <= 1e-10 * s_ref[0]
    assert np.abs(u.T @ u - np.eye(r)).max() < 1e-10
    fixed = r if r == len(s_ref) else int(np.sum(s_ref[:r] > s_ref[r] + 1e-8 * s_ref[0]))
    assert _principal_angle(u[:, :fixed], u_ref[:, :fixed]) < 1e-8


class TestPropackSolver:
    """The iterative path, which small operators reach with every first run
    sent to PROPACK."""

    @pytest.fixture(autouse=True)
    def no_first_gram(self, monkeypatch):
        propack_first(monkeypatch)

    @pytest.mark.parametrize("shape", [(70, 45), (45, 70)], ids=["tall", "wide"])
    def test_same_seed_is_bitwise_identical(self, shape):
        # r = rank + 1: PROPACK draws a restart vector from its own generator,
        # so the result repeats only when that generator is seeded too
        a = _low_rank(*shape, 5, seed=16)
        u1, s1 = truncated_svd(_iterative_only(a), 6, seed=11)
        u2, s2 = truncated_svd(_iterative_only(a), 6, seed=11)
        assert np.array_equal(u1, u2) and np.array_equal(s1, s2)

    @pytest.mark.parametrize("shape, r", [
        ((70, 45), 45), ((70, 45), 44), ((45, 70), 45), ((45, 70), 44), ((40, 90), 5),
    ], ids=["tall-r=min", "tall-r=min-1", "wide-r=min", "wide-r=min-1", "wide-r=5"])
    def test_matches_oracle(self, shape, r):
        a = np.random.default_rng(10).standard_normal(shape)
        u, s = truncated_svd(_iterative_only(a), r, seed=0)
        _assert_matches_oracle(a, u, s)

    def test_small_rank_on_large_sparse_operator_converges(self):
        # r = 2 on 600 x 500: PROPACK needs more Lanczos steps than 10 * r
        a = (np.random.default_rng(12).random((600, 500)) < 0.02).astype(float)
        u, s = truncated_svd(_iterative_only(a), 2, seed=0)
        _assert_matches_oracle(a, u, s)

    @pytest.mark.parametrize("seed, trial, r, view", [
        # 97 x 149 with sigma = sqrt(3) four times: PROPACK alone returns three
        # copies at r = 17, and the deflated solve finds the fourth
        (1, 136, 17, _iterative_only),
        # 292 x 53: at r = 26 PROPACK returns vectors that mix singular
        # directions across the cut (subspace off by 0.04); the Gram fallback answers
        (11, 94, 26, _implicit_from_dense),
    ], ids=["repeated-sigma", "mixed-vectors"])
    def test_stress_matrix_matches_oracle(self, seed, trial, r, view):
        a = _stress_matrix(seed, trial)
        u, s = truncated_svd(view(a), r, seed=3)
        _assert_matches_oracle(a, u, s)

    def test_each_missed_copy_is_swapped_in(self, monkeypatch):
        # per missed copy: a loose solve on the deflated operator finds it and
        # an exact one returns it; a last loose solve finds nothing above 5
        q1, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((60, 45)))
        q2, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((45, 45)))
        sigma = np.array([10.0, 9, 8, 7, 7, 7] + list(np.linspace(5, 1, 39)))
        a = (q1 * sigma) @ q2.T
        svds = seqrec.linalg.svds
        calls = []

        def missing_two_copies(op, k, **kwargs):
            calls.append(k)
            if k == 1:
                return svds(op, k=k, **kwargs)
            keep = [0, 1, 2, 3, 6, 7]  # drops two copies of 7
            return q1[:, keep], sigma[keep], q2[:, keep].T

        monkeypatch.setattr(seqrec.linalg, "svds", missing_two_copies)
        u, s = truncated_svd(_iterative_only(a), 6, seed=0)
        assert calls == [6, 1, 1, 1, 1, 1]
        _assert_matches_oracle(a, u, s)

    @pytest.mark.parametrize("bad", ["raise", "ghost", "mixed"])
    def test_failed_lanczos_run_falls_back_to_dense(self, monkeypatch, bad):
        a = np.random.default_rng(15).standard_normal((50, 40))
        u_ref, s_ref, vt_ref = np.linalg.svd(a, full_matrices=False)
        mixed = u_ref[:, :3].copy()  # the third vector leans toward the fourth
        mixed[:, 2] = (u_ref[:, 2] + 1e-2 * u_ref[:, 3]) / np.hypot(1, 1e-2)
        triplets = {"ghost": (u_ref[:, [1, 1, 0]], s_ref[[1, 1, 0]], vt_ref[[1, 1, 0]]),
                    "mixed": (mixed, s_ref[:3], vt_ref[:3])}

        def propack(*args, **kwargs):
            if bad == "raise":
                raise np.linalg.LinAlgError("k=3 singular triplets did not converge")
            return triplets[bad]

        monkeypatch.setattr(seqrec.linalg, "svds", propack)
        u, s = truncated_svd(_implicit_from_dense(a), 3, seed=0)
        _assert_matches_oracle(a, u, s)

    @pytest.mark.parametrize("r", [25, 40])
    def test_rank_above_operator_rank_falls_back_to_dense(self, r):
        # rank 20 < r: the Lanczos run breaks down and the eigensolve of the
        # dense matrix's Gram answers
        a = _low_rank(60, 40, 20, seed=13)
        u, s = truncated_svd(_implicit_from_dense(a), r, seed=1)
        u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
        assert np.abs(s - s_ref[:r]).max() <= 1e-10 * s_ref[0]
        assert np.abs(u.T @ u - np.eye(r)).max() < 1e-10
        assert _principal_angle(u[:, :20], u_ref[:, :20]) < 1e-8

    @pytest.mark.parametrize("bad, message", [
        ("raise", "k=5 singular triplets did not converge"), ("ghost", "inaccurate triplets"),
    ])
    def test_failed_lanczos_run_on_large_operator_raises(self, monkeypatch, bad, message):
        # 3000 x 2000 at r = 5: the Gram outgrows even the retry run's bases,
        # so no dense matrix is built
        def propack(*args, **kwargs):
            if bad == "raise":
                raise np.linalg.LinAlgError("k=5 singular triplets did not converge")
            return np.eye(3000)[:, [0, 0, 1, 2, 3]], np.ones(5), np.eye(2000)[[0, 0, 1, 2, 3]]

        monkeypatch.setattr(seqrec.linalg, "svds", propack)
        y = ImplicitMatrix((3000, 2000), matvec=lambda x: np.zeros(3000),
                           rmatvec=lambda x: np.zeros(2000))
        y.dense = lambda: pytest.fail("Gram fallback taken")
        assert not seqrec.linalg._gram_fits(shaped((3000, 2000)), 5, RETRY_BASIS_FACTOR)
        with pytest.raises(ConvergenceError, match=message):
            truncated_svd(y, 5, seed=0)

    def test_dense_failure_raises_convergence_error(self, monkeypatch):
        # PROPACK fails, and so does the Gram fallback's eigensolve
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(seqrec.linalg, "svds", failing)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="did not converge"):
            truncated_svd(_implicit_from_dense(np.ones((50, 40))), 5, seed=0)


def _puresvd_solve():
    """PureSVD at r = 40 on a 400 x 350 binary log: its 350 x 400 operator
    gets a 300-step basis first, where RETRY_BASIS_FACTOR * r asks for 400,
    clipped to 351."""
    dense = np.random.default_rng(3).random((400, 350)) < 0.05
    log = make_log([(u, j, t) for t, (u, j) in enumerate(zip(*np.nonzero(dense)))], 400, 350)
    return lambda: (train_puresvd(log, r=40, s=0.4).v,)


def _la_mode_one_solve():
    """LA mode 1 at r = 40: a 400 x 360 operator (ranks 40/40/3/3, window 3)."""
    tensor = random_tensor(400, 120, 6, seed=2)
    att = build_attention(3, f=1.0)
    factors = {"V": random_orthonormal(120, 40, seed=1),
               "W_A": att.apply(random_orthonormal(3, 3, seed=3)),
               "W_S": random_orthonormal(4, 3, seed=4),
               "scaling": build_scaling(tensor.item_counts(), 0.2, neutral_missing=True)}
    cache = skew_block_cache(factors["W_A"], factors["W_S"])
    op = la_mode_operator(tensor, factors, att, cache, 1)
    assert op.shape == (400, 360)
    return lambda: truncated_svd(op, 40, seed=5)


# each solve, and its RETRY_BASIS_FACTOR * r basis clipped to min(rows, cols) + 1
_CAP_CASES = {"puresvd": (_puresvd_solve, 351), "la-mode-1": (_la_mode_one_solve, 361)}


def _recorded(monkeypatch, solve, factor, fail=lambda k, maxiter: False):
    """``solve()`` with the first Lanczos basis at ``factor * k``: returns its
    result, the (k, maxiter) of each svds call and the final state of the
    generator they all drew from. A call for which ``fail(k, maxiter)`` holds
    raises, as a run that outgrows its basis does."""
    monkeypatch.setattr(seqrec.linalg, "LANCZOS_BASIS_FACTOR", factor)
    calls, rngs = [], []

    def recording(op, k, **kwargs):
        calls.append((k, kwargs["maxiter"]))
        rngs.append(kwargs["rng"])
        if fail(k, kwargs["maxiter"]):
            raise np.linalg.LinAlgError(f"k={k} singular triplets did not converge")
        return _SVDS(op, k=k, **kwargs)

    monkeypatch.setattr(seqrec.linalg, "svds", recording)
    result = solve()
    assert all(rng is rngs[0] for rng in rngs)
    return result, calls, rngs[0].bit_generator.state


class TestLanczosBasisCap:
    """The first PROPACK run gets a LANCZOS_BASIS_FACTOR * r basis, and only a
    run that raises there is redone on RETRY_BASIS_FACTOR * r."""

    @pytest.fixture(autouse=True)
    def no_first_gram(self, monkeypatch):
        propack_first(monkeypatch)

    @pytest.mark.parametrize("case", list(_CAP_CASES))
    def test_capped_solve_equals_the_full_basis_solve(self, monkeypatch, case):
        make, full_basis = _CAP_CASES[case]
        solve = make()
        capped, calls, state = _recorded(monkeypatch, solve, LANCZOS_BASIS_FACTOR)
        full, full_calls, full_state = _recorded(monkeypatch, solve, RETRY_BASIS_FACTOR)
        # the solve and the deflated search, each run once
        assert calls == [(40, MIN_LANCZOS_BASIS), (1, MISS_SEARCH_BASIS)]
        assert full_calls == [(40, full_basis), (1, MISS_SEARCH_BASIS)]
        assert all(np.array_equal(a, b) for a, b in zip(capped, full))
        assert state == full_state

    @pytest.mark.parametrize("case", list(_CAP_CASES))
    def test_run_that_outgrows_the_cap_is_redone_exactly(self, monkeypatch, case):
        make, full_basis = _CAP_CASES[case]
        solve = make()
        retried, calls, state = _recorded(
            monkeypatch, solve, LANCZOS_BASIS_FACTOR, fail=lambda k, maxiter: maxiter < min(
                max(RETRY_BASIS_FACTOR * k, MIN_LANCZOS_BASIS), full_basis))
        full, _, full_state = _recorded(monkeypatch, solve, RETRY_BASIS_FACTOR)
        assert calls == [(40, MIN_LANCZOS_BASIS), (40, full_basis),
                         (1, MISS_SEARCH_BASIS), (1, MIN_LANCZOS_BASIS)]
        assert all(np.array_equal(a, b) for a, b in zip(retried, full))
        assert state == full_state

    @pytest.mark.parametrize("case", list(_CAP_CASES))
    def test_search_that_outgrows_its_basis_is_redone_exactly(self, monkeypatch, case):
        solve = _CAP_CASES[case][0]()
        retried, calls, state = _recorded(
            monkeypatch, solve, LANCZOS_BASIS_FACTOR,
            fail=lambda k, maxiter: k == 1 and maxiter < MIN_LANCZOS_BASIS)
        monkeypatch.setattr(seqrec.linalg, "MISS_SEARCH_BASIS", MIN_LANCZOS_BASIS)
        direct, direct_calls, direct_state = _recorded(monkeypatch, solve, LANCZOS_BASIS_FACTOR)
        assert calls == [(40, MIN_LANCZOS_BASIS), (1, MISS_SEARCH_BASIS), (1, MIN_LANCZOS_BASIS)]
        assert direct_calls == [(40, MIN_LANCZOS_BASIS), (1, MIN_LANCZOS_BASIS)]
        assert all(np.array_equal(a, b) for a, b in zip(retried, direct))
        assert state == direct_state

    @pytest.mark.parametrize("shape, k, maxiters", [
        ((400, 300), 30, [300]),  # 5 k and 10 k are both at most the floor
        ((400, 310), 31, [300, 310]),
        ((400, 120), 40, [121]),  # both bases clip to 121
    ], ids=["k=30", "k=31", "clipped"])
    def test_retried_only_when_the_full_basis_is_larger(self, monkeypatch, shape, k, maxiters):
        # every run raises: the Gram fallback answers after one or two runs
        a = np.random.default_rng(9).standard_normal(shape)
        (u, s), calls, _ = _recorded(monkeypatch, lambda: truncated_svd(
            _implicit_from_dense(a), k, seed=0), LANCZOS_BASIS_FACTOR,
            fail=lambda k, maxiter: True)
        assert calls == [(k, maxiter) for maxiter in maxiters]
        _assert_matches_oracle(a, u, s)


def _requested(monkeypatch, answer=_SVDS):
    """The (k, maxiter, tol, return_singular_vectors) of each svds call, as
    the calls run; ``answer`` answers them."""
    requests = []

    def recording(op, k, **kwargs):
        requests.append((k, kwargs["maxiter"], kwargs["tol"],
                         kwargs["return_singular_vectors"]))
        return answer(op, k=k, **kwargs)

    monkeypatch.setattr(seqrec.linalg, "svds", recording)
    return requests


class TestPropackRequests:
    """Each PROPACK run asks for what its caller reads: a solve, and the fetch
    of a missed pair, for left singular vectors; the miss search for its
    values alone, on a MISS_SEARCH_BASIS basis."""

    def test_puresvd_solve(self, monkeypatch):
        solve = _puresvd_solve()
        propack_first(monkeypatch)
        requests = _requested(monkeypatch)
        solve()
        assert requests == [(40, MIN_LANCZOS_BASIS, SVD_TOL, "u"),
                            (1, MISS_SEARCH_BASIS, MISS_SEARCH_TOL, False)]

    def test_missed_copies_are_fetched_as_left_pairs(self, monkeypatch):
        # the first solve drops two of the three copies of sigma = 7: each
        # search finds one, a one-pair solve fetches it, and a last search
        # finds none
        q1, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((60, 45)))
        q2, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((45, 45)))
        sigma = np.array([10.0, 9, 8, 7, 7, 7] + list(np.linspace(5, 1, 39)))
        keep = [0, 1, 2, 3, 6, 7]

        def missing_two_copies(op, k, **kwargs):
            if k == 1:
                return _SVDS(op, k=k, **kwargs)
            return q1[:, keep], sigma[keep], None

        propack_first(monkeypatch)
        requests = _requested(monkeypatch, missing_two_copies)
        truncated_svd(_iterative_only((q1 * sigma) @ q2.T), 6, seed=0)
        # the solve and each fetch on MIN_LANCZOS_BASIS clipped to 45 + 1
        search = (1, MISS_SEARCH_BASIS, MISS_SEARCH_TOL, False)
        fetch = (1, 46, SVD_TOL, "u")
        assert requests == [(6, 46, SVD_TOL, "u"), search, fetch, search, fetch, search]

    @pytest.mark.parametrize("shape", [(70, 45), (45, 70)], ids=["tall", "wide"])
    def test_left_vectors_alone_equal_the_full_request(self, shape):
        # r = rank + 1, so that PROPACK draws restart vectors from the generator
        op = _implicit_from_dense(_low_rank(*shape, 5, seed=16)).to_linear_operator()

        def run(vectors):
            rng = np.random.default_rng(5)
            v0 = rng.standard_normal(shape[0])
            start = rng.bit_generator.state
            out = _SVDS(op, k=6, v0=v0, tol=SVD_TOL, maxiter=MIN_LANCZOS_BASIS,
                        solver="propack", return_singular_vectors=vectors, rng=rng)
            assert rng.bit_generator.state != start
            return out, rng.bit_generator.state

        (u, s, vh), state = run("u")
        (u_full, s_full, _), full_state = run(True)
        assert vh is None
        assert np.array_equal(u, u_full) and np.array_equal(s, s_full)
        assert state == full_state


def _with_gram(a):
    """Implicit view of ``a`` carrying its rows x rows Gram, as the HOOI modes
    3/4 do."""
    y = _implicit_from_dense(a)
    y.gram = lambda: a @ a.T
    return y


class TestGramSolve:
    """Operators whose Gram is no larger than PROPACK's bases are solved by
    a Gram eigensolve, not an SVD: through the Gram they carry, if any."""

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)], ids=["wide", "tall"])
    def test_matches_dense_svd(self, monkeypatch, shape):
        a = np.random.default_rng(2).standard_normal(shape)
        u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
        monkeypatch.setattr(np.linalg, "svd", None)  # the Gram path takes no SVD
        u, s = truncated_svd(_implicit_from_dense(a), 5)
        assert np.allclose(s, s_ref[:5], rtol=1e-12)
        assert _principal_angle(u, u_ref[:, :5]) < 1e-10

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)], ids=["wide", "tall"])
    def test_rank_past_the_matrix_rank_stays_orthonormal(self, shape):
        a = _low_rank(*shape, rank=3, seed=4)
        u, s = truncated_svd(_implicit_from_dense(a), 8)
        assert np.isfinite(u).all() and np.isfinite(s).all()
        assert np.abs(u.T @ u - np.eye(8)).max() < 1e-12
        s_ref = np.linalg.svd(a, compute_uv=False)
        assert np.allclose(s[:3], s_ref[:3], rtol=1e-10)
        # what lies past the rank is rounding noise, about sqrt(eps) * s[0] at most
        assert (s[3:] <= 1e-7 * s[0]).all()
        assert _principal_angle(u[:, :3], np.linalg.svd(a)[0][:, :3]) < 1e-8

    def test_carried_gram_at_any_size(self, monkeypatch):
        # 40 x 2400: its carried Gram is solved, and the operator is never
        # applied or materialized
        a = np.random.default_rng(5).standard_normal((40, 2400))
        u_ref, s_ref, _ = np.linalg.svd(a, full_matrices=False)
        y = _with_gram(a)
        y.matvec = y.rmatvec = y.dense = None
        monkeypatch.setattr(np.linalg, "svd", None)
        u, s = truncated_svd(y, 4)
        assert np.allclose(s, s_ref[:4], rtol=1e-12)
        assert _principal_angle(u, u_ref[:, :4]) < 1e-10

    def test_exact_ignores_the_gram(self):
        a = np.random.default_rng(3).standard_normal((6, 9))
        y = _with_gram(a)

        def refuse():
            raise AssertionError("Gram taken under exact")

        y.gram = refuse
        u, s = truncated_svd(y, 2, exact=True)
        assert np.allclose(s, np.linalg.svd(a, compute_uv=False)[:2], rtol=1e-12)

    def test_eigensolve_failure_is_a_convergence_error(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        with pytest.raises(ConvergenceError, match="Eigenvalues did not converge"):
            truncated_svd(_with_gram(np.eye(4)), 2)


def _counting(a):
    """Implicit view of ``a`` and the running count of its applies."""
    count = [0]

    def apply(m):
        def counted(x):
            count[0] += 1
            return m @ x
        return counted

    return ImplicitMatrix(a.shape, apply(a), apply(a.T)), count


def _recorded_solve(y, r, **kwargs):
    """``truncated_svd(y, r)`` and its record, after checking that the record
    leaves U and s bitwise as they are without it, and that it holds the
    operator's shape, the leading sigma and the fit of what it returned."""
    u, s = truncated_svd(y, r, **kwargs)
    record = {}
    u_rec, s_rec = truncated_svd(y, r, record=record, **kwargs)
    assert np.array_equal(u, u_rec) and np.array_equal(s, s_rec)
    assert record["shape"] == y.shape and record["seconds"] >= 0
    assert record["sigma1"] == s[0] and record["fit"] == float(np.sum(s ** 2))
    return u, s, record


def _gap(a, r):
    s = np.linalg.svd(a, compute_uv=False)
    return s[r - 1] / s[r]


class TestSolveRecord:
    """``truncated_svd`` fills a record with the path it took, the applies of
    each phase, PROPACK's basis retries and misses, and the gap after s[r-1]."""

    def test_operator_gram(self):
        a = np.random.default_rng(21).standard_normal((6, 30))
        _, _, record = _recorded_solve(_with_gram(a), 3)
        assert record["path"] == "operator-gram"
        assert record["applies"] == {"solve": 0, "check": 0, "miss": 0}
        assert record["gap"] == pytest.approx(_gap(a, 3), rel=1e-10)

    @pytest.mark.parametrize("shape", [(12, 40), (40, 12)], ids=["wide", "tall"])
    @pytest.mark.parametrize("built", [True, False], ids=["dense", "applies"])
    def test_matrix_gram(self, shape, built):
        a = np.random.default_rng(22).standard_normal(shape)
        y, count = _counting(a)
        if built:
            y.dense = lambda: a
        _, _, record = _recorded_solve(y, 5)
        assert record["path"] == "matrix-gram"
        # materializing takes one apply per row or column, whichever is fewer
        applies = 0 if built else min(shape)
        assert record["applies"] == {"solve": applies, "check": 0, "miss": 0}
        assert count[0] == 2 * applies
        assert record["gap"] == pytest.approx(_gap(a, 5), rel=1e-10)
        assert (record["retries"], record["misses"]) == (0, 0)

    def test_matrix_gram_at_full_rank_has_no_gap(self):
        a = np.random.default_rng(23).standard_normal((12, 40))
        _, _, record = _recorded_solve(_implicit_from_dense(a), 12)
        assert record["gap"] is None

    def _propack_runs(self, monkeypatch, count, fail=lambda k, maxiter: False):
        """(k, maxiter, applies) of each svds call."""
        runs = []

        def counted(op, k, **kwargs):
            before = count[0]
            try:
                if fail(k, kwargs["maxiter"]):
                    raise np.linalg.LinAlgError(f"k={k} singular triplets did not converge")
                return _SVDS(op, k=k, **kwargs)
            finally:
                runs.append((k, kwargs["maxiter"], count[0] - before))

        monkeypatch.setattr(seqrec.linalg, "svds", counted)
        return runs

    def test_propack(self, monkeypatch):
        propack_first(monkeypatch)
        a = np.random.default_rng(24).standard_normal((70, 45))
        y, count = _counting(a)
        runs = self._propack_runs(monkeypatch, count)
        u, s, record = _recorded_solve(y, 6, seed=2)
        _assert_matches_oracle(a, u, s)
        runs = runs[len(runs) // 2:]  # the recorded solve's
        assert record["path"] == "propack"
        assert [k for k, _, _ in runs] == [6, 1]
        # the check applies A A^T once
        assert record["applies"] == {"solve": runs[0][2], "check": 2, "miss": runs[1][2]}
        assert count[0] == 2 * sum(record["applies"].values())
        assert (record["retries"], record["misses"]) == (0, 0)
        # the search's sigma, an estimate to MISS_SEARCH_TOL
        assert record["gap"] == pytest.approx(_gap(a, 6), rel=MISS_SEARCH_TOL)

    def test_propack_misses(self, monkeypatch):
        # the first solve drops two of the three copies of sigma = 7: two
        # searches find one each, and each is fetched by a one-pair solve
        q1, _ = np.linalg.qr(np.random.default_rng(17).standard_normal((60, 45)))
        q2, _ = np.linalg.qr(np.random.default_rng(18).standard_normal((45, 45)))
        sigma = np.array([10.0, 9, 8, 7, 7, 7] + list(np.linspace(5, 1, 39)))
        keep = [0, 1, 2, 3, 6, 7]

        def missing_two_copies(op, k, **kwargs):
            if k == 1:
                return _SVDS(op, k=k, **kwargs)
            return q1[:, keep], sigma[keep], None

        propack_first(monkeypatch)
        monkeypatch.setattr(seqrec.linalg, "svds", missing_two_copies)
        _, _, record = _recorded_solve(_implicit_from_dense((q1 * sigma) @ q2.T), 6, seed=0)
        assert record["path"] == "propack" and record["misses"] == 2
        assert record["applies"]["solve"] == 0 and record["applies"]["check"] == 2
        assert record["gap"] == pytest.approx(7 / 5, rel=MISS_SEARCH_TOL)

    def test_propack_basis_retry(self, monkeypatch):
        # a 20-vector first basis, whose run raises, and a 30-vector retry
        propack_first(monkeypatch)
        monkeypatch.setattr(seqrec.linalg, "MIN_LANCZOS_BASIS", 20)
        q1, _ = np.linalg.qr(np.random.default_rng(25).standard_normal((70, 45)))
        q2, _ = np.linalg.qr(np.random.default_rng(26).standard_normal((45, 45)))
        a = (q1 * 2.0 ** -np.arange(45)) @ q2.T
        y, count = _counting(a)
        runs = self._propack_runs(monkeypatch, count, fail=lambda k, maxiter: maxiter == 20)
        u, s, record = _recorded_solve(y, 3, seed=4)
        _assert_matches_oracle(a, u, s)
        runs = runs[len(runs) // 2:]
        assert [(k, maxiter) for k, maxiter, _ in runs] == [(3, 20), (3, 30), (1, 100)]
        assert record["path"] == "propack" and record["retries"] == 1
        assert record["applies"] == {"solve": runs[0][2] + runs[1][2], "check": 2,
                                     "miss": runs[2][2]}

    def test_gram_fallback(self, monkeypatch):
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("k=3 singular triplets did not converge")

        propack_first(monkeypatch)
        monkeypatch.setattr(seqrec.linalg, "svds", failing)
        a = np.random.default_rng(15).standard_normal((50, 40))
        _, _, record = _recorded_solve(_implicit_from_dense(a), 3, seed=0)
        assert record["path"] == "gram-fallback"
        assert record["applies"] == {"solve": 40, "check": 0, "miss": 0}
        assert (record["retries"], record["misses"]) == (0, 0)
        assert record["gap"] == pytest.approx(_gap(a, 3), rel=1e-12)

    @pytest.mark.parametrize("fail", [False, True], ids=["solved", "failed"])
    def test_propack_output_goes_into_the_record(self, monkeypatch, capfd, fail):
        # what a PROPACK run prints past Python's streams: straight to file
        # descriptor 2, and through C's buffered stdout
        line = b"** On entry to DLASCL parameter number 4 had an illegal value"

        def noisy(op, k, **kwargs):
            os.write(2, b"fd 2\n")
            _LIBC.printf(b"%s\n", line)
            if fail:
                raise np.linalg.LinAlgError(f"k={k} singular triplets did not converge")
            return _SVDS(op, k=k, **kwargs)

        propack_first(monkeypatch)
        monkeypatch.setattr(seqrec.linalg, "svds", noisy)
        a = np.random.default_rng(24).standard_normal((70, 45))
        record = {}
        truncated_svd(_implicit_from_dense(a), 6, seed=2, record=record)
        # the solve and the search; or the one failed run, whose retry basis
        # would be no larger, before the Gram fallback
        assert record["path"] == ("gram-fallback" if fail else "propack")
        assert record["printed"] == ["fd 2", line.decode()] * (1 if fail else 2)
        os.write(2, b"after\n")
        _LIBC.fflush(None)
        assert capfd.readouterr() == ("", "after\n")

    def test_lapack_error_line_of_a_stress_matrix(self, monkeypatch, capfd):
        # 82 x 225, rank 21, at r = 30: with scipy 1.17's OpenBLAS, LAPACK's
        # error handler prints this line through C's buffered stdout during
        # the solve, which uncaptured reaches the process's stdout
        a = _stress_matrix(2, 14)
        propack_first(monkeypatch)
        record = {}
        u, s = truncated_svd(_implicit_from_dense(a), 30, seed=3, record=record)
        _LIBC.fflush(None)
        assert capfd.readouterr() == ("", "")
        assert set(record["printed"]) <= {
            " ** On entry to DLASCL parameter number  4 had an illegal value"}
        _assert_matches_oracle(a, u, s)

    def test_descriptor_that_cannot_be_duplicated_runs_uncaptured(self, monkeypatch):
        # fd 2 cannot be duplicated: the run goes on uncaptured, and the
        # duplicate of fd 1 already made is closed
        dup, made = os.dup, []

        def failing_dup(fd):
            if fd == 2:
                raise OSError(errno.EBADF, "Bad file descriptor")
            made.append(dup(fd))
            return made[-1]

        propack_first(monkeypatch)
        monkeypatch.setattr(os, "dup", failing_dup)
        a = np.random.default_rng(24).standard_normal((70, 45))
        record = {}
        u, s = truncated_svd(_implicit_from_dense(a), 6, seed=2, record=record)
        monkeypatch.undo()
        assert record["path"] == "propack" and record["printed"] == []
        assert made
        for fd in made:
            with pytest.raises(OSError):
                os.fstat(fd)
        _assert_matches_oracle(a, u, s)

    def test_gram_paths_print_nothing(self):
        _, _, record = _recorded_solve(_implicit_from_dense(np.eye(5)), 2)
        assert record["path"] == "matrix-gram" and record["printed"] == []

    @pytest.mark.parametrize("built", [True, False], ids=["dense", "applies"])
    def test_exact(self, built):
        a = np.random.default_rng(3).standard_normal((6, 9))
        y = _with_gram(a)
        if built:
            y.dense = lambda: a
        _, _, record = _recorded_solve(y, 2, exact=True)
        assert record["path"] == "exact"
        assert record["applies"] == {"solve": 0 if built else 6, "check": 0, "miss": 0}
        assert record["gap"] == pytest.approx(_gap(a, 2), rel=1e-12)

    def test_failed_solve_leaves_its_path(self, monkeypatch):
        # 3000 x 2000 at r = 5 is past the retry run's bases: the PROPACK
        # failure raises
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("k=5 singular triplets did not converge")

        monkeypatch.setattr(seqrec.linalg, "svds", failing)
        y = ImplicitMatrix((3000, 2000), matvec=lambda x: np.zeros(3000),
                           rmatvec=lambda x: np.zeros(2000))
        record = {}
        with pytest.raises(ConvergenceError):
            truncated_svd(y, 5, seed=0, record=record)
        assert record["path"] == "propack" and record["seconds"] >= 0
        assert "sigma1" not in record and "phase" not in record


def _raising(name):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} did not converge")
    return fail


@pytest.mark.parametrize("shape, raising, path", [
    ((6, 9), ["eigh"], "operator-gram"),
    ((6, 9), ["eigh"], "matrix-gram"),
    ((9, 6), ["qr"], "matrix-gram"),
    ((50, 40), ["svds", "eigh"], "gram-fallback"),
    ((6, 9), ["svd"], "exact"),
    ((3000, 2000), ["svds"], "propack"),  # past the retry run's bases: no dense matrix
], ids=["operator-gram-eigh", "wide-matrix-gram-eigh", "tall-matrix-gram-qr",
        "gram-fallback-eigh", "exact-svd", "large-propack"])
def test_linalg_error_of_each_path_is_one_convergence_error(monkeypatch, shape, raising, path):
    # each listed call raises; the last one to run is the one reported
    for name in raising:
        monkeypatch.setattr(seqrec.linalg if name == "svds" else np.linalg, name,
                            _raising(name))
    if path == "gram-fallback":
        propack_first(monkeypatch)
    if path == "propack":
        y = ImplicitMatrix(shape, matvec=lambda x: np.zeros(shape[0]),
                           rmatvec=lambda x: np.zeros(shape[1]))
        y.dense = lambda: pytest.fail("Gram fallback taken")
    else:
        a = np.random.default_rng(27).standard_normal(shape)
        y = _with_gram(a) if path == "operator-gram" else _implicit_from_dense(a)
    record = {}
    with pytest.raises(ConvergenceError) as info:
        truncated_svd(y, 3, seed=0, exact=path == "exact", record=record)
    assert str(info.value) == f"truncated SVD failed to converge: {raising[-1]} did not converge"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert record["path"] == path


class TestImplicitMatrix:
    @given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_adjoint_consistency(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rows, cols))
        y = _implicit_from_dense(a)
        for _ in range(5):
            v = rng.standard_normal(cols)
            u = rng.standard_normal(rows)
            lhs = np.dot(y.matvec(v), u)
            rhs = np.dot(v, y.rmatvec(u))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v))

    def test_materialize_both_orientations(self):
        rng = np.random.default_rng(5)
        wide = rng.standard_normal((3, 7))
        tall = rng.standard_normal((7, 3))
        assert np.allclose(_implicit_from_dense(wide).materialize(), wide)
        assert np.allclose(_implicit_from_dense(tall).materialize(), tall)

    @pytest.mark.parametrize("shape", [(300, 2000), (2000, 300)])
    def test_materialize_holds_only_its_output(self, shape):
        # one rows x cols array: no identity, list of applies or stacked copy beside it
        import tracemalloc

        a = np.random.default_rng(6).standard_normal(shape)
        y = _implicit_from_dense(a)
        tracemalloc.start()
        try:
            dense = y.materialize()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * dense.nbytes
        assert dense.flags.c_contiguous and np.array_equal(dense, a)


def _skew_blocks_oracle(w_a, w_s):
    """Direct definition: block[q] = W_A^T H(e_q) W_S via the triple loop."""
    k_l, r3 = w_a.shape
    k_s, r4 = w_s.shape
    k = k_l + k_s - 1
    blocks = np.zeros((k, r3, r4))
    for q in range(k):
        for l in range(k_l):
            s = q - l
            if 0 <= s < k_s:
                blocks[q] += np.outer(w_a[l], w_s[s])
    return blocks


class TestSkewBlockCache:
    def test_scalar_hankel(self):
        w_a = np.array([[2.0, 3.0]])
        w_s = np.array([[5.0]])
        cache = skew_block_cache(w_a, w_s)
        assert cache.blocks.shape == (1, 2, 1)
        assert np.allclose(cache.blocks[0], np.outer(w_a[0], w_s[0]))

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(6)
        w_a = rng.standard_normal((3, 2))
        w_s = rng.standard_normal((5, 4))
        cache = skew_block_cache(w_a, w_s)
        assert np.allclose(cache.blocks, _skew_blocks_oracle(w_a, w_s), atol=1e-12)

    def test_default_build_is_exact(self):
        # on integer entries the shift-stack product rounds nothing
        rng = np.random.default_rng(8)
        w_a = rng.integers(-9, 10, size=(20, 3)).astype(float)
        w_s = rng.integers(-9, 10, size=(21, 3)).astype(float)
        assert np.array_equal(skew_block_cache(w_a, w_s).blocks, _skew_blocks_oracle(w_a, w_s))

    def test_bilinearity(self):
        rng = np.random.default_rng(7)
        w_a = rng.standard_normal((4, 2))
        w_s = rng.standard_normal((3, 3))
        doubled = skew_block_cache(2.0 * w_a, w_s)
        base = skew_block_cache(w_a, w_s)
        assert np.allclose(doubled.blocks, 2.0 * base.blocks, atol=1e-12)

    @pytest.mark.parametrize("k_l,k_s,r3,r4", [
        (1, 1, 1, 1), (2, 3, 1, 2), (3, 5, 2, 4), (5, 40, 3, 2), (20, 30, 4, 4),
    ])
    def test_fft_and_direct_paths_agree(self, k_l, k_s, r3, r4):
        rng = np.random.default_rng(k_l * 100 + k_s)
        w_a = rng.standard_normal((k_l, r3))
        w_s = rng.standard_normal((k_s, r4))
        direct = skew_block_cache(w_a, w_s, use_fft=False)
        fft = skew_block_cache(w_a, w_s, use_fft=True)
        assert np.abs(direct.blocks - fft.blocks).max() < 1e-10
        assert np.allclose(direct.blocks, _skew_blocks_oracle(w_a, w_s), atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            skew_block_cache(np.zeros(3), np.zeros((2, 2)))

    def test_staleness_tracking(self):
        w_a = np.ones((2, 1))
        w_s = np.ones((3, 1))
        cache = skew_block_cache(w_a, w_s)
        assert cache.matches(w_a, w_s)
        assert not cache.matches(w_a.copy(), w_s)

"""Numerical kernels: implicit SVD, orthonormal init, skew blocks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqrec.linalg import (
    ImplicitMatrix,
    random_orthonormal,
    skew_block_cache,
    truncated_svd,
)


def _implicit_from_dense(a):
    return ImplicitMatrix(shape=a.shape, matvec=lambda v: a @ v,
                          rmatvec=lambda u: a.T @ u)


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

    def test_iterative_path_matches_oracle(self):
        # big enough to bypass the dense fallback
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

    def test_always_orthonormal(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 35))
        u, _ = truncated_svd(_implicit_from_dense(a), 4, seed=0)
        assert np.abs(u.T @ u - np.eye(4)).max() < 1e-10

    def test_rank_too_large(self):
        y = _implicit_from_dense(np.eye(4))
        with pytest.raises(ValueError):
            truncated_svd(y, 5)

    def test_exact_flag_matches_iterative(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((60, 45))
        y = _implicit_from_dense(a)
        u1, s1 = truncated_svd(y, 3, seed=0)
        u2, s2 = truncated_svd(y, 3, seed=0, exact=True)
        assert np.allclose(s1, s2, atol=1e-8)
        assert _principal_angle(u1, u2) < 1e-8


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

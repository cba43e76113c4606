"""Banded triangular attention, Hankel views, and the triangular restore."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import hankelize
from seqrec.attention import AttentionMatrix, build_attention, triangular_restore
from seqrec.linalg import random_orthonormal


class TestBuildAttention:
    def test_size3_flat(self):
        a = build_attention(3, f=0.0)
        assert np.array_equal(a.dense(), [[1, 0, 0], [1, 1, 0], [1, 1, 1]])

    def test_size3_harmonic(self):
        a = build_attention(3, f=1.0)
        expected = np.array([[1, 0, 0], [1 / 2, 1, 0], [1 / 3, 1 / 2, 1]])
        assert np.allclose(a.dense(), expected)

    def test_size1(self):
        for f in (0.0, 0.7, 3.0):
            assert np.array_equal(build_attention(1, f=f).dense(), [[1.0]])
        with pytest.raises(ValueError, match="size must be >= 1"):
            build_attention(0)

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError, match="f"):
            build_attention(4, f=-0.1)

    @pytest.mark.parametrize("f", [float("nan"), float("inf")])
    def test_non_finite_f_rejected(self, f):
        with pytest.raises(ValueError, match="f"):
            build_attention(4, f=f)

    def test_identity_mode(self):
        a = build_attention(4, mode="identity")
        assert np.array_equal(a.dense(), np.eye(4))

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            build_attention(4, mode="softmax")

    def test_weights_positive_power_decay(self):
        a = build_attention(6, f=2.0)
        assert a.weights[0] == 1.0
        assert (a.weights > 0).all()
        assert np.allclose(a.weights, np.arange(1, 7, dtype=float) ** -2.0)

    @given(st.integers(1, 12), st.floats(0, 3), st.integers(0, 100))
    @settings(max_examples=40, deadline=None)
    def test_apply_matches_dense(self, size, f, seed):
        a = build_attention(size, f=f)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(size)
        m = rng.standard_normal((size, 3))
        dense = a.dense()
        assert np.allclose(a.apply(v), dense @ v, atol=1e-12)
        assert np.allclose(a.apply(m), dense @ m, atol=1e-12)
        assert np.allclose(a.apply_transpose(v), dense.T @ v, atol=1e-12)
        assert np.allclose(a.apply_transpose(m), dense.T @ m, atol=1e-12)

    def test_bilinear_form_positive(self):
        # after attending, one-hot vectors at distinct positions correlate
        a = build_attention(6, f=1.0)
        dense = a.dense()
        c = dense @ dense.T
        for q in range(6):
            for q2 in range(q):
                lhs = np.dot(dense.T @ np.eye(6)[q], dense.T @ np.eye(6)[q2])
                assert lhs == pytest.approx(c[q, q2])
                assert lhs > 0
                direct = sum(a.weights[m] * a.weights[q - q2 + m]
                             for m in range(q2 + 1))
                assert lhs == pytest.approx(direct)


class TestHankelize:
    def test_one_hot_example(self):
        h = hankelize(np.array([0.0, 1.0, 0.0, 0.0]), 2)
        assert np.array_equal(h.to_dense(), [[0, 1, 0], [1, 0, 0]])

    def test_window_one_is_the_vector(self):
        p = np.array([3.0, 1.0, 4.0, 1.0])
        h = hankelize(p, 1)
        assert h.shape == (1, 4)
        assert np.array_equal(h.to_dense()[0], p)

    def test_round_trip_first_col_last_row(self):
        p = np.arange(7.0)
        h = hankelize(p, 3).to_dense()
        rebuilt = np.concatenate([h[:, 0], h[-1, 1:]])
        assert np.array_equal(rebuilt, p)

    def test_window_too_large(self):
        with pytest.raises(ValueError):
            hankelize(np.zeros(3), 4)

    def test_no_copy(self):
        p = np.zeros(5)
        h = hankelize(p, 2)
        assert h.source is p
        p[3] = 7.0
        assert h[1, 2] == 7.0

    def test_one_hot_single_skew_diagonal(self):
        k, window = 7, 3
        for q in range(k):
            h = hankelize(np.eye(k)[q], window).to_dense()
            nz_rows, nz_cols = np.nonzero(h)
            assert set(nz_rows + nz_cols) == {q}

    @given(st.integers(2, 8), st.integers(1, 8), st.floats(-2, 2), st.floats(-2, 2),
           st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, k, window, alpha, beta, seed):
        window = min(window, k)
        rng = np.random.default_rng(seed)
        p, q = rng.standard_normal(k), rng.standard_normal(k)
        lhs = hankelize(alpha * p + beta * q, window).to_dense()
        rhs = alpha * hankelize(p, window).to_dense() + beta * hankelize(q, window).to_dense()
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal(9)
        h = hankelize(p, 4)
        v = rng.standard_normal(h.n_cols)
        u = rng.standard_normal(h.n_rows)
        assert np.allclose(h.matvec(v), h.to_dense() @ v)
        assert np.allclose(h.rmatvec(u), h.to_dense().T @ u)


class TestTriangularRestore:
    def test_identity_attention(self):
        a = build_attention(4, mode="identity")
        w = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(triangular_restore(a, w), w)

    def test_hand_back_substitution(self):
        # A = [[1,0],[1/2,1]]; solving A^T w_hat = w by hand:
        # w=[1,0] -> w_hat=[1,0]; w=[0,1] -> w_hat=[-1/2,1]
        a = build_attention(2, f=1.0)
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        w_hat = triangular_restore(a, w)
        assert np.allclose(w_hat, [[1.0, -0.5], [0.0, 1.0]])
        assert np.allclose(a.dense().T @ w_hat, w)

    @given(st.integers(1, 20), st.floats(0, 2), st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_residual(self, size, f, seed):
        a = build_attention(size, f=f)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((size, min(3, size)))
        w_hat = triangular_restore(a, w)
        assert np.abs(a.dense().T @ w_hat - w).max() < 1e-12

    def test_singular_attention_rejected(self):
        weights = np.array([0.0, 1.0, 1.0])
        a = AttentionMatrix(size=3, f=0.0, mode="power-decay", weights=weights)
        with pytest.raises(np.linalg.LinAlgError):
            triangular_restore(a, np.eye(3))

    def test_shape_mismatch(self):
        a = build_attention(3, f=0.0)
        with pytest.raises(ValueError, match="row"):
            triangular_restore(a, np.zeros((4, 2)))

    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("size", [2, 17, 120])
    def test_restored_orthogonality_in_c_metric(self, f, size):
        # A^{-T} W stays orthonormal under the bilinear form C = A A^T
        a = build_attention(size, f=f)
        w = random_orthonormal(size, min(5, size), seed=size)
        w_hat = triangular_restore(a, w)
        c = a.dense() @ a.dense().T
        gram = w_hat.T @ c @ w_hat
        assert np.abs(gram - np.eye(w.shape[1])).max() < 1e-10

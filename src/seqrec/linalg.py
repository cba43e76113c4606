"""Numerical kernels: implicit-operator truncated SVD, orthonormal init, skew-diagonal block caches."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, svds

__all__ = [
    "ConvergenceError",
    "ImplicitMatrix",
    "SkewBlockCache",
    "random_orthonormal",
    "truncated_svd",
    "skew_block_cache",
]

FFT_CROSSOVER = 32
SVD_TOL = 1e-8
MAX_SVD_ITER = 300
DENSE_SVD_DIM = 32


class ConvergenceError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass
class ImplicitMatrix:
    """A linear operator given by matvec/rmatvec closures over dense vectors."""

    shape: tuple
    matvec: callable
    rmatvec: callable

    def to_linear_operator(self):
        """scipy view; solvers may pass (n, 1) columns, which reach the closures 1-D."""
        return LinearOperator(shape=self.shape, dtype=float,
                              matvec=lambda x: self.matvec(np.ravel(x)),
                              rmatvec=lambda y: self.rmatvec(np.ravel(y)))

    def materialize(self):
        """Dense matrix built column-by-column (or row-by-row, whichever is smaller)."""
        rows, cols = self.shape
        if cols <= rows:
            eye = np.eye(cols)
            return np.column_stack([self.matvec(eye[:, c]) for c in range(cols)])
        eye = np.eye(rows)
        return np.vstack([self.rmatvec(eye[:, r]) for r in range(rows)])


def random_orthonormal(n, r, seed):
    """Column-orthonormal n x r matrix from a seeded Gaussian draw."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def _dense_left_vectors(dense, r):
    u, s, _ = np.linalg.svd(dense, full_matrices=False)
    return u[:, :r], s[:r]


def truncated_svd(y, r, seed=0, exact=False):
    """Dominant left singular subspace of an implicit operator.

    Returns (U, s) with column-orthonormal U of shape (rows, r) and the leading
    singular values. Uses an iterative Krylov solver; small or full-rank
    problems (and ``exact=True``) fall back to a dense SVD.
    """
    rows, cols = y.shape
    if r > min(rows, cols):
        raise ValueError(f"rank {r} exceeds min dimension {min(rows, cols)}")
    if exact or min(rows, cols) <= DENSE_SVD_DIM or r >= min(rows, cols) - 1:
        return _dense_left_vectors(y.materialize(), r)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(min(rows, cols))
    try:
        u, s, _ = svds(y.to_linear_operator(), k=r, v0=v0, maxiter=MAX_SVD_ITER, tol=SVD_TOL)
    except ArpackNoConvergence as exc:
        raise ConvergenceError("truncated SVD failed to converge",
                               residual=getattr(exc, "eigenvalues", None)) from exc
    order = np.argsort(s)[::-1]
    u, s = u[:, order], s[order]
    if np.abs(u.T @ u - np.eye(r)).max() > 1e-10:
        u, _ = np.linalg.qr(u)
    return u, s


@dataclass(frozen=True)
class SkewBlockCache:
    """Per-skew-offset correlation blocks between two factor matrices.

    ``blocks[q][a][b] = sum_{l + s = q} w_a[l, a] * w_s[s, b]`` (0-based offsets
    q in [0, K)), i.e. the compression of the one-hot Hankel matrix at offset q.
    """

    blocks: np.ndarray = field(repr=False)
    w_a: np.ndarray = field(repr=False)
    w_s: np.ndarray = field(repr=False)

    def matches(self, w_a, w_s):
        return self.w_a is w_a and self.w_s is w_s


def _skew_blocks_direct(w_a, w_s):
    k_l, r3 = w_a.shape
    k_s, r4 = w_s.shape
    blocks = np.zeros((k_l + k_s - 1, r3, r4))
    for l in range(k_l):
        blocks[l:l + k_s] += w_a[l][None, :, None] * w_s[:, None, :]
    return blocks


def _skew_blocks_fft(w_a, w_s):
    k_l, r3 = w_a.shape
    k_s, r4 = w_s.shape
    n = k_l + k_s - 1
    fa = np.fft.rfft(w_a, n=n, axis=0)
    fs = np.fft.rfft(w_s, n=n, axis=0)
    prod = fa[:, :, None] * fs[:, None, :]
    return np.fft.irfft(prod, n=n, axis=0)


def skew_block_cache(w_a, w_s, use_fft=None):
    """Compute all K = K_L + K_S - 1 correlation blocks, via FFT for large K."""
    w_a = np.asarray(w_a, dtype=float)
    w_s = np.asarray(w_s, dtype=float)
    if w_a.ndim != 2 or w_s.ndim != 2:
        raise ValueError("factor matrices must be 2-dimensional")
    k = w_a.shape[0] + w_s.shape[0] - 1
    if use_fft is None:
        use_fft = k >= FFT_CROSSOVER
    blocks = _skew_blocks_fft(w_a, w_s) if use_fft else _skew_blocks_direct(w_a, w_s)
    return SkewBlockCache(blocks=blocks, w_a=w_a, w_s=w_s)

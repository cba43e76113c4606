"""Banded triangular positional attention and the triangular restore."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "AttentionMatrix",
    "build_attention",
    "triangular_restore",
]


@dataclass(frozen=True)
class AttentionMatrix:
    """Lower-triangular Toeplitz matrix with per-diagonal weights.

    Entry (r, c) equals ``weights[r - c]`` for r >= c and 0 above the diagonal.
    In power-decay mode the weights are ``(k + 1) ** -f`` for diagonal offset k;
    identity mode keeps only the main diagonal (used for attention-free runs).
    """

    size: int
    f: float
    mode: str
    weights: np.ndarray = field(repr=False)

    def dense(self):
        """The matrix itself, built in NumPy so that scoring loads no SciPy."""
        lag = np.arange(self.size)
        return np.tril(self.weights[np.abs(lag[:, None] - lag)])

    def apply(self, x):
        """Compute A @ x by one Toeplitz product."""
        return self.dense() @ np.asarray(x, dtype=float)

    def apply_transpose(self, x):
        """Compute A.T @ x by one Toeplitz product."""
        return self.dense().T @ np.asarray(x, dtype=float)


def build_attention(size, f=0.0, mode="power-decay"):
    if size < 1:
        raise ValueError("size must be >= 1")
    if mode == "power-decay":
        if not 0 <= f < np.inf:
            raise ValueError(f"decay exponent f must be finite and >= 0, got {f}")
        weights = np.arange(1, size + 1, dtype=float) ** -float(f)
    elif mode == "identity":
        weights = np.zeros(size)
        weights[0] = 1.0
    else:
        raise ValueError(f"unknown attention mode {mode!r}")
    return AttentionMatrix(size=size, f=float(f), mode=mode, weights=weights)


def triangular_restore(attention, w):
    """Solve A.T w_hat = w for the factor in the original positional space (no
    explicit inverse). LU with partial pivoting of a triangular matrix with a
    nonzero diagonal swaps no rows and leaves L = I, so this is
    back-substitution, without loading SciPy."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != attention.size:
        raise ValueError("factor row count must match attention size")
    if attention.weights[0] == 0:
        raise np.linalg.LinAlgError("attention matrix is singular (zero main diagonal)")
    return np.linalg.solve(attention.dense().T, w)

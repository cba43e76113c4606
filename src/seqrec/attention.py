"""Banded triangular positional attention, the left-shift operator, and the triangular restore."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular, toeplitz

__all__ = [
    "AttentionMatrix",
    "build_attention",
    "shift_left",
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
        return toeplitz(self.weights, np.zeros(self.size))

    def apply(self, x):
        """Compute A @ x for a vector, or for a matrix by one Toeplitz product."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.convolve(self.weights, x)[: self.size]
        return self.dense() @ x

    def apply_transpose(self, x):
        """Compute A.T @ x for a vector, or for a matrix by one Toeplitz product."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.convolve(self.weights, x[::-1])[: self.size][::-1]
        return self.dense().T @ x

    def solve_transpose(self, b):
        """Solve A.T y = b by back-substitution (no explicit inverse)."""
        if self.weights[0] == 0:
            raise np.linalg.LinAlgError("attention matrix is singular (zero main diagonal)")
        return solve_triangular(self.dense().T, np.asarray(b, dtype=float), lower=False)


def build_attention(size, f=0.0, mode="power-decay"):
    if size < 1:
        raise ValueError("size must be >= 1")
    if mode == "power-decay":
        if f < 0:
            raise ValueError("decay exponent f must be >= 0")
        weights = np.arange(1, size + 1, dtype=float) ** -float(f)
    elif mode == "identity":
        weights = np.zeros(size)
        weights[0] = 1.0
    else:
        raise ValueError(f"unknown attention mode {mode!r}")
    return AttentionMatrix(size=size, f=float(f), mode=mode, weights=weights)


def shift_left(positions, items=None):
    """Decrease 1-based positions by one, dropping entries at position 1.

    Works directly on COO coordinates; the shift matrix is never materialized.
    Returns shifted positions, or a (positions, items) pair when ``items`` is
    given so callers can keep coordinate arrays aligned.
    """
    positions = np.asarray(positions, dtype=np.int64)
    keep = positions > 1
    shifted = positions[keep] - 1
    if items is None:
        return shifted
    return shifted, np.asarray(items, dtype=np.int64)[keep]


def triangular_restore(attention, w):
    """Solve A.T w_hat = w for the factor in the original positional space."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != attention.size:
        raise ValueError("factor row count must match attention size")
    return attention.solve_transpose(w)

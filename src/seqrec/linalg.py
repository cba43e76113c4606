"""Numerical kernels: implicit-operator truncated SVD, a seeded random
orthonormal matrix, and the shift stack that every Hankel (skew-diagonal)
product is built from."""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

__all__ = ["ConvergenceError", "ImplicitMatrix", "truncated_svd"]

# svds hands PROPACK tol**2, so PROPACK works to 1e-16 relative accuracy.
SVD_TOL = 1e-8
# PROPACK does not restart, so its basis must hold the whole run: scipy's 10 * r
# stops short at small r (r = 2-20 took 46-204 steps on 300-2000-row matrices).
MIN_LANCZOS_BASIS = 300
# Runs stop after 2.0-3.9 * r steps, while scipy allocates both bases and about
# 2 * kmax**2 doubles of work space up front: a first run gets a basis of
# LANCZOS_BASIS_FACTOR * r, and only a run that overflows it is redone at
# RETRY_BASIS_FACTOR * r.
LANCZOS_BASIS_FACTOR = 5
RETRY_BASIS_FACTOR = 10
# svds hands PROPACK tol**2: the search for a missed triplet stops at 1e-4,
# where its top Ritz value (a lower bound) already shows a miss of 1e-4 or more.
MISS_SEARCH_TOL = 1e-2
# The search reads one value. In 15 PureSVD solves (r = 20-300 on svd-230k and
# on a 6000 x 3700 ML-1M-shaped log) it stopped after 30, 45, 67 or, once, 100
# Lanczos steps, which its first basis holds; a search that outgrows it is
# redone on MIN_LANCZOS_BASIS.
MISS_SEARCH_BASIS = 100


class ConvergenceError(RuntimeError):
    """The truncated SVD of an operator could not be computed."""


@dataclass
class ImplicitMatrix:
    """A linear operator given by matvec/rmatvec closures over dense vectors.

    ``dense`` and ``gram`` are optional, set after construction. ``gram`` is
    for operators that form their Gram without holding their dense matrix
    (the HOOI modes 3/4 and wide modes 1/2); ``truncated_svd``'s eigensolve
    solves it.
    """

    shape: tuple
    matvec: callable
    rmatvec: callable
    # builds the dense matrix directly, where that beats one apply per column
    dense: callable = None
    # builds the rows x rows Gram matrix A A^T
    gram: callable = None

    def to_linear_operator(self):
        """scipy view; solvers may pass (n, 1) columns, which reach the closures 1-D."""
        from scipy.sparse.linalg import LinearOperator

        return LinearOperator(shape=self.shape, dtype=float,
                              matvec=lambda x: self.matvec(np.ravel(x)),
                              rmatvec=lambda y: self.rmatvec(np.ravel(y)))

    def materialize(self):
        """Dense matrix from ``dense`` when set, else written into one array
        column-by-column (or row-by-row, whichever is smaller) by unit applies."""
        if self.dense is not None:
            return self.dense()
        rows, cols = self.shape
        out = np.empty((rows, cols))
        unit = np.zeros(min(rows, cols))
        for k in range(unit.size):
            unit[k] = 1.0
            if cols <= rows:
                out[:, k] = self.matvec(unit)
            else:
                out[k] = self.rmatvec(unit)
            unit[k] = 0.0
        return out


def random_orthonormal(n, r, seed):
    """Column-orthonormal n x r matrix from a seeded Gaussian draw."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, r)))
    return q


def svds(*args, **kwargs):
    """scipy's ``svds``, imported when first called, so that importing seqrec
    loads no SciPy; ``_propack`` looks it up here, where seqbench's tracer wraps it."""
    from scipy.sparse.linalg import svds

    return svds(*args, **kwargs)


def _lanczos_basis(shape, r, factor):
    """kmax: the Lanczos basis of a PROPACK run for r triplets on a
    ``factor * r`` basis of at least MIN_LANCZOS_BASIS vectors, clipped as
    scipy clips it to min(rows, cols) + 1."""
    return min(max(factor * r, MIN_LANCZOS_BASIS), min(shape) + 1)


def _gram_fits(y, r, factor):
    """The path rule: whether what the Gram path holds, the Gram
    (min(rows, cols) ** 2 numbers) and, for an operator that carries none,
    the materialized matrix it is formed from (rows * cols), is no larger
    than the two Lanczos bases, (rows + cols) * kmax numbers, of a PROPACK
    run on a ``factor`` basis. It weighs memory only: on a tall user or item
    mode, whose every apply contracts all tensor entries, PROPACK holds about
    half the Gram path's memory and takes three to four times its time
    (README's path section)."""
    rows, cols = y.shape
    held = min(rows, cols) ** 2 + (rows * cols if y.gram is None else 0)
    return held <= (rows + cols) * _lanczos_basis(y.shape, r, factor)


def _printed_into(record, call):
    """``call()``, with what it prints past Python's streams appended to
    ``record["printed"]``: LAPACK's error handler under PROPACK writes
    through C's stdio, buffered, so file descriptors 1 and 2 point at one
    temporary file until C's buffers are flushed into it."""
    import ctypes
    import tempfile

    for stream in (sys.stdout, sys.stderr):
        stream.flush()
    saved = []
    try:
        for fd in (1, 2):
            saved.append(os.dup(fd))
    except OSError:  # a closed descriptor: run uncaptured
        for old in saved:
            os.close(old)
        return call()
    with tempfile.TemporaryFile() as sink:
        for fd in (1, 2):
            os.dup2(sink.fileno(), fd)
        try:
            return call()
        finally:
            ctypes.CDLL(None).fflush(None)
            for fd, old in zip((1, 2), saved):
                os.dup2(old, fd)
                os.close(old)
            sink.seek(0)
            record["printed"] += sink.read().decode(errors="replace").splitlines()


def _propack(op, k, rng, record, search=False):
    """PROPACK's top-k left singular pairs on a LANCZOS_BASIS_FACTOR * k basis,
    or with ``search`` only its singular values, at MISS_SEARCH_TOL on a
    MISS_SEARCH_BASIS basis. A run that raises there is redone from the same
    generator state on the larger RETRY_BASIS_FACTOR * k (a search's
    MIN_LANCZOS_BASIS) basis, so the retry repeats that run exactly; it
    counts in ``record["retries"]``."""
    if search:
        # k is 1: the retry basis is MIN_LANCZOS_BASIS
        tol, vectors, first = MISS_SEARCH_TOL, False, MISS_SEARCH_BASIS
        retry = _lanczos_basis(op.shape, k, LANCZOS_BASIS_FACTOR)
    else:
        tol, vectors = SVD_TOL, "u"
        first, retry = (_lanczos_basis(op.shape, k, f)
                        for f in (LANCZOS_BASIS_FACTOR, RETRY_BASIS_FACTOR))

    def run(basis):
        return _printed_into(record, lambda: svds(
            op.to_linear_operator(), k=k, v0=rng.standard_normal(op.shape[0]), tol=tol,
            maxiter=basis, solver="propack", return_singular_vectors=vectors, rng=rng))

    state = rng.bit_generator.state
    try:
        out = run(first)
    except np.linalg.LinAlgError:
        if retry <= first:
            raise
        rng.bit_generator.state = state
        record["retries"] += 1
        out = run(retry)
    if search:
        return out
    u, s, _ = out
    order = np.argsort(s)[::-1]
    return u[:, order], s[order]


def _deflated(op, u):
    """(I - U U^T) A: the operator with the columns of U projected out of its range."""
    def project(x):
        return x - u @ (u.T @ x)

    return ImplicitMatrix(op.shape, lambda x: project(op.matvec(x)),
                          lambda y: op.rmatvec(project(y)))


def _checked_propack(op, r, rng, record):
    """PROPACK's top-r left singular pairs, checked, and the deflated search's
    estimate of the next singular value (None at r = min); LinAlgError when
    they cannot be trusted. Sets ``record["phase"]`` to the check, then the
    miss search, as each begins, and counts each miss found."""
    u, s = _propack(op, r, rng, record)
    record["phase"] = "check"
    # Ghost copies of a singular vector show as drift; a vector that mixes
    # singular directions shows as a residual of A A^T U c = U s^2 c.
    drift = np.abs(u.T @ u - np.eye(r)).max()
    c = rng.standard_normal(r)
    residual = np.linalg.norm(op.matvec(op.rmatvec(u @ c)) - u @ (s * s * c))
    if drift > 1e-6 or residual > 1e-6 * s[0] ** 2 * np.linalg.norm(c):
        raise np.linalg.LinAlgError(
            f"inaccurate triplets (drift {drift:.1e}, residual {residual:.1e})")
    if drift > 1e-10:
        u, _ = np.linalg.qr(u)
    # A single-vector Lanczos run can find one copy of a repeated singular
    # value; the deflated operator's top triplet is the largest one missed.
    record["phase"], after = "miss", None
    while r < min(op.shape):
        deflated = _deflated(op, u)
        after = _propack(deflated, 1, rng, record, search=True)[0]
        if after <= s[-1] + 1e-6 * s[0]:
            break
        record["misses"] += 1
        u_miss, s_miss = _propack(deflated, 1, rng, record)
        u, s = np.column_stack([u[:, :-1], u_miss]), np.append(s[:-1], s_miss)
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    return u, s, after


def _gram_pairs(g, r, a=None):
    """Leading r left singular pairs from the eigensolve of a Gram matrix,
    and sqrt(lambda_{r+1}) (None past the last eigenvalue): directly for
    g = A A^T (``a`` None), with s = sqrt(lambda), and through
    A Q_r = U R for g = A^T A, whose top eigenvectors Q_r are the right
    singular vectors, with s = |diag R|, the norms of A q_i taken unsquared."""
    lam, q = np.linalg.eigh(g)
    # a copy, so that U does not keep all rows ** 2 eigenvectors alive
    lam, q = lam[::-1], q[:, ::-1][:, :r].copy()
    after = math.sqrt(max(lam[r], 0.0)) if r < len(lam) else None
    if a is None:
        return q, np.sqrt(np.maximum(lam[:r], 0.0)), after
    u, tri = np.linalg.qr(a @ q)
    return u, np.abs(np.diagonal(tri)), after


def _counted(y, record):
    """``y`` with each matvec and rmatvec counted in ``record["applies"]``,
    under the solve's current ``record["phase"]``."""
    applies = record["applies"]

    def count(apply):
        def counted(x):
            applies[record["phase"]] += 1
            return apply(x)
        return counted

    return ImplicitMatrix(y.shape, count(y.matvec), count(y.rmatvec), y.dense, y.gram)


def truncated_svd(y, r, seed=0, exact=False, record=None):
    """Dominant left singular subspace of an implicit operator.

    Returns (U, s) with column-orthonormal U of shape (rows, r) and the leading
    singular values; an r that is not an integer in [1, min(rows, cols)]
    raises ValueError. Unless ``exact``, one rule picks the solve: a Gram
    eigensolve exactly when what it holds, the Gram and, for an operator
    without ``gram``, its materialized matrix, is no larger than the Lanczos
    bases of PROPACK's first run (``_gram_fits``), else PROPACK, seeded by ``seed``.
    The eigensolve solves the operator's ``gram`` if it carries one, else
    A A^T or A^T A of its materialized matrix. From a rows x rows Gram it
    gives s = sqrt(max(lambda, 0)): squaring halves the digits, so singular
    values below about sqrt(eps) * s[0] are noise, and past the operator's
    rank U holds some orthonormal completion; from A^T A it reads s from the
    R of A Q_r = U R. A PROPACK run that fails, or fails its check, falls
    back to the eigensolve where that fits the retry run's bases, and raises
    past them. Only ``exact`` takes a dense SVD. Any
    LinAlgError the path raises surfaces as ConvergenceError("truncated SVD
    failed to converge: ..."), the CLI's exit 1.

    The solve fills ``record``, or a private dict when none is passed, with
    how it ran, and the record changes nothing of it: ``shape``; ``path``
    ("operator-gram", "matrix-gram", "propack", "gram-fallback" or "exact");
    ``applies`` of the operator, split into "solve", "check" and "miss" (the
    search for missed triplets and the fetch of each); PROPACK basis
    ``retries``; ``misses`` found; ``printed``, the lines printed under
    PROPACK past Python's streams; ``seconds``; ``sigma1``; ``fit``, the sum
    of s ** 2; and ``gap``, s[r-1] / s[r], or None where the path has no
    s[r], which means nothing once s[r-1] is below the sqrt(eps) * s[0] noise
    floor. The Gram paths read s[r] from the next eigenvalue and the dense SVD
    from its own values; PROPACK reads the deflated search's, an estimate to
    MISS_SEARCH_TOL only.
    A solve that raises leaves its path, applies, retries and seconds.
    """
    rows, cols = y.shape
    if isinstance(r, bool) or not (isinstance(r, (int, np.integer))
                                   and 1 <= r <= min(rows, cols)):
        raise ValueError(f"rank {r} is not an integer in [1, min dimension {min(rows, cols)}]")
    start = time.perf_counter()
    record = {} if record is None else record
    record.update(shape=(rows, cols), path=None, retries=0, misses=0, printed=[],
                  phase="solve", applies={"solve": 0, "check": 0, "miss": 0})
    try:
        u, s, after = _solve(_counted(y, record), r, seed, exact, record)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"truncated SVD failed to converge: {exc}") from exc
    finally:
        del record["phase"]
        record["seconds"] = time.perf_counter() - start
    gap = None if after is None else float(s[-1] / after) if after > 0 else math.inf
    record.update(sigma1=float(s[0]), fit=float(np.sum(s ** 2)), gap=gap)
    return u, s


def _solve(y, r, seed, exact, record):
    """``truncated_svd``'s (U, s) and next singular value, from the path it picks."""
    if exact:
        record["path"] = "exact"
        u, s, _ = np.linalg.svd(y.materialize(), full_matrices=False)
        return u[:, :r], s[:r], s[r] if r < len(s) else None
    if not _gram_fits(y, r, LANCZOS_BASIS_FACTOR):
        record["path"] = "propack"
        try:
            return _checked_propack(y, r, np.random.default_rng(seed), record)
        except np.linalg.LinAlgError:
            if not _gram_fits(y, r, RETRY_BASIS_FACTOR):
                raise
    record["path"] = ("gram-fallback" if record["path"] == "propack"
                      else "operator-gram" if y.gram is not None else "matrix-gram")
    record["phase"] = "solve"
    if y.gram is not None:
        return _gram_pairs(y.gram(), r)
    a = y.materialize()
    return _gram_pairs(a @ a.T, r) if y.shape[0] <= y.shape[1] else _gram_pairs(a.T @ a, r, a)


def _shift_stack(w, k):
    """K shifted copies of a window factor: ``out[q][j] = w[q - j]`` when that
    index is valid, 0 otherwise (shape K x (K - len(w) + 1) x r).

    For ``w = W_S`` slice q is the one-hot Hankel matrix at skew offset q times
    W_S; for ``w = W_A`` it is the transposed Hankel matrix times W_A.
    """
    n_rows, r = w.shape
    out = np.zeros((k, k - n_rows + 1, r))
    for j in range(k - n_rows + 1):
        out[j:j + n_rows, j, :] = w
    return out


@dataclass(frozen=True)
class SkewBlockCache:
    """Per-skew-offset correlation blocks between two factor matrices.

    ``blocks[q][a][b] = sum_{l + s = q} w_a[l, a] * w_s[s, b]`` (0-based offsets
    q in [0, K)), i.e. the compression of the one-hot Hankel matrix at offset q:
    ``blocks[q] = S_q^T W_S`` with ``S = _shift_stack(W_A, K)``.
    """

    blocks: np.ndarray = field(repr=False)
    w_a: np.ndarray = field(repr=False)
    w_s: np.ndarray = field(repr=False)

    def matches(self, w_a, w_s):
        return self.w_a is w_a and self.w_s is w_s


def _skew_blocks_direct(w_a, w_s):
    return _shift_stack(w_a, len(w_a) + len(w_s) - 1).transpose(0, 2, 1) @ w_s


def _skew_blocks_fft(w_a, w_s):
    k_l, r3 = w_a.shape
    k_s, r4 = w_s.shape
    n = k_l + k_s - 1
    fa = np.fft.rfft(w_a, n=n, axis=0)
    fs = np.fft.rfft(w_s, n=n, axis=0)
    prod = fa[:, :, None] * fs[:, None, :]
    return np.fft.irfft(prod, n=n, axis=0)


def skew_block_cache(w_a, w_s, use_fft=False):
    """All K = K_L + K_S - 1 correlation blocks, as one batched product over the
    shift stack of ``w_a``; ``use_fft`` builds them by FFT instead. The cache
    keeps the factors given, so it matches them whatever their dtype."""
    a, s = np.asarray(w_a, dtype=float), np.asarray(w_s, dtype=float)
    if a.ndim != 2 or s.ndim != 2:
        raise ValueError("factor matrices must be 2-dimensional")
    blocks = _skew_blocks_fft(a, s) if use_fft else _skew_blocks_direct(a, s)
    return SkewBlockCache(blocks=blocks, w_a=w_a, w_s=w_s)

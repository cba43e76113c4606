"""Recommender models: popularity, SVD projectors, and attentive tensor factorizations."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .attention import AttentionMatrix, build_attention, triangular_restore
from .data import _read_archive, _write_archive
from .linalg import ImplicitMatrix, _gram_pairs, _shift_stack, skew_block_cache, truncated_svd

__all__ = [
    "ColdUserError",
    "ScalingDiag",
    "MPModel",
    "SVDModel",
    "GlobalAttentionModel",
    "LocalAttentionModel",
    "GlobalAttentionTrainer",
    "LocalAttentionTrainer",
    "train_mp",
    "train_puresvd",
    "train_gasatf",
    "train_lasatf",
    "predict_next",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 2
# predict_next ranks a factor model from a float32 screen of its catalog
# (_screened_top) once V holds this many entries (n_items * r). The screen
# reads half of V's bytes, which pays once V outgrows the L2 cache, but adds a
# cast, a rescore and a bound. Per call, float64 against screened, on 2 vCPUs
# with 2 MiB of L2 per core at 1 and 2 BLAS threads (random orthonormal V,
# plain, 30-item histories, n = 10): 17 / 24 us at 197 x 20 (la-k40's V),
# 32-47 / 32-51 us at 1000 x 100, 38 / 35 us at 1300 x 100, 56-60 / 41-42 us
# at 2000 x 100 and 98 / 54 us at 2997 x 100 (svd-230k's V).
SCREEN_MIN_ENTRIES = 1 << 17


class ColdUserError(ValueError):
    pass


@dataclass(frozen=True)
class ScalingDiag:
    """Per-item popularity scaling d_j = count_j ** ((s - 1) / 2)."""

    d: np.ndarray = field(repr=False)
    s: float


def build_scaling(counts, s, neutral_missing=False):
    """Scaling diagonal from per-item interaction counts.

    ``s = 1`` disables scaling. Zero-count items are an error (filtering leaves
    every item with at least one interaction) unless ``neutral_missing`` is set,
    which assigns them the neutral weight 1 so catalogs shared across time
    splits remain usable.
    """
    counts = np.asarray(counts, dtype=float)
    if s == 1:
        return ScalingDiag(d=np.ones(len(counts)), s=1.0)
    zero = counts == 0
    if zero.any():
        if not neutral_missing:
            raise ValueError(f"{int(zero.sum())} items have zero interactions")
        counts = np.where(zero, 1.0, counts)
    return ScalingDiag(d=counts ** ((s - 1.0) / 2.0), s=float(s))


def _gamma(k, unit):
    """``gamma_k = k u / (1 - k u)``: how far k roundings, each of relative
    error at most the unit roundoff u (``eps / 2`` of the dtype), can move a
    result. For ``|delta_i| <= u`` and ``k u < 1``, every product of k factors
    ``(1 + delta_i)`` or ``1 / (1 + delta_i)`` lies within ``gamma_k`` of 1
    (Higham, Accuracy and Stability of Numerical Algorithms, Lemma 3.1). A
    dot product of m terms, summed in any order, with or without fused
    multiply-adds, takes each term through at most m roundings: it lies
    within ``gamma_m sum_i |x_i| |y_i| <= gamma_m ||x||_2 ||y||_2`` of the
    exact one. Each rounding of an input, or of the result by a further
    operation, adds one to k.
    """
    return k * unit / (1 - k * unit)


def _block_scorer(model):
    """Scoring for blocks of histories: returns ``score(items, indptr)``,
    which gives the catalog scores of the block, one row per history, and per
    row a bound ``tau`` on how far a row may lie from the float64 scores
    :func:`predict_next` ranks the same history by.

    History b is ``items[indptr[b]:indptr[b + 1]]``, oldest first, not empty
    and all inside the catalog. A factor model projects each history with
    its own ``_projection``, the call ``predict_next`` makes. Equal operands
    of equal layout give equal bits (as a model and its saved copy score
    alike), so the two share each h, and only the product with V differs:
    the block's ``H V^T`` (over d when restored) and ``predict_next``'s
    ``V h`` each lie within :meth:`_FactorModel._tau64` of the exact scores
    of h, and ``tau`` is twice it. Any other model's rows are its
    ``score_history`` rows, with a bound of 0.
    """
    def score(items, indptr):
        histories = [items[lo:hi] for lo, hi in zip(indptr[:-1], indptr[1:])]
        if not isinstance(model, _FactorModel):
            rows = [model.score_history(history) for history in histories]
            return np.array(rows, dtype=float), np.zeros(len(rows))
        h = np.array([model._projection(history) for history in histories])
        scores = h @ model.v.T
        if model.regime == "restored":
            scores /= model.scaling.d
        return scores, 2 * model._tau64(np.sqrt(np.einsum("ij,ij->i", h, h)))

    return score


# ---------------------------------------------------------------------------
# baselines


@dataclass(frozen=True)
class MPModel:
    counts: np.ndarray = field(repr=False)

    kind = "mp"

    @property
    def n_items(self):
        return len(self.counts)

    def score_history(self, history):
        return self.counts.astype(float)


def train_mp(train):
    return MPModel(counts=train.item_counts())


class _FactorModel:
    """Scoring shared by PureSVD and the attention models, which differ only
    in ``history_weights``: the items of a history and a weight w per item.
    The history's projection is ``h = V[items]^T w``, with ``d[items]`` folded
    into w when restored, and the catalog scores are ``V h``, times ``D^-1``
    when restored. A repeated item adds its weights. ``dot`` is ``@`` with
    less per-call overhead on small operands."""

    @property
    def n_items(self):
        return self.v.shape[0]

    def _projection(self, history):
        items, weights = self.history_weights(history)
        if self.regime == "restored":
            weights = self.scaling.d[items] * weights
        elif self.regime != "plain":
            raise ValueError(f"unknown regime {self.regime!r}")
        return self.v[items].T.dot(weights)

    def _scores(self, h, rows=None):
        """Scores of the catalog, or of its ``rows``, for the projection h."""
        v, d = (self.v, self.scaling.d) if rows is None else (self.v[rows], self.scaling.d[rows])
        return v.dot(h) / d if self.regime == "restored" else v.dot(h)

    def score_history(self, history):
        return self._scores(self._projection(history))

    @cached_property
    def _beta(self):
        """The largest norm of a row of V, over its d when restored."""
        norms = np.sqrt(np.einsum("ij,ij->i", self.v, self.v))
        return float((norms / self.scaling.d if self.regime == "restored" else norms).max())

    def _tau64(self, norm):
        """``gamma_{r+2} beta ||h||`` at float64's unit roundoff 2^-53, for
        projections h of norm ``norm``: how far a float64 score of h, from any
        product with V, lies from its exact score. A score rounds at most
        r + 1 times (r terms and, when restored, the division by d), and
        ``sum_i |V_ji| |h_i| / d_j <= beta ||h||`` (:func:`_gamma`); k one
        higher leaves room for the rounding of beta, the norm and the bound.
        The bound is relative: it holds where nothing underflows."""
        return _gamma(self.v.shape[1] + 2, 2.0 ** -53) * self._beta * norm

    @cached_property
    def _screen(self):
        """``predict_next``'s float32 copy of V, with ``D^-1`` folded in when
        restored; None outside the range of beta that :func:`_screened_top`
        bounds."""
        v = self.v / self.scaling.d[:, None] if self.regime == "restored" else self.v
        return v.astype(np.float32) if 2.0 ** -40 <= self._beta <= 2.0 ** 40 else None


@dataclass(frozen=True)
class SVDModel(_FactorModel):
    v: np.ndarray = field(repr=False)
    scaling: ScalingDiag
    regime: str

    kind = "svd"

    def history_weights(self, history):
        # the user's binary row: a repeated item counts once. Sorting and
        # masking repeats gives np.unique's array without its hash path, which
        # imports numpy.ma on numpy >= 2.
        items = np.sort(np.asarray(history, dtype=np.int64))
        first = np.ones(len(items), dtype=bool)
        first[1:] = items[1:] != items[:-1]
        items = items[first]
        return items, np.ones(len(items))


def _item_spectrum(users, items, shape, d, r, seed, exact=False):
    """The leading r left singular vectors of the scaled item x user matrix
    ``D X^T``, where X (m x n) counts the (user, item) pairs: PureSVD's
    factorization, and HOSVD's start for a trainer's V (not a sweep's solve).
    ``truncated_svd`` solves it as an n x m operator. Its ``dense`` builds it
    with NumPy; the CSR matrix ``X D``, and SciPy, is built on the first
    apply, which only PROPACK makes. ``matvec`` applies its transpose view,
    which shares its arrays and sums each output in the order the CSR of
    ``D X^T`` would. Past the user count, where the matrix has fewer columns
    than r, they are the leading eigenvectors of the item Gram ``D X^T X D``."""
    m, n = shape

    @cache
    def x_and_view():
        import scipy.sparse as sp

        x = sp.csr_matrix((np.ones(len(users)), (users, items)), shape=(m, n)) @ sp.diags(d)
        return x, x.T

    op = ImplicitMatrix(shape=(n, m), matvec=lambda z: x_and_view()[1] @ z,
                        rmatvec=lambda z: x_and_view()[0] @ z)

    def dense():  # one n x m array, with no n x m count array beside it
        return np.bincount(items * m + users, weights=d[items], minlength=n * m).reshape(n, m)

    op.dense = dense
    if r > m:
        a = dense()
        return _gram_pairs(a @ a.T, r)[0]
    return truncated_svd(op, r, seed=seed, exact=exact)[0]


def train_puresvd(train, r, s=1.0, seed=0):
    """Top-r right singular vectors of the popularity-scaled binary matrix,
    scored in the plain regime (``dataclasses.replace`` sets another)."""
    m, n = train.n_users, train.n_items
    if isinstance(r, bool) or not (isinstance(r, (int, np.integer)) and 1 <= r <= min(m, n)):
        raise ValueError(f"rank {r} infeasible for a {m} x {n} matrix")
    scaling = build_scaling(train.item_counts(), s, neutral_missing=True)
    v = _item_spectrum(train.users, train.items, (m, n), scaling.d, r, seed)
    # C order, as load_model returns it: the layout decides how BLAS rounds scores
    return SVDModel(v=np.ascontiguousarray(v), scaling=scaling, regime="plain")


# ---------------------------------------------------------------------------
# locally attentive tensor factorization over the hankelized tensor


def _position_cores(tensor, dvals, u, v):
    """Per-position compressed slices ``C[q] = V^T diag(d) X_q U`` (K x r2 x r1).

    Entries are grouped by position and each core is one small product over
    the entries at that position, so no nnz x r temporary is formed.
    """
    ii, jj, kk = tensor.users, tensor.items, tensor.positions - 1
    k = tensor.shape[2]
    order = np.argsort(kk, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(kk, minlength=k))))
    cores = np.zeros((k, v.shape[1], u.shape[1]))
    for q in range(k):
        sel = order[bounds[q]:bounds[q + 1]]
        cores[q] = (v[jj[sel]] * dvals[sel, None]).T @ u[ii[sel]]
    return cores


def _core_gram(cores):
    """``C C^T`` (K x K) of the flattened position cores."""
    flat = cores.reshape(len(cores), -1)
    return flat @ flat.T


def la_mode_operator(tensor, factors, attention, cache, mode):
    """Compressed unfolding of the weighted hankelized tensor.

    The two window dimensions are virtual: every COO entry addresses the single
    non-zero skew diagonal of its one-hot Hankel slice, so no Hankel matrix is
    ever materialized. Modes 1/2 contract the skew blocks with the input once
    per position and then touch each entry once (scatter or gather):
    O(nnz + n*K*r + K*r3*r4*r) per matvec/rmatvec. Modes 3/4 reduce the
    entries to per-position cores C once (K x r2*r1, flattened) and apply
    through them and the shift stack S of W_S (mode 3, with A^T taken in once
    at build) or W_A (mode 4), O(K*(window or offsets)*r + K*r2*r1*r) per
    call. They reuse ``factors["cores"]`` (the :func:`_position_cores` of U
    and V) and its ``"core_gram"`` when set, and build them otherwise.

    A mode reads every factor of U, V, W_A = A W_L and W_S but the one it
    solves (mode 3 solves W_L: no W_A), checking their rows against m, n,
    ``attention.size`` and K - ``attention.size`` + 1. Modes 1/2 build the
    skew blocks of W_A and W_S unless given a ``cache`` of those two arrays.

    Modes 1/2 have one builder of their unfolding Y, over chunks of c of
    ``other``'s columns: per-(row, position) sums of the entries, contracted
    with the skew blocks of r4*r3 positions per product. Each chunk and its
    nnz x c per-entry products stay within a quarter of what is built:
    ``dense`` writes the chunks into one array, and a wide mode also carries
    ``gram``, Y Y^T summed chunk by chunk. Modes 3/4 carry the window
    x window (offset x offset) ``gram`` ``sum_a S_a^T (C C^T) S_a`` over that
    stack; only ``exact_svd`` materializes them, from one apply per row or
    column. ``truncated_svd`` decides whether a Gram is solved at all.
    """
    if mode not in (1, 2, 3, 4):
        raise ValueError(f"mode must be 1..4, got {mode}")
    ii, jj, kk = tensor.users, tensor.items, tensor.positions - 1
    m, n, k = tensor.shape
    rows = {"U": m, "V": n, "W_A": attention.size, "W_S": k - attention.size + 1}
    del rows[("U", "V", "W_A", "W_S")[mode - 1]]
    if any(factors[name].shape[0] != size for name, size in rows.items()):
        raise ValueError("factor shapes do not match tensor dimensions")
    dvals = factors["scaling"].d[jj]
    if mode in (1, 2):
        if cache is None:
            cache = skew_block_cache(factors["W_A"], factors["W_S"])
        elif not cache.matches(factors["W_A"], factors["W_S"]):
            raise ValueError("stale skew-block cache: factors changed since it was built")
        _, r3, r4 = cache.blocks.shape
        # blocks[q] transposed and flattened to the (r4, r3) column order of z
        flat_blocks = cache.blocks.transpose(0, 2, 1).reshape(k, r4 * r3)
        other = factors["V"] if mode == 1 else factors["U"]
        along, across = (ii, jj) if mode == 1 else (jj, ii)
        out_dim = m if mode == 1 else n
        other_dim, r_other = other.shape
        cell = across * k + kk

        def matvec(z):
            per_position = flat_blocks @ np.reshape(z, (r4 * r3, r_other))
            g = other @ per_position.T
            return np.bincount(along, weights=dvals * g.ravel()[cell], minlength=out_dim)

        def rmatvec(y):
            h = np.bincount(cell, weights=np.asarray(y)[along] * dvals,
                            minlength=other_dim * k).reshape(other_dim, k)
            return (flat_blocks.T @ (h.T @ other)).ravel()

        step = r4 * r3

        def chunks(budget):
            # Y over successive chunks of other's columns, each as wide as
            # keeps the chunk and its nnz x width per-entry products within
            # ``budget`` numbers. Row i is sum_q flat_blocks[q] (x)
            # S_q[i], where S_q[i] sums d * other[across] over row i's entries
            # at position q. The sums are taken per (position, row) pair; a
            # run of r4*r3 positions, whose S is no larger than the output, is
            # one product.
            width = max(1, budget // max(len(kk), out_dim * step))
            key = kk * out_dim + along
            order = np.argsort(key, kind="stable")
            key = key[order]
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            key, other_rows, weights = key[starts], across[order], dvals[order, None]
            del order
            for lo in range(0, r_other, width):
                hi = min(lo + width, r_other)
                sums = products = None  # the last chunk's go before these are made
                products = other[other_rows, lo:hi]
                products *= weights
                sums = np.add.reduceat(products, starts, axis=0)
                out = np.zeros((step, out_dim * (hi - lo)))
                for q in range(0, k, step):
                    q_hi = min(q + step, k)
                    first, last = np.searchsorted(key, (q * out_dim, q_hi * out_dim))
                    s_run = np.zeros(((q_hi - q) * out_dim, hi - lo))
                    s_run[key[first:last] - q * out_dim] = sums[first:last]
                    out += flat_blocks[q:q_hi].T @ s_run.reshape(q_hi - q, -1)
                yield lo, out.reshape(step, out_dim, hi - lo).transpose(1, 0, 2)

        def dense():  # Y, chunk by chunk into one array, each chunk a quarter of it
            y = np.empty((out_dim, step, r_other))
            for lo, chunk in chunks(y.size // 4):
                y[:, :, lo:lo + chunk.shape[2]] = chunk
            return y.reshape(out_dim, -1)

        def gram():  # Y Y^T over chunks of at most a quarter of it
            g = np.zeros((out_dim, out_dim))
            for _, chunk in chunks(out_dim * out_dim // 4):
                y = chunk.reshape(out_dim, -1)
                g += y @ y.T
            return g

        op = ImplicitMatrix(shape=(out_dim, step * r_other), matvec=matvec, rmatvec=rmatvec)
        op.dense = dense
        if out_dim < op.shape[1]:
            op.gram = gram
        return op
    cores, core_gram = factors.get("cores"), factors.get("core_gram")
    if cores is None:
        cores, core_gram = _position_cores(tensor, dvals, factors["U"], factors["V"]), None
    flat = cores.reshape(k, -1)
    # shift[:, :, a] is S_a: the unfolding is [S_0^T C, S_1^T C, ...] over
    # the flattened cores C. On mode 3 every shift[q] becomes A^T shift[q].
    shift = _shift_stack(factors["W_S"] if mode == 3 else factors["W_A"], k)
    if mode == 3:
        shift = attention.apply_transpose(shift)
    out_dim, r_shift = shift.shape[1:]

    def matvec(z):
        return np.einsum("qja,qa->j", shift, flat @ np.reshape(z, (r_shift, -1)).T)

    def rmatvec(y):
        return (np.einsum("qja,j->qa", shift, y).T @ flat).ravel()

    def gram():
        c_ct = _core_gram(cores) if core_gram is None else core_gram
        return np.tensordot(shift, np.tensordot(c_ct, shift, 1), axes=([0, 2], [0, 2]))

    op = ImplicitMatrix(shape=(out_dim, r_shift * flat.shape[1]), matvec=matvec, rmatvec=rmatvec)
    op.gram = gram
    return op


@dataclass(frozen=True)
class LocalAttentionModel(_FactorModel):
    """Tensor factorization with attention confined to a sliding recency window."""

    v: np.ndarray = field(repr=False)
    w_l: np.ndarray = field(repr=False)
    w_l_hat: np.ndarray = field(repr=False)
    w_s: np.ndarray = field(repr=False)
    attention: AttentionMatrix
    scaling: ScalingDiag
    regime: str
    ranks: tuple
    max_position: int

    kind = "local"

    @cached_property
    def position_profile(self):
        """Weight of each of the K - 1 positions a history shifts into, oldest
        first: the attended window profile convolved with the offset profile.

        It does not depend on the history, so it is computed once per model.
        """
        left = self.attention.apply(self.w_l @ self.w_l_hat[-1])
        right = self.w_s @ self.w_s[-1]
        return np.convolve(left, right)[: self.max_position - 1]

    def history_weights(self, history):
        # The most recent item moves to position K - 1; items shifted past
        # position 1 (all but the K - 1 most recent) drop out. A repeated
        # item sums its positions' weights, the row sum of the user's slice.
        profile = self.position_profile
        recent = np.asarray(history, dtype=np.int64)
        recent = recent[max(len(recent) - len(profile), 0):]
        return recent, profile[len(profile) - len(recent):]


def _newest_slots(size, r):
    """Unit vectors of the r newest of ``size`` right-aligned slots, newest
    first. Each entry of the unattended hankelized tensor fills one skew
    diagonal, so its window and offset Grams are diagonal, and right alignment
    makes their weights grow toward the newest slot: these are their leading
    eigenvectors."""
    return np.eye(size)[:, ::-1][:, :r]


def feasible_ranks(dims, ranks):
    """Tucker ranks fit dims: each 1 ≤ r ≤ its mode's size and the others' product (r² ≤ Π)."""
    return all(1 <= r <= d and r * r <= math.prod(ranks) for r, d in zip(ranks, dims))


class LocalAttentionTrainer:
    """Alternating sweeps over the modes of the hankelized tensor: one solve
    per entry of ``modes``, whose ``truncated_svd`` record ``solves`` keeps
    (a solve that raised included). A sweep passes one factor dict to its
    mode operators. ``init`` may supply V, W_L and W_S; other keys raise."""

    model_class = LocalAttentionModel

    def __init__(self, tensor, window, attention, ranks, s=1.0, seed=0,
                 regime="plain", exact_svd=False, init=None):
        m, n, k = tensor.shape
        if not 1 <= window <= k:
            raise ValueError(f"window must be in [1, {k}], got {window}")
        r1, r2, r3, r4 = ranks
        k_s = k - window + 1
        if not feasible_ranks((m, n, window, k_s), (r1, r2, r3, r4)):
            raise ValueError(f"ranks {ranks} infeasible for shape {(m, n, window, k_s)}")
        if attention.size != window:
            raise ValueError("attention size must equal the window size")
        self.tensor = tensor
        self.attention = attention
        self.ranks = (r1, r2, r3, r4)
        # (mode, rank) per solve. With one offset W_S is a 1 x 1 orthonormal
        # +-1: there is nothing to solve, scores depend on W_S ** 2 only, and
        # mode 3 already holds the fit.
        self.modes = list(enumerate(self.ranks, 1))[:4 if k_s > 1 else 3]
        self.scaling = build_scaling(tensor.item_counts(), s, neutral_missing=True)
        self.seed = seed
        self.regime = regime
        self.exact_svd = exact_svd
        # A factor init does not supply starts without a draw: V from the
        # user-item spectrum, W_L and W_S as the newest window rows and offsets.
        init = init or {}
        if init.keys() - {"V", "W_L", "W_S"}:
            raise ValueError(f"init takes V, W_L and W_S, got {sorted(init)}")
        self.v = init["V"] if "V" in init else _item_spectrum(
            tensor.users, tensor.items, (m, n), self.scaling.d, r2, seed, exact_svd)
        self.w_l = init.get("W_L", _newest_slots(window, r3))
        self.w_s = init.get("W_S", _newest_slots(k_s, r4))
        self.u = None
        self.sweep_count = 0
        self.fit_history = []
        self.solves = []

    def sweep(self):
        factors = {"U": self.u, "V": self.v, "W_A": self.attention.apply(self.w_l),
                   "W_S": self.w_s, "scaling": self.scaling}
        for mode, rank in self.modes:
            self.solves.append({"sweep": self.sweep_count + 1, "mode": mode})
            op = la_mode_operator(self.tensor, factors, self.attention, None, mode)
            seed = self.seed + 1000 + 10 * self.sweep_count + mode
            factor, _ = truncated_svd(op, rank, seed=seed, exact=self.exact_svd,
                                      record=self.solves[-1])
            setattr(self, ("u", "v", "w_l", "w_s")[mode - 1], factor)
            factors[("U", "V", "W_A", "W_S")[mode - 1]] = (
                self.attention.apply(factor) if mode == 3 else factor)
            if mode == 2:
                # U and V stay fixed: modes 3/4 share one set of position cores and its Gram
                cores = _position_cores(self.tensor, self.scaling.d[self.tensor.items],
                                        self.u, self.v)
                factors.update(cores=cores, core_gram=_core_gram(cores))
        self.sweep_count += 1
        self.fit_history.append(self.solves[-1]["fit"])

    def snapshot(self):
        return self.model_class(
            v=self.v.copy(),
            w_l=self.w_l.copy(),
            w_l_hat=np.ascontiguousarray(triangular_restore(self.attention, self.w_l)),
            w_s=self.w_s.copy(),
            attention=self.attention,
            scaling=self.scaling,
            regime=self.regime,
            ranks=self.ranks,
            max_position=self.tensor.max_position,
        )


def train_lasatf(tensor, window, f, ranks, s=1.0, seed=0, sweeps=4, exact_svd=False,
                 init=None):
    """The windowed model after ``sweeps`` sweeps, in the plain regime."""
    trainer = LocalAttentionTrainer(tensor, window, build_attention(window, f=f), ranks,
                                    s=s, seed=seed, exact_svd=exact_svd, init=init)
    for _ in range(sweeps):
        trainer.sweep()
    return trainer.snapshot()


# ---------------------------------------------------------------------------
# whole-sequence attention: the windowed model at window = K, with one offset


def ga_mode_operator(tensor, factors, attention, scaling, mode):
    """The windowed operator at window = K, whose single offset carries the
    factor W_S = [[1]]: the tensor scaled by the item diagonal on mode 2, with
    the attention transpose applied on mode 3, in the same column orders.
    :func:`la_mode_operator` checks the factors and builds the skew blocks.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2, or 3, got {mode}")
    factors = dict(factors, W_S=np.ones((1, 1)), scaling=scaling)
    return la_mode_operator(tensor, factors, attention, None, mode)


class GlobalAttentionModel(LocalAttentionModel):
    """Tensor factorization with whole-sequence positional attention."""

    kind = "global"

    @property
    def w(self):
        return self.w_l


class GlobalAttentionTrainer(LocalAttentionTrainer):
    """HOOI over the user, item and position modes: the windowed trainer at
    window = K with ranks ``(r1, r2, r3, 1)`` and W_S fixed at [[1]]."""

    model_class = GlobalAttentionModel

    def __init__(self, tensor, attention, ranks, s=1.0, seed=0,
                 regime="plain", exact_svd=False, init=None):
        init = init or {}
        if init.keys() - {"V", "W", "W_L"} or {"W", "W_L"} <= init.keys():
            raise ValueError(f"init takes V and one of W or W_L, got {sorted(init)}")
        init = {"W_L" if key == "W" else key: val for key, val in init.items()}
        super().__init__(tensor, tensor.shape[2], attention, (*ranks, 1), s=s, seed=seed,
                         regime=regime, exact_svd=exact_svd, init=init | {"W_S": np.ones((1, 1))})
        # the model and its saved meta keep the caller's three ranks
        self.ranks = tuple(ranks)


def train_gasatf(tensor, f, ranks, s=1.0, seed=0, sweeps=4, attention_mode="power-decay",
                 exact_svd=False, init=None):
    """The whole-sequence model after ``sweeps`` sweeps, in the plain regime."""
    attention = build_attention(tensor.max_position, f=f, mode=attention_mode)
    trainer = GlobalAttentionTrainer(tensor, attention, ranks, s=s, seed=seed,
                                     exact_svd=exact_svd, init=init)
    for _ in range(sweeps):
        trainer.sweep()
    return trainer.snapshot()


# ---------------------------------------------------------------------------
# prediction and serialization


def _screened_top(model, h, seen, n):
    """The top n of ``model._scores(h)``, with the ``seen`` items (None for
    none) at ``-inf``, ranked from a float32 screen of the catalog; None when
    the screen cannot decide them, which leaves them to the float64 scores.

    The screen scores the catalog with ``_screen``'s float32 V and h rounded
    to float32. Each screened score rounds r + 3 times (V's entries, over d
    when restored, h's entries and r terms of the product), so by
    :func:`_gamma` it lies within ``gamma32_{r+3} beta ||h||`` of the exact
    score, and a float64 score within ``tau64`` (:meth:`_FactorModel._tau64`).
    ``tau``, the sum of both, takes the float32 term's k one higher, as
    ``tau64`` does, which leaves room for the rounding of the bounds and of
    the cutoff. Every item of the float64 top n then screens at least
    ``c - 2 tau``, where c is the n-th highest screened score, and those
    candidates are rescored in float64. A product over gathered rows of V
    may round unlike the catalog's (OpenBLAS takes the rows left over from
    its 4-row blocks through another kernel), so a rescored score lies
    within ``2 tau64`` of ``_scores(h)``'s, and the candidates' top n + 1
    must each be more than ``4 tau64`` apart to keep their order. A tie
    never is.

    The relative bounds hold where nothing overflows or underflows. With
    beta and ``||h||`` in [2^-40, 2^40], float32 never overflows, and an
    underflow, at most ``2^-150 (r ||h|| + sqrt(r) beta + 2 r)`` in all,
    stays far inside the room k leaves; outside that range the screen is
    not taken.
    """
    norm = math.sqrt(h.dot(h))
    if model._screen is None or not 2.0 ** -40 <= norm <= 2.0 ** 40:
        return None
    scores = model._screen.dot(h.astype(np.float32)).astype(float)
    if seen is not None:
        scores[seen] = -np.inf
    kth = max(len(scores) - n, 0)
    cutoff = np.partition(scores, kth)[kth]
    if not math.isfinite(cutoff):  # fewer than n unseen items
        return None
    tau64 = model._tau64(norm)
    # 2 ** -24 is float32's unit roundoff
    tau = _gamma(len(h) + 4, 2.0 ** -24) * model._beta * norm + tau64
    candidates = (scores >= cutoff - 2 * tau).nonzero()[0]
    exact = model._scores(h, candidates)
    order = (-exact).argsort(kind="stable")
    head = exact[order[:n + 1]]
    if (head[:-1] - head[1:] > 4 * tau64).all():
        return candidates[order[:n]]
    return None


def predict_next(model, history, n, exclude_seen=True):
    """Top-n next-item candidates for an ordered history of item indices.

    Unknown items are dropped; an empty usable history raises
    :class:`ColdUserError`, and a history NumPy does not read as integers
    raises ``ValueError``. Ties are broken by ascending item index. A factor
    model whose V holds at least :data:`SCREEN_MIN_ENTRIES` entries ranks
    from a float32 screen and a float64 rescore of its candidates
    (:func:`_screened_top`), and gives the same list.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(history, np.ndarray) and history.ndim == 1:
        entries = hist = history
    else:
        entries = list(history)
        hist = np.asarray(entries)
    # NumPy reads a bool among ints as 0 or 1, so a list's entry types are scanned
    if hist.dtype.kind not in "iu" or (entries is not hist and not
                                       {bool, np.bool_}.isdisjoint(map(type, entries))):
        for entry in entries:
            if isinstance(entry, bool) or not isinstance(entry, (int, np.integer)):
                raise ValueError(f"history entry {entry!r} is not an integer item index")
    hist = hist.astype(np.int64, copy=False)
    hist = hist[(hist >= 0) & (hist < model.n_items)]
    if len(hist) == 0:
        raise ColdUserError("cold user: no usable history")
    if isinstance(model, _FactorModel) and model.v.size >= SCREEN_MIN_ENTRIES:
        h = model._projection(hist)
        top = _screened_top(model, h, hist if exclude_seen else None, n)
        if top is not None:
            return top
        scores = model._scores(h)
    else:
        scores = np.asarray(model.score_history(hist), dtype=float)
    if exclude_seen:
        scores[hist] = -np.inf
    # Exact partial selection: every item scoring at least the n-th largest
    # value, ordered by score and then index (a stable sort of the candidates,
    # which are in index order), is the head of the full ranking.
    kth = max(len(scores) - n, 0)
    cutoff = np.partition(scores, kth)[kth]
    candidates = (scores >= cutoff).nonzero()[0]
    return candidates[(-scores[candidates]).argsort(kind="stable")][:n]


def save_model(model, path):
    """Serialize a model to a self-describing npz container (bit-exact round trip).

    A whole-sequence model is stored as the windowed model it is, with
    ``w_s = [[1]]`` and ``max_position = K``.
    """
    meta = {"kind": model.kind, "version": MODEL_FORMAT_VERSION}
    if model.kind == "mp":
        arrays = {"counts": model.counts}
    elif model.kind in ("svd", "global", "local"):
        meta.update(regime=model.regime, s=model.scaling.s)
        arrays = {"v": model.v}
        if model.kind != "svd":
            att = model.attention
            meta.update(ranks=list(model.ranks), max_position=model.max_position,
                        attention={"size": att.size, "f": att.f, "mode": att.mode})
            arrays.update(w_l=model.w_l, w_l_hat=model.w_l_hat, w_s=model.w_s)
        arrays["d"] = model.scaling.d
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    _write_archive(path, meta, {k: np.ascontiguousarray(a, dtype=np.float64)
                                for k, a in arrays.items()})


def load_model(path):
    """The model save_model wrote to path; ValueError if it cannot be read."""
    def build(meta, data):
        kind = meta["kind"]
        if kind == "mp":
            return MPModel(counts=data["counts"].astype(np.int64))
        scaling = ScalingDiag(d=data["d"], s=meta["s"])
        if kind == "svd":
            return SVDModel(v=data["v"], scaling=scaling, regime=meta["regime"])
        if kind not in ("global", "local"):
            raise ValueError(f"unknown model kind {kind!r}")
        att = meta["attention"]
        return (GlobalAttentionModel if kind == "global" else LocalAttentionModel)(
            v=data["v"], w_l=data["w_l"], w_l_hat=data["w_l_hat"], w_s=data["w_s"],
            attention=build_attention(att["size"], f=att["f"], mode=att["mode"]),
            scaling=scaling, regime=meta["regime"], ranks=tuple(meta["ranks"]),
            max_position=meta["max_position"])

    return _read_archive(path, MODEL_FORMAT_VERSION, build, "model")

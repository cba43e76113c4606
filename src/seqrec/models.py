"""Recommender models: popularity, SVD projectors, and attentive tensor factorizations."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .attention import AttentionMatrix, build_attention, triangular_restore
from .linalg import ImplicitMatrix, random_orthonormal, skew_block_cache, truncated_svd

__all__ = [
    "ColdUserError",
    "ScalingDiag",
    "build_scaling",
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
    "ga_mode_operator",
    "la_mode_operator",
    "predict_next",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


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


def _project_scores(v, scaling, regime, p):
    """Item-space projection of a preference vector, with optional debias regime."""
    if regime == "plain":
        return v @ (v.T @ p)
    if regime == "restored":
        d = scaling.d
        return (v @ (v.T @ (d * p))) / d
    raise ValueError(f"unknown regime {regime!r}")


# ---------------------------------------------------------------------------
# baselines


@dataclass(frozen=True)
class MPModel:
    counts: np.ndarray = field(repr=False)

    kind = "mp"

    @property
    def n_items(self):
        return len(self.counts)

    @property
    def ranking(self):
        return np.lexsort((np.arange(self.n_items), -self.counts))

    def score_history(self, history):
        return self.counts.astype(float)


def train_mp(train):
    return MPModel(counts=train.item_counts())


@dataclass(frozen=True)
class SVDModel:
    v: np.ndarray = field(repr=False)
    scaling: ScalingDiag
    regime: str

    kind = "svd"

    @property
    def n_items(self):
        return self.v.shape[0]

    def score_history(self, history):
        p = np.zeros(self.n_items)
        p[np.asarray(history, dtype=np.int64)] = 1.0
        return _project_scores(self.v, self.scaling, self.regime, p)


def train_puresvd(train, r, s=1.0, regime="plain", seed=0):
    """Top-r right singular vectors of the popularity-scaled binary matrix."""
    m, n = train.n_users, train.n_items
    if r > min(m, n):
        raise ValueError(f"rank {r} infeasible for a {m} x {n} matrix")
    scaling = build_scaling(train.item_counts(), s, neutral_missing=True)
    x = sp.csr_matrix(
        (np.ones(len(train)), (train.users, train.items)), shape=(m, n)
    ) @ sp.diags(scaling.d)
    xt = x.T.tocsr()
    op = ImplicitMatrix(shape=(n, m), matvec=lambda z: xt @ z, rmatvec=lambda z: x @ z)
    v, _ = truncated_svd(op, r, seed=seed)
    return SVDModel(v=v, scaling=scaling, regime=regime)


# ---------------------------------------------------------------------------
# locally attentive tensor factorization over the hankelized tensor


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


def la_mode_operator(tensor, factors, attention, cache, mode):
    """Compressed unfolding of the weighted hankelized tensor.

    The two window dimensions are virtual: every COO entry addresses the single
    non-zero skew diagonal of its one-hot Hankel slice, so no Hankel matrix is
    ever materialized. Modes 1/2 contract the skew blocks with the input once
    per position and then touch each entry once (scatter or gather). Modes 3/4
    reduce the entries to per-position cores once and keep the explicit
    window x r4*r2*r1 (or offset x r3*r2*r1) matrix. Each matvec/rmatvec costs
    O(nnz + n*K*r + K*r3*r4*r) for modes 1/2 and one dense product for 3/4.
    Modes 3/4 reuse ``factors["cores"]``, the :func:`_position_cores` of U
    and V, when it is set, and build the cores otherwise.
    """
    ii, jj, kk = tensor.users, tensor.items, tensor.positions - 1
    m, n, k = tensor.shape
    scaling = factors["scaling"]
    dvals = scaling.d[jj]
    if mode in (1, 2):
        if cache is None or not cache.matches(factors["W_A"], factors["W_S"]):
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

        return ImplicitMatrix(shape=(out_dim, r4 * r3 * r_other), matvec=matvec, rmatvec=rmatvec)
    if mode in (3, 4):
        cores = factors.get("cores")
        if cores is None:
            cores = _position_cores(tensor, dvals, factors["U"], factors["V"])
        shift = _shift_stack(factors["W_S"] if mode == 3 else factors["W_A"], k)
        out_dim = shift.shape[1]
        unfolding = np.tensordot(shift, cores, axes=([0], [0])).reshape(out_dim, -1)
        if mode == 3:
            unfolding = attention.apply_transpose(unfolding)

        def matvec(z):
            return unfolding @ z

        def rmatvec(y):
            return unfolding.T @ y

        return ImplicitMatrix(shape=unfolding.shape, matvec=matvec, rmatvec=rmatvec)
    raise ValueError(f"mode must be 1..4, got {mode}")


@dataclass(frozen=True)
class LocalAttentionModel:
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

    @property
    def n_items(self):
        return self.v.shape[0]

    @cached_property
    def position_profile(self):
        """Weight of each of the K - 1 positions a history shifts into, oldest
        first: the attended window profile convolved with the offset profile.

        It does not depend on the history, so it is computed once per model.
        """
        left = self.attention.apply(self.w_l @ self.w_l_hat[-1])
        right = self.w_s @ self.w_s[-1]
        return np.convolve(left, right)[: self.max_position - 1]

    def score_history(self, history):
        # The most recent item moves to position K - 1; items shifted past
        # position 1 (all but the K - 1 most recent) drop out.
        profile = self.position_profile
        recent = np.asarray(history, dtype=np.int64)
        recent = recent[max(len(recent) - len(profile), 0):]
        p = np.zeros(self.n_items)
        p[recent] = profile[len(profile) - len(recent):]
        return _project_scores(self.v, self.scaling, self.regime, p)


class LocalAttentionTrainer:
    """Alternating sweeps over the four modes of the hankelized tensor,
    rebuilding skew-block caches whenever a source factor changes."""

    model_class = LocalAttentionModel

    def __init__(self, tensor, window, attention, ranks, s=1.0, seed=0,
                 regime="plain", exact_svd=False, init=None):
        m, n, k = tensor.shape
        if not 1 <= window <= k:
            raise ValueError(f"window must be in [1, {k}], got {window}")
        r1, r2, r3, r4 = ranks
        k_s = k - window + 1
        if r1 > m or r2 > n or r3 > window or r4 > k_s:
            raise ValueError(f"ranks {ranks} infeasible for shape {(m, n, window, k_s)}")
        if attention.size != window:
            raise ValueError("attention size must equal the window size")
        self.tensor = tensor
        self.window = window
        self.k_s = k_s
        self.attention = attention
        self.ranks = (r1, r2, r3, r4)
        self.scaling = build_scaling(tensor.item_counts(), s, neutral_missing=True)
        self.seed = seed
        self.regime = regime
        self.exact_svd = exact_svd
        init = init or {}
        self.v = init.get("V", random_orthonormal(n, r2, seed))
        self.w_l = init.get("W_L", random_orthonormal(window, r3, seed + 1))
        self.w_s = init.get("W_S", random_orthonormal(k_s, r4, seed + 2))
        self.w_a = attention.apply(self.w_l)
        self.u = None
        self.sweep_count = 0
        self.fit_history = []

    def _svd(self, op, r, tag):
        return truncated_svd(op, r, seed=self.seed + 1000 + 10 * self.sweep_count + tag,
                             exact=self.exact_svd)

    def _factors(self, cores=None):
        return {"U": self.u, "V": self.v, "W_A": self.w_a, "W_S": self.w_s,
                "scaling": self.scaling, "cores": cores}

    def sweep(self):
        r1, r2, r3 = self.ranks[:3]
        cache = skew_block_cache(self.w_a, self.w_s)
        self.u, _ = self._svd(
            la_mode_operator(self.tensor, self._factors(), self.attention, cache, 1), r1, 1)
        self.v, _ = self._svd(
            la_mode_operator(self.tensor, self._factors(), self.attention, cache, 2), r2, 2)
        # U and V are fixed for the rest of the sweep, so modes 3 and 4 share
        # one set of position cores.
        cores = _position_cores(self.tensor, self.scaling.d[self.tensor.items],
                                self.u, self.v)
        self.w_l, svals = self._svd(
            la_mode_operator(self.tensor, self._factors(cores), self.attention, None, 3),
            r3, 3)
        self.w_a = self.attention.apply(self.w_l)
        # With one offset W_S is a 1 x 1 orthonormal +-1: there is nothing to
        # solve, scores depend on W_S ** 2 only, and mode 3 already holds the fit.
        if self.k_s > 1:
            self.w_s, svals = self._svd(
                la_mode_operator(self.tensor, self._factors(cores), self.attention, None, 4),
                self.ranks[3], 4)
        self.sweep_count += 1
        self.fit_history.append(float(np.sum(svals ** 2)))

    def snapshot(self):
        return self.model_class(
            v=self.v.copy(),
            w_l=self.w_l.copy(),
            w_l_hat=triangular_restore(self.attention, self.w_l),
            w_s=self.w_s.copy(),
            attention=self.attention,
            scaling=self.scaling,
            regime=self.regime,
            ranks=self.ranks,
            max_position=self.tensor.max_position,
        )


def train_lasatf(tensor, window, f, ranks, s=1.0, seed=0, sweeps=4, regime="plain",
                 attention_mode="power-decay", exact_svd=False, init=None):
    attention = build_attention(window, f=f, mode=attention_mode)
    trainer = LocalAttentionTrainer(tensor, window, attention, ranks, s=s, seed=seed,
                                    regime=regime, exact_svd=exact_svd, init=init)
    for _ in range(sweeps):
        trainer.sweep()
    return trainer.snapshot()


# ---------------------------------------------------------------------------
# whole-sequence attention: the windowed model at window = K, with one offset


def ga_mode_operator(tensor, factors, attention, scaling, mode):
    """Compressed unfolding of the tensor scaled by the item diagonal on mode 2
    with the attention transpose applied on mode 3.

    This is the windowed operator at window = K, whose single offset carries
    the factor W_S = [[1]]; the column orders of the three modes coincide.
    """
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2, or 3, got {mode}")
    rows = dict(zip(("U", "V", "W_A"), tensor.shape))
    needed = {1: ("V", "W_A"), 2: ("U", "W_A"), 3: ("U", "V")}[mode]
    if any(factors[name].shape[0] != rows[name] for name in needed):
        raise ValueError("factor shapes do not match tensor dimensions")
    factors = dict(factors, W_S=np.ones((1, 1)), scaling=scaling)
    cache = skew_block_cache(factors["W_A"], factors["W_S"]) if mode < 3 else None
    return la_mode_operator(tensor, factors, attention, cache, mode)


class GlobalAttentionModel(LocalAttentionModel):
    """Tensor factorization with whole-sequence positional attention."""

    kind = "global"

    @property
    def w(self):
        return self.w_l

    @property
    def w_hat(self):
        return self.w_l_hat


class GlobalAttentionTrainer(LocalAttentionTrainer):
    """HOOI over the user, item and position modes: the windowed trainer at
    window = K with ranks ``(r1, r2, r3, 1)`` and W_S fixed at [[1]]."""

    model_class = GlobalAttentionModel

    def __init__(self, tensor, attention, ranks, s=1.0, seed=0,
                 regime="plain", exact_svd=False, init=None):
        init = dict(init or {})
        if "W" in init:
            init["W_L"] = init.pop("W")
        init["W_S"] = np.ones((1, 1))
        super().__init__(tensor, tensor.shape[2], attention, (*ranks, 1), s=s, seed=seed,
                         regime=regime, exact_svd=exact_svd, init=init)
        # the model and its saved params keep the caller's three ranks
        self.ranks = tuple(ranks)

    @property
    def w(self):
        return self.w_l


def train_gasatf(tensor, f, ranks, s=1.0, seed=0, sweeps=4, regime="plain",
                 attention_mode="power-decay", exact_svd=False, init=None):
    attention = build_attention(tensor.max_position, f=f, mode=attention_mode)
    trainer = GlobalAttentionTrainer(tensor, attention, ranks, s=s, seed=seed,
                                     regime=regime, exact_svd=exact_svd, init=init)
    for _ in range(sweeps):
        trainer.sweep()
    return trainer.snapshot()


# ---------------------------------------------------------------------------
# prediction and serialization


def predict_next(model, history, n, exclude_seen=True):
    """Top-n next-item candidates for an ordered history of item indices.

    Unknown items are dropped; an empty usable history raises
    :class:`ColdUserError`. Ties are broken by ascending item index.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    hist = np.asarray(list(history), dtype=np.int64)
    hist = hist[(hist >= 0) & (hist < model.n_items)]
    if len(hist) == 0:
        raise ColdUserError("cold user: no usable history")
    scores = np.asarray(model.score_history(hist), dtype=float)
    if exclude_seen:
        scores[hist] = -np.inf
    # Exact partial selection: every item scoring at least the n-th largest
    # value, ordered by score and then index (a stable sort of the candidates,
    # which are in index order), is the head of the full ranking.
    kth = max(len(scores) - n, 0)
    cutoff = np.partition(scores, kth)[kth]
    candidates = np.flatnonzero(scores >= cutoff)
    return candidates[np.argsort(-scores[candidates], kind="stable")][:n]


def _attention_params(att):
    return {"size": att.size, "f": att.f, "mode": att.mode}


def _attention_from_params(p):
    return build_attention(p["size"], f=p["f"], mode=p["mode"])


def save_model(model, path):
    """Serialize a model to a self-describing npz container (bit-exact round trip)."""
    params = {"kind": model.kind, "version": MODEL_FORMAT_VERSION}
    arrays = {}
    if model.kind == "mp":
        arrays["counts"] = model.counts
    elif model.kind == "svd":
        params.update(regime=model.regime, s=model.scaling.s)
        arrays.update(v=model.v, d=model.scaling.d)
    elif model.kind == "global":
        params.update(regime=model.regime, s=model.scaling.s, ranks=list(model.ranks),
                      attention=_attention_params(model.attention))
        arrays.update(v=model.v, w=model.w, w_hat=model.w_hat, d=model.scaling.d)
    elif model.kind == "local":
        params.update(regime=model.regime, s=model.scaling.s, ranks=list(model.ranks),
                      attention=_attention_params(model.attention),
                      max_position=model.max_position)
        arrays.update(v=model.v, w_l=model.w_l, w_l_hat=model.w_l_hat, w_s=model.w_s,
                      d=model.scaling.d)
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    np.savez(path, params=np.array(json.dumps(params)),
             **{k: np.ascontiguousarray(a, dtype=np.float64) for k, a in arrays.items()})


def load_model(path):
    with np.load(path, allow_pickle=False) as data:
        params = json.loads(str(data["params"]))
        if params["version"] != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {params['version']}")
        kind = params["kind"]
        if kind == "mp":
            return MPModel(counts=data["counts"].astype(np.int64))
        scaling = ScalingDiag(d=data["d"], s=params["s"])
        if kind == "svd":
            return SVDModel(v=data["v"], scaling=scaling, regime=params["regime"])
        if kind == "global":
            attention = _attention_from_params(params["attention"])
            return GlobalAttentionModel(
                v=data["v"], w_l=data["w"], w_l_hat=data["w_hat"], w_s=np.ones((1, 1)),
                attention=attention, scaling=scaling, regime=params["regime"],
                ranks=tuple(params["ranks"]), max_position=attention.size,
            )
        if kind == "local":
            return LocalAttentionModel(
                v=data["v"], w_l=data["w_l"], w_l_hat=data["w_l_hat"], w_s=data["w_s"],
                attention=_attention_from_params(params["attention"]),
                scaling=scaling, regime=params["regime"], ranks=tuple(params["ranks"]),
                max_position=params["max_position"],
            )
    raise ValueError(f"unknown model kind {kind!r}")

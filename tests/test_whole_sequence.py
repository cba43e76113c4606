"""Whole-sequence attention is the windowed model at window = K."""

import dataclasses

import numpy as np
import pytest

import seqrec.models
from helpers import propack_first
from oracles import random_tensor
from seqrec.attention import build_attention
from seqrec.models import (
    GlobalAttentionTrainer,
    LocalAttentionTrainer,
    train_gasatf,
    train_lasatf,
)


@pytest.mark.parametrize("exact_svd", [True, False])
@pytest.mark.parametrize("regime", ["plain", "restored"])
@pytest.mark.parametrize("shape, ranks", [((9, 8, 5), (4, 4, 3)),
                                          ((50, 80, 12), (10, 20, 5))])
def test_global_equals_windowed_at_window_k(monkeypatch, exact_svd, regime, shape, ranks):
    # (50, 80, 12) sends the 50 x 100 and 80 x 50 unfoldings to PROPACK once
    # every first run goes there
    propack_first(monkeypatch)
    modes = []
    operator = seqrec.models.la_mode_operator

    def recording(tensor, factors, attention, cache, mode):
        modes.append(mode)
        return operator(tensor, factors, attention, cache, mode)

    monkeypatch.setattr(seqrec.models, "la_mode_operator", recording)
    tensor = random_tensor(*shape, seed=3, min_len=2)
    k = shape[2]
    common = dict(s=0.5, seed=1, exact_svd=exact_svd)
    ga = GlobalAttentionTrainer(tensor, build_attention(k, f=1.0), ranks, regime=regime,
                                **common)
    la = LocalAttentionTrainer(tensor, k, build_attention(k, f=1.0), (*ranks, 1),
                               regime=regime, **common)
    for _ in range(3):
        ga.sweep()
        la.sweep()
    assert ga.fit_history == la.fit_history
    # one three-entry mode table: the same solves, none of them of mode 4
    assert ga.modes == la.modes == [(1, ranks[0]), (2, ranks[1]), (3, ranks[2])]
    solves = [[(r["sweep"], r["mode"], r["shape"], r["path"]) for r in t.solves] for t in (ga, la)]
    assert solves[0] == solves[1] and len(solves[0]) == 3 * 3
    assert [r["mode"] for r in ga.solves] == [1, 2, 3] * 3

    ga_model = dataclasses.replace(train_gasatf(tensor, f=1.0, ranks=ranks, sweeps=3, **common),
                                   regime=regime)
    la_model = dataclasses.replace(
        train_lasatf(tensor, window=k, f=1.0, ranks=(*ranks, 1), sweeps=3, **common),
        regime=regime)
    for hist in ([0], [2, 5], [1, 3, 4, 7]):
        assert np.array_equal(ga_model.score_history(hist), la_model.score_history(hist))
    assert modes and 4 not in modes

    # with two offsets the table has a fourth entry, and each sweep four solves
    windowed = LocalAttentionTrainer(tensor, k - 1, build_attention(k - 1, f=1.0), (*ranks, 1),
                                     regime=regime, **common)
    for _ in range(3):
        windowed.sweep()
    assert [(r["sweep"], r["mode"]) for r in windowed.solves] == [
        (sweep, mode) for sweep in (1, 2, 3) for mode in (1, 2, 3, 4)]

"""Acceptance gate: one test (or test group) per stated criterion."""

import json
import os
import time

import numpy as np
import pytest

from oracles import (
    dense_ga_unfoldings,
    dense_hankelized_tensor,
    dense_hooi,
    dense_la_unfoldings,
    random_tensor,
)
from helpers import MARKOV_ARC, make_log, markov_logs
from seqrec.attention import build_attention, triangular_restore
from seqrec.data import build_positional_tensor
from seqrec.evaluation import evaluate, ndcg_single
from seqrec.linalg import random_orthonormal, skew_block_cache
from seqrec.models import (
    GlobalAttentionTrainer,
    LocalAttentionModel,
    LocalAttentionTrainer,
    build_scaling,
    ga_mode_operator,
    la_mode_operator,
    train_gasatf,
    train_lasatf,
    train_mp,
)

TOL = 1e-10


class TestCriterion1DenseOracleEquivalence:
    """All streaming mode operators match dense materialization on random
    instances, through both the FFT and direct skew-block paths."""

    def test_fifty_random_instances(self):
        checked = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            m, n = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            k = int(rng.integers(2, 6))
            window = int(rng.integers(1, min(3, k) + 1))
            k_s = k - window + 1
            tensor = random_tensor(m, n, k, seed=1000 + seed)
            f = float(rng.choice([0.0, 0.5, 1.0]))
            s = float(rng.choice([0.0, 0.5, 1.0]))
            scaling = build_scaling(tensor.item_counts(), s, neutral_missing=True)
            r1, r2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            u = rng.standard_normal((m, r1))
            v = rng.standard_normal((n, r2))

            # whole-sequence attention operators (three modes)
            att = build_attention(k, f=f)
            r3 = int(rng.integers(1, min(3, k) + 1))
            w = rng.standard_normal((k, r3))
            ga_ref = dense_ga_unfoldings(tensor, scaling.d, att, u, v, w)
            ga_factors = {"U": u, "V": v, "W_A": att.apply(w)}
            for mode in (1, 2, 3):
                op = ga_mode_operator(tensor, ga_factors, att, scaling, mode)
                self._check(op, ga_ref[mode], rng)

            # windowed attention operators (four modes), FFT and direct caches
            watt = build_attention(window, f=f)
            r3w = int(rng.integers(1, window + 1))
            r4 = int(rng.integers(1, min(3, k_s) + 1))
            w_l = rng.standard_normal((window, r3w))
            w_s = rng.standard_normal((k_s, r4))
            la_ref = dense_la_unfoldings(tensor, scaling.d, watt, window,
                                         u, v, w_l, w_s)
            w_a = watt.apply(w_l)
            factors = {"U": u, "V": v, "W_A": w_a, "W_S": w_s,
                       "scaling": scaling}
            for use_fft in (False, True):
                cache = skew_block_cache(w_a, w_s, use_fft=use_fft)
                for mode in (1, 2):
                    op = la_mode_operator(tensor, factors, watt, cache, mode)
                    self._check(op, la_ref[mode], rng)
            for mode in (3, 4):
                op = la_mode_operator(tensor, factors, watt, None, mode)
                self._check(op, la_ref[mode], rng)
            checked += 1
        assert checked == 50

    @staticmethod
    def _check(op, ref, rng):
        assert op.shape == ref.shape
        z = rng.standard_normal(ref.shape[1])
        uu = rng.standard_normal(ref.shape[0])
        assert np.abs(op.matvec(z) - ref @ z).max() < TOL
        assert np.abs(op.rmatvec(uu) - ref.T @ uu).max() < TOL
        assert np.abs(op.materialize() - ref).max() < TOL


class TestCriterion2AlgorithmEquivalences:
    def test_identity_attention_matches_dense_hooi(self):
        tensor = random_tensor(8, 7, 5, seed=3)
        ranks = (4, 3, 2)
        v0 = random_orthonormal(7, 3, seed=11)
        w0 = random_orthonormal(5, 2, seed=12)
        ga = train_gasatf(tensor, f=0.0, ranks=ranks, seed=11, sweeps=3,
                          attention_mode="identity", exact_svd=True,
                          init={"V": v0, "W": w0})
        factors, _ = dense_hooi(tensor.to_dense(), ranks, {1: v0, 2: w0},
                                sweeps=3)
        assert np.abs(ga.v @ ga.v.T - factors[1] @ factors[1].T).max() < 1e-6
        assert np.abs(ga.w @ ga.w.T - factors[2] @ factors[2].T).max() < 1e-6

    def test_window_one_matches_third_order_model(self):
        tensor = random_tensor(9, 8, 4, seed=4)
        v0 = random_orthonormal(8, 3, seed=20)
        w0 = random_orthonormal(4, 2, seed=21)
        ga = train_gasatf(tensor, f=0.0, ranks=(3, 3, 2), seed=5, sweeps=3,
                          attention_mode="identity", exact_svd=True,
                          init={"V": v0, "W": w0})
        la = train_lasatf(tensor, window=1, f=0.0, ranks=(3, 3, 1, 2), seed=5,
                          sweeps=3, exact_svd=True,
                          init={"V": v0, "W_L": np.ones((1, 1)), "W_S": w0})
        assert np.abs(ga.v @ ga.v.T - la.v @ la.v.T).max() < 1e-6


class TestCriterion3RestoreInvariants:
    @pytest.mark.parametrize("f", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("size", [5, 50, 200])
    def test_restore_and_orthogonality(self, f, size):
        att = build_attention(size, f=f)
        w = random_orthonormal(size, min(6, size), seed=int(10 * f) + size)
        w_hat = triangular_restore(att, w)
        a = att.dense()
        assert np.abs(a.T @ w_hat - w).max() < TOL
        c = a @ a.T
        gram = w_hat.T @ c @ w_hat
        assert np.abs(gram - np.eye(w.shape[1])).max() < TOL


class TestCriterion4MonotoneFit:
    def test_global_model(self):
        tensor = random_tensor(12, 9, 6, seed=5)
        tr = GlobalAttentionTrainer(tensor, build_attention(6, f=1.0),
                                    (4, 3, 2), seed=2, exact_svd=True)
        for _ in range(6):
            tr.sweep()
        assert (np.diff(tr.fit_history) >= -TOL * max(tr.fit_history)).all()

    def test_local_model(self):
        tensor = random_tensor(12, 9, 6, seed=6)
        tr = LocalAttentionTrainer(tensor, 3, build_attention(3, f=0.5),
                                   (4, 3, 2, 2), seed=3, exact_svd=True)
        for _ in range(6):
            tr.sweep()
        assert (np.diff(tr.fit_history) >= -TOL * max(tr.fit_history)).all()


class TestCriterion5SyntheticSequentialSignal:
    """Deterministic 10-item successor-chain catalog, 200 users: the windowed
    attention model nails the next item while popularity cannot."""

    K = 3
    RANKS = (8, 8, 1, 2)

    def test_windowed_model_beats_popularity(self):
        train, ev = markov_logs()
        x = build_positional_tensor(train, self.K)
        la = train_lasatf(x, window=2, f=0.0, ranks=self.RANKS, seed=0,
                          sweeps=4)
        hr_la = evaluate(la, train, ev, n=1).hr
        mp = train_mp(train)
        hr_mp = evaluate(mp, train, ev, n=1).hr
        assert hr_la > 0.9
        assert hr_mp <= 1 / 10 + 0.1

    def test_threshold_against_dense_reference(self):
        # the same factorization computed by plain dense HOOI on the
        # materialized windowed tensor clears the same threshold
        train, ev = markov_logs()
        x = build_positional_tensor(train, self.K)
        att = build_attention(2, f=0.0)
        scaling = build_scaling(x.item_counts(), 1)
        y = dense_hankelized_tensor(x, scaling.d, att, 2)
        seed = 0
        init = {1: random_orthonormal(10, 8, seed),
                2: random_orthonormal(2, 1, seed + 1),
                3: random_orthonormal(2, 2, seed + 2)}
        factors, _ = dense_hooi(y, self.RANKS, init, sweeps=4)
        model = LocalAttentionModel(
            v=factors[1], w_l=factors[2],
            w_l_hat=triangular_restore(att, factors[2]),
            w_s=factors[3], attention=att, scaling=scaling, regime="plain",
            ranks=self.RANKS, max_position=self.K)
        assert evaluate(model, train, ev, n=1).hr > 0.9


class TestCriterion6EvaluationProtocolFidelity:
    def test_hand_computed_walk(self):
        # popularity counts [1,2,0,1,0] -> ranking [1,0,3,2,4]
        train = make_log([(0, 0, 0), (0, 1, 1), (1, 1, 2), (1, 3, 3)], 3, 5)
        test = make_log([(0, 3, 10), (1, 2, 11), (2, 1, 12), (2, 0, 13),
                         (2, 4, 14)], 3, 5)
        report = evaluate(train_mp(train), train, test, n=2)
        # step 1: u0 history [0,1] -> top2 [3,2], target 3 at rank 1
        # step 2: u1 history [1,3] -> top2 [0,2], target 2 at rank 2
        # step 3: u2 cold -> skipped; hidden item 1 joins their history
        # step 4: u2 history [1]  -> top2 [0,3], target 0 at rank 1
        # step 5: u2 history [1,0] -> top2 [3,2], target 4 missed
        assert report.hr == 3 / 4
        assert report.ndcg == pytest.approx((1.0 + ndcg_single(2, 2) + 1.0) / 4)
        assert report.cov == len({3, 2, 0}) / 5
        assert report.evaluated_count == 4
        assert report.skipped_cold_count == 1


class TestCriterion7Reproducibility:
    def test_tune_twice_identical(self, tmp_path):
        import yaml
        from seqrec.cli import main

        rows = ["user,item,timestamp"]
        rng = np.random.default_rng(0)
        for u in range(12):
            for t in range(4):
                rows.append(f"u{u},i{rng.integers(0, 8)},{t}")
        (tmp_path / "events.csv").write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "config.yaml"
        cfg.write_text(yaml.safe_dump({
            "seed": 7, "core": 1, "K": 3, "n": 2,
            "dataset": {"path": str(tmp_path / "events.csv")},
            "split": {"t_valid": 2, "t_test": 3},
            "output": str(tmp_path / "out"),
            "model": {"kind": "local", "window_values": [2],
                      "grid": {"r1": [2], "r2": [2], "r3": [1],
                               "r4": [1], "f": [0.0, 0.5, 1.0], "s": [1.0, 0.0],
                               "regime": ["plain"]}},
            "max_sweeps": 3, "patience": 1,
        }))
        assert main(["--config", str(cfg), "prepare"]) == 0

        def run():
            assert main(["--config", str(cfg), "tune"]) == 0
            best = (tmp_path / "out" / "best.json").read_text()
            log = [json.loads(l) for l in
                   (tmp_path / "out" / "grid_log.jsonl").read_text().splitlines()]
            for rec in log:
                rec.pop("wall_time")
            return best, log

        best_a, log_a = run()
        best_b, log_b = run()
        assert best_a == best_b
        assert log_a == log_b


@pytest.mark.slow
@pytest.mark.skipif("SEQREC_ML1M" not in os.environ,
                    reason="set SEQREC_ML1M to the ratings file to run")
class TestCriterion8MovieLensOrdering:
    def test_final_ndcg_ordering(self, tmp_path):
        import yaml
        from seqrec.cli import main

        # ratings.dat separates fields by "::"; the csv reader takes one character
        ratings = tmp_path / "ratings.csv"
        with open(os.environ["SEQREC_ML1M"]) as src, open(ratings, "w") as dst:
            dst.writelines(line.replace("::", ",") for line in src)
        base = {
            "seed": 0, "core": 5, "K": 200, "n": 10,
            "dataset": {"path": str(ratings), "header": False,
                        "user_col": 0, "item_col": 1, "time_col": 3},
            "split": {"valid_count": 32000, "test_count": 32000},
            "budget": 20, "max_sweeps": 6, "patience": 2,
        }
        grids = {
            "mp": {"kind": "mp"},
            "svd": {"kind": "svd",
                    "grid": {"rank": [300, 700, 1500], "s": [0.4, 0.6],
                             "regime": ["plain", "restored"]}},
            "local": {"kind": "local", "window_values": [40, 80],
                      "grid": {"r1": [500], "r2": [500], "r3": [10, 20],
                               "r4": [10, 20], "f": [0.0, 1.0],
                               "s": [0.4], "regime": ["plain"]}},
        }
        ndcg = {}
        for name, model in grids.items():
            out = tmp_path / name
            cfg = tmp_path / f"{name}.yaml"
            cfg.write_text(yaml.safe_dump(
                {**base, "model": model, "output": str(out)}))
            for command in ("prepare", "tune", "final"):
                assert main(["--config", str(cfg), command]) == 0
            record = json.loads(
                (out / "report.jsonl").read_text().splitlines()[-1])
            ndcg[name] = record["ndcg"]
        assert ndcg["local"] > ndcg["svd"] > ndcg["mp"]


class TestCriterion9ComplexityTrend:
    def test_item_rank_doubling_scales_linearly(self):
        # the per-sweep cost is dominated by terms linear in the item rank,
        # so doubling it should roughly double sweep time (3x slack band)
        tensor = random_tensor(400, 120, 40, seed=0, min_len=20)

        def sweep_time(r2):
            tr = GlobalAttentionTrainer(tensor, build_attention(40, f=1.0),
                                        (24, r2, 12), seed=0, exact_svd=True)
            tr.sweep()  # warm-up
            times = []
            for _ in range(3):
                start = time.perf_counter()
                tr.sweep()
                times.append(time.perf_counter() - start)
            return min(times)

        t1 = sweep_time(24)
        t2 = sweep_time(48)
        ratio = t2 / t1
        predicted = 2.0
        assert predicted / 3 < ratio < predicted * 3

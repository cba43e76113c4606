"""Command-line front-end: prepare/tune/final/report, exit codes, determinism."""

import gzip
import json

import pytest
import yaml

import seqrec.cli
import seqrec.models
from helpers import MARKOV_CYCLE, MARKOV_PHASES
from seqrec.cli import main
from seqrec.linalg import ConvergenceError
from seqrec.models import train_puresvd

TOY_ROWS = [
    (0, 0, 0), (0, 1, 1), (0, 2, 2), (0, 3, 3),
    (1, 0, 0), (1, 1, 1), (1, 2, 2),
    (2, 1, 0), (2, 2, 1), (2, 3, 2),
]


def _write_csv(path, rows):
    lines = ["user,item,timestamp"] + [f"u{u},i{j},{t}" for u, j, t in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_config(path, **config):
    path.write_text(yaml.safe_dump(config))


def _toy_config(tmp_path, **extra):
    csv = tmp_path / "events.csv"
    _write_csv(csv, TOY_ROWS)
    cfg = tmp_path / "config.yaml"
    base = {
        "seed": 0,
        "core": 1,
        "K": 3,
        "n": 2,
        "dataset": {"path": str(csv)},
        "split": {"t_valid": 2, "t_test": 3},
        "output": str(tmp_path / "out"),
    }
    base.update(extra)
    _write_config(cfg, **base)
    return cfg, tmp_path / "out"


class TestPrepare:
    def test_toy_stats(self, tmp_path):
        cfg, out = _toy_config(tmp_path)
        assert main(["--config", str(cfg), "prepare"]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert stats["users"] == 3
        assert stats["items"] == 4
        assert stats["interactions"] == 10
        assert stats["density"] == pytest.approx(10 / 12)
        assert stats["history_mean"] == pytest.approx(10 / 3)
        assert stats["history_median"] == 3.0
        assert stats["sizes"] == {"train": 6, "validation": 3, "test": 1}
        assert (out / "split.npz").exists()

    def test_missing_dataset_exit_3(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0, dataset={"path": str(tmp_path / "nope.csv")},
                      split={"t_valid": 1, "t_test": 2})
        assert main(["--config", str(cfg), "prepare"]) == 3

    def test_missing_seed_exit_2(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, dataset={"path": "x"})
        assert main(["--config", str(cfg), "prepare"]) == 2

    def test_out_of_range_timestamp_exit_1(self, tmp_path, capsys):
        cfg, _ = _toy_config(tmp_path)
        (tmp_path / "events.csv").write_text("user,item,timestamp\nu1,b,inf\n")
        assert main(["--config", str(cfg), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and len(err.strip().splitlines()) == 1

    def test_truncated_gzip_exit_1(self, tmp_path, capsys):
        cfg, _ = _toy_config(tmp_path)
        csv = tmp_path / "events.csv"
        csv.write_bytes(gzip.compress(csv.read_bytes())[:20])
        assert main(["--config", str(cfg), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gzip" in err
        assert len(err.strip().splitlines()) == 1

    def test_directory_dataset_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0, dataset={"path": str(tmp_path)},
                      split={"t_valid": 1, "t_test": 2})
        assert main(["--config", str(cfg), "prepare"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("missing file: ") and len(err.strip().splitlines()) == 1

    def test_unknown_preset_exit_2(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0)
        assert main(["--config", str(cfg), "--preset", "bogus", "prepare"]) == 2

    def test_bad_split_spec_exit_2(self, tmp_path):
        cfg, _ = _toy_config(tmp_path, split={"t_valid": 2})
        assert main(["--config", str(cfg), "prepare"]) == 2


SVD_GRID = {"kind": "svd", "grid": {"rank": [1, 2], "s": [0.0, 1.0],
                                    "regime": ["plain"]}}


def _tune_outputs(out):
    records = [json.loads(l) for l in (out / "grid_log.jsonl").read_text().splitlines()]
    for record in records:
        record.pop("wall_time")
    return records, (out / "best.json").read_text()


class TestTune:
    def test_restricted_grid_emits_four_lines(self, tmp_path):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        assert main(["--config", str(cfg), "tune"]) == 0
        lines = (out / "grid_log.jsonl").read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert record["split"] == "validation"
            assert record["kind"] == "svd"
            for key in ("hr", "ndcg", "cov", "wall_time", "sweep_count"):
                assert key in record
        best = json.loads((out / "best.json").read_text())
        assert best["config"]["rank"] in (1, 2)

    def test_window_rank_constraint_excludes_points(self, tmp_path):
        model = {"kind": "local", "window_values": [5],
                 "grid": {"r1": [2], "r2": [2], "r3": [1, 2, 5, 10], "r4": [1],
                          "f": [0.0], "s": [1.0], "regime": ["plain"]}}
        cfg, out = _toy_config(tmp_path, K=6, model=model, max_sweeps=2,
                               patience=1)
        assert main(["--config", str(cfg), "prepare"]) == 0
        assert main(["--config", str(cfg), "tune"]) == 0
        records = [json.loads(l) for l in
                   (out / "grid_log.jsonl").read_text().splitlines()]
        assert sorted(r["config"]["r3"] for r in records) == [1, 2]

    def test_rerun_same_seed_is_identical(self, tmp_path):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        assert main(["--config", str(cfg), "tune"]) == 0
        best_a = (out / "best.json").read_text()
        log_a = [json.loads(l) for l in
                 (out / "grid_log.jsonl").read_text().splitlines()]
        assert main(["--config", str(cfg), "tune"]) == 0
        best_b = (out / "best.json").read_text()
        log_b = [json.loads(l) for l in
                 (out / "grid_log.jsonl").read_text().splitlines()]
        assert best_a == best_b
        for rec in log_a + log_b:
            rec.pop("wall_time")
        assert log_a == log_b

    def test_svd_factorized_once_per_rank_and_s(self, tmp_path, monkeypatch):
        model = {"kind": "svd", "grid": {"rank": [2], "s": [0.0, 0.4],
                                         "regime": ["plain", "restored"]}}
        cfg, out = _toy_config(tmp_path, model=model)
        assert main(["--config", str(cfg), "prepare"]) == 0
        calls = []
        monkeypatch.setattr(seqrec.cli, "train_puresvd",
                            lambda *a, **k: calls.append(k) or train_puresvd(*a, **k))
        assert main(["--config", str(cfg), "tune"]) == 0
        assert [c["s"] for c in calls] == [0.0, 0.4]
        shared = _tune_outputs(out)

        # reference: every grid point trains its own factorization
        def per_point(kind, train_log, tensor, seed, config):
            return lambda p: train_puresvd(train_log, r=p["rank"], s=p["s"],
                                           regime=p["regime"], seed=seed)

        monkeypatch.setattr(seqrec.cli, "_factory", per_point)
        assert main(["--config", str(cfg), "tune"]) == 0
        assert len(calls) == 2
        assert shared == _tune_outputs(out)
        assert [r["config"]["regime"] for r in shared[0]] == ["plain", "restored"] * 2

    def test_without_prepare_exit_3(self, tmp_path):
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "tune"]) == 3

    @pytest.mark.parametrize("error", [
        ConvergenceError("truncated SVD failed to converge"),
        MemoryError(),
    ])
    def test_solver_failure_exit_1(self, tmp_path, monkeypatch, capsys, error):
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0

        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(seqrec.models, "truncated_svd", failing)
        capsys.readouterr()
        assert main(["--config", str(cfg), "tune"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


class TestFinalAndReport:
    def test_end_to_end_smoke(self, tmp_path, capsys):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        for command in ("prepare", "tune", "final"):
            assert main(["--config", str(cfg), command]) == 0
        records = [json.loads(l) for l in
                   (out / "report.jsonl").read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["split"] == "test"
        for key in ("hr", "ndcg", "cov"):
            assert 0.0 <= records[0][key] <= 1.0
        assert (out / "model.npz").exists()
        capsys.readouterr()
        assert main(["--config", str(cfg), "report"]) == 0
        shown = capsys.readouterr().out
        assert "grid_log.jsonl" in shown and "report.jsonl" in shown

    def test_final_without_tune_exit_3(self, tmp_path):
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        assert main(["--config", str(cfg), "final"]) == 3

    def test_report_without_artifacts_exit_3(self, tmp_path):
        cfg, _ = _toy_config(tmp_path)
        assert main(["--config", str(cfg), "report"]) == 3


def _markov_rows():
    rows = []
    for u in range(200):
        phase = MARKOV_PHASES[u % len(MARKOV_PHASES)]
        for t in range(7):
            rows.append((u, MARKOV_CYCLE[(phase + t) % 10], t))
    return rows


class TestMarkovEndToEnd:
    def _run(self, tmp_path, name, model):
        csv = tmp_path / "markov.csv"
        if not csv.exists():
            _write_csv(csv, _markov_rows())
        cfg = tmp_path / f"{name}.yaml"
        _write_config(cfg, seed=0, core=1, K=4, n=2,
                      dataset={"path": str(csv)},
                      split={"t_valid": 5, "t_test": 6},
                      output=str(tmp_path / name),
                      model=model, max_sweeps=4, patience=2)
        for command in ("prepare", "tune", "final"):
            assert main(["--config", str(cfg), command]) == 0
        record = json.loads(
            (tmp_path / name / "report.jsonl").read_text().splitlines()[-1])
        return record["hr"]

    def test_sequential_model_beats_popularity(self, tmp_path):
        la_model = {"kind": "local", "window_values": [3],
                    "grid": {"r1": [8], "r2": [8], "r3": [2], "r4": [2],
                             "f": [0.0], "s": [1.0], "regime": ["plain"]}}
        hr_la = self._run(tmp_path, "la", la_model)
        hr_mp = self._run(tmp_path, "mp", {"kind": "mp"})
        assert hr_la > hr_mp
        assert hr_la > 0.9
        assert hr_mp <= 0.7

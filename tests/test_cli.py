"""Command-line front-end: prepare/tune/final/report, exit codes, determinism."""

import gzip
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import seqrec.cli
import seqrec.linalg
import seqrec.models
from helpers import MARKOV_CYCLE, MARKOV_PHASES
from seqrec.cli import PRESETS, load_config, main
from seqrec.data import load_split
from seqrec.evaluation import evaluate
from seqrec.linalg import ConvergenceError
from seqrec.models import load_model, train_puresvd

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

    @pytest.mark.parametrize("text", ["seed: [1\n", "5\n", "seed: 0\nK: abc\n"],
                             ids=["malformed-yaml", "not-a-mapping", "non-integer-K"])
    def test_bad_config_file_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "prepare"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("extra", [
        {"dataset": 5}, {"split": 5}, {"model": 5}, {"split": None},
        {"core": "abc"}, {"n": 2.5}, {"budget": "10"}, {"patience": True},
        {"max_sweeps": [2]}, {"seed": "x"},
        {"model": {"kind": "svd", "grid": 5}}, {"model": {"kind": "svd", "grid": {"rank": 5}}},
        {"model": {"kind": "local", "window_values": 3}},
        {"split": {"t_valid": "abc", "t_test": 3}},
        {"split": {"valid_count": 1.5, "test_count": 1}},
    ], ids=lambda extra: "-".join(f"{k}={v!r}" for k, v in extra.items()))
    def test_bad_section_or_integer_exit_2(self, tmp_path, capsys, extra):
        cfg, _ = _toy_config(tmp_path, **extra)
        for command in ("prepare", "tune"):
            assert main(["--config", str(cfg), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
            assert next(iter(extra)) in err

    def test_preset_merge_with_seed_override(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0, K=7, model={"kind": "local", "grid": {"r3": [2]}})
        before = json.dumps(PRESETS)
        config = load_config(cfg, preset="ml-1m", overrides={"seed": 5})
        assert config["seed"] == 5 and config["K"] == 7
        assert config["model"] == {"kind": "local", "window_values": [20, 40, 60, 80],
                                   "grid": {"r3": [2], "r4": [5, 10, 15, 20]}}
        config["model"]["grid"]["r4"].append(25)
        config["model"]["window_values"].clear()
        assert json.dumps(PRESETS) == before

    def test_core_filter_and_count_split(self, tmp_path):
        # user u3 and item i4 have one event each and leave the 2-core; counted
        # on the filtered log, the test tail of <= 2 events stops at the tie
        # at t = 2, and the validation tail of <= 4 at the tie at t = 1
        cfg, out = _toy_config(tmp_path, core=2,
                               split={"valid_count": 4, "test_count": 2})
        _write_csv(tmp_path / "events.csv", TOY_ROWS + [(3, 0, 4), (0, 4, 5)])
        assert main(["--config", str(cfg), "prepare"]) == 0
        stats = json.loads((out / "stats.json").read_text())
        assert (stats["users"], stats["items"], stats["interactions"]) == (3, 4, 10)
        assert (stats["t_valid"], stats["t_test"]) == (2, 3)
        assert stats["sizes"] == {"train": 6, "validation": 3, "test": 1}

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

    @pytest.mark.parametrize("extra", [
        {"budget": 0}, {"budget": -1}, {"max_sweeps": 0}, {"n": 0},
        {"model": {"kind": "local", "grid": {"r1": ["a"]}}},
        {"model": {"kind": "local", "grid": {"r3": [1.5]}}},
        {"model": {"kind": "svd", "grid": {"rank": [True]}}},
        {"model": {"kind": "svd", "grid": {"s": ["x"]}}},
        {"model": {"kind": "global", "grid": {"f": ["x"]}}},
        {"model": {"kind": "local", "window_values": ["a"]}},
        {"model": {"kind": "svd", "grid": {"regime": ["bogus"]}}},
    ], ids=lambda extra: "-".join(f"{k}={v!r}" for k, v in extra.items()))
    def test_bad_value_exit_2_before_work(self, tmp_path, monkeypatch, capsys, extra):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        cfg, _ = _toy_config(tmp_path, **{"model": SVD_GRID, **extra})
        monkeypatch.setattr(seqrec.cli, "grid_search", None)  # no grid point may train
        capsys.readouterr()
        for command in ("prepare", "tune"):
            assert main(["--config", str(cfg), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
            assert next(iter(extra)) in err
        assert not (out / "grid_log.jsonl").exists()

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


    def test_dense_svd_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        capsys.readouterr()
        assert main(["--config", str(cfg), "tune"]) == 1
        err = capsys.readouterr().err
        assert err == "error: truncated SVD failed to converge: SVD did not converge\n"


    def test_propack_failure_on_large_operator_exit_1(self, tmp_path, monkeypatch, capsys):
        # no dense fallback past DENSE_FALLBACK_SIZE: the toy operators stand in
        # for large ones
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("k=1 singular triplets did not converge")

        monkeypatch.setattr(seqrec.linalg, "svds", failing)
        monkeypatch.setattr(seqrec.linalg, "DENSE_SVD_DIM", 0)
        monkeypatch.setattr(seqrec.linalg, "DENSE_FALLBACK_SIZE", 0)
        capsys.readouterr()
        assert main(["--config", str(cfg), "tune"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: truncated SVD failed to converge: "
                       "k=1 singular triplets did not converge\n")


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

    def test_global_model_end_to_end(self, tmp_path):
        model = {"kind": "global", "grid": {"r1": [2], "r2": [2], "r3": [1, 2],
                                            "f": [0.5], "s": [0.2], "regime": ["restored"]}}
        cfg, out = _toy_config(tmp_path, model=model, max_sweeps=2, patience=1)
        for command in ("prepare", "tune", "final"):
            assert main(["--config", str(cfg), command]) == 0
        assert json.loads((out / "best.json").read_text())["kind"] == "global"
        [record] = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        assert (record["split"], record["kind"]) == ("test", "global")
        split = load_split(out / "split.npz")
        merged = split.train.replace_events(*(
            np.concatenate([getattr(split.train, name), getattr(split.validation, name)])
            for name in ("users", "items", "timestamps")))
        report = evaluate(load_model(out / "model.npz"), merged, split.test, n=2)
        assert {key: record[key] for key in report.as_dict()} == report.as_dict()

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


_PIPELINE = """
import sys
from seqrec.cli import main
for command in ("prepare", "tune", "final"):
    if main(["--config", sys.argv[1], "--output", sys.argv[2], command]):
        sys.exit(f"{command} failed")
"""


def _outputs(out):
    """Every file the pipeline wrote, as bytes, with npz files as arrays and
    grid_log.jsonl without its wall times."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".npz":
            with np.load(path) as data:
                files[path.name] = {k: (data[k].dtype.str, data[k].shape, data[k].tobytes())
                                    for k in data.files}
        elif path.name == "grid_log.jsonl":
            records = [json.loads(l) for l in path.read_text().splitlines()]
            files[path.name] = [{k: v for k, v in r.items() if k != "wall_time"}
                                for r in records]
        else:
            files[path.name] = path.read_bytes()
    return files


def test_pipeline_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    csv = tmp_path / "markov.csv"
    _write_csv(csv, _markov_rows())
    cfg = tmp_path / "config.yaml"
    _write_config(cfg, seed=3, core=1, K=4, n=2, dataset={"path": str(csv)},
                  split={"t_valid": 5, "t_test": 6}, max_sweeps=2, patience=1,
                  model={"kind": "local", "window_values": [2, 3],
                         "grid": {"r1": [4], "r2": [4], "r3": [1], "r4": [1, 2],
                                  "f": [0.5], "s": [0.2], "regime": ["plain"]}})
    src = str(Path(seqrec.cli.__file__).parents[1])
    outputs = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"out-{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", _PIPELINE, str(cfg), str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        outputs.append(_outputs(out))
    assert sorted(outputs[0]) == ["best.json", "grid_log.jsonl", "model.npz",
                                  "report.jsonl", "split.npz", "stats.json"]
    assert outputs[0] == outputs[1]

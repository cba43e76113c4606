"""Command-line front-end: prepare/tune/final/report, exit codes, determinism."""

import dataclasses
import gzip
import inspect
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import seqrec.cli
import seqrec.data
import seqrec.evaluation
import seqrec.linalg
import seqrec.models
from helpers import MARKOV_CYCLE, MARKOV_PHASES, make_log, propack_first
from seqrec.cli import PRESETS, load_config, main
from seqrec.data import build_positional_tensor, ingest_log, load_split
from seqrec.evaluation import evaluate
from seqrec.linalg import ConvergenceError
from seqrec.models import (ScalingDiag, SVDModel, load_model, save_model, train_gasatf,
                           train_lasatf, train_puresvd)

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

    def test_missing_dataset_path_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0, output=str(tmp_path / "out"))
        assert main(["--config", str(cfg), "prepare"]) == 2
        assert capsys.readouterr().err == "config error: config must set dataset.path\n"
        assert not (tmp_path / "out").exists()

    def test_out_of_range_timestamp_exit_1(self, tmp_path, capsys):
        cfg, _ = _toy_config(tmp_path)
        (tmp_path / "events.csv").write_text("user,item,timestamp\nu1,b,inf\n")
        assert main(["--config", str(cfg), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ") and len(err.strip().splitlines()) == 1

    def test_oversized_field_exit_1(self, tmp_path, capsys):
        # past the csv module's field limit (131072 characters)
        cfg, out = _toy_config(tmp_path)
        (tmp_path / "events.csv").write_text(
            "user,item,timestamp\nu0,i0,0\nu0," + "x" * 200_000 + ",1\n")
        assert main(["--config", str(cfg), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: field larger than field limit")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_byte_not_utf8_exit_1(self, tmp_path, capsys):
        # a Latin-1 "café" after 5000 good rows: the decoder alone names no line
        cfg, out = _toy_config(tmp_path)
        rows = "".join(f"u{t % 3},i{t % 4},{t}\n" for t in range(5000))
        (tmp_path / "events.csv").write_bytes(
            b"user,item,timestamp\n" + rows.encode() + b"u1,caf\xe9,5\n")
        assert main(["--config", str(cfg), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 5002: not UTF-8: ")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_truncated_gzip_exit_1(self, tmp_path, capsys):
        cfg, _ = _toy_config(tmp_path)
        csv = tmp_path / "events.csv"
        csv.write_bytes(gzip.compress(csv.read_bytes())[:20])
        assert main(["--config", str(cfg), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gzip" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("test_count", [10, 100])
    def test_test_count_covering_the_log_exit_1(self, tmp_path, capsys, test_count):
        # the test tail takes all 10 events, so no event is left before it
        # to place the validation boundary among
        cfg, out = _toy_config(tmp_path, split={"valid_count": 1, "test_count": test_count})
        assert main(["--config", str(cfg), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert not out.exists()

    def test_count_boundaries_tied_at_the_test_boundary_exit_1(self, tmp_path, capsys):
        # the 3-event test tail starts at t = 3, and the 1-event validation
        # tail of the 9 events before it would start there too: validation
        # is empty, and no boundary the config never set is named
        cfg, out = _toy_config(tmp_path, split={"valid_count": 1, "test_count": 3})
        assert main(["--config", str(cfg), "prepare"]) == 1
        assert capsys.readouterr().err == "error: validation split is empty\n"
        assert not out.exists()

    def test_directory_dataset_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0, dataset={"path": str(tmp_path)},
                      split={"t_valid": 1, "t_test": 2})
        assert main(["--config", str(cfg), "prepare"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("missing file: ") and len(err.strip().splitlines()) == 1

    def test_directory_config_exit_3(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "prepare"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("missing file: ") and "Is a directory" in err
        assert str(tmp_path) in err and len(err.strip().splitlines()) == 1

    def test_config_under_a_file_exit_3(self, tmp_path, capsys):
        (tmp_path / "taken").write_text("")
        assert main(["--config", str(tmp_path / "taken" / "x.yaml"), "prepare"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("missing file: ") and "Not a directory" in err
        assert len(err.strip().splitlines()) == 1

    # a name past the file system's 255-byte limit is an OSError of no subclass
    @pytest.mark.parametrize("command", ["prepare", "report"])
    def test_overlong_output_name_exit_1(self, tmp_path, capsys, command):
        cfg, _ = _toy_config(tmp_path)
        assert main(["--config", str(cfg), "--output", str(tmp_path / ("x" * 300)),
                     command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File name too long" in err
        assert len(err.strip().splitlines()) == 1

    def test_overlong_config_name_exit_1(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / ("x" * 300 + ".yaml")), "prepare"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File name too long" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("output", ["taken", "taken/sub"], ids=["file", "under-a-file"])
    def test_output_naming_a_file_exit_2(self, tmp_path, monkeypatch, capsys, output):
        cfg, _ = _toy_config(tmp_path, output=str(tmp_path / output))
        (tmp_path / "taken").write_text("")

        def refuse(*args, **kwargs):
            raise AssertionError("the dataset was read")

        monkeypatch.setattr(seqrec.data, "ingest_log", refuse)
        assert main(["--config", str(cfg), "prepare"]) == 2
        err = capsys.readouterr().err
        assert err == ("config error: output must name a directory, not a file or a path "
                       f"under one: {tmp_path / output}\n")

    @pytest.mark.parametrize("text", ["seed: [1\n", "5\n", "seed: 0\nK: abc\n"],
                             ids=["malformed-yaml", "not-a-mapping", "non-integer-K"])
    def test_bad_config_file_exit_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "config.yaml"
        cfg.write_text(text)
        assert main(["--config", str(cfg), "prepare"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        # Latin-1 "café" in a comment: PyYAML decodes the file and names the byte
        cfg = tmp_path / "config.yaml"
        cfg.write_bytes(b"seed: 0\n# caf\xe9\n")
        assert main(["--config", str(cfg), "prepare"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: malformed YAML in {cfg}: unacceptable "
                              "character #x00e9") and len(err.strip().splitlines()) == 1

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

    def test_seed_only_config_loads_the_defaults(self, tmp_path):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0)
        config = load_config(cfg)
        ingest = inspect.signature(ingest_log).parameters
        assert config == {
            "seed": 0, "K": 50, "n": 10, "core": 5, "budget": 200, "patience": 3,
            "max_sweeps": 10, "output": ".", "split": {}, "model": {"kind": "local"},
            "dataset": {key: ingest[key].default for key in
                        ("delimiter", "user_col", "item_col", "time_col", "header")}}
        assert config["dataset"] == {"delimiter": ",", "user_col": "user", "item_col": "item",
                                     "time_col": "timestamp", "header": True}

    @pytest.mark.parametrize("dataset", [
        {"header": False, "user_col": 0, "item_col": 1, "time_col": 2},
        {"header": True, "user_col": "a", "item_col": "b", "time_col": "c", "delimiter": ";"},
    ], ids=repr)
    def test_column_forms_ingest_reads_are_accepted(self, tmp_path, dataset):
        cfg = tmp_path / "config.yaml"
        _write_config(cfg, seed=0, dataset=dataset)
        assert load_config(cfg)["dataset"] == {"delimiter": ",", **dataset}

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
    def test_tie_break_ranks_are_grid_parameters(self):
        params = set().union(*seqrec.cli._KINDS.values())
        assert set(seqrec.evaluation._RANK_KEYS) <= params

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
        # r1 = r2 = 3 lets every r3 up to 9 pass the Tucker rule: the window decides
        model = {"kind": "local", "window_values": [5],
                 "grid": {"r1": [3], "r2": [3], "r3": [1, 2, 5, 10], "r4": [1],
                          "f": [0.0], "s": [1.0], "regime": ["plain"]}}
        cfg, out = _toy_config(tmp_path, K=6, model=model, max_sweeps=2,
                               patience=1)
        assert main(["--config", str(cfg), "prepare"]) == 0
        assert main(["--config", str(cfg), "tune"]) == 0
        records = [json.loads(l) for l in
                   (out / "grid_log.jsonl").read_text().splitlines()]
        assert sorted(r["config"]["r3"] for r in records) == [1, 2, 5]

    @pytest.mark.parametrize("model, feasible", [
        ({"kind": "local", "window_values": [2],
          "grid": {"r1": [1, 2], "r2": [1], "r3": [1], "r4": [1]}}, [(1, 1, 1, 1)]),
        ({"kind": "global", "grid": {"r1": [1, 2], "r2": [1, 2], "r3": [1]}},
         [(1, 1, 1), (2, 2, 1)]),
    ], ids=["local", "global"])
    def test_tucker_rank_constraint_excludes_points(self, tmp_path, model, feasible):
        # a rank above the product of the others has no unfolding to solve
        model["grid"].update(f=[0.5], s=[0.2], regime=["plain"])
        cfg, out = _toy_config(tmp_path, model=model, max_sweeps=1, patience=1)
        assert main(["--config", str(cfg), "prepare"]) == 0
        assert main(["--config", str(cfg), "tune"]) == 0
        records, _ = _tune_outputs(out)
        keys = [key for key in ("r1", "r2", "r3", "r4") if key in model["grid"]]
        assert [tuple(r["config"][key] for key in keys) for r in records] == feasible

    # (users, items, K): the toy log's shape, and one whose K leaves room for r4 >= window
    @pytest.mark.parametrize("m, n_items, k", [(3, 4, 3), (2, 3, 5)])
    @pytest.mark.parametrize("kind", ["local", "global"])
    def test_grid_admits_exactly_the_points_the_trainer_builds(self, kind, m, n_items, k):
        rng = np.random.default_rng(0)
        log = make_log([(u, int(rng.integers(n_items)), t) for u in range(m) for t in range(k)],
                       n_users=m, n_items=n_items)
        # window 1, r3 = window, r4 >= window and a rank above the others' product
        ranks = ("r1", "r2", "r3", "r4") if kind == "local" else ("r1", "r2", "r3")
        grid = {**dict.fromkeys(ranks, [1, 2, 3, 5]), "f": [0.5], "s": [0.2],
                "regime": ["plain"]}
        model, lists = {"kind": kind, "grid": grid}, grid
        if kind == "local":
            model["window_values"] = list(range(1, k + 1))
            lists = {"window": model["window_values"], **grid}
        config = {"model": model, "budget": 10**6}
        admitted = {tuple(sorted(p.items()))
                    for p in seqrec.cli._grid_space(kind, config, m, n_items, k).points()}
        build = seqrec.cli._factory(kind, log, 0, k)
        built = 0
        for values in itertools.product(*lists.values()):
            point = dict(zip(lists, values))
            try:
                trainer = build(point)
            except ValueError as exc:
                assert "infeasible" in str(exc)
                assert tuple(sorted(point.items())) not in admitted
                continue
            assert tuple(sorted(point.items())) in admitted
            trainer.sweep()
            built += 1
        assert built == len(admitted)

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
        def per_point(kind, train_log, seed, k):
            return lambda p: dataclasses.replace(
                train_puresvd(train_log, r=p["rank"], s=p["s"], seed=seed),
                regime=p["regime"])

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
        {"model": {"kind": "local", "grid": {"f": [float("nan")]}}},
        {"model": {"kind": "local", "grid": {"f": [float("inf")]}}},
        {"model": {"kind": "local", "grid": {"f": [-1]}}},
        {"model": {"kind": "global", "grid": {"f": [-0.5]}}},
        {"model": {"kind": "svd", "grid": {"s": [float("nan")]}}},
        {"model": {"kind": "svd", "grid": {"s": [float("inf")]}}},
        {"model": {"kind": "svd", "grid": {"s": [float("-inf")]}}},
        {"model": {"kind": "local", "window_values": ["a"]}},
        {"model": {"kind": "svd", "grid": {"regime": ["bogus"]}}},
        {"model": {"kind": "svd", "grid": {"regime": []}}},
        {"budgte": 3}, {"patience": 0},
        {"dataset": {"path": "events.csv", "delimeter": ";"}},
        {"split": {"t_valid": 2, "t_test": 3, "t_tset": 4}},
        {"split": {"t_valid": 3, "t_test": 3}}, {"split": {"t_valid": 3, "t_test": 2}},
        {"split": {"t_valid": 2}}, {"split": {"t_valid": 2, "test_count": 1}},
        {"split": {"valid_count": -1, "test_count": 1}},
        {"split": {"valid_count": 1, "test_count": -1}},
        {"split": {"valid_count": 0, "test_count": 1}},
        {"split": {"valid_count": 1, "test_count": 0}},
        {"dataset": {"path": 5}}, {"dataset": {"delimiter": 5}},
        {"dataset": {"delimiter": ";;"}}, {"dataset": {"header": "no"}},
        {"dataset": {"header": False}}, {"dataset": {"header": False, "user_col": "user",
                                                     "item_col": 1, "time_col": 2}},
        {"dataset": {"header": False, "user_col": -5, "item_col": 1, "time_col": 2}},
        {"dataset": {"header": False, "user_col": 1.5, "item_col": 0, "time_col": 2}},
        {"dataset": {"header": False, "user_col": 0, "item_col": "1", "time_col": 2}},
        {"dataset": {"header": False, "user_col": 0, "item_col": True, "time_col": 2}},
        {"output": 5}, {"seed": -1},
    ], ids=lambda extra: "-".join(f"{k}={v!r}" for k, v in extra.items()))
    def test_bad_value_exit_2_before_work(self, tmp_path, monkeypatch, capsys, extra):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        if isinstance(extra.get("dataset"), dict):  # the toy csv unless the case names one
            dataset = {"path": str(tmp_path / "events.csv"), **extra["dataset"]}
            extra = {**extra, "dataset": dataset}
        cfg, _ = _toy_config(tmp_path, **{"model": SVD_GRID, **extra})
        monkeypatch.setattr(seqrec.cli, "grid_search", None)  # no grid point may train
        capsys.readouterr()
        for command in ("prepare", "tune"):
            assert main(["--config", str(cfg), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
            assert next(iter(extra)) in err
        assert not (out / "grid_log.jsonl").exists()

    def test_integer_past_float_range_exit_2(self, tmp_path, capsys):
        cfg, out = _toy_config(tmp_path, model={"kind": "svd", "grid": {"s": [10 ** 400]}})
        assert main(["--config", str(cfg), "prepare"]) == 2
        assert "model.grid.s entry must be a finite real number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, named", [
        ({"kind": "svd", "grid": {"rnak": [1]}}, "grid.rnak"),
        ({"kind": "mp", "grid": {"rank": [1]}}, "grid.rank"),
        ({"kind": "local", "grid": {"window": [2]}}, "grid.window"),
        ({"kind": "svd", "window_values": [2]}, "window_values"),
        ({"kind": "global", "window_values": [2]}, "window_values"),
        ({"kind": "mp", "window_values": [2]}, "window_values"),
        ({"kind": "local", "window_values": []}, "window_values"),
        ({"kind": "global", "grid": {"f": []}}, "grid.f"),
        ({"kind": "bogus"}, "bogus"),
        ({"kind": ["local"]}, "kind"),
        ({"kind": "svd", "gird": {"rank": [1]}}, "model.gird"),
        ({"kind": "local", "windows": [2]}, "model.windows"),
    ], ids=lambda val: repr(val) if isinstance(val, dict) else val)
    def test_model_config_error_names_it_before_work(self, tmp_path, capsys, model, named):
        cfg, out = _toy_config(tmp_path, model=model)
        for command in ("prepare", "tune"):
            assert main(["--config", str(cfg), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: ") and len(err.strip().splitlines()) == 1
            assert named in err
        assert not (out / "split.npz").exists()

    @pytest.mark.parametrize("kind", ["mp", "svd", "global", "local"])
    def test_preset_tunes_every_kind(self, tmp_path, kind):
        tensor_grid = {"r1": [2], "r2": [2], "f": [0.5], "s": [0.2], "regime": ["plain"]}
        model = {"mp": {"kind": "mp"}, "svd": SVD_GRID,
                 "global": {"kind": "global", "grid": tensor_grid},
                 "local": {"kind": "local", "grid": {**tensor_grid, "r3": [1], "r4": [1]}}}[kind]
        cfg, out = _toy_config(tmp_path, model=model, max_sweeps=1, patience=1)
        config = load_config(cfg, preset="ml-1m")
        assert config["model"].get("window_values") == ([20, 40, 60, 80] if kind == "local"
                                                        else None)
        for command in ("prepare", "tune"):
            assert main(["--config", str(cfg), "--preset", "ml-1m", command]) == 0
        assert json.loads((out / "best.json").read_text())["kind"] == kind

    def test_truncated_split_exit_1(self, tmp_path, capsys):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        split = out / "split.npz"
        split.write_bytes(split.read_bytes()[:-100])
        capsys.readouterr()
        assert main(["--config", str(cfg), "tune"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {split} is not a readable split file: ")
        assert len(err.strip().splitlines()) == 1

    def test_without_prepare_exit_3(self, tmp_path):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "tune"]) == 3
        assert not out.exists()

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


    def test_gram_fallback_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        # the Gram eigensolve runs as the fallback after a PROPACK failure,
        # which the toy operators reach once every first run goes to PROPACK
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        def propack_failing(*args, **kwargs):
            raise np.linalg.LinAlgError("k=1 singular triplets did not converge")

        monkeypatch.setattr(seqrec.linalg, "svds", propack_failing)
        propack_first(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", failing)
        capsys.readouterr()
        assert main(["--config", str(cfg), "tune"]) == 1
        err = capsys.readouterr().err
        assert err == "error: truncated SVD failed to converge: Eigenvalues did not converge\n"


    def test_gram_eigensolve_failure_exit_1(self, tmp_path, monkeypatch, capsys):
        # a local model's mode updates are Gram eigensolves, not dense SVDs
        model = {"kind": "local", "window_values": [2],
                 "grid": {"r1": [2], "r2": [2], "r3": [1], "r4": [1], "f": [0.5],
                          "s": [0.2], "regime": ["plain"]}}
        cfg, _ = _toy_config(tmp_path, model=model)
        assert main(["--config", str(cfg), "prepare"]) == 0

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing)
        capsys.readouterr()
        assert main(["--config", str(cfg), "tune"]) == 1
        err = capsys.readouterr().err
        assert err == "error: truncated SVD failed to converge: Eigenvalues did not converge\n"

    def test_propack_failure_on_large_operator_exit_1(self, tmp_path, monkeypatch, capsys):
        # no Gram fallback past the retry run's bases: the toy operators stand
        # in for large ones
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("k=1 singular triplets did not converge")

        monkeypatch.setattr(seqrec.linalg, "svds", failing)
        propack_first(monkeypatch, fallback=False)
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

    @pytest.mark.parametrize("kind", ["mp", "svd"])
    def test_report_records_no_sweeps_for_finished_models(self, tmp_path, kind):
        cfg, out = _toy_config(tmp_path, model={"mp": {"kind": "mp"}, "svd": SVD_GRID}[kind])
        for command in ("prepare", "tune", "final"):
            assert main(["--config", str(cfg), command]) == 0
        assert json.loads((out / "best.json").read_text())["sweep_count"] == 0
        [record] = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        assert record["sweep_count"] == 0

    @pytest.mark.parametrize("text", [
        "{not json", "[]", '{"config": {}, "sweep_count": 0}',
        '{"kind": "svd", "sweep_count": 0}',
        '{"kind": "svd", "config": {"rank": 1, "s": 0.0}, "sweep_count": 0}',
        '{"kind": "svd", "config": {"rank": "1", "s": 0.0, "regime": "plain"}, '
        '"sweep_count": 0}',
        '{"kind": "svd", "config": {"rank": 1, "s": 0.0, "regime": "plain"}}',
        '{"kind": ["svd"], "config": {}, "sweep_count": 0}',
    ], ids=["not-json", "not-an-object", "no-kind", "no-config", "missing-parameter",
            "bad-value", "no-sweep-count", "unhashable-kind"])
    def test_malformed_best_json_exit_1(self, tmp_path, capsys, text):
        cfg, out = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        (out / "best.json").write_text(text)
        capsys.readouterr()
        assert main(["--config", str(cfg), "final"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out / 'best.json'} ")
        assert len(err.strip().splitlines()) == 1
        assert not (out / "report.jsonl").exists()

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

    @pytest.mark.parametrize("kind", ["global", "local"])
    def test_final_model_equals_direct_training(self, tmp_path, kind):
        csv = tmp_path / "markov.csv"
        _write_csv(csv, _markov_rows())
        grid = {"r1": [4], "r2": [4], "r3": [1, 2], "f": [0.5], "s": [0.2],
                "regime": ["restored"]}
        model = {"global": {"kind": "global", "grid": grid},
                 "local": {"kind": "local", "window_values": [3],
                           "grid": {**grid, "r4": [1, 2]}}}[kind]
        cfg, out = _toy_config(tmp_path, K=4, model=model, max_sweeps=3, patience=1,
                               dataset={"path": str(csv)}, split={"t_valid": 5, "t_test": 6})
        for command in ("prepare", "tune", "final"):
            assert main(["--config", str(cfg), command]) == 0
        tuned = json.loads((out / "best.json").read_text())
        p, sweeps = tuned["config"], tuned["sweep_count"]
        assert sweeps >= 1
        [record] = [json.loads(l) for l in (out / "report.jsonl").read_text().splitlines()]
        assert record["sweep_count"] == sweeps
        split = load_split(out / "split.npz")
        merged = split.train.replace_events(*(
            np.concatenate([getattr(split.train, name), getattr(split.validation, name)])
            for name in ("users", "items", "timestamps")))
        tensor = build_positional_tensor(merged, 4)
        if kind == "global":
            direct = train_gasatf(tensor, f=p["f"], ranks=(p["r1"], p["r2"], p["r3"]),
                                  s=p["s"], seed=0, sweeps=sweeps)
        else:
            direct = train_lasatf(tensor, window=p["window"], f=p["f"],
                                  ranks=(p["r1"], p["r2"], p["r3"], p["r4"]),
                                  s=p["s"], seed=0, sweeps=sweeps)
        direct = dataclasses.replace(direct, regime=p["regime"])
        save_model(direct, tmp_path / "direct.npz")

        def arrays(path):
            with np.load(path) as data:
                return {k: (data[k].dtype.str, data[k].shape, data[k].tobytes())
                        for k in data.files}

        assert arrays(out / "model.npz") == arrays(tmp_path / "direct.npz")

    def test_final_without_tune_exit_3(self, tmp_path):
        cfg, _ = _toy_config(tmp_path, model=SVD_GRID)
        assert main(["--config", str(cfg), "prepare"]) == 0
        assert main(["--config", str(cfg), "final"]) == 3
        fresh = tmp_path / "fresh" / "x"
        assert main(["--config", str(cfg), "--output", str(fresh), "final"]) == 3
        assert not fresh.parent.exists()

    def test_report_without_artifacts_exit_3(self, tmp_path):
        cfg, out = _toy_config(tmp_path)
        assert main(["--config", str(cfg), "report"]) == 3
        assert not out.exists()


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


_NO_SOLVE = """
import sys
import numpy
bare_numpy_loads_ma = "numpy.ma" in sys.modules
bare_numpy_loads_random = "numpy.random" in sys.modules
from pathlib import Path
import seqrec
bare_seqrec_loads = sorted(m for m in sys.modules if m.startswith("seqrec."))
import seqrec.cli
from seqrec.models import load_model, predict_next
out, *paths = sys.argv[1:]
for config in (path for path in paths if path.endswith(".yaml")):
    for command in ("prepare", "tune", "final", "report"):
        if seqrec.cli.main(["--config", config, "--output", str(Path(out, Path(config).stem)),
                            command]):
            sys.exit(command + " failed on " + config)
for path in (path for path in paths if path.endswith(".npz")):
    predict_next(load_model(path), [0, 1], 2)
print("seqrec modules after import seqrec:", *bare_seqrec_loads)
print("numpy.random loaded:", bare_numpy_loads_random, "numpy.random" in sys.modules)
print("numpy.ma loaded:", bare_numpy_loads_ma, "numpy.ma" in sys.modules)
print("scipy modules:", *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_prepare_and_serving_load_no_scipy(tmp_path):
    # a fresh process: this one has SciPy loaded already. Small GA/LA and
    # PureSVD operators are solved densely, so prepare, tune and final need no
    # SciPy either. Nor do they load numpy.ma, which numpy >= 2 imports on a
    # plain np.unique call, or numpy.random, since HOOI starts without a draw;
    # numpy 1.x imports both with numpy itself. A bare `import seqrec` imports
    # none of its modules. K = 40 takes the long-window paths, and at window 1
    # the window mode has one row, so every rank is 1. A 1400 x 100 PureSVD
    # model is served from predict_next's float32 screen.
    grid = {"r1": [2], "r2": [2], "f": [0.5], "s": [0.2], "regime": ["plain"]}
    local = {"kind": "local", "window_values": [2], "grid": {**grid, "r3": [1], "r4": [1]}}
    configs = {"global": ({"kind": "global", "grid": grid}, 3), "local": (local, 3),
               "local-window-1": ({"kind": "local", "window_values": [1],
                                   "grid": {**local["grid"], "r1": [1], "r2": [1]}}, 3),
               "global-k40": ({"kind": "global", "grid": {**grid, "r3": [1]}}, 40),
               "local-k40": (local, 40),
               "svd": ({"kind": "svd", "grid": {"rank": [1], "s": [0.5], "regime": ["plain"]}},
                       3)}
    for name, (model, k) in configs.items():
        cfg, out = _toy_config(tmp_path, K=k, model=model, max_sweeps=2, patience=1)
        cfg.rename(tmp_path / f"{name}.yaml")
    assert main(["--config", str(tmp_path / "global.yaml"), "prepare"]) == 0
    train = load_split(out / "split.npz").train
    tensor = build_positional_tensor(train, 3)
    models = {"svd": dataclasses.replace(train_puresvd(train, r=1, s=0.5), regime="restored"),
              "global": train_gasatf(tensor, f=0.5, ranks=(1, 1, 1), sweeps=1),
              "local": train_lasatf(tensor, window=2, f=0.5, ranks=(1, 1, 1, 1), sweeps=1),
              "svd-screened": SVDModel(
                  v=np.linalg.qr(np.random.default_rng(0).standard_normal((1400, 100)))[0],
                  scaling=ScalingDiag(d=np.full(1400, 0.5), s=0.0), regime="restored")}
    assert models["svd-screened"].v.size >= seqrec.models.SCREEN_MIN_ENTRIES
    for kind, model in models.items():
        save_model(model, tmp_path / f"{kind}.npz")
    src = str(Path(seqrec.cli.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _NO_SOLVE, str(tmp_path / "fresh"),
                           *(str(tmp_path / f"{name}.yaml") for name in configs),
                           *(str(tmp_path / f"{kind}.npz") for kind in models)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in configs:
        assert (tmp_path / "fresh" / name / "model.npz").exists()
        assert (tmp_path / "fresh" / name / "report.jsonl").exists()
    assert done.stdout.splitlines()[-1] == "scipy modules:"
    assert done.stdout.splitlines()[-4] == "seqrec modules after import seqrec:"
    for line, name in ((-3, "numpy.random"), (-2, "numpy.ma")):
        if done.stdout.splitlines()[line] != f"{name} loaded: True True":
            assert done.stdout.splitlines()[line] == f"{name} loaded: False False"

"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q seqbench/test_seqbench.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, generate_log  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

EXPECTED_END_TO_END = {
    "setup_s": ("s", "lower"), "tune_s": ("s", "lower"), "final_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
    "serve_p50_ms": ("ms", "lower"), "serve_p99_ms": ("ms", "lower"),
    "test_hr": ("ratio", "higher"), "test_ndcg": ("ratio", "higher"),
    "ops_ok": ("ratio", "higher"),
}
HIGHER_PER_LAYER = {"data.ingest_rows_per_s", "evaluation.events_per_s",
                    "evaluation.sweeps_useful_ratio"}


def tiny(workload, **grid):
    """A seconds-long variant: a few hundred events and ranks that keep every
    unfolding the full-size workload reaches on the same SVD path."""
    config = json.loads(json.dumps(workload.config))
    config["split"] = {"valid_count": 120, "test_count": 120}
    config["model"]["grid"].update(grid or (
        {"rank": [10, 20]} if config["model"]["kind"] == "svd" else {"r1": [8], "r2": [8]}))
    return dataclasses.replace(workload, users=150, items=120, mean_len=12.0, rounds=2,
                               config=config)


def test_generator_is_deterministic_per_seed(tmp_path):
    workload = tiny(WORKLOADS["la-k40"])
    paths = [tmp_path / f"{i}.csv" for i in range(3)]
    rows = [generate_log(path, workload, seed)
            for path, seed in zip(paths, (7, 7, 8))]
    assert rows[0] == rows[1] == len(paths[0].read_text().splitlines()) - 1
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_benchmark_json_names_every_metric_and_workload():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert e2e == EXPECTED_END_TO_END
    assert run.END_TO_END == {k: unit for k, (unit, _) in EXPECTED_END_TO_END.items()}
    assert max(SPEC["end_to_end"], key=lambda m: m["bound"])["name"] == "setup_s"
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == {
        name: (unit, "higher" if name in HIGHER_PER_LAYER else "lower")
        for name, unit in tracing.PER_LAYER.items()}
    assert [w["name"] for w in SPEC["workloads"]] == ["la-k40", "svd-230k"]
    assert all(w["why"] == WORKLOADS[w["name"]].why for w in SPEC["workloads"])


@pytest.mark.parametrize("name", ["la-k40", "svd-230k", "ga-k32"])
def test_tiny_run_of_each_workload(name, tmp_path):
    untraced = run.Runner(tiny(WORKLOADS[name]), 3, 0.0, False, tmp_path)
    untraced.execute()
    metrics, failed = untraced.end_to_end()
    assert failed == 0, [vars(r) for r in untraced.runs]
    assert set(metrics) == set(run.END_TO_END)
    assert all(v is not None and v > 0 for v in metrics.values()), metrics
    assert [r.step for r in untraced.runs] == ["prepare", "tune", "final", "serve"] * 2
    assert all(s["latency_s"].shape == (s["passes"], s["evaluated_count"])
               for s in untraced.serves)

    traced = run.Runner(tiny(WORKLOADS[name]), 3, 0.0, True, tmp_path)
    traced.execute()
    assert traced.end_to_end()[1] == 0
    layers = traced.per_layer()
    assert list(layers) == list(tracing.PER_LAYER)
    assert layers["data.ingest_s"] > 0 and layers["evaluation.evaluate_s"] > 0
    assert layers["linalg.svd_failed"] == 0
    assert layers["linalg.svd_calls"] == (layers["linalg.svd_dense_calls"]
                                          + layers["linalg.svd_iterative_calls"])
    if name == "la-k40":
        assert layers["linalg.skew_fft_calls"] > 0 and layers["models.mode4_s"] > 0
    if name == "svd-230k":
        assert layers["models.puresvd_s"] > 0 and layers["models.sweep_s"] == 0
    if name == "ga-k32":
        assert layers["linalg.svd_wide_calls"] > 0 and layers["models.mode4_s"] == 0
    spans = [json.loads(line) for line in (traced.dir / "trace.jsonl").open()]
    assert {s["run"] for s in spans} == {traced.run_id}
    assert {s["step"] for s in spans} == set(run.STEPS)


def test_failed_steps_are_counted_and_their_timings_dropped(tmp_path):
    # r3 >= window excludes every grid point, so tune exits 1 and nothing after it can work.
    workload = tiny(WORKLOADS["la-k40"], r1=[8], r2=[8], r3=[30])
    runner = run.Runner(workload, 3, 0.0, False, tmp_path)
    runner.execute()
    metrics, failed = runner.end_to_end()
    codes = {r.step: r.exit_code for r in runner.runs}
    assert codes == {"prepare": 0, "tune": 1, "final": 3, "serve": 1}
    assert len(runner.runs) == 8 and failed == 3
    assert all("no feasible grid point" in r.stderr_first for r in runner.runs if r.step == "tune")
    assert metrics["setup_s"] > 0 and metrics["ops_ok"] == 0.25
    for name in ("tune_s", "final_s", "pipeline_s", "serve_p50_ms", "test_hr"):
        assert metrics[name] is None


def test_serve_check_rejects_a_replay_that_differs_from_the_report(tmp_path):
    runner = run.Runner(tiny(WORKLOADS["ga-k32"]), 3, 0.0, False, tmp_path)
    runner.measure()
    assert runner.end_to_end()[1] == 0
    runner.report = dict(runner.report, hr=runner.report["hr"] + 1e-12)
    runner.serve(0, 1)
    assert "replay hr=" in runner.runs[-1].check
    assert runner.end_to_end()[1] == 1


def test_a_step_past_its_time_limit_is_killed_and_fails(tmp_path):
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    step = run.run_step("tune", argv, tmp_path, run.child_env(1), 0.5, "sleep")
    assert step.exit_code < 0 and not step.ok and step.wall_s < 10


def test_repeats_must_reproduce_the_first_output(tmp_path):
    runner = run.Runner(tiny(WORKLOADS["ga-k32"]), 3, 0.0, False, tmp_path)
    runner.measure()
    tune = next(r for r in runner.runs if r.step == "tune")
    runner.first_output["tune"] = "{}"
    runner.check(tune)
    assert tune.check == "best.json differs between repeats"


def test_self_time_subtracts_nested_spans():
    def span(sid, parent, name, start, end, **attrs):
        return {"step": "tune", "id": sid, "parent": parent, "name": name,
                "start": start, "end": end, **attrs}

    spans = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "linalg.truncated_svd", 1.0, 5.0, rows=9, cols=4, mode=1),
        span(2, 1, "linalg.svds", 1.5, 4.5),
        span(3, 2, "models.matvec", 2.0, 3.0),
        span(4, 2, "models.rmatvec", 3.0, 3.5),
        span(5, 3, "attention.apply", 2.1, 2.3),
        span(6, 5, "attention.apply", 2.15, 2.2),
    ]
    layers = tracing.summarize(spans, {"tune": 12.0}, csv_rows=1)
    assert layers["linalg.svd_self_s"] == pytest.approx(4.0 - 1.5)
    assert layers["linalg.svd_iterative_calls"] == 1 and layers["linalg.svd_tall_calls"] == 1
    assert layers["linalg.operator_applies_per_svd"] == 2
    assert layers["models.matvec_s"] == pytest.approx(1.0 - 0.2)
    assert layers["attention.apply_calls"] == 1
    assert layers["models.mode1_s"] == pytest.approx(4.0)
    assert layers["cli.tune_self_s"] == pytest.approx(12.0 - 4.0)

"""The benchmark's tracer patches seqrec attributes by name; every name must
exist, and every step the benchmark traces must still run and pass its checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

INSTALL = "import tracing; tracing.install(tracing.Tracer('check', 'install'))"


def test_tracer_installs_against_src():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "seqbench"), str(ROOT / "src")]))
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


SWEEPS = """
import json
import tracing
tracer = tracing.Tracer('check', 'sweeps')
tracing.install(tracer)
from oracles import random_tensor
from seqrec.attention import build_attention
from seqrec.models import GlobalAttentionTrainer, LocalAttentionTrainer
tensor = random_tensor(9, 8, 5, seed=3, min_len=2)
LocalAttentionTrainer(tensor, 3, build_attention(3, f=1.0), (4, 4, 2, 2), seed=1).sweep()
GlobalAttentionTrainer(tensor, build_attention(5, f=1.0), (4, 4, 3), seed=1).sweep()
print(json.dumps([[name, attrs.get("mode")] for _, _, name, _, _, attrs in tracer.spans]))
"""


def test_tracer_sees_every_mode_of_a_sweep():
    # each trainer first solves V's start, which no mode operator tags; then
    # one LA sweep at window < K solves modes 1-4, one GA sweep modes 1-3
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "seqbench"), str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", SWEEPS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout)
    assert [mode for name, mode in spans if name == "linalg.truncated_svd"] == [
        None, 1, 2, 3, 4, None, 1, 2, 3]
    assert sum(name == "models.sweep" for name, _ in spans) == 2


# Tiny models of each kind on one log, each with its grid's point count. At
# 800 users x 700 items the svd kind's 700 x 800 operator has a Gram of 490,000
# numbers, past the (700 + 800) * 300 of PROPACK's bases at r = 20, so its
# solves run PROPACK.
PIPELINES = {
    "svd": ({"kind": "svd", "grid": {"rank": [20], "s": [0.0, 0.4], "regime": ["plain"]}}, 2),
    "local": ({"kind": "local", "window_values": [4],
               "grid": {"r1": [5], "r2": [5], "r3": [2], "r4": [2], "f": [0.5], "s": [0.2],
                        "regime": ["plain"]}}, 1),
    "global": ({"kind": "global",
                "grid": {"r1": [5], "r2": [5], "r3": [2], "f": [0.5], "s": [0.2],
                         "regime": ["plain", "restored"]}}, 2),
}


def _write_log(path):
    """An 800-user x 700-item log at 2 % density, timestamps a seeded permutation."""
    rng = np.random.default_rng(0)
    users, items = np.nonzero(rng.random((800, 700)) < 0.02)
    path.write_text("user,item,timestamp\n" + "".join(
        f"u{u},i{i},{t}\n" for u, i, t in zip(users, items, rng.permutation(len(users)))))


@pytest.mark.parametrize("kind", list(PIPELINES))
def test_traced_pipeline_runs(tmp_path, kind):
    # each step runs as seqbench/run.py runs it with tracing on, and passes its checks
    model, points = PIPELINES[kind]
    _write_log(tmp_path / "events.csv")
    (tmp_path / "config.yaml").write_text(json.dumps({
        "seed": 0, "core": 1, "K": 8, "n": 10, "max_sweeps": 2, "patience": 1,
        "dataset": {"path": "events.csv"}, "split": {"valid_count": 400, "test_count": 400},
        "model": model}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    child = [sys.executable, str(ROOT / "seqbench" / "child.py")]

    def run(step, *argv):
        done = subprocess.run([*child, "--trace", f"spans-{step}.jsonl", "--run-id", kind,
                               *argv], cwd=tmp_path, env=env, capture_output=True, text=True,
                              timeout=300)
        assert done.returncode == 0, f"{step}: {done.stderr}"

    for step in ("prepare", "tune", "final"):
        run(step, "cli", step, "--config", "config.yaml")
    run("serve", "serve", "--dir", ".", "--n", "10", "--passes", "1", "--out", "serve.json")
    for name in ("stats.json", "split.npz", "best.json", "grid_log.jsonl", "report.jsonl",
                 "model.npz"):
        assert (tmp_path / name).exists(), name
    assert len((tmp_path / "grid_log.jsonl").read_text().splitlines()) == points
    report = json.loads((tmp_path / "report.jsonl").read_text())
    served = json.loads((tmp_path / "serve.json").read_text())
    for key in ("hr", "ndcg", "evaluated_count", "skipped_cold_count"):
        assert served[key] == report[key], key
    assert served["consistent"]
    if kind == "svd":
        for step in ("tune", "final"):
            spans = (tmp_path / f"spans-{step}.jsonl").read_text().splitlines()
            assert any(json.loads(span)["name"] == "linalg.svds" for span in spans), step

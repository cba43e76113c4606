"""The benchmark's tracer patches seqrec attributes by name; every name must exist."""

import json
import os
import subprocess
import sys
from pathlib import Path

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
    # one LA sweep at window < K solves modes 1-4, one GA sweep modes 1-3
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "seqbench"), str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", SWEEPS], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    spans = json.loads(done.stdout)
    assert [mode for name, mode in spans if name == "linalg.truncated_svd"] == [
        1, 2, 3, 4, 1, 2, 3]
    assert sum(name == "models.sweep" for name, _ in spans) == 2

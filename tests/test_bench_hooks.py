"""The benchmark's tracer patches seqrec attributes by name; every name must exist."""

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

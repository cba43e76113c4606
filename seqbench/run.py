"""One benchmark run of the seqrec user path: prepare -> tune -> final -> serve.

    python3 seqbench/run.py --workload la-k40 --seed 1 --seconds 3 --trace 0

The run writes the workload's synthetic log for ``--seed`` (not timed), then
runs ``seqrec prepare``, ``seqrec tune`` and ``seqrec final`` through the CLI
and a serve step that replays the test events through ``predict_next``, each
in fresh processes, in as many rounds as the workload sets. ``--seconds``
fixes the number of replay passes through the workload's nominal pass time,
so every commit replays the same work. Every step runs even after an earlier
one failed; a step that exits non-zero or fails an output check counts as
failed and its timings are left out.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` each step runs once under the span wrappers of ``tracing.py``
and the line carries the per-layer metrics. The run directory under
``seqbench/runs/`` keeps the step logs, ``result.json`` and, for traced runs,
``trace.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import tracing
from workloads import WORKLOADS, experiment_config, generate_log

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS = BENCH_DIR / "runs"
# An untraced run makes the workload's number of rounds of prepare, tune,
# final and serve, so repeats of a step are spread over the run. On a shared
# 2-vCPU VM the speed of identical work changed by up to 1.6x, in spells of 5
# to 40 s, from load outside the benchmark; four runs of one 500-user la-k40
# log read final 5.6-7.5 s as the fastest of three rounds. Contention from
# outside only ever adds time, so tune_s and final_s are the fastest repeat,
# and setup_s is the median prepare.
# serve_p50_ms and serve_p99_ms are quantiles over the test requests of each
# request's fastest latency over a fixed number of replay passes; with the
# median over passes, p50 read 0.030 or 0.047 ms depending on the spell.
# Cap on a whole run, so that it ends within 180 s: untraced runs took about
# 55 s (la-k40) and 45 s (svd-230k) on a 2-vCPU VM; the cap leaves 3x headroom.
RUN_LIMIT_S = 165.0
STEPS = ("prepare", "tune", "final", "serve")

END_TO_END = {
    "setup_s": "s", "tune_s": "s", "final_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB", "serve_p50_ms": "ms", "serve_p99_ms": "ms",
    "test_hr": "ratio", "test_ndcg": "ratio", "ops_ok": "ratio",
}


@dataclass
class StepRun:
    step: str
    exit_code: int
    wall_s: float
    stderr_first: str
    stderr_last: str
    check: str = ""

    @property
    def ok(self):
        return self.exit_code == 0 and not self.check


def environment(cap):
    """Versions and settings of this run. Call it after the last step: its git
    call is a child process too, and would count in the steps' peak RSS."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "seqrec").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    import scipy

    return {"git_sha": sha, "source_sha256": digest.hexdigest(),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpus": sorted(os.sched_getaffinity(0)), "blas_threads": cap}


def child_env(cap):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(cap)
    return env


def run_step(step, argv, run_dir, env, timeout, tag):
    """Run one step process and time it to its exit."""
    if timeout <= 0:
        return StepRun(step, -1, 0.0, "not started: run time limit reached", "")
    err_path = run_dir / f"{tag}.err"
    with open(run_dir / f"{tag}.out", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=run_dir, env=env, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL)
        # A blocking wait returns as soon as the step exits; wait(timeout=...)
        # polls, and its sleeps of up to 50 ms would show up in the step's time.
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            code = proc.wait()
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    lines = [ln for ln in err_path.read_text(errors="replace").splitlines() if ln.strip()]
    return StepRun(step, code, wall, lines[0] if lines else "", lines[-1] if lines else "")


def fail(run, message):
    """Record a failed output check on a step that otherwise succeeded."""
    if run.exit_code == 0 and not run.check:
        run.check = message


class Runner:
    """The steps of one run, their checks and the metrics they yield."""

    # What each step must write; the first file must read the same after every repeat.
    OUTPUTS = {"prepare": ("stats.json", "split.npz"), "tune": ("best.json", "grid_log.jsonl"),
               "final": ("report.jsonl", "model.npz")}

    def __init__(self, workload, seed, seconds, trace, runs_dir=RUNS):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = runs_dir / f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.cap = len(os.sched_getaffinity(0))
        self.env = child_env(self.cap)
        self.runs = []
        self.first_output = {}
        self.run_id = f"{workload.name}-{seed}-{os.getpid()}-{time.time_ns()}"

    def cli_argv(self, step):
        if self.trace:
            return [sys.executable, str(BENCH_DIR / "child.py"),
                    "--trace", str(self.dir / f"spans-{step}.jsonl"), "--run-id", self.run_id,
                    "cli", step, "--config", "config.yaml"]
        return [sys.executable, "-m", "seqrec.cli", "--config", "config.yaml", step]

    def step(self, step, argv, tag):
        left = RUN_LIMIT_S - (time.perf_counter() - self.started)
        run = run_step(step, argv, self.dir, self.env, left, tag)
        self.runs.append(run)
        return run

    def execute(self):
        self.measure()
        for path in self.dir.glob("*.npy"):
            path.unlink()
        for name in ("events.csv", "split.npz", "model.npz"):
            (self.dir / name).unlink(missing_ok=True)

    def measure(self):
        if self.dir.exists():
            shutil.rmtree(self.dir)
        self.dir.mkdir(parents=True)
        self.csv_rows = generate_log(self.dir / "events.csv", self.workload, self.seed)
        config = experiment_config(self.workload, self.seed, "events.csv", ".")
        (self.dir / "config.yaml").write_text(yaml.safe_dump(config, sort_keys=False))

        self.started = time.perf_counter()
        rounds = 1 if self.trace else self.workload.rounds
        passes = 1 if self.trace else max(
            1, round(self.seconds / self.workload.pass_s / rounds))
        self.serves = []
        for i in range(rounds):
            for step in ("prepare", "tune", "final"):
                for name in self.OUTPUTS[step]:
                    (self.dir / name).unlink(missing_ok=True)
                self.check(self.step(step, self.cli_argv(step), f"{step}{i}"))
            self.report = (json.loads((self.dir / "report.jsonl").read_text())
                           if self.step_ok("final") else None)
            self.serves.append(self.serve(i, passes))

    def check(self, run):
        """The step wrote its outputs, and they match those of its first repeat."""
        names = self.OUTPUTS[run.step]
        missing = [name for name in names if not (self.dir / name).exists()]
        if missing:
            fail(run, f"{', '.join(missing)} missing")
            return
        text = (self.dir / names[0]).read_text()
        if text != self.first_output.setdefault(run.step, text):
            fail(run, f"{names[0]} differs between repeats")
        if run.step == "tune":
            points = len((self.dir / "grid_log.jsonl").read_text().splitlines())
            if points != self.workload.grid_points():
                fail(run, f"grid_log.jsonl has {points} points, expected "
                          f"{self.workload.grid_points()}")
        if run.step == "final" and len(text.splitlines()) != 1:
            fail(run, "report.jsonl does not hold exactly one line")

    def serve(self, index, passes):
        """One serve process replaying the test events ``passes`` times."""
        out = self.dir / f"serve{index}.json"
        argv = [sys.executable, str(BENCH_DIR / "child.py")]
        if self.trace:
            argv += ["--trace", str(self.dir / "spans-serve.jsonl"), "--run-id", self.run_id]
        argv += ["serve", "--dir", ".", "--n", str(self.workload.config["n"]),
                 "--passes", str(passes), "--out", out.name]
        run = self.step("serve", argv, f"serve{index}")
        if not out.exists():
            fail(run, "serve wrote no result")
            return None
        result = json.loads(out.read_text())
        if self.report is None:
            fail(run, "no report.jsonl to check the replay against")
        for key in ("hr", "ndcg", "evaluated_count", "skipped_cold_count"):
            if self.report is not None and result[key] != self.report[key]:
                fail(run, f"replay {key}={result[key]!r} but report.jsonl has "
                          f"{self.report[key]!r}")
        if not result["consistent"]:
            fail(run, "replays of the test events returned different top-n lists")
        result["latency_s"] = np.load(self.dir / result["latency_file"])
        return result

    def step_ok(self, step):
        return all(r.ok for r in self.runs if r.step == step)

    def walls(self, step):
        return [r.wall_s for r in self.runs if r.step == step]

    def latency_ms(self, q):
        """Quantile ``q`` over the requests of each one's fastest latency over all passes."""
        if not self.step_ok("serve"):
            return None
        per_request = np.min(np.vstack([s["latency_s"] for s in self.serves]), axis=0)
        return tracing.quantile(per_request.tolist(), q) * 1e3

    def end_to_end(self):
        ok = {step: self.step_ok(step) for step in STEPS}
        setup = statistics.median(self.walls("prepare")) if ok["prepare"] else None
        tune = min(self.walls("tune")) if ok["tune"] else None
        final = min(self.walls("final")) if ok["final"] else None
        failed = sum(not v for v in ok.values())
        return {
            "setup_s": setup,
            "tune_s": tune,
            "final_s": final,
            "pipeline_s": setup + tune + final if None not in (setup, tune, final) else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "serve_p50_ms": self.latency_ms(0.5),
            "serve_p99_ms": self.latency_ms(0.99),
            "test_hr": self.report["hr"] if ok["final"] else None,
            "test_ndcg": self.report["ndcg"] if ok["final"] else None,
            "ops_ok": (len(STEPS) - failed) / len(STEPS),
        }, failed

    def per_layer(self):
        spans = []
        for step in STEPS:
            path = self.dir / f"spans-{step}.jsonl"
            if path.exists():
                spans += tracing.read_spans(path)
                path.unlink()
        with open(self.dir / "trace.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
        walls = {r.step: r.wall_s for r in self.runs if r.ok}
        return tracing.summarize(spans, walls, self.csv_rows)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqrec" / "cli.py").exists():
        print(f"seqrec sources not found under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    runner.execute()
    e2e, failed = runner.end_to_end()
    metrics = runner.per_layer() if args.trace else e2e
    units = tracing.PER_LAYER if args.trace else END_TO_END
    serves = [s for s in runner.serves if s]
    samples = sum(s["latency_s"].size for s in serves)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
        "environment": environment(runner.cap),
        "steps": [vars(r) for r in runner.runs],
        "serve": [{k: s[k] for k in ("requests", "skipped_cold_count", "passes")}
                  for s in serves],
        "serve_samples": samples,
        "end_to_end": e2e, "metrics": metrics,
    }
    (runner.dir / "result.json").write_text(json.dumps(result, indent=2))
    for r in runner.runs:
        if not r.ok:
            print(f"# failed {r.step}: exit {r.exit_code} {r.check or r.stderr_last}")
    print(f"# {args.workload} seed={args.seed} serve samples={samples} "
          f"requests={serves[0]['requests'] if serves else 0} "
          f"cold={serves[0]['skipped_cold_count'] if serves else 0} "
          f"env={json.dumps(result['environment'])}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(STEPS), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Spans recorded from the benchmark's own files around calls into seqrec.

``install`` replaces the module or class attributes that seqrec's callers look
up at call time with wrappers that record a span per call, so nothing under
``src/`` changes. Spans are kept in memory and written as JSONL when the step
process ends; ``summarize`` turns the spans of all steps of one traced run
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import time


PER_LAYER = {
    "data.ingest_s": "s", "data.ingest_rows_per_s": "1/s", "data.core_filter_s": "s",
    "data.split_s": "s", "data.save_split_s": "s", "data.load_split_s": "s",
    "data.tensor_build_s": "s",
    "linalg.svd_calls": "count", "linalg.svd_dense_calls": "count",
    "linalg.svd_iterative_calls": "count", "linalg.svd_tall_calls": "count",
    "linalg.svd_wide_calls": "count", "linalg.svd_failed": "count",
    "linalg.svd_self_s": "s", "linalg.operator_applies_per_svd": "count",
    "linalg.skew_cache_s": "s", "linalg.skew_fft_calls": "count",
    "linalg.skew_direct_calls": "count",
    "models.sweep_s": "s", "models.mode1_s": "s", "models.mode2_s": "s",
    "models.mode3_s": "s", "models.mode4_s": "s",
    "models.matvec_s": "s", "models.rmatvec_s": "s", "models.matvec_calls": "count",
    "models.rmatvec_calls": "count", "models.snapshot_s": "s", "attention.restore_s": "s",
    "models.puresvd_s": "s", "models.save_s": "s", "models.load_s": "s",
    "models.score_history_us": "us", "attention.apply_calls": "count",
    "attention.apply_s": "s",
    "evaluation.evaluate_s": "s", "evaluation.events_per_s": "1/s",
    "evaluation.predict_p50_us": "us", "evaluation.predict_p99_us": "us",
    "evaluation.grid_points": "count", "evaluation.sweeps_run": "count",
    "evaluation.sweeps_useful_ratio": "ratio",
    "cli.prepare_self_s": "s", "cli.tune_self_s": "s", "cli.final_self_s": "s",
    "trace.pipeline_s": "s",
}


class Tracer:
    """In-memory span store for one step process."""

    def __init__(self, run_id, step):
        self.run_id = run_id
        self.step = step
        self.spans = []  # [id, parent, name, start, end, attrs]
        self._stack = []

    def wrap(self, name, fn, before=None, after=None):
        """Return ``fn`` wrapped so every call records a span called ``name``.

        ``before(args, kwargs)`` and, for a call that returned,
        ``after(args, kwargs, result)`` give extra span fields; a call that
        raised gets ``error`` set to the exception's type name.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else None, name, 0.0, 0.0,
                   before(args, kwargs) if before else {}]
            spans.append(rec)
            stack.append(rec)
            rec[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5]["error"] = type(exc).__name__
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                rec[5].update(after(args, kwargs, result))
            return result

        return traced

    def patch(self, owner, attr, name, before=None, after=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), before, after))

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({"run": self.run_id, "step": self.step, "id": sid,
                                     "parent": parent, "name": name, "start": start,
                                     "end": end, **attrs}) + "\n")


def install(tracer):
    """Wrap the seqrec entry points each layer's callers look up.

    Module-level names are patched in the namespace of the module that calls
    them (``seqrec.cli`` imports its own bindings of the evaluation and model
    functions); methods are patched on their classes.
    """
    from seqrec import attention, cli, data, evaluation, linalg, models

    for fn, name in (("ingest_log", "data.ingest"), ("core_filter", "data.core_filter"),
                     ("boundary_for_count", "data.split"), ("timepoint_split", "data.split"),
                     ("save_split", "data.save_split"), ("load_split", "data.load_split"),
                     ("build_positional_tensor", "data.tensor_build")):
        tracer.patch(data, fn, name)

    for module in (cli, evaluation):
        tracer.patch(module, "evaluate", "evaluation.evaluate",
                     before=lambda a, k: {"events": len(a[2])})
    tracer.patch(cli, "grid_search", "evaluation.grid_search",
                 after=lambda a, k, r: {"points": len(r[1])})
    tracer.patch(evaluation, "early_stopping_train", "evaluation.early_stopping",
                 after=lambda a, k, r: {"best": r[1], "sweeps": len(r[2])})
    tracer.patch(evaluation, "predict_next", "evaluation.predict_next")

    for fn, name in (("train_puresvd", "models.puresvd"), ("train_gasatf", "models.train"),
                     ("train_lasatf", "models.train"), ("save_model", "models.save")):
        tracer.patch(cli, fn, name)
    tracer.patch(models, "load_model", "models.load")
    tracer.patch(models, "triangular_restore", "attention.restore")
    tracer.patch(models, "skew_block_cache", "linalg.skew_cache")
    tracer.patch(models, "truncated_svd", "linalg.truncated_svd",
                 before=lambda a, k: {"rows": a[0].shape[0], "cols": a[0].shape[1],
                                      "mode": getattr(a[0], "bench_mode", None)})
    for fn in ("ga_mode_operator", "la_mode_operator"):
        tracer.patch(models, fn, "models.mode_operator", before=_mode, after=_tag_mode)
    implicit = models.ImplicitMatrix

    def traced_matrix(shape, matvec, rmatvec):
        return implicit(shape=shape, matvec=tracer.wrap("models.matvec", matvec),
                        rmatvec=tracer.wrap("models.rmatvec", rmatvec))

    models.ImplicitMatrix = traced_matrix

    for trainer in (models.GlobalAttentionTrainer, models.LocalAttentionTrainer):
        tracer.patch(trainer, "sweep", "models.sweep")
        tracer.patch(trainer, "snapshot", "models.snapshot")
    for model in (models.MPModel, models.SVDModel, models.GlobalAttentionModel,
                  models.LocalAttentionModel):
        tracer.patch(model, "score_history", "models.score_history")
    for method in ("apply", "apply_transpose"):
        tracer.patch(attention.AttentionMatrix, method, "attention.apply")

    # Path counters: which SVD and skew-block implementation ran.
    tracer.patch(linalg, "svds", "linalg.svds")
    tracer.patch(linalg, "_skew_blocks_fft", "linalg.skew_fft")
    tracer.patch(linalg, "_skew_blocks_direct", "linalg.skew_direct")


def _mode(args, kwargs):
    return {"mode": kwargs.get("mode", args[4] if len(args) > 4 else None)}


def _tag_mode(args, kwargs, op):
    """Let the truncated-SVD span of this operator name its mode."""
    op.bench_mode = _mode(args, kwargs)["mode"]
    return {}


def read_spans(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def quantile(values, q):
    """Nearest-rank quantile ``q`` in (0, 1]; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarize(spans, walls, csv_rows):
    """Per-layer metrics from the spans of one traced run.

    ``walls`` maps each traced step to its wall time as the harness measured
    it, ``csv_rows`` is the row count of the ingested CSV. A layer the
    workload never reaches reads 0.
    """
    by_key = {(s["step"], s["id"]): s for s in spans}
    by_name = {}
    children = {}
    for s in spans:
        s["dur"] = s["end"] - s["start"]
        by_name.setdefault(s["name"], []).append(s)
        if s["parent"] is not None:
            children.setdefault((s["step"], s["parent"]), []).append(s)
    for s in spans:
        s["self"] = s["dur"] - sum(c["dur"] for c in children.get((s["step"], s["id"]), ()))

    def named(name):
        return by_name.get(name, [])

    def total(name, key="dur"):
        return sum(s[key] for s in named(name))

    def ancestors(s):
        while s["parent"] is not None:
            s = by_key[(s["step"], s["parent"])]
            yield s

    svds = named("linalg.truncated_svd")
    iterative = {(s["step"], s["parent"]) for s in named("linalg.svds")}
    operator_calls = named("models.matvec") + named("models.rmatvec")
    in_svd = [s for s in operator_calls
              if any(a["name"] == "linalg.truncated_svd" for a in ancestors(s))]
    applies = [s for s in named("attention.apply")
               if by_key.get((s["step"], s["parent"]), {}).get("name") != "attention.apply"]
    evaluate_s = total("evaluation.evaluate")
    events = sum(s.get("events", 0) for s in named("evaluation.evaluate"))
    ingest_s = total("data.ingest")
    sweeps_run = sum(s.get("sweeps", 0) for s in named("evaluation.early_stopping"))
    best_sweeps = sum(s.get("best", 0) for s in named("evaluation.early_stopping"))
    predict_us = [s["dur"] * 1e6 for s in named("evaluation.predict_next")]

    metrics = {
        "data.ingest_s": ingest_s,
        "data.ingest_rows_per_s": csv_rows / ingest_s if ingest_s else 0.0,
        "data.core_filter_s": total("data.core_filter"),
        "data.split_s": total("data.split"),
        "data.save_split_s": total("data.save_split"),
        "data.load_split_s": total("data.load_split"),
        "data.tensor_build_s": total("data.tensor_build"),
        "linalg.svd_calls": len(svds),
        "linalg.svd_dense_calls": sum((s["step"], s["id"]) not in iterative for s in svds),
        "linalg.svd_iterative_calls": sum((s["step"], s["id"]) in iterative for s in svds),
        "linalg.svd_tall_calls": sum(s["rows"] >= s["cols"] for s in svds),
        "linalg.svd_wide_calls": sum(s["rows"] < s["cols"] for s in svds),
        "linalg.svd_failed": sum("error" in s for s in svds),
        "linalg.svd_self_s": sum(s["dur"] for s in svds) - sum(s["dur"] for s in in_svd),
        "linalg.operator_applies_per_svd": len(in_svd) / len(svds) if svds else 0.0,
        "linalg.skew_cache_s": total("linalg.skew_cache"),
        "linalg.skew_fft_calls": len(named("linalg.skew_fft")),
        "linalg.skew_direct_calls": len(named("linalg.skew_direct")),
        "models.sweep_s": quantile([s["dur"] for s in named("models.sweep")], 0.5),
    }
    for mode in (1, 2, 3, 4):
        parts = [s for s in spans if s.get("mode") == mode
                 and s["name"] in ("models.mode_operator", "linalg.truncated_svd")]
        updates = sum(s["name"] == "linalg.truncated_svd" for s in parts)
        metrics[f"models.mode{mode}_s"] = (sum(s["dur"] for s in parts) / updates
                                           if updates else 0.0)
    metrics.update({
        "models.matvec_s": total("models.matvec", "self"),
        "models.rmatvec_s": total("models.rmatvec", "self"),
        "models.matvec_calls": len(named("models.matvec")),
        "models.rmatvec_calls": len(named("models.rmatvec")),
        "models.snapshot_s": total("models.snapshot"),
        "attention.restore_s": total("attention.restore"),
        "models.puresvd_s": total("models.puresvd"),
        "models.save_s": total("models.save"),
        "models.load_s": total("models.load"),
        "models.score_history_us": quantile([s["dur"] * 1e6
                                             for s in named("models.score_history")], 0.5),
        "attention.apply_calls": len(applies),
        "attention.apply_s": sum(s["dur"] for s in applies),
        "evaluation.evaluate_s": evaluate_s,
        "evaluation.events_per_s": events / evaluate_s if evaluate_s else 0.0,
        "evaluation.predict_p50_us": quantile(predict_us, 0.5),
        "evaluation.predict_p99_us": quantile(predict_us, 0.99),
        "evaluation.grid_points": sum(s.get("points", 0) for s in named("evaluation.grid_search")),
        "evaluation.sweeps_run": sweeps_run,
        "evaluation.sweeps_useful_ratio": best_sweeps / sweeps_run if sweeps_run else 0.0,
    })
    for step in ("prepare", "tune", "final"):
        roots = [s for s in spans if s["step"] == step and s["name"] == "cli.main"]
        covered = sum(c["dur"] for r in roots for c in children.get((step, r["id"]), ()))
        metrics[f"cli.{step}_self_s"] = walls[step] - covered if step in walls else 0.0
    metrics["trace.pipeline_s"] = sum(walls.get(step, 0.0)
                                      for step in ("prepare", "tune", "final"))
    return metrics

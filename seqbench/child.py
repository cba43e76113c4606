"""Body of one benchmark step process.

    python3 seqbench/child.py [--trace SPANS --run-id ID] cli STEP SEQREC_ARGS...
    python3 seqbench/child.py [--trace SPANS --run-id ID] serve --dir DIR --n N \
        --passes P --out RESULT

``cli`` runs the seqrec CLI with the tracing wrappers installed; untraced
runs call ``python -m seqrec.cli`` directly instead. ``serve`` loads
``model.npz`` and replays the test events through ``predict_next`` as one
closed-loop caller, folding each event into the user's history as
``seqrec.evaluation.evaluate`` does, ``--passes`` times. The latency of every
timed call goes to a ``.npy`` file next to ``RESULT``, one row per pass; cold
requests (no usable history) are counted in ``skipped_cold_count`` and not
timed. With ``--trace``
the spans are written as JSONL on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402


def replay_requests(split):
    """Histories before the test split and the time-ordered test requests."""
    train, valid, test = split.train, split.validation, split.test
    users = np.concatenate([train.users, valid.users])
    items = np.concatenate([train.items, valid.items])
    times = np.concatenate([train.timestamps, valid.timestamps])
    order = np.lexsort((np.arange(len(users)), times, users))
    histories = {}
    for user, item in zip(users[order].tolist(), items[order].tolist()):
        histories.setdefault(user, []).append(item)
    events = np.lexsort((np.arange(len(test)), test.timestamps))
    return histories, list(zip(test.users[events].tolist(), test.items[events].tolist()))


def score_replay(requests, tops, n):
    """HR/NDCG of one replay, with the arithmetic of ``evaluate``."""
    hits, gains = [], []
    for (_, target), top in zip(requests, tops):
        if top is None:
            continue
        where = np.flatnonzero(top == target)
        rank = int(where[0]) + 1 if len(where) else None
        hits.append(1.0 if rank is not None else 0.0)
        gains.append(1.0 / math.log2(rank + 1) if rank is not None and rank <= n else 0.0)
    return {
        "hr": float(np.mean(hits)) if hits else 0.0,
        "ndcg": float(np.mean(gains)) if gains else 0.0,
        "evaluated_count": len(hits),
        "skipped_cold_count": sum(top is None for top in tops),
    }


def serve(run_dir, n, passes, predict):
    from seqrec import data, models

    split = data.load_split(run_dir / "split.npz")
    model = models.load_model(run_dir / "model.npz")
    base, requests = replay_requests(split)
    latencies, consistent, first = [], True, None
    for _ in range(passes):
        histories = {user: list(items) for user, items in base.items()}
        tops = []
        for user, target in requests:
            history = histories.setdefault(user, [])
            start = time.perf_counter()
            try:
                top = predict(model, history, n, exclude_seen=True)
            except models.ColdUserError:
                top = None
            else:
                latencies.append(time.perf_counter() - start)
                top = top.copy()  # a view would keep the whole ranking alive
            tops.append(top)
            history.append(target)
        if first is None:
            first = tops
        else:
            consistent = consistent and all(
                (a is None and b is None) or (a is not None and b is not None
                                              and np.array_equal(a, b))
                for a, b in zip(first, tops))
    return {
        **score_replay(requests, first, n),
        "passes": passes,
        "requests": len(requests),
        "consistent": consistent,
    }, np.array(latencies).reshape(passes, -1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", type=Path, help="write spans to this JSONL file")
    parser.add_argument("--run-id", default="")
    sub = parser.add_subparsers(dest="command", required=True)
    cli_args = sub.add_parser("cli")
    cli_args.add_argument("step")
    cli_args.add_argument("args", nargs=argparse.REMAINDER)
    serve_args = sub.add_parser("serve")
    serve_args.add_argument("--dir", type=Path, required=True)
    serve_args.add_argument("--n", type=int, required=True)
    serve_args.add_argument("--passes", type=int, required=True)
    serve_args.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    from seqrec import cli, models

    step = args.step if args.command == "cli" else "serve"
    tracer = tracing.Tracer(args.run_id, step) if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
    try:
        if args.command == "cli":
            entry = tracer.wrap("cli.main", cli.main) if tracer else cli.main
            return entry(args.args + [args.step])
        predict = tracer.wrap("serve.request", models.predict_next) if tracer else \
            models.predict_next
        result, latencies = serve(args.dir, args.n, args.passes, predict)
        np.save(args.out.with_suffix(".npy"), latencies)
        result["latency_file"] = args.out.with_suffix(".npy").name
        args.out.write_text(json.dumps(result))
        return 0
    finally:
        if tracer is not None:
            tracer.write(args.trace)


if __name__ == "__main__":
    sys.exit(main())

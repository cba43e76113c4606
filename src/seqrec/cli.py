"""Batch experiment front-end: prepare / tune / final / report subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import data as dp
from .attention import build_attention
from .evaluation import GridSpace, evaluate, grid_search
from .linalg import ConvergenceError
from .models import (
    GlobalAttentionTrainer,
    LocalAttentionTrainer,
    load_model,
    save_model,
    train_gasatf,
    train_lasatf,
    train_mp,
    train_puresvd,
)

__all__ = ["main"]


class ConfigError(ValueError):
    pass


PRESETS = {
    "ml-1m": {
        "K": 200,
        "model": {"window_values": [20, 40, 60, 80],
                  "grid": {"r3": [5, 10, 15, 20], "r4": [5, 10, 15, 20]}},
    },
}

_SVD_RANKS = (list(range(100, 1001, 100))
              + list(range(1200, 2001, 200)) + [2500, 3000])
_TENSOR_RANKS = list(range(100, 1001, 100))


def _is_integer(val):
    return isinstance(val, int) and not isinstance(val, bool)


# what each entry of a list-valued model parameter must be
_ENTRY_RULES = {
    **dict.fromkeys(("rank", "r1", "r2", "r3", "r4", "window_values"),
                    ("positive integers", lambda val: _is_integer(val) and val >= 1)),
    **dict.fromkeys(("f", "s"), ("real numbers",
                                 lambda val: _is_integer(val) or isinstance(val, float))),
    "regime": ("'plain' or 'restored'", lambda val: val in ("plain", "restored")),
}


def _deep_update(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def load_config(path, preset=None, overrides=None):
    with open(path) as fh:
        try:
            config = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {' '.join(str(exc).split())}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path} must hold a mapping, not {type(config).__name__}")
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (choose from {sorted(PRESETS)})")
        config = _deep_update(dict(json.loads(json.dumps(PRESETS[preset]))), config)
    if overrides:
        _deep_update(config, overrides)
    if "seed" not in config:
        raise ConfigError("config must set a seed (reproducibility is mandatory)")
    for key in ("dataset", "split", "model"):
        if not isinstance(config.get(key, {}), dict):
            raise ConfigError(f"{key} must be a mapping, got {config[key]!r}")
    split, model = config.get("split", {}), config.get("model", {})
    integers = {key: config.get(key, 1)
                for key in ("seed", "K", "core", "n", "budget", "patience", "max_sweeps")}
    integers.update((f"split.{key}", split[key]) for key in
                    ("t_valid", "t_test", "valid_count", "test_count") if key in split)
    for key, val in integers.items():
        if not _is_integer(val):
            raise ConfigError(f"{key} must be an integer, got {val!r}")
    for key in ("K", "n", "budget", "max_sweeps"):
        if integers[key] < 1:
            raise ConfigError(f"{key} must be an integer >= 1, got {integers[key]!r}")
    grid = model.get("grid", {})
    if not isinstance(grid, dict) or not all(isinstance(v, list) for v in grid.values()):
        raise ConfigError(f"model.grid must map each parameter to a list, got {grid!r}")
    if not isinstance(model.get("window_values", []), list):
        raise ConfigError(f"model.window_values must be a list, got {model['window_values']!r}")
    lists = {**grid, "window_values": model.get("window_values", [])}
    for name, (wanted, valid) in _ENTRY_RULES.items():
        bad = [val for val in lists.get(name, []) if not valid(val)]
        if bad:
            raise ConfigError(f"model {name} entries must be {wanted}, got {bad[0]!r}")
    return config


def _out_dir(config, args):
    out = Path(args.output or config.get("output", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _resolve_boundaries(log, split_cfg):
    if "t_valid" in split_cfg and "t_test" in split_cfg:
        return split_cfg["t_valid"], split_cfg["t_test"]
    if "valid_count" in split_cfg and "test_count" in split_cfg:
        t_test = dp.boundary_for_count(log, split_cfg["test_count"])
        head = log.replace_events(*(arr[log.timestamps < t_test]
                                    for arr in (log.users, log.items, log.timestamps)))
        t_valid = dp.boundary_for_count(head, split_cfg["valid_count"])
        return t_valid, t_test
    raise ConfigError("split must set t_valid/t_test or valid_count/test_count")


def cmd_prepare(config, args):
    ds = config.get("dataset")
    if not ds or "path" not in ds:
        raise ConfigError("config must set dataset.path")
    path = Path(ds["path"])
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    log = dp.ingest_log(
        path,
        delimiter=ds.get("delimiter", ","),
        user_col=ds.get("user_col", "user"),
        item_col=ds.get("item_col", "item"),
        time_col=ds.get("time_col", "timestamp"),
        header=ds.get("header", True),
    )
    core = config.get("core", 5)
    if core > 1:
        log = dp.core_filter(log, core)
    split = dp.timepoint_split(log, *_resolve_boundaries(log, config.get("split", {})))
    out = _out_dir(config, args)
    dp.save_split(split, out / "split.npz")

    lengths = np.bincount(log.users, minlength=log.n_users)
    stats = {
        "users": log.n_users,
        "items": log.n_items,
        "interactions": len(log),
        "history_mean": float(lengths.mean()),
        "history_median": float(np.median(lengths)),
        "density": len(log) / (log.n_users * log.n_items),
        "t_valid": split.t_valid,
        "t_test": split.t_test,
        "sizes": {"train": len(split.train), "validation": len(split.validation),
                  "test": len(split.test)},
    }
    (out / "stats.json").write_text(json.dumps(stats, indent=2))
    print(json.dumps(stats, indent=2))
    return stats


def _clip(values, cap):
    kept = [v for v in values if v <= cap]
    return kept or [cap]


def _grid_space(kind, config, m, n_items, k):
    model_cfg = config.get("model", {})
    grid = model_cfg.get("grid", {})
    budget = config.get("budget", 200)
    if kind == "mp":
        return GridSpace(values={"_": [0]}, budget=budget)
    if kind == "svd":
        values = {
            "rank": _clip(grid.get("rank", _SVD_RANKS), min(m, n_items)),
            "s": grid.get("s", [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]),
            "regime": grid.get("regime", ["plain", "restored"]),
        }
        return GridSpace(values=values, budget=budget)
    if kind == "global":
        values = {
            "r1": _clip(grid.get("r1", _TENSOR_RANKS), m),
            "r2": _clip(grid.get("r2", _TENSOR_RANKS), n_items),
            "r3": _clip(grid.get("r3", [5, 10, 15, 20]), k),
            "f": grid.get("f", [0.0, 0.5, 1.0]),
            "s": grid.get("s", [0.0, 0.2, 0.4, 0.6]),
            "regime": grid.get("regime", ["plain", "restored"]),
        }
        return GridSpace(values=values, budget=budget)
    if kind == "local":
        windows = model_cfg.get("window_values", [1, 2, 5, 10])
        values = {
            "window": [w for w in windows if w <= k] or [k],
            "r1": _clip(grid.get("r1", _TENSOR_RANKS), m),
            "r2": _clip(grid.get("r2", _TENSOR_RANKS), n_items),
            "r3": grid.get("r3", [1, 2, 5, 10]),
            "r4": grid.get("r4", [1, 2, 5, 10]),
            "f": grid.get("f", [0.0, 0.5, 1.0]),
            "s": grid.get("s", [0.0, 0.2, 0.4, 0.6]),
            "regime": grid.get("regime", ["plain", "restored"]),
        }
        constraints = (
            lambda p: p["r3"] < p["window"],
            lambda p: p["r4"] < p["window"],
            lambda p: p["r4"] <= k - p["window"] + 1,
        )
        return GridSpace(values=values, constraints=constraints, budget=budget)
    raise ConfigError(f"unknown model kind {kind!r}")


def _factory(kind, train_log, tensor, seed, config):
    k = config.get("K", 50)

    # The regime only changes how an SVD model scores, and the grid enumerates
    # it last, so points sharing (rank, s) are adjacent: a one-entry cache
    # trains each factorization once.
    @functools.lru_cache(maxsize=1)
    def factorize(rank, s):
        return train_puresvd(train_log, r=rank, s=s, seed=seed)

    def build(point):
        if kind == "mp":
            return train_mp(train_log)
        if kind == "svd":
            return dataclasses.replace(factorize(point["rank"], point["s"]),
                                       regime=point["regime"])
        if kind == "global":
            attention = build_attention(k, f=point["f"])
            return GlobalAttentionTrainer(
                tensor, attention, (point["r1"], point["r2"], point["r3"]),
                s=point["s"], seed=seed, regime=point["regime"])
        if kind == "local":
            attention = build_attention(point["window"], f=point["f"])
            return LocalAttentionTrainer(
                tensor, point["window"], attention,
                (point["r1"], point["r2"], point["r3"], point["r4"]),
                s=point["s"], seed=seed, regime=point["regime"])
        raise ConfigError(f"unknown model kind {kind!r}")

    return build


def cmd_tune(config, args):
    out = _out_dir(config, args)
    split_path = out / "split.npz"
    if not split_path.exists():
        raise FileNotFoundError(f"prepared split not found: {split_path} (run prepare first)")
    split = dp.load_split(split_path)
    kind = config.get("model", {}).get("kind", "local")
    seed = config["seed"]
    n = config.get("n", 10)
    k = config.get("K", 50)
    tensor = dp.build_positional_tensor(split.train, k) if kind in ("global", "local") else None
    space = _grid_space(kind, config, split.train.n_users, split.train.n_items, k)
    best, log = grid_search(
        space, _factory(kind, split.train, tensor, seed, config),
        split.train, split.validation, n=n, seed=seed,
        patience=config.get("patience", 3),
        max_sweeps=config.get("max_sweeps", 10),
    )
    with open(out / "grid_log.jsonl", "w") as fh:
        for point in log:
            fh.write(json.dumps({"split": "validation", "kind": kind, **point.as_dict()}) + "\n")
    winner = {"kind": kind, "config": best.config, "sweep_count": best.sweep_count,
              "ndcg": best.report.ndcg}
    (out / "best.json").write_text(json.dumps(winner, indent=2))
    print(json.dumps(winner, indent=2))
    return winner


def cmd_final(config, args):
    out = _out_dir(config, args)
    split_path = out / "split.npz"
    best_path = out / "best.json"
    for path in (split_path, best_path):
        if not path.exists():
            raise FileNotFoundError(f"missing artifact: {path}")
    split = dp.load_split(split_path)
    tuned = json.loads(best_path.read_text())
    kind = tuned["kind"]
    point = tuned["config"]
    seed = config["seed"]
    n = config.get("n", 10)
    k = config.get("K", 50)
    sweeps = max(1, int(tuned.get("sweep_count", 1)))

    merged = split.train.replace_events(*(
        np.concatenate([getattr(split.train, name), getattr(split.validation, name)])
        for name in ("users", "items", "timestamps")))
    if kind == "mp":
        model = train_mp(merged)
    elif kind == "svd":
        model = train_puresvd(merged, r=point["rank"], s=point["s"],
                              regime=point["regime"], seed=seed)
    elif kind == "global":
        tensor = dp.build_positional_tensor(merged, k)
        model = train_gasatf(tensor, f=point["f"],
                             ranks=(point["r1"], point["r2"], point["r3"]),
                             s=point["s"], seed=seed, sweeps=sweeps,
                             regime=point["regime"])
    elif kind == "local":
        tensor = dp.build_positional_tensor(merged, k)
        model = train_lasatf(tensor, window=point["window"], f=point["f"],
                             ranks=(point["r1"], point["r2"], point["r3"], point["r4"]),
                             s=point["s"], seed=seed, sweeps=sweeps,
                             regime=point["regime"])
    else:
        raise ConfigError(f"unknown model kind {kind!r}")

    save_model(model, out / "model.npz")
    report = evaluate(model, merged, split.test, n=n)
    record = {"split": "test", "kind": kind, "config": point,
              "sweep_count": sweeps, **report.as_dict()}
    with open(out / "report.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record, indent=2))
    return report


def cmd_report(config, args):
    out = _out_dir(config, args)
    shown = 0
    for name in ("grid_log.jsonl", "report.jsonl"):
        path = out / name
        if path.exists():
            print(f"== {name}")
            sys.stdout.write(path.read_text())
            shown += 1
    if not shown:
        raise FileNotFoundError(f"no reports found in {out}")


def build_parser():
    parser = argparse.ArgumentParser(prog="seqrec",
                                     description="Sequence-aware recommender experiments")
    parser.add_argument("--config", required=True, help="YAML experiment config")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--output", help="output directory")
    parser.add_argument("--preset", help="named per-dataset defaults")
    parser.add_argument("command", choices=["prepare", "tune", "final", "report"])
    return parser


COMMANDS = {"prepare": cmd_prepare, "tune": cmd_tune, "final": cmd_final, "report": cmd_report}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        overrides = {"seed": args.seed} if args.seed is not None else None
        config = load_config(args.config, preset=args.preset, overrides=overrides)
        COMMANDS[args.command](config, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 3
    except (dp.DataError, ValueError, ConvergenceError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

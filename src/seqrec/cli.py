"""Batch experiment front-end: prepare / tune / final / report subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
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
    feasible_ranks,
    save_model,
    # cli calls neither train_gasatf nor train_lasatf; seqbench's tracer patches them here
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


# what a value must be: (wording, test)
_INTEGER = ("an integer", _is_integer)
_NATURAL = ("an integer >= 0", lambda val: _is_integer(val) and val >= 0)
_POSITIVE = ("an integer >= 1", lambda val: _is_integer(val) and val >= 1)
# YAML reads .nan and .inf as floats; an integer past the float range would
# overflow to inf as well
_REAL = ("a finite real number",
         lambda val: (_is_integer(val) and abs(val) <= sys.float_info.max
                      or isinstance(val, float) and math.isfinite(val)))
_DECAY = ("a finite real number >= 0", lambda val: _REAL[1](val) and val >= 0)
_STRING = ("a string", lambda val: isinstance(val, str))
_MAPPING = ("a mapping", lambda val: isinstance(val, dict))
_REGIME = {"regime": (["plain", "restored"],
                      ("'plain' or 'restored'", lambda val: val in ("plain", "restored")), None)}
_USER_ITEM = {"r1": (_TENSOR_RANKS, _POSITIVE, lambda m, n, k: m),
              "r2": (_TENSOR_RANKS, _POSITIVE, lambda m, n, k: n)}
_ATTENTION = {"f": ([0.0, 0.5, 1.0], _DECAY, None), "s": ([0.0, 0.2, 0.4, 0.6], _REAL, None),
              **_REGIME}

# Each model kind's grid, in enumeration order: parameter -> (default list,
# entry rule, cap). A cap maps the train log's (users, items, K) to the
# largest value worth trying: a list keeps its values up to the cap, or the
# cap alone if none is that small. Local's window list is model.window_values;
# every other list is set in model.grid under the parameter's name.
_KINDS = {
    "mp": {},
    "svd": {"rank": (_SVD_RANKS, _POSITIVE, lambda m, n, k: min(m, n)),
            "s": ([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], _REAL, None), **_REGIME},
    "global": {**_USER_ITEM, "r3": ([5, 10, 15, 20], _POSITIVE, lambda m, n, k: k),
               **_ATTENTION},
    "local": {"window": ([1, 2, 5, 10], _POSITIVE, lambda m, n, k: k), **_USER_ITEM,
              "r3": ([1, 2, 5, 10], _POSITIVE, None), "r4": ([1, 2, 5, 10], _POSITIVE, None),
              **_ATTENTION},
}


# Every key a config may set, by section ("" is the top level): key ->
# (default, rule). Any other key is a misspelling, which would otherwise leave
# its default in force unseen. A key with default None stays unset if omitted
# (a section is then empty). load_config checks the columns against header.
_SETTINGS = {
    "": {"seed": (None, _NATURAL), "dataset": (None, _MAPPING), "split": (None, _MAPPING),
         "core": (5, _INTEGER), "K": (50, _POSITIVE), "n": (10, _POSITIVE),
         "budget": (200, _POSITIVE), "patience": (3, _POSITIVE),
         "max_sweeps": (10, _POSITIVE), "model": (None, _MAPPING), "output": (".", _STRING)},
    "dataset": {"path": (None, _STRING),
                "delimiter": (",", ("one character",
                                    lambda val: isinstance(val, str) and len(val) == 1)),
                "user_col": ("user", None), "item_col": ("item", None),
                "time_col": ("timestamp", None),
                "header": (True, ("true or false", lambda val: isinstance(val, bool)))},
    "split": {"t_valid": (None, _INTEGER), "t_test": (None, _INTEGER),
              "valid_count": (None, _POSITIVE), "test_count": (None, _POSITIVE)},
    "model": {"kind": ("local", (f"one of {list(_KINDS)}",
                                 lambda val: isinstance(val, str) and val in _KINDS)),
              "grid": (None, ("a mapping of each parameter to a list",
                              lambda val: isinstance(val, dict)
                              and all(isinstance(v, list) for v in val.values()))),
              "window_values": (None, ("a list", lambda val: isinstance(val, list)))},
}


def _deep_update(base, extra):
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(base.get(key), dict):
            _deep_update(base[key], val)
        else:
            base[key] = val
    return base


def _lists(kind, model):
    """The value lists the model config sets, by grid parameter of the kind,
    each with the name it is set under; a name the kind lacks is an error."""
    names = {("window_values" if param == "window" else f"grid.{param}"): param
             for param in _KINDS[kind]}
    given = {f"grid.{key}": values for key, values in model.get("grid", {}).items()}
    if "window_values" in model:
        given["window_values"] = model["window_values"]
    for name in given:
        if name not in names:
            raise ConfigError(f"model.{name} is not a parameter of model kind {kind!r} "
                              f"(its parameters: {list(names)})")
    return {names[name]: (name, values) for name, values in given.items()}


def load_config(path, preset=None, overrides=None):
    """The config at path under the preset and overrides, its defaults filled."""
    with open(path, "rb") as fh:  # PyYAML decodes it: a byte not UTF-8 is a YAMLError
        try:
            config = yaml.safe_load(fh) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {' '.join(str(exc).split())}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path} must hold a mapping, not {type(config).__name__}")
    if preset:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset {preset!r} (choose from {sorted(PRESETS)})")
        defaults = json.loads(json.dumps(PRESETS[preset]))
        model = config.get("model")
        if isinstance(model, dict) and model.get("kind", _SETTINGS["model"]["kind"][0]) != "local":
            del defaults["model"]  # a preset's windows and r3/r4 lists are local's
        config = _deep_update(defaults, config)
    if overrides:
        _deep_update(config, overrides)
    if "seed" not in config:
        raise ConfigError("config must set a seed (reproducibility is mandatory)")
    for section, settings in _SETTINGS.items():
        values = config.setdefault(section, {}) if section else config
        prefix = f"{section}." if section else ""
        for key in values:
            if key not in settings:
                raise ConfigError(f"unknown config key {f'{prefix}{key}'!r} "
                                  f"(known here: {', '.join(settings)})")
        for key, (default, rule) in settings.items():
            if key not in values and default is not None:
                values[key] = default
            elif key in values and rule and not rule[1](values[key]):
                raise ConfigError(f"{prefix}{key} must be {rule[0]}, got {values[key]!r}")
    dataset, split, model = config["dataset"], config["split"], config["model"]
    header = dataset["header"]
    for key in ("user_col", "item_col", "time_col"):
        if not (isinstance(dataset[key], str) if header else _NATURAL[1](dataset[key])):
            wanted = "a column name" if header else "a 0-based column index (an integer >= 0)"
            raise ConfigError(f"dataset.{key} must be {wanted} under header: "
                              f"{str(header).lower()}, got {dataset[key]!r}")
    if split:
        _split_pair(split)
    if "t_valid" in split and "t_test" in split and split["t_valid"] >= split["t_test"]:
        raise ConfigError(f"split.t_valid must be below split.t_test, got "
                          f"{split['t_valid']} and {split['t_test']}")
    kind = model["kind"]
    for param, (name, values) in _lists(kind, model).items():
        _, (wanted, valid), _ = _KINDS[kind][param]
        if not values:
            raise ConfigError(f"model.{name} must list at least one value")
        bad = [val for val in values if not valid(val)]
        if bad:
            raise ConfigError(f"each model.{name} entry must be {wanted}, got {bad[0]!r}")
    return config


def _split_pair(split_cfg):
    """The pair of keys the split is resolved from: boundaries before counts."""
    for pair in (("t_valid", "t_test"), ("valid_count", "test_count")):
        if all(key in split_cfg for key in pair):
            return pair
    raise ConfigError("split must set t_valid/t_test or valid_count/test_count")


def _resolve_boundaries(log, split_cfg):
    if _split_pair(split_cfg) == ("t_valid", "t_test"):
        return split_cfg["t_valid"], split_cfg["t_test"]
    t_test = dp.boundary_for_count(log, split_cfg["test_count"])
    head = log.replace_events(*(arr[log.timestamps < t_test]
                                for arr in (log.users, log.items, log.timestamps)))
    return dp.boundary_for_count(head, split_cfg["valid_count"]), t_test


def cmd_prepare(config):
    options = dict(config["dataset"])
    if "path" not in options:
        raise ConfigError("config must set dataset.path")
    path = Path(options.pop("path"))
    if not path.is_file():
        raise FileNotFoundError(f"dataset file not found: {path}")
    _split_pair(config["split"])  # a config error, so before any reading
    out = Path(config["output"])
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ConfigError(f"output must name a directory, not a file or a path under one: {out}")
    log = dp.ingest_log(path, **options)
    if config["core"] > 1:
        log = dp.core_filter(log, config["core"])
    split = dp.timepoint_split(log, *_resolve_boundaries(log, config["split"]))
    out.mkdir(parents=True, exist_ok=True)
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


def _grid_space(kind, config, m, n_items, k):
    given = _lists(kind, config["model"])
    values = {}
    for param, (default, _, cap) in _KINDS[kind].items():
        values[param] = given[param][1] if param in given else default
        if cap:
            top = cap(m, n_items, k)
            values[param] = [v for v in values[param] if v <= top] or [top]
    def feasible(p):  # as the trainer reads it: GA is LA at window = K with r4 = 1
        window = p.get("window", k)
        return feasible_ranks((m, n_items, window, k - window + 1),
                              tuple(p[key] for key in ("r1", "r2", "r3", "r4") if key in p))

    return GridSpace(values=values, constraints=(feasible,), budget=config["budget"])


def _factory(kind, train_log, seed, k):
    tensor = dp.build_positional_tensor(train_log, k) if kind in ("global", "local") else None
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
            attention = build_attention(tensor.max_position, f=point["f"])
            return GlobalAttentionTrainer(
                tensor, attention, (point["r1"], point["r2"], point["r3"]),
                s=point["s"], seed=seed, regime=point["regime"])
        attention = build_attention(point["window"], f=point["f"])  # local
        return LocalAttentionTrainer(
            tensor, point["window"], attention,
            (point["r1"], point["r2"], point["r3"], point["r4"]),
            s=point["s"], seed=seed, regime=point["regime"])

    return build


def cmd_tune(config):
    out = Path(config["output"])
    split_path = out / "split.npz"
    if not split_path.exists():
        raise FileNotFoundError(f"prepared split not found: {split_path} (run prepare first)")
    split = dp.load_split(split_path)
    kind, seed, k = config["model"]["kind"], config["seed"], config["K"]
    space = _grid_space(kind, config, split.train.n_users, split.train.n_items, k)
    best, log = grid_search(
        space, _factory(kind, split.train, seed, k),
        split.train, split.validation, n=config["n"], seed=seed,
        patience=config["patience"], max_sweeps=config["max_sweeps"],
    )
    with open(out / "grid_log.jsonl", "w") as fh:
        for point in log:
            fh.write(json.dumps({"split": "validation", "kind": kind, **point.as_dict()}) + "\n")
    winner = {"kind": kind, "config": best.config, "sweep_count": best.sweep_count,
              "ndcg": best.report.ndcg}
    (out / "best.json").write_text(json.dumps(winner, indent=2))
    print(json.dumps(winner, indent=2))


def _read_best(path):
    """The kind, grid point and sweep count tune wrote to path, each checked."""
    try:
        tuned = json.loads(path.read_text())
        kind, point, sweeps = tuned["kind"], tuned["config"], tuned["sweep_count"]
        params = _KINDS[kind]
        if isinstance(point, dict) and set(point) == set(params) and _NATURAL[1](sweeps) and all(
                valid(point[key]) for key, (_, (_, valid), _) in params.items()):
            return kind, point, sweeps
    except (KeyError, TypeError, ValueError):
        pass
    raise ValueError(f"{path} must hold a JSON object with a model 'kind', its grid point "
                     "('config') and a 'sweep_count', as tune writes them")


def cmd_final(config):
    out = Path(config["output"])
    split_path = out / "split.npz"
    best_path = out / "best.json"
    for path in (split_path, best_path):
        if not path.exists():
            raise FileNotFoundError(f"missing artifact: {path}")
    split = dp.load_split(split_path)
    kind, point, tuned_sweeps = _read_best(best_path)

    merged, test = split.train.replace_events(*(
        np.concatenate([getattr(split.train, name), getattr(split.validation, name)])
        for name in ("users", "items", "timestamps"))), split.test
    del split  # the merged log is the one copy of the train events kept
    model = _factory(kind, merged, config["seed"], config["K"])(point)
    sweeps = 0  # as run: finished models run none
    if hasattr(model, "sweep"):
        sweeps = max(1, tuned_sweeps)
        for _ in range(sweeps):
            model.sweep()
        model = model.snapshot()
    save_model(model, out / "model.npz")
    report = evaluate(model, merged, test, n=config["n"])
    record = {"split": "test", "kind": kind, "config": point,
              "sweep_count": sweeps, **report.as_dict()}
    with open(out / "report.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record, indent=2))


def cmd_report(config):
    out = Path(config["output"])
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
        overrides = {"seed": args.seed} if args.seed is not None else {}
        if args.output:
            overrides["output"] = args.output
        config = load_config(args.config, preset=args.preset, overrides=overrides)
        COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ConvergenceError, MemoryError, OSError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

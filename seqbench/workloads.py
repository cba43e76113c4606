"""Seeded synthetic interaction logs and the benchmark's workload table.

Every workload draws its log from one generator: Zipf item popularity, a
Markov successor chain over items and geometric history lengths, written as a
CSV with string ids. The program under test only ever sees that CSV and the
YAML config built here; nothing is downloaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

T0 = 1_000_000_000
TIME_SPAN = 100_000_000
FOLLOW = 0.75  # chance that the next event follows the Markov successor
ZIPF = 1.1
MIN_LEN = 5  # shortest generated history, the same as the configs' k-core threshold


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    users: int
    items: int
    mean_len: float
    # Nominal seconds of one serve replay pass, measured at the commit that
    # defined the workload. It turns --seconds into a fixed number of passes,
    # so the serve step does the same work on every commit.
    pass_s: float
    # Rounds of prepare, tune, final and serve in an untraced run: shorter
    # steps get more rounds, so that one of them falls in a quiet spell of
    # the machine.
    rounds: int
    config: dict = field(repr=False)

    def grid_points(self):
        """Number of feasible grid points the config's grid search evaluates."""
        model = self.config["model"]
        grid = model["grid"]
        count = 1
        for values in grid.values():
            count *= len(values)
        if model["kind"] == "local":
            count *= len(model["window_values"])
        return count


def generate_log(path, workload, seed):
    """Write the workload's synthetic log for ``seed`` to ``path``; return the row count.

    Each user starts from a popular item, then at every step follows the
    previous item's successor with probability ``FOLLOW`` or draws a fresh
    item by popularity. Users start at uniform times; their events spread
    over a random share of the remaining span, so the time split cuts through
    live histories.

    The successor chain over popularity ranks and the multiset of history
    lengths belong to the workload, not the seed: the seed relabels items,
    deals the lengths to users and draws every event, so seeds differ only by
    sampling.
    """
    n_items = workload.items
    popularity = 1.0 / np.arange(1, n_items + 1) ** ZIPF
    popularity /= popularity.sum()
    cycle = np.random.default_rng(n_items).permutation(n_items)
    successor = np.empty(n_items, dtype=np.int64)  # over popularity ranks
    successor[cycle] = np.roll(cycle, -1)
    q = 1.0 / (workload.mean_len - MIN_LEN + 1)
    quantiles = (np.arange(workload.users) + 0.5) / workload.users
    geometric = MIN_LEN - 1 + np.ceil(np.log1p(-quantiles) / np.log1p(-q))

    rng = np.random.default_rng([seed, workload.users, n_items])
    item_ids = rng.permutation(n_items)
    lengths = rng.permutation(geometric.astype(np.int64))
    starts = rng.uniform(0.0, 0.7, size=workload.users)
    spans = rng.uniform(0.1, 0.3, size=workload.users)
    users, items, times = [], [], []
    for user, n in enumerate(lengths):
        seq = rng.choice(n_items, size=n, p=popularity)
        follow = rng.random(n) < FOLLOW
        for t in range(1, n):
            if follow[t]:
                seq[t] = successor[seq[t - 1]]
        gaps = np.cumsum(rng.exponential(1.0, size=n))
        stamp = starts[user] + spans[user] * gaps / gaps[-1]
        users.append(np.full(n, user))
        items.append(item_ids[seq])
        times.append(T0 + (stamp * TIME_SPAN).astype(np.int64))
    users, items, times = (np.concatenate(a) for a in (users, items, times))
    order = np.argsort(times, kind="stable")
    with open(path, "w") as fh:
        fh.write("user,item,timestamp\n")
        fh.writelines(f"u{u:07d},item-{i:06d},{t}\n"
                      for u, i, t in zip(users[order].tolist(), items[order].tolist(),
                                         times[order].tolist()))
    return len(order)


def experiment_config(workload, seed, csv_path, output):
    """The YAML body handed to ``seqrec --config``."""
    return {"seed": seed, "dataset": {"path": str(csv_path)}, "output": str(output),
            **workload.config}


def _ga_config(k):
    return {
        "split": {"valid_count": 1000, "test_count": 2000},
        "core": 5, "K": k, "n": 10, "patience": 2, "max_sweeps": 2,
        "model": {"kind": "global",
                  "grid": {"r1": [20], "r2": [20], "r3": [5], "f": [1.0], "s": [0.2],
                           "regime": ["plain", "restored"]}},
    }


# Run-to-run steadiness shapes the grids. Every grid point runs exactly
# max_sweeps sweeps (patience == max_sweeps) and the second sweep beat the
# first on every seed tried, so final retrains for the same number of sweeps on
# every seed; grid points that can win cost the same to retrain. The price on
# la-k40 is test quality that depends on the seed: after two sweeps some
# random initial subspaces are still far from converged. A third sweep fixes
# that, but then the best sweep is the second on about one seed in six, and
# final runs 30% shorter there. la-k40 is small enough for six rounds in a run:
# with three rounds of a 500-user log, tune_s spread 0.21 over five seeds.
WORKLOADS = {w.name: w for w in (
    Workload(
        name="la-k40",
        why="windowed HOOI sweeps are ~75% of tune and ~85% of final, evaluation ~5%; "
            "K=40 takes the FFT skew-block path, ARPACK on tall modes 1/2, dense SVD "
            "on modes 3/4",
        users=260, items=200, mean_len=24.0, pass_s=0.05, rounds=6,
        config={
            "split": {"valid_count": 1000, "test_count": 1000},
            "core": 5, "K": 40, "n": 10, "patience": 2, "max_sweeps": 2,
            "model": {"kind": "local", "window_values": [20],
                      "grid": {"r1": [20], "r2": [20], "r3": [3], "r4": [3],
                               "f": [1.0], "s": [0.2], "regime": ["plain"]}},
        },
    ),
    Workload(
        name="svd-230k",
        why="no tensor trainer: top-n evaluation over 3000 items is ~60% of tune "
            "and ingest of a 230k-row string-id CSV ~60% of setup",
        users=6000, items=3000, mean_len=38.0, pass_s=1.0, rounds=3,
        config={
            "split": {"valid_count": 2000, "test_count": 2000},
            "core": 5, "K": 50, "n": 10,
            "model": {"kind": "svd",
                      "grid": {"rank": [100], "s": [0.0, 0.4],
                               "regime": ["plain", "restored"]}},
        },
    ),
    # Neither GA workload is listed in BENCHMARK.json. ga-k32's final step,
    # under 3 s, spread past its bound on a noisy machine; ga-k50's tune step
    # fails: at K > 32 the GA position unfolding is wide and the iterative SVD
    # on it crashes.
    Workload(
        name="ga-k32",
        why="whole-sequence attention trainer and its serving path; K=32 is the "
            "largest K whose position mode stays off the wide iterative SVD",
        users=1000, items=200, mean_len=25.0, pass_s=0.1, rounds=3,
        config=_ga_config(32),
    ),
    Workload(
        name="ga-k50",
        why="GA at the amz/steam preset K=50 reaches the wide iterative-SVD path",
        users=600, items=200, mean_len=25.0, pass_s=0.1, rounds=3,
        config=_ga_config(50),
    ),
)}

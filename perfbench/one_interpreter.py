"""Does running the four workloads in one interpreter change their wall_s?

    python3 perfbench/one_interpreter.py [--seed N]

Alternates, REPEATS times, a pass of fresh-interpreter rounds (as run.py makes
them) with a pass that runs every workload's set-up and round one after
another inside this process, then prints the median round time of each.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

REPEATS = 3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    fresh = {name: [] for name in WORKLOADS}
    shared = {name: [] for name in WORKLOADS}
    for _ in range(REPEATS):
        for name in WORKLOADS:
            fresh[name].append(run.run_worker(name, args.seed, "plain")["round_s"])
        for name, cls in WORKLOADS.items():
            workload = cls()
            workload.setup(args.seed)
            t = time.perf_counter()
            workload.run_round()
            shared[name].append(time.perf_counter() - t)
    print(f"{'workload':16s} {'fresh s':>8s} {'shared s':>9s} {'ratio':>6s}  rounds (fresh | shared)")
    for name in WORKLOADS:
        a, b = statistics.median(fresh[name]), statistics.median(shared[name])
        rounds = " ".join(f"{t:.2f}" for t in fresh[name]) + " | " + " ".join(
            f"{t:.2f}" for t in shared[name]
        )
        print(f"{name:16s} {a:8.3f} {b:9.3f} {b / a:6.3f}  {rounds}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

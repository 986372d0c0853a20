"""skeinlab benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; skeinlab is imported from ./src.  Each
round runs in a fresh interpreter (worker.py) so no memo table or heap state
carries over.  Rounds repeat until their timed phases add up to S seconds.
The result and the per-round records go to perfbench/out/.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are setup_s, wall_s, op_p50_ms and peak_rss_mib;
with --trace 1 they are the per-layer metrics of tracer.per_layer_names(),
from traced rounds alternated with untraced ones.  Exits 1 without a result
if a worker fails or skeinlab cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_SETUPS = 5  # set-up is timed in every worker; extra set-up-only workers fill up to this
WORKER_TIMEOUT_S = 150
SPAWN_DEADLINE_S = 110  # start no new worker after this, so a run ends within 180 s


class WorkerError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, phase: str, check: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    t0 = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"),
            workload, str(seed), repr(t0), phase, str(int(check)),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        timeout=WORKER_TIMEOUT_S,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{phase} worker for {workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    start = time.monotonic()
    phases = ("plain", "traced") if traced else ("plain",)
    rounds: dict[str, list[dict]] = {p: [] for p in phases}
    while True:
        for phase in phases:
            first = not any(rounds.values())
            rounds[phase].append(run_worker(workload, seed, phase, first))
        budget = seconds / len(phases)
        if all(sum(r["round_s"] for r in rounds[p]) >= budget for p in phases):
            break
        if time.monotonic() - start > SPAWN_DEADLINE_S:
            break
    everything = [r for p in phases for r in rounds[p]]
    # The first round is checked; every other round, traced or not, must
    # reproduce its outputs exactly.
    digests = {r["digest"] for r in everything}
    if len(digests) > 1:
        print("check failed: rounds produced different outputs", file=sys.stderr)
    result = {
        "correct": len(digests) == 1 and not any(r["errors"] for r in everything),
        "attempted": sum(len(r["ops_ms"]) for r in everything),
        "failed": sum(r["failed"] for r in everything),
    }
    for r in everything:
        for err in r["errors"][:5]:
            print(f"check failed: {err}", file=sys.stderr)
    plain = rounds["plain"]
    if traced:
        from tracer import per_layer_names

        traced_rounds = rounds["traced"]
        metrics = {}
        for name, unit in per_layer_names():
            if name == "trace.overhead_s":
                value = statistics.median(r["round_s"] for r in traced_rounds) - (
                    statistics.median(r["round_s"] for r in plain)
                )
            else:
                value = statistics.median(r["layers"].get(name, 0) for r in traced_rounds)
            metrics[name] = {"value": value, "unit": unit}
    else:
        setups = [r["setup_s"] for r in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(run_worker(workload, seed, "setup")["setup_s"])
        ops = [t for r in plain for t in r["ops_ms"]]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["round_s"] for r in plain), "unit": "s"},
            "op_p50_ms": {"value": statistics.median(ops), "unit": "ms"},
            "peak_rss_mib": {
                "value": statistics.median(r["peak_rss_mib"] for r in plain),
                "unit": "MiB",
            },
        }
    result["metrics"] = metrics
    records = {p: [{k: v for k, v in r.items() if k != "ops_ms"} for r in rounds[p]] for p in phases}
    (OUT / f"{workload}-seed{seed}-trace{int(traced)}.json").write_text(
        json.dumps({"result": result, "rounds": records}, indent=1)
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "skeinlab" / "__init__.py").is_file():
        print(f"perfbench: no skeinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One round of one workload in a fresh interpreter; prints one JSON line.

Started by run.py as `python3 perfbench/worker.py <workload> <seed> <t0>
<phase> <check>`, where t0 is the parent's time.monotonic() just before the
start (CLOCK_MONOTONIC is shared by all processes on Linux) and phase is
`setup` (set up and exit), `plain` (one untraced round) or `traced` (one
round under the tracer, which is installed before set-up).  With check=1
the outputs go through checks.py after the round; every round prints a
digest of its outputs, so the parent can show that unchecked rounds
produced the same outputs as the checked one.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time


def main(argv: list[str]) -> int:
    name, seed, t0, phase = argv[0], int(argv[1]), float(argv[2]), argv[3]
    check = argv[4] == "1"
    from workloads import WORKLOADS

    tracer = None
    if phase == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[name]()
    workload.setup(seed)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if phase == "setup":
        print(json.dumps(result))
        return 0

    mark = 0
    if tracer:
        mark = tracer.mark()
        tracer.extras.clear()
    t = time.perf_counter()
    ops_ms, failed = workload.run_round()
    round_s = time.perf_counter() - t
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(
        round_s=round_s, ops_ms=ops_ms, failed=failed, peak_rss_mib=peak_rss_mib
    )
    if tracer:
        result["layers"] = _layers(tracer, workload, mark)
        tracer.restore()
    result["digest"] = hashlib.sha256(repr(workload.outputs()).encode()).hexdigest()
    result["errors"] = workload.check() if check else []
    print(json.dumps(result))
    return 0


def _layers(tracer, workload, mark) -> dict[str, float]:
    from tracer import RULES

    layers = tracer.summary(mark)
    layers.update(tracer.extras)
    # Set-up spans: derive_rule_k4 runs there, before the round.
    setup = tracer.summary(0, mark)
    for key in ("trace_engine.derive_rule_k4.calls", "trace_engine.derive_rule_k4.s"):
        layers[key] = setup.get(key, 0)
    stats, entries = workload.engine_stats()
    layers["trace_engine.memo.hits"] = stats["r0_memo_hit"]
    layers["trace_engine.memo.entries"] = entries
    for rule in RULES:
        layers[f"trace_engine.rule.{rule}"] = stats[rule]
    if hasattr(workload, "warm_pass"):
        warm_start = tracer.mark()
        workload.warm_pass()
        warm = [
            t1 - t0
            for name, t0, t1, _, outer in tracer.spans[warm_start:]
            if name == "trace_engine.reduce" and outer
        ]
        layers["trace_engine.reduce.warm_us"] = 1e6 * sum(warm) / len(warm)
    return layers


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

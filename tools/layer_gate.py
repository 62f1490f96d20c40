#!/usr/bin/env python3
"""Gate the simulator's hot layers on one traced perfbench result line.

    python3 perfbench/run.py --workload cells-fused --seed 0 --seconds 1 --trace 1 \\
        | tail -n 1 | python3 tools/layer_gate.py

Reads the JSON result line on standard input. Fails unless it says
``"correct": true`` and each gated layer, scaled to the reference host by
``LOOP_REF_S / host.loop_us`` (:mod:`perfbench.hostprobe`), is at most
:data:`BOUND` times its baseline. A gated value that is missing or not
positive fails too: a layer that reads 0 was not measured.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.hostprobe import LOOP_REF_S  # noqa: E402

#: Largest allowed ratio of a normalised value to its baseline.
BOUND = 1.25

#: Normalised medians of 6 traced cells-fused seed-0 runs on a 2-vCPU
#: x86 Xeon host (Python 3.11, numpy 2.4).
BASELINE = {
    "secure.ns_per_miss": 5198.0,
    "cpu.rob_advance_s": 2.382,
    "workloads.generate_trace_s": 0.9572,
    "dram.ns_per_request": 6317.0,
}


def failures(result: dict) -> list:
    """Why ``result`` fails the gate; empty when it passes."""
    if result.get("correct") is not True:
        return ["run not correct: %d of %s operations failed"
                % (result.get("failed", 0), result.get("attempted", "?"))]
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    loop_us = metrics.get("host.loop_us", 0.0)
    if loop_us <= 0:
        return ["no host.loop_us: the line is not a traced perfbench result"]
    scale = LOOP_REF_S / (loop_us * 1e-6)
    problems = []
    for name, baseline in BASELINE.items():
        value = metrics.get(name, 0.0) * scale
        verdict = "ok" if 0 < value <= BOUND * baseline else "FAIL"
        print("%-28s %12.6g vs baseline %12.6g  x%.2f  %s"
              % (name, value, baseline, value / baseline, verdict))
        if verdict != "ok":
            problems.append("%s is %.6g, outside (0, %.2f x %.6g]"
                            % (name, value, BOUND, baseline))
    return problems


def main() -> int:
    lines = sys.stdin.read().strip().splitlines()
    problems = failures(json.loads(lines[-1])) if lines else ["no input"]
    for problem in problems:
        print("layer gate: " + problem)
    print("layer gate: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload cells-fused --seeds 1-10

For every metric of the result line: the median over the runs and the
quartile spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``. Each end-to-end metric's spread
should stay below a third of its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.make_reference import parse_seeds  # noqa: E402
from perfbench.run import ROOT_DIR  # noqa: E402
from perfbench.summary import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as handle:
        bounds = {m["name"]: m.get("bound") for m in json.load(handle)["end_to_end"]}
    values = {}
    incorrect = 0
    for seed in parse_seeds(args.seeds):
        started = time.monotonic()
        done = subprocess.run(
            [
                sys.executable,
                os.path.join(ROOT_DIR, "perfbench", "run.py"),
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", args.seconds,
                "--trace", args.trace,
            ],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT_DIR,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        incorrect += not result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join("%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())
        print("seed %d (%.1f s): %s" % (seed, time.monotonic() - started, shown))
    for name, series in values.items():
        median = statistics.median(series)
        spread = quartile_spread(series) if len(series) > 1 and median else 0.0
        bound = bounds.get(name)
        print(
            "%-28s median %-12.6g spread %.4f%s"
            % (name, median, spread, "" if bound is None else "  (bound %g)" % bound)
        )
    print("runs not correct: %d" % incorrect)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Regenerate ``perfbench/reference.json`` from the current program.

    python3 perfbench/make_reference.py --workload cells-fused --seeds 0-19

Runs one plain batch per seed and stores its outputs as the reference the
benchmark checks later runs against. Only run this on code whose outputs
are known good: the grid digests must equal the committed ``BENCH_PR10``
figure digests, and every batch must pass its invariants, or nothing is
written. Entries of other workloads and seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import REFERENCE_PATH, ROOT_DIR, prepare_imports  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", default="0-19", help="e.g. 0-19 or 0,3,7")
    args = parser.parse_args(argv)

    prepare_imports()

    table = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as handle:
            table = json.load(handle)
    work_dir = os.path.join(ROOT_DIR, ".perfbench_work", "reference")
    os.makedirs(work_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](work_dir)
    entry = table.get(args.workload)
    if entry is None or entry["size"] != workload.size():
        entry = {"size": workload.size(), "seeds": {}}
    # The grid's inputs do not depend on the seed: one entry serves all.
    grid = args.workload == "grid-quick"
    seeds = [0] if grid else parse_seeds(args.seeds)
    try:
        for seed in seeds:
            batch = workload.run_batch(workload.build(seed), None)
            problems = workload.check(batch, None)
            if problems:
                print("seed %d: not recorded: %r" % (seed, problems))
                return 1
            key = "*" if grid else str(seed)
            entry["seeds"][key] = workload.reference_form(batch.outputs)
            print("seed %d: %d output(s), %.2f s" % (seed, len(batch.outputs), batch.wall_s))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    table[args.workload] = entry
    with open(REFERENCE_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Benchmark the whole-grid planner against a figure-at-a-time run.

Four legs over the full experiment list (default: quick scale, jobs 1 and
4). Each leg starts cold — fresh run-cache directory, cleared memos, no
surviving worker pool — so the comparison is honest:

* **figure** — figure at a time, as every single-figure run executes:
  each figure looks up and executes its own grid, fanned out through a
  *per-call* executor (``pool_policy="ephemeral"``);
* **planned** — one global plan: dedup across figures, a single
  LPT-ordered fan-out through the persistent warm pool, then the same
  per-figure assembly loop.

Every experiment's payload is digested per leg; any planned-vs-figure
digest mismatch is a correctness failure (non-zero exit), because the
planner must be invisible in the outputs. ``--assert-no-worse`` addition-
ally gates on wall clock: the planned leg must not be slower than the
figure-at-a-time leg at the highest job count (the CI perf gate).

    python tools/bench_plan.py --out BENCH_PR10.json --assert-no-worse
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
import time

from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.plan import execute_plan, plan_experiments
from repro.parallel import (
    EXECUTION_STATS,
    code_fingerprint,
    overridden,
    shutdown_pool,
)
from repro.sim.runner import clear_run_memos


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def run_leg(names, scale, jobs, planned, cache_dir):
    """One cold end-to-end 'all' run; returns wall time + digests + stats."""
    clear_run_memos()
    shutdown_pool()
    EXECUTION_STATS.reset()
    policy = "persistent" if planned else "ephemeral"
    digests = {}
    summary = None
    started = time.perf_counter()
    with overridden(
        cache_enabled=True, cache_dir=cache_dir, jobs=jobs, pool_policy=policy
    ):
        if planned:
            summary = execute_plan(plan_experiments(names, scale))
        for name in names:
            digests[name] = _digest(
                run_experiment(name, scale=scale, quiet=True)
            )
    wall = time.perf_counter() - started
    shutdown_pool()
    leg = {
        "mode": "planned" if planned else "figure",
        "jobs": jobs,
        "wall_s": round(wall, 3),
        "cells_executed": EXECUTION_STATS.cells_executed,
        "memo_hits": EXECUTION_STATS.memo_hits,
        "cache_hits": EXECUTION_STATS.cache_hits,
        # Fan-outs that needed worker processes: in the figure/ephemeral
        # leg each one spawned (and tore down) its own executor.
        "parallel_maps": sum(
            1 for map_jobs, _ in EXECUTION_STATS.map_spans if map_jobs > 1
        ),
        "pool_spawns": EXECUTION_STATS.pool_spawns,
        "pool_maps": EXECUTION_STATS.pool_maps,
        "pool_spawn_seconds": round(EXECUTION_STATS.pool_spawn_seconds, 3),
        "digests": digests,
    }
    if summary is not None:
        leg["plan"] = summary
    return leg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", default="quick")
    parser.add_argument(
        "--jobs",
        default="1,4",
        metavar="1,4",
        help="comma-separated job counts; each gets a figure-at-a-time and "
        "a planned leg",
    )
    parser.add_argument("--out", default=None, metavar="PATH")
    parser.add_argument(
        "--assert-no-worse",
        action="store_true",
        help="exit non-zero if the planned leg is slower than the "
        "figure-at-a-time leg at the highest job count",
    )
    args = parser.parse_args(argv)
    job_counts = [int(item) for item in args.jobs.split(",") if item.strip()]

    names = sorted(EXPERIMENTS)
    legs = {}
    divergent = []
    with tempfile.TemporaryDirectory(prefix="bench-plan-") as scratch:
        for jobs in job_counts:
            for planned in (False, True):
                mode = "planned" if planned else "figure"
                label = "%s_jobs%d" % (mode, jobs)
                cache_dir = os.path.join(scratch, label)
                print("[leg %s]" % label, flush=True)
                legs[label] = run_leg(
                    names, args.scale, jobs, planned, cache_dir
                )
                print(
                    "  wall %.1fs, %d cell(s) executed, %d memo hit(s), "
                    "%d cache hit(s)"
                    % (
                        legs[label]["wall_s"],
                        legs[label]["cells_executed"],
                        legs[label]["memo_hits"],
                        legs[label]["cache_hits"],
                    ),
                    flush=True,
                )

    reference = legs["figure_jobs%d" % job_counts[0]]["digests"]
    for label, leg in legs.items():
        for name in names:
            if leg["digests"][name] != reference[name]:
                divergent.append({"leg": label, "experiment": name})

    speedups = {}
    for jobs in job_counts:
        figure = legs["figure_jobs%d" % jobs]["wall_s"]
        planned = legs["planned_jobs%d" % jobs]["wall_s"]
        speedups["jobs%d" % jobs] = round(figure / planned, 3) if planned else None

    top = max(job_counts)
    planned_top = legs["planned_jobs%d" % top]
    report = {
        "bench": "whole-grid planner vs figure-at-a-time run",
        "scale": args.scale,
        "experiments": names,
        "python": platform.python_version(),
        "fingerprint": code_fingerprint(),
        "legs": legs,
        "plan": planned_top.get("plan"),
        "pool_reuse": {
            "spawns": planned_top["pool_spawns"],
            "maps": planned_top["pool_maps"],
            "spawn_seconds": planned_top["pool_spawn_seconds"],
            # Executors the ephemeral leg built that the warm pool did not.
            "figure_spawns_avoided": legs["figure_jobs%d" % top][
                "parallel_maps"
            ]
            - planned_top["pool_spawns"],
        },
        "speedup_figure_over_planned": speedups,
        "divergent": divergent,
    }
    out = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(out + "\n")
        print("[written to %s]" % args.out)
    else:
        print(out)

    if divergent:
        print(
            "FAIL: %d divergent digest(s): %s" % (len(divergent), divergent),
            file=sys.stderr,
        )
        return 1
    if args.assert_no_worse:
        figure = legs["figure_jobs%d" % top]["wall_s"]
        planned = planned_top["wall_s"]
        if planned > figure:
            print(
                "FAIL: planned leg slower than figure-at-a-time at jobs=%d "
                "(%.1fs > %.1fs)" % (top, planned, figure),
                file=sys.stderr,
            )
            return 1
        print(
            "[gate: planned %.1fs <= figure-at-a-time %.1fs at jobs=%d]"
            % (planned, figure, top)
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

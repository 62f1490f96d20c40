"""Layer wrappers for traced batches and the per-layer metrics they yield.

Every wrapper sits on a public callable of one layer, installed from the
benchmark's own files (nothing inside the program changes) and removed
when the batch ends. Span names are the metric names without the unit
suffix: ``dram.process`` feeds ``dram.process_s``.

Two wrapper sets exist because only one of them is safe per workload:

* :func:`install_sim` wraps the simulator's layers. The cells workload
  runs every cell in this process, so every span is seen.
* :func:`install_parent` wraps the harness/pool/run-cache boundaries that
  run in the parent process. ``grid-quick`` and ``mc-fig11`` execute
  cells and shards in forked pool workers, where spans would be lost, so
  for those the program's own ``EXECUTION_STATS`` supplies the worker
  side (busy time, executed cells and shards, utilisation).
"""

from __future__ import annotations

import functools
import statistics
from typing import Dict, Sequence

from perfbench.spans import Patches, Tracer, span, traced

#: Root span of one batch; its self time is ``unattributed_s``.
ROOT = "batch"

#: The cells workloads' group spans, one per secure-engine path
#: (cells-fused, cells-ivec). ``<group>_wall_s`` is the group's total
#: time; the group span's own self time is benchmark loop overhead and
#: counts as unattributed, like the root's.
CELL_GROUPS = ("cells.fused", "cells.scalar")

MC_SCHEME_NAMES = ("SECDED", "Chipkill", "Synergy", "IVEC")

#: Every per-layer metric: (name, unit). A layer that a workload does not
#: reach reads 0 there. Self times are seconds per batch.
PER_LAYER = [
    ("plain_wall_s", "s"),
    ("host.loop_us", "us"),
    ("traced_wall_s", "s"),
    ("unattributed_s", "s"),
    ("trace_overhead_frac", "frac"),
    # trace synthesis and the simulator (cells)
    ("cells.fused_wall_s", "s"),
    ("cells.scalar_wall_s", "s"),
    ("workloads.generate_trace_s", "s"),
    ("sim.setup_s", "s"),
    ("sim.warmup_s", "s"),
    ("sim.run_s", "s"),
    ("sim.resolve_s", "s"),
    ("sim.package_s", "s"),
    ("cpu.driver_s", "s"),
    ("cpu.rob_advance_s", "s"),
    ("cpu.epochs", "count"),
    ("secure.expand_miss_s", "s"),
    ("secure.read_misses", "count"),
    ("secure.ns_per_miss", "ns"),
    ("secure.writeback_s", "s"),
    ("secure.flush_epoch_s", "s"),
    ("dram.enqueue_batch_s", "s"),
    ("dram.process_s", "s"),
    ("dram.requests", "count"),
    ("dram.ns_per_request", "ns"),
    ("cache.llc_hit_rate", "ratio"),
    ("cache.metadata_hit_rate", "ratio"),
    # harness, pool and run cache (grid-quick, mc-fig11)
    ("harness.plan_s", "s"),
    ("harness.prefetch_s", "s"),
    ("harness.assemble_s", "s"),
    ("harness.nongrid_s", "s"),
    ("harness.cells_unique", "count"),
    ("parallel.map_s", "s"),
    ("parallel.pool_spawn_s", "s"),
    ("parallel.runcache_get_s", "s"),
    ("parallel.runcache_put_s", "s"),
    ("parallel.busy_s", "s"),
    ("parallel.pool_util", "ratio"),
    ("parallel.pool_maps", "count"),
    ("parallel.grid_cells_executed", "count"),
    ("parallel.mc_shards_executed", "count"),
    # Monte-Carlo reliability (mc-fig11)
    ("reliability.simulate_s", "s"),
]
PER_LAYER += [("reliability.devices_per_s.%s" % s, "1/s") for s in MC_SCHEME_NAMES]
PER_LAYER += [("reliability.failures.%s" % s, "count") for s in MC_SCHEME_NAMES]


def install_sim(tracer: Tracer) -> Patches:
    """Wrap the simulator layers; call before any simulator is built."""
    from repro.cpu.multicore import MulticoreDriver
    from repro.cpu.rob import CoreModel
    from repro.dram.controller import MemoryController
    from repro.secure.timing_engine import SecureTimingEngine
    from repro.sim import runner
    from repro.sim.system import SystemSimulator

    def wrap_writeback(_result, args) -> None:
        # The simulator binds its writeback drain (the fused closure or
        # the scalar method) per instance at construction.
        sim = args[0]
        sim._writeback = traced(tracer, "secure.writeback", sim._writeback)

    patches = Patches()
    wrap = functools.partial(patches.wrap, tracer)
    try:
        wrap(runner, "run_workload", "sim.package", keep=True)
        wrap(runner, "generate_trace", "workloads.generate_trace")
        wrap(SystemSimulator, "__init__", "sim.setup", on_return=wrap_writeback)
        wrap(SystemSimulator, "warmup", "sim.warmup")
        wrap(SystemSimulator, "run", "sim.run")
        wrap(SystemSimulator, "_resolve", "sim.resolve")
        wrap(
            MulticoreDriver,
            "run",
            "cpu.driver",
            on_return=lambda _r, args: tracer.count("cpu.epochs", args[0].epochs),
        )
        wrap(CoreModel, "advance", "cpu.rob_advance")
        wrap(SecureTimingEngine, "expand_read_miss_deferred", "secure.expand_miss")
        wrap(SecureTimingEngine, "flush_epoch", "secure.flush_epoch")
        wrap(
            MemoryController,
            "enqueue_batch",
            "dram.enqueue_batch",
            on_return=lambda requests, _a: tracer.count("dram.requests", len(requests)),
        )
        wrap(MemoryController, "process", "dram.process")
    except BaseException:
        patches.restore()
        raise
    return patches


def install_parent(tracer: Tracer) -> Patches:
    """Wrap the parent-side harness, pool, fan-out and run-cache boundaries."""
    from repro.harness import experiments, plan
    from repro.parallel.pool import PersistentPool
    from repro.parallel.runcache import RunCache
    from repro.reliability import montecarlo
    from repro.sim import runner

    run_experiment = experiments.run_experiment

    @functools.wraps(run_experiment)
    def experiment_span(name, *args, **kwargs):
        # One wrapper, two layers: figures built from the planned cells
        # assemble them; the rest (reliability, tables) compute their own.
        layer = "harness.assemble" if name in plan.CELL_SOURCES else "harness.nongrid"
        with span(tracer, layer):
            return run_experiment(name, *args, **kwargs)

    patches = Patches()
    wrap = functools.partial(patches.wrap, tracer)
    try:
        wrap(plan, "plan_experiments", "harness.plan", keep=True)
        wrap(plan, "execute_plan", "harness.prefetch", keep=True)
        patches.replace(experiments, "run_experiment", experiment_span)
        wrap(runner, "parallel_map", "parallel.map")
        wrap(montecarlo, "parallel_map", "parallel.map")
        wrap(PersistentPool, "__init__", "parallel.pool_spawn")
        for method in ("get", "has", "timing"):
            wrap(RunCache, method, "parallel.runcache_get")
        for method in ("put", "record_timing"):
            wrap(RunCache, method, "parallel.runcache_put")
    except BaseException:
        patches.restore()
        raise
    return patches


def execution_counts(stats) -> Dict[str, float]:
    """Worker-side numbers from the program's ``ExecutionStats``.

    Monte-Carlo shards and grid cells share one timer in the program;
    their labels (``mc:`` prefix) split them here.
    """
    shards = sum(1 for label, _s in stats.cell_times if label.startswith("mc:"))
    return {
        "parallel.busy_s": stats.busy_seconds,
        "parallel.pool_util": stats.worker_utilisation,
        "parallel.pool_maps": stats.pool_maps,
        "parallel.grid_cells_executed": len(stats.cell_times) - shards,
        "parallel.mc_shards_executed": shards,
    }


def layer_metrics(traced: Sequence, plain: Sequence) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from the batches of one traced run.

    Times and counts are per-batch means over ``traced``. The overhead
    compares the medians of the traced and ``plain`` batch walls, in
    reference seconds when the batches were probed (``loop_s`` set), so
    a host speed change between them does not count as overhead.
    """
    batches = len(traced)
    self_s: Dict[str, float] = {}
    total_s: Dict[str, float] = {}
    calls: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for batch in traced:
        tracer = batch.tracer
        for source, sink in (
            (tracer.self_s, self_s),
            (tracer.total_s, total_s),
            (tracer.calls, calls),
            (tracer.counts, counts),
            (batch.counts, counts),
        ):
            for key, value in source.items():
                sink[key] = sink.get(key, 0.0) + value

    def per_batch(table: Dict[str, float], key: str) -> float:
        return table.get(key, 0.0) / batches

    def ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return scale * numerator / denominator if denominator else 0.0

    def wall(batch) -> float:
        return batch.wall_ref_s if batch.loop_s else batch.wall_s

    out: Dict[str, float] = {name: 0.0 for name, _unit in PER_LAYER}
    out["plain_wall_s"] = statistics.median(batch.wall_s for batch in plain)
    out["host.loop_us"] = 1e6 * statistics.median(batch.loop_s for batch in plain)
    out["traced_wall_s"] = per_batch(total_s, ROOT)
    out["unattributed_s"] = sum(per_batch(self_s, s) for s in (ROOT,) + CELL_GROUPS)
    for group in CELL_GROUPS:
        out[group + "_wall_s"] = per_batch(total_s, group)
    out["trace_overhead_frac"] = (
        statistics.median(wall(b) for b in traced) / statistics.median(wall(b) for b in plain)
        - 1.0
    )
    for name, unit in PER_LAYER:
        base = name[: -len("_s")]
        if unit == "s" and base in self_s:
            out[name] = per_batch(self_s, base)
    # Counts are recorded under their metric names (tracer counts and the
    # batch's EXECUTION_STATS numbers).
    for name in counts:
        out[name] = per_batch(counts, name)
    out["secure.read_misses"] = per_batch(calls, "secure.expand_miss")
    out["secure.ns_per_miss"] = ratio(
        self_s.get("secure.expand_miss", 0.0), calls.get("secure.expand_miss", 0), 1e9
    )
    out["dram.ns_per_request"] = ratio(
        self_s.get("dram.process", 0.0) + self_s.get("dram.enqueue_batch", 0.0),
        counts.get("dram.requests", 0),
        1e9,
    )
    records = [
        record
        for batch in traced
        for record in batch.outputs.values()
        if isinstance(record, dict)
    ]
    if records:
        out["cache.llc_hit_rate"] = statistics.fmean(r["llc_hit_rate"] for r in records)
        out["cache.metadata_hit_rate"] = statistics.fmean(
            r["metadata_hit_rate"] for r in records
        )
    # simulate_failure_probability's own time, net of the pool fan-out.
    out["reliability.simulate_s"] = sum(
        per_batch(self_s, "reliability." + scheme) for scheme in MC_SCHEME_NAMES
    )
    return out


def layer_sum(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time plus ``unattributed_s``.

    Equals ``traced_wall_s`` by construction of self time; the benchmark
    prints both so the identity can be checked from its output.
    """
    totals = {"plain_wall_s", "traced_wall_s", "parallel.busy_s"}
    totals.update(group + "_wall_s" for group in CELL_GROUPS)
    return sum(
        value
        for name, value in metrics.items()
        if name.endswith("_s") and name not in totals
    )


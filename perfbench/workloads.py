"""The benchmark's workloads, driven through the program's public API.

Each workload builds its inputs from the seed (:meth:`Workload.build`, the
set-up the ``setup_s`` metric times), runs *batches* of operations
(:meth:`Workload.run_batch`), checks every operation's output
(:meth:`Workload.check`) and, for a traced batch, installs the layer
wrappers of :mod:`perfbench.layers` around the batch.

Why each workload exists (see README.md for the layer mapping):

* ``grid-quick`` — the whole ``all`` experiment list at quick scale,
  planned, jobs=2, cold: fresh run-cache directory, cleared memos, no
  surviving pool. The only workload where plan dedup, the persistent
  pool, the memos and the run cache do real work.
* ``cells-fused`` / ``cells-ivec`` — distinct cells over four profiles at
  the default trace length, serial, memos cleared before every cell:
  every cell pays for trace synthesis, warm-up, the ROB loop, the secure
  path and the DRAM controller. NonSecure/SGX_O/Synergy take the fused
  secure closures; IVEC is the one design on the scalar engine (MAC
  tree), so the same secure layer does different work in each workload.
* ``mc-fig11`` — the Fig. 11 Monte-Carlo sweep at a large device count,
  jobs=2: many short shards through the pool.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional

from perfbench import layers
from perfbench.hostprobe import LOOP_REF_S
from perfbench.spans import Tracer, span

#: Quick-scale grid, as ``synergy-repro all --scale quick --jobs 2``.
GRID_SCALE = "quick"
GRID_JOBS = 2

#: Default-scale trace length (``repro.harness.scales.DEFAULT``), pinned
#: here so a change to the scale presets cannot silently resize the cells.
CELL_ACCESSES_PER_CORE = 8_000

#: Read-heavy random, write-heavy streaming, small streaming footprint,
#: huge reuse-poor footprint: working set against the scaled caches varies.
PROFILES = ("mcf", "lbm", "libquantum", "pr-twi")

MC_DEVICES = 10_000_000
MC_JOBS = 2


def payload_digest(payload: object) -> str:
    """The experiment digest ``tools/bench_plan.py`` commits per figure."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


@dataclass
class Batch:
    """One batch of operations and what was measured on it."""

    wall_s: float
    #: operation name -> comparable output (digest, cell record, count)
    outputs: Dict[str, object]
    #: operation name -> exception text, for operations that raised
    errors: Dict[str, str]
    #: host seconds of each task (cell, executed grid cell, MC shard)
    task_s: List[float]
    #: work units done: simulated trace accesses, or devices
    work: float
    #: layer counts known without tracing (plan size, pool statistics)
    counts: Dict[str, float] = field(default_factory=dict)
    #: summed peak resident sets of the batch's pool workers, in KiB
    children_peak_kib: int = 0
    tracer: Optional[Tracer] = None
    #: host probe loop time during the batch (harmonic mean) and its
    #: sample count, set by the runner
    loop_s: float = 0.0
    loop_n: int = 0

    @property
    def wall_ref_s(self) -> float:
        """The batch wall in reference seconds (see ``hostprobe``)."""
        return self.wall_s * LOOP_REF_S / self.loop_s


class Workload:
    """Base: subclasses set ``name``/``jobs`` and implement the hooks."""

    name = ""
    jobs = 1

    def __init__(self, work_dir: str):
        self.work_dir = work_dir

    def build(self, seed: int) -> object:
        """Import the program and construct the inputs (timed as set-up)."""
        raise NotImplementedError

    def run_batch(self, inputs: object, tracer: Optional[Tracer]) -> Batch:
        raise NotImplementedError

    def size(self) -> Dict[str, int]:
        """What a reference entry depends on besides the seed."""
        return {}

    def reference(self, table: dict, seed: int) -> Optional[dict]:
        """This workload's committed reference for ``seed``, if any."""
        entry = table[self.name]
        if entry["size"] != self.size():
            raise SystemExit(
                "perfbench: reference.json was made for %s %r, not %r; "
                "regenerate it with perfbench/make_reference.py"
                % (self.name, entry["size"], self.size())
            )
        return entry["seeds"].get(str(seed), entry["seeds"].get("*"))

    def reference_form(self, outputs: Dict[str, object]) -> Dict[str, object]:
        """Outputs as the reference stores them."""
        return dict(outputs)

    def invariants(self, outputs: Dict[str, object]) -> Dict[str, str]:
        """Seed-independent checks on a batch's outputs (name -> reason)."""
        return {}

    def check(self, batch: Batch, expected: Optional[dict]) -> Dict[str, str]:
        """Operation name -> reason, for every operation that failed.

        ``expected`` is the committed reference for this workload and seed,
        or None when the seed has none (the invariants still apply).
        """
        return check_outputs(
            self.reference_form(batch.outputs),
            batch.errors,
            expected,
            self.invariants(batch.outputs),
        )


def children_peak_kib() -> int:
    """Summed peak resident set (``VmHWM``) of this process's live
    multiprocessing children, in KiB; read before the pool is joined.

    Pages a forked worker still shares with the parent count in both.
    """
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open("/proc/%d/status" % child.pid) as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass  # the worker has already exited
    return total


def check_outputs(
    found: Dict[str, object],
    errors: Dict[str, str],
    expected: Optional[Dict[str, object]],
    violations: Dict[str, str],
) -> Dict[str, str]:
    """Exceptions, reference mismatches and invariant violations."""
    failures = dict(errors)
    if expected is not None:
        for name in sorted(set(found) | set(expected)):
            if name in failures:
                continue
            if name not in expected:
                failures[name] = "no reference"
            elif found.get(name) != expected[name]:
                failures[name] = "%r != reference %r" % (found.get(name), expected[name])
    for name, reason in violations.items():
        failures.setdefault(name, reason)
    return failures


# ---------------------------------------------------------------------------
# grid-quick
# ---------------------------------------------------------------------------


class GridQuick(Workload):
    name = "grid-quick"
    jobs = GRID_JOBS

    def build(self, seed: int) -> object:
        # The figures' inputs are fixed (their reference is the committed
        # digests); the seed does not enter.
        from repro import parallel
        from repro.harness.experiments import EXPERIMENTS, run_experiment
        from repro.harness.plan import plan_experiments
        from repro.harness.scales import resolve_scale
        from repro.sim.runner import clear_run_memos

        names = sorted(EXPERIMENTS)
        scale = resolve_scale(GRID_SCALE)
        return SimpleNamespace(
            names=names,
            scale=scale,
            # Work units: trace accesses of the plan's unique cells.
            accesses=sum(
                cell.config.accesses_per_core * cell.config.num_cores
                for cell in plan_experiments(names, scale).cells
            ),
            # Bound here, before any traced batch patches the module.
            run_experiment=run_experiment,
            clear_run_memos=clear_run_memos,
            parallel=parallel,
        )

    def run_batch(self, inputs, tracer):
        parallel = inputs.parallel
        inputs.clear_run_memos()
        parallel.shutdown_pool()
        stats = parallel.current_stats()
        stats.reset()
        cache_dir = os.path.join(self.work_dir, "runcache-%d" % time.monotonic_ns())
        results: Dict[str, object] = {}
        errors: Dict[str, str] = {}
        patches = layers.install_parent(tracer) if tracer else None
        try:
            started = time.perf_counter()
            with span(tracer, layers.ROOT), parallel.overridden(
                cache_enabled=True,
                cache_dir=cache_dir,
                jobs=self.jobs,
                pool_policy="persistent",
            ):
                try:
                    results = inputs.run_experiment(
                        "all", scale=inputs.scale, quiet=True
                    )
                except Exception as exc:  # one failed figure fails the grid
                    errors = {name: repr(exc) for name in inputs.names}
            wall = time.perf_counter() - started
            children = children_peak_kib()
        finally:
            if patches is not None:
                patches.restore()
            parallel.shutdown_pool()
            shutil.rmtree(cache_dir, ignore_errors=True)
        summary = results.pop("plan", {})
        counts = layers.execution_counts(stats)
        counts["harness.cells_unique"] = summary.get("cells_unique", 0)
        return Batch(
            wall_s=wall,
            outputs={name: payload_digest(p) for name, p in results.items()},
            errors=errors,
            task_s=[s for label, s in stats.cell_times if not label.startswith("mc:")],
            work=0 if errors else inputs.accesses,
            counts=counts,
            tracer=tracer,
            children_peak_kib=children,
        )

    def size(self):
        return {"scale": GRID_SCALE}


# ---------------------------------------------------------------------------
# cells-fused, cells-ivec
# ---------------------------------------------------------------------------


def cell_record(result) -> dict:
    """The simulated statistics of one cell that must repeat exactly."""
    return {
        "ipc": result.ipc,
        "cpu_cycles": result.cpu_cycles,
        "instructions": result.instructions,
        "traffic": dict(sorted(result.traffic.items())),
        "origin_traffic": dict(sorted(result.origin_traffic.items())),
        "llc_hit_rate": result.llc_hit_rate,
        "metadata_hit_rate": result.metadata_hit_rate,
    }


def cell_invariants(records: Dict[str, dict]) -> Dict[str, str]:
    """Seed-independent sanity checks on cell records (label -> reason).

    Per cell: positive finite IPC, cycles and data reads; NonSecure moves
    only data, Synergy never fetches a separate MAC, SGX_O and IVEC do.
    Per profile, where the designs are present: NonSecure > Synergy >
    SGX_O in IPC (the paper's headline ordering).
    """
    failures: Dict[str, str] = {}
    for label, record in records.items():
        design = label.split("/", 1)[0]
        traffic = record["traffic"]
        if not (math.isfinite(record["ipc"]) and record["ipc"] > 0):
            failures[label] = "non-positive IPC %r" % (record["ipc"],)
        elif record["cpu_cycles"] <= 0 or traffic.get("data_read", 0) <= 0:
            failures[label] = "no cycles or no data reads"
        elif design == "NonSecure" and set(traffic) - {"data_read", "data_write"}:
            failures[label] = "metadata traffic on NonSecure: %s" % sorted(traffic)
        elif design == "Synergy" and "mac_read" in traffic:
            failures[label] = "Synergy fetched MACs"
        elif design in ("SGX_O", "IVEC") and traffic.get("mac_read", 0) <= 0:
            failures[label] = "%s fetched no MACs" % design
    for profile in PROFILES:
        ipcs = [
            records.get("%s/%s" % (design, profile), {}).get("ipc")
            for design in ("NonSecure", "Synergy", "SGX_O")
        ]
        if None not in ipcs and not ipcs[0] > ipcs[1] > ipcs[2]:
            failures.setdefault(
                "Synergy/%s" % profile,
                "IPC order NonSecure > Synergy > SGX_O broken: %r" % (ipcs,),
            )
    return failures


class Cells(Workload):
    """Distinct cells, serial, memos cleared before every cell, cache off.

    Subclasses pick the designs and the span of their secure-engine path.
    """

    designs: tuple = ()
    group = ""
    accesses_per_core = CELL_ACCESSES_PER_CORE

    def build(self, seed: int) -> object:
        from repro.parallel import overridden
        from repro.secure.designs import design_by_name
        from repro.sim import runner
        from repro.sim.config import SystemConfig

        return SimpleNamespace(
            cells=[
                (design_by_name(design), profile)
                for design in self.designs
                for profile in PROFILES
            ],
            config=SystemConfig(accesses_per_core=self.accesses_per_core),
            seed=seed,
            runner=runner,
            overridden=overridden,
        )

    def run_batch(self, inputs, tracer):
        runner, config, seed = inputs.runner, inputs.config, inputs.seed
        outputs: Dict[str, object] = {}
        errors: Dict[str, str] = {}
        task_s: List[float] = []
        accesses = 0
        patches = layers.install_sim(tracer) if tracer else None
        try:
            started = time.perf_counter()
            with span(tracer, layers.ROOT), inputs.overridden(
                cache_enabled=False, jobs=self.jobs
            ):
                with span(tracer, self.group):
                    for design, profile in inputs.cells:
                        label = "%s/%s" % (design.name, profile)
                        runner.clear_run_memos()
                        cell_started = time.perf_counter()
                        try:
                            # Looked up on the module so a traced
                            # batch's wrapper is the one called.
                            result = runner.run_workload(
                                design, profile, config, seed=seed
                            )
                        except Exception as exc:
                            errors[label] = repr(exc)
                            continue
                        task_s.append(time.perf_counter() - cell_started)
                        outputs[label] = cell_record(result)
                        accesses += config.accesses_per_core * config.num_cores
            wall = time.perf_counter() - started
        finally:
            if patches is not None:
                patches.restore()
        return Batch(
            wall_s=wall,
            outputs=outputs,
            errors=errors,
            task_s=task_s,
            work=accesses,
            tracer=tracer,
        )

    def size(self):
        return {"accesses_per_core": self.accesses_per_core}

    def reference_form(self, outputs):
        return {label: payload_digest(record) for label, record in outputs.items()}

    def invariants(self, outputs):
        return cell_invariants(outputs)


class CellsFused(Cells):
    """NonSecure, SGX_O and Synergy: the fused secure closures."""

    name = "cells-fused"
    designs = ("NonSecure", "SGX_O", "Synergy")
    group = layers.CELL_GROUPS[0]


class CellsIvec(Cells):
    """IVEC: the scalar ``SecureTimingEngine`` path (MAC tree)."""

    name = "cells-ivec"
    designs = ("IVEC",)
    group = layers.CELL_GROUPS[1]


# ---------------------------------------------------------------------------
# mc-fig11
# ---------------------------------------------------------------------------


def mc_invariants(counts: Dict[str, object]) -> Dict[str, str]:
    """Fig. 11's ordering of failure counts: SECDED most, Synergy least."""
    if set(counts) != set(layers.MC_SCHEME_NAMES):
        return {}
    reasons: Dict[str, str] = {}
    if not counts["SECDED"] > counts["Chipkill"] > counts["Synergy"] > 0:
        reasons["Synergy"] = "order SECDED > Chipkill > Synergy > 0 broken: %r" % (
            counts,
        )
    if not counts["SECDED"] > counts["IVEC"] > counts["Synergy"]:
        reasons["IVEC"] = "order SECDED > IVEC > Synergy broken: %r" % (counts,)
    return reasons


class McFig11(Workload):
    name = "mc-fig11"
    jobs = MC_JOBS
    devices = MC_DEVICES

    def build(self, seed: int) -> object:
        from repro import parallel
        from repro.reliability import montecarlo
        from repro.reliability.schemes import ALL_SCHEMES

        by_name = {scheme.name: scheme for scheme in ALL_SCHEMES}
        return SimpleNamespace(
            schemes=[by_name[name] for name in layers.MC_SCHEME_NAMES],
            config=montecarlo.MonteCarloConfig(devices=self.devices, seed=seed),
            montecarlo=montecarlo,
            parallel=parallel,
        )

    def run_batch(self, inputs, tracer):
        config, montecarlo = inputs.config, inputs.montecarlo
        current_stats = inputs.parallel.current_stats
        overridden = inputs.parallel.overridden
        shutdown_pool = inputs.parallel.shutdown_pool
        shutdown_pool()
        stats = current_stats()
        stats.reset()
        outputs: Dict[str, object] = {}
        errors: Dict[str, str] = {}
        per_scheme: Dict[str, float] = {}
        patches = layers.install_parent(tracer) if tracer else None
        try:
            started = time.perf_counter()
            with span(tracer, layers.ROOT), overridden(
                cache_enabled=False, jobs=self.jobs
            ):
                for scheme in inputs.schemes:
                    try:
                        with span(tracer, "reliability." + scheme.name):
                            scheme_started = time.perf_counter()
                            probability = montecarlo.simulate_failure_probability(
                                scheme, config, jobs=self.jobs, cache=False
                            )
                            scheme_s = time.perf_counter() - scheme_started
                    except Exception as exc:
                        errors[scheme.name] = repr(exc)
                        continue
                    failures = round(probability * config.devices)
                    outputs[scheme.name] = failures
                    per_scheme["reliability.failures." + scheme.name] = failures
                    per_scheme["reliability.devices_per_s." + scheme.name] = (
                        config.devices / scheme_s
                    )
            wall = time.perf_counter() - started
            children = children_peak_kib()
        finally:
            if patches is not None:
                patches.restore()
            shutdown_pool()
        shard_s = [s for label, s in stats.cell_times if label.startswith("mc:")]
        return Batch(
            wall_s=wall,
            outputs=outputs,
            errors=errors,
            task_s=shard_s,
            work=config.devices * len(outputs),
            counts=dict(layers.execution_counts(stats), **per_scheme),
            tracer=tracer,
            children_peak_kib=children,
        )

    def size(self):
        return {"devices": self.devices}

    def invariants(self, outputs):
        return mc_invariants(outputs)


WORKLOADS = {
    cls.name: cls for cls in (GridQuick, CellsFused, CellsIvec, McFig11)
}

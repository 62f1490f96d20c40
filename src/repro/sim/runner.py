"""Run design x workload grids and collect results for the harness.

``run_suite`` is the fan-out point for every performance figure: each
(design, workload) cell is an independent pure function of its arguments,
so cells run across a process pool (``jobs``) and bit-identical results
merge in grid order regardless of completion order. Finished cells go
into the grid-cell store (:class:`CellStore`: the context's memo over the
content-addressed run cache, see ``repro.parallel.runcache``) and are
reused across figures — the SGX_O baseline recurs in Figs. 8/9/10/13/14
but is simulated once per code version.
"""

from __future__ import annotations

import contextlib
import json
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.analysis.sanitizer import get_sanitizer
from repro.cpu.trace import Trace
from repro.parallel import (
    current_stats,
    parallel_map,
    resolve_cache,
    resolve_jobs,
)
from repro.parallel.runcache import RunCache, cache_key, cost_key
from repro.secure.designs import SecureDesign
from repro.sim.config import SystemConfig
from repro.sim.energy import SystemEnergyParams, system_energy
from repro.sim.results import ResultTable, RunResult
from repro.sim.system import SystemSimulator
from repro.simcontext import current_context
from repro.telemetry import (
    MetricsSnapshot,
    cell_scope,
    current_aggregate,
    get_tracer,
)
from repro.workloads.generator import generate_trace
from repro.workloads.mixes import MIXES
from repro.workloads.profiles import WorkloadProfile, profile_by_name


#: One progress event: plain JSON-able dict. Kinds emitted by run_suite:
#: ``suite`` (total cells, pending count) once per call, then one ``cell``
#: per finished cell — label, done/total counters, whether it was a cache
#: hit, worker seconds, and the cell's deterministic telemetry headline.
ProgressCallback = Callable[[Dict[str, object]], None]

#: Per-thread progress hook. Thread-local (not a plain global) because the
#: experiment service runs specs on an executor thread while other threads
#: may run their own suites; each installation only ever sees its own
#: thread's cells.
_PROGRESS = threading.local()


@contextlib.contextmanager
def cell_progress(callback: Optional[ProgressCallback]) -> Iterator[None]:
    """Install ``callback`` as this thread's progress hook for the block.

    Every ``run_suite`` call on this thread (however deep inside an
    experiment function) streams its per-cell completion events through the
    callback — the mechanism the experiment service uses for live job
    progress. Events arrive in deterministic order (grid-scan order for
    cache hits, submission order for executed cells) at any ``jobs`` count.
    An exception raised by the callback aborts the suite — cooperative
    cancellation.
    """
    previous = getattr(_PROGRESS, "callback", None)
    _PROGRESS.callback = callback
    try:
        yield
    finally:
        _PROGRESS.callback = previous


def emit_progress(event: Dict[str, object]) -> None:
    """Send one event through this thread's progress hook, if installed.

    Public so long-running experiments outside ``run_suite`` (Monte-Carlo
    sweeps, custom loops) can report progress and observe cancellation.
    """
    callback = getattr(_PROGRESS, "callback", None)
    if callback is not None:
        callback(dict(event))


def _active_progress(
    explicit: Optional[ProgressCallback],
) -> Optional[ProgressCallback]:
    if explicit is not None:
        return explicit
    return getattr(_PROGRESS, "callback", None)


#: Context-local memo for generated traces (``SimContext.trace_memo``).
#: Grid runs regenerate the same per-core traces for every design sharing a
#: workload (designs outer, workloads inner), and trace synthesis is a
#: measurable slice of each cell; generate_trace is a pure function of the
#: key below, and traces are immutable (columnar numpy arrays that no
#: consumer mutates), so sharing one instance across simulators is safe.
#: Bounded by wholesale clearing — the access pattern is a small working
#: set per experiment, not an LRU-worthy stream.
_TRACE_MEMO_MAX = 256


def _memoised_trace(
    profile: WorkloadProfile,
    accesses: int,
    core: int,
    base_line: int,
    seed_salt: object,
    scale_divisor: int,
) -> Trace:
    memo = current_context().trace_memo
    key = (profile, accesses, core, base_line, seed_salt, scale_divisor)
    try:
        trace = memo.get(key)
    except TypeError:  # unhashable profile or salt: just generate
        key = None
        trace = None
    if trace is None:
        trace = generate_trace(
            profile,
            accesses,
            core_id=core,
            base_line=base_line,
            seed_salt=seed_salt,
            scale_divisor=scale_divisor,
        )
        if key is not None:
            sanitizer = get_sanitizer()
            if sanitizer is not None:
                sanitizer.check_context_owner(memo, "trace memo")
            if len(memo) >= _TRACE_MEMO_MAX:
                memo.clear()
            memo[key] = trace
    return trace


def _traces_for(
    workload: Union[str, WorkloadProfile],
    config: SystemConfig,
    seed_salt: object = "trace",
) -> Tuple[str, List[Trace]]:
    """Per-core traces: rate mode for a profile, one-each for a mix name."""
    if isinstance(workload, str) and workload in MIXES:
        names = MIXES[workload]
        profiles = [profile_by_name(name) for name in names]
        label = workload
    else:
        profile = (
            profile_by_name(workload) if isinstance(workload, str) else workload
        )
        profiles = [profile] * config.num_cores
        label = profile.name
    traces = [
        _memoised_trace(
            profiles[core],
            config.accesses_per_core,
            core,
            core * config.lines_per_core,
            seed_salt,
            config.cache_scale,
        )
        for core in range(config.num_cores)
    ]
    return label, traces


#: Context-local memo for post-warmup cache state (``SimContext.warm_memo``).
#: Warmup is a pure
#: function of (warm traces, cache geometry, the design flags that steer
#: the metadata walk): designs sharing those flags reach byte-identical
#: cache dictionaries, so grid runs restore the snapshot instead of
#: replaying the warm traces. Snapshot dicts are private copies — the
#: restore copies them into the simulator's own set dictionaries
#: (preserving insertion order, which *is* the LRU state).
_WARM_MEMO_MAX = 64


def _warm_key(
    design: SecureDesign,
    label: str,
    config: SystemConfig,
    seed: Optional[int],
):
    """Memo key: everything the post-warmup cache state depends on."""
    caches = config.caches
    return (
        label,
        seed,
        config.num_cores,
        config.accesses_per_core,
        config.lines_per_core,
        config.num_data_lines,
        config.cache_scale,
        caches.llc_bytes,
        caches.llc_associativity,
        caches.metadata_bytes,
        caches.metadata_associativity,
        design.encrypted,
        design.counters_in_llc,
        design.mac_location,
        design.macs_in_llc,
        design.tree_kind,
        design.counter_mode,
    )


def _warm_simulator(
    sim: SystemSimulator,
    design: SecureDesign,
    label: str,
    config: SystemConfig,
    warmup_traces: List[Trace],
    seed: Optional[int] = None,
) -> None:
    """Warm ``sim``'s caches, through the memo when a snapshot exists."""
    memo = current_context().warm_memo
    key = _warm_key(design, label, config, seed)
    cached = memo.get(key)
    llc_sets = sim.hierarchy.llc._sets
    md_sets = sim.hierarchy.metadata_cache._sets
    if cached is None:
        sim.warmup(warmup_traces)
        sanitizer = get_sanitizer()
        if sanitizer is not None:
            sanitizer.check_context_owner(memo, "warm memo")
        if len(memo) >= _WARM_MEMO_MAX:
            memo.clear()
        memo[key] = (
            [dict(ways) for ways in llc_sets],
            [dict(ways) for ways in md_sets],
        )
        return
    # Fresh caches are empty, so update() reproduces the snapshot's
    # entries in insertion order — bit-identical LRU state. Stats stay
    # zero, exactly where warmup's trailing resets would leave them.
    for ways, snapshot in zip(llc_sets, cached[0]):
        ways.update(snapshot)
    for ways, snapshot in zip(md_sets, cached[1]):
        ways.update(snapshot)


def clear_run_memos() -> None:
    """Drop the active context's memos (traces, warm state, cell results).

    Tests that assert on execution counts call this first; nothing in the
    memos is observable in results — cells are pure — so clearing is
    always safe, merely slower.
    """
    current_context().clear_memos()


class CellStore:
    """A grid cell's two reuse levels behind one lookup / probe / put.

    The evaluation figures share grid cells wholesale (the SGX_O/SGX/Synergy
    baseline grid recurs in Figs. 8/9/10, Fig. 12's two-channel leg and
    Fig. 13's monolithic leg), and each cell is a pure function of its key
    (:func:`cell_key`), so the second figure replays the first figure's
    result instead of re-simulating. ``run_suite``, ``run_cells`` and the
    planner reach cell results only through this class.

    * **Memory** — the context's run memo (``SimContext.run_memo``, a
      byte-budgeted LRU of serialized payloads). It cannot go stale (it
      dies with the context and never spans a code version), so it stays
      on when the disk level is off. It stands down under the invariant
      sanitizer: sanitize runs replay every hit from disk through
      ``check_cached_payload``.
    * **Disk** — the optional content-addressed :class:`RunCache`, plus
      its fingerprint-free wall-time sidecar that feeds the planner's
      cost model.

    Memory values are JSON strings: hits round-trip through ``json.loads``
    so every consumer sees the payload types of a disk hit, and no two
    figures share mutable result state.
    """

    __slots__ = ("memo", "disk", "stats")

    def __init__(self, cache: Union[None, bool, str, RunCache] = None) -> None:
        self.disk = resolve_cache(cache)
        self.memo = (
            current_context().run_memo if get_sanitizer() is None else None
        )
        self.stats = current_stats()

    def lookup(self, key: str, label: str = "") -> Optional[dict]:
        """The cell's payload, or ``None``; counted at the level that served it.

        A memory hit counts ``exec.memo_hits``; the disk level counts its
        own hits and misses (``RunCache.get``), and a disk hit is promoted
        into memory.
        """
        if self.memo is not None:
            serialized = self.memo.get(key)
            if serialized is not None:
                self.stats.record_memo_hit(label)
                return json.loads(serialized)
        if self.disk is None:
            return None
        payload = self.disk.get(key, label=label)
        if payload is not None and self.memo is not None:
            self._remember(key, json.dumps(payload))
        return payload

    def probe(self, key: str) -> bool:
        """Whether either level holds the cell.

        Silent: no counter, no mtime and no LRU recency is touched, so the
        planner can scan its whole work list without skewing the counts
        the figures record when they assemble.
        """
        if self.memo is not None and key in self.memo:
            return True
        return self.disk is not None and self.disk.has(key)

    def put(self, key: str, payload: dict, cost_key: str, seconds: float) -> None:
        """Store one executed cell: disk entry, wall-time sidecar, memo entry."""
        if self.disk is not None:
            self.disk.put(key, payload)
            self.disk.record_timing(cost_key, seconds)
        if self.memo is not None:
            self._remember(key, json.dumps(payload))

    def _remember(self, key: str, serialized: str) -> None:
        evicted = self.memo.put(key, serialized)
        if evicted:
            self.stats.record_memo_evictions(evicted)


def run_workload(
    design: SecureDesign,
    workload: Union[str, WorkloadProfile],
    config: SystemConfig = SystemConfig(),
    energy_params: Optional[SystemEnergyParams] = None,
    seed: Optional[int] = None,
) -> RunResult:
    """Simulate one (design, workload) pair and package the result.

    The simulation runs under its own telemetry scope: every instrumented
    component constructed here registers into a fresh per-cell registry,
    and the snapshot rides on :attr:`RunResult.telemetry` — into the run
    cache and back across process-pool boundaries.

    ``seed`` re-salts the trace-synthesis streams (``None`` keeps the
    default salts): the ``grid`` experiment's way of asking for replicate
    runs over distinct, fully deterministic trace realisations.
    """
    trace_salt: object = "trace" if seed is None else ("trace", seed)
    warmup_salt: object = "warmup" if seed is None else ("warmup", seed)
    label, traces = _traces_for(workload, config, trace_salt)
    _label, warmup_traces = _traces_for(workload, config, seed_salt=warmup_salt)
    cell = "%s/%s" % (design.name, label)
    tracer = get_tracer()
    with cell_scope(cell=cell) as registry:
        tracer.emit("cell_start", design=design.name, workload=label)
        sim = SystemSimulator(design, traces, config)
        if config.warm_caches and warmup_traces:
            _warm_simulator(sim, design, label, config, warmup_traces, seed)
        sim.run()
        energy = system_energy(sim, energy_params or SystemEnergyParams())
        tracer.emit(
            "cell_end",
            design=design.name,
            workload=label,
            ipc=sim.ipc,
            cpu_cycles=sim.cpu_cycles,
        )
        telemetry = registry.snapshot().deterministic().to_payload()
    result = RunResult(
        design=design.name,
        workload=label,
        ipc=sim.ipc,
        cpu_cycles=sim.cpu_cycles,
        instructions=sim.total_instructions,
        traffic=sim.traffic(),
        origin_traffic={
            key: value
            for key, value in sim.engine.stats.as_dict().items()
            if key.startswith(("demand_", "writeback_"))
        },
        energy_j=energy.total_j,
        power_w=energy.average_power_w,
        edp=energy.edp,
        llc_hit_rate=sim.hierarchy.llc.hit_rate,
        metadata_hit_rate=sim.hierarchy.metadata_cache.hit_rate,
        telemetry=telemetry,
    )
    sim.release()
    return result


def _workload_label(workload: Union[str, WorkloadProfile]) -> str:
    return workload if isinstance(workload, str) else workload.name


def cell_key(
    design: SecureDesign,
    workload: Union[str, WorkloadProfile],
    config: SystemConfig,
    energy_params: Optional[SystemEnergyParams] = None,
    seed: Optional[int] = None,
) -> str:
    """Content address of one grid cell (see repro.parallel.runcache).

    What the whole-run planner dedups and probes on, and what
    ``run_suite`` looks up, so a cell the planner executed is a guaranteed
    hit when a figure later assembles it.
    """
    return cache_key(
        "run_workload",
        design=design,
        workload=workload,
        config=config,
        energy=energy_params or SystemEnergyParams(),
        seed=seed,
    )


def cell_cost_key(
    design: SecureDesign,
    workload: Union[str, WorkloadProfile],
    config: SystemConfig,
    energy_params: Optional[SystemEnergyParams] = None,
    seed: Optional[int] = None,
) -> str:
    """Fingerprint-free identity for the cell's recorded wall time."""
    return cost_key(
        "run_workload",
        design=design,
        workload=workload,
        config=config,
        energy=energy_params or SystemEnergyParams(),
        seed=seed,
    )

def _run_cell(
    task: Tuple[
        SecureDesign,
        Union[str, WorkloadProfile],
        SystemConfig,
        Optional[SystemEnergyParams],
        Optional[int],
    ]
) -> RunResult:
    """Module-level worker entry so cells pickle into pool processes."""
    design, workload, config, energy_params, seed = task
    return run_workload(design, workload, config, energy_params, seed)


def _cell_event(
    label: str,
    done: int,
    total: int,
    cached: bool,
    seconds: float,
    result: RunResult,
) -> Dict[str, object]:
    """One ``cell`` progress event (headline metrics are deterministic)."""
    return {
        "kind": "cell",
        "label": label,
        "done": done,
        "total": total,
        "cached": cached,
        "seconds": round(seconds, 6),
        "headline": MetricsSnapshot.from_payload(result.telemetry).headline(),
    }


def _execute(
    store: CellStore,
    tasks: List[Tuple],
    keys: List[str],
    labels: List[str],
    jobs: int,
    on_cell: Optional[Callable[[int, str, RunResult, float], None]],
) -> List[RunResult]:
    """Fan ``tasks`` over ``jobs`` workers and put every result in ``store``.

    ``on_cell`` sees each cell as it lands, in submission order.
    """
    seconds: List[float] = []

    def record(index, label, result, elapsed):
        seconds.append(elapsed)
        if on_cell is not None:
            on_cell(index, label, result, elapsed)

    results = parallel_map(
        _run_cell, tasks, jobs=jobs, labels=labels, progress=record
    )
    for key, task, result, elapsed in zip(keys, tasks, results, seconds):
        store.put(key, result.to_payload(), cell_cost_key(*task), elapsed)
    return results


def run_suite(
    designs: Iterable[SecureDesign],
    workloads: Iterable[Union[str, WorkloadProfile]],
    config: SystemConfig = SystemConfig(),
    energy_params: Optional[SystemEnergyParams] = None,
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
    seed: Optional[int] = None,
    progress: Optional[ProgressCallback] = None,
) -> ResultTable:
    """Run every design on every workload, fanned over ``jobs`` processes.

    ``jobs``/``cache`` default to the process execution context (CLI
    ``--jobs`` / ``--no-cache``, or ``REPRO_JOBS`` / ``REPRO_CACHE``).
    Results are returned in grid order — designs outer, workloads inner —
    whatever the completion order, and are bit-identical to a serial run.
    Cells already in the :class:`CellStore` are replayed, not simulated.

    ``seed`` re-salts trace synthesis per cell (see :func:`run_workload`).
    ``progress`` (or the thread's :func:`cell_progress` hook) receives one
    ``suite`` event, then one ``cell`` event per finished cell: cache hits
    in grid-scan order, executed cells in submission order — the same
    sequence at any ``jobs`` count, modulo the wall-clock ``seconds``
    field. A callback exception aborts the suite (cancellation).
    """
    designs = list(designs)
    workloads = list(workloads)
    jobs = resolve_jobs(jobs)
    store = CellStore(cache)
    sanitizer = get_sanitizer()
    progress = _active_progress(progress)

    cells = [(design, workload) for design in designs for workload in workloads]
    total = len(cells)
    finished = {}
    hits = []
    pending = []
    for design, workload in cells:
        label = "%s/%s" % (design.name, _workload_label(workload))
        key = cell_key(design, workload, config, energy_params, seed)
        payload = store.lookup(key, label)
        if payload is None:
            pending.append(((design, workload), key, label))
            continue
        if sanitizer is not None:
            sanitizer.check_cached_payload(
                label,
                payload,
                lambda d=design, w=workload: run_workload(
                    d, w, config, energy_params, seed
                ).to_payload(),
            )
        result = RunResult.from_payload(payload)
        finished[(design, workload)] = result
        hits.append((label, result))

    done = 0
    if progress is not None:
        progress(
            {"kind": "suite", "total": total, "pending": len(pending)}
        )
        for label, result in hits:
            done += 1
            progress(_cell_event(label, done, total, True, 0.0, result))

    if pending:
        emit = progress  # bind for the closure; progress stays Optional

        def on_cell(index, label, result, elapsed):
            nonlocal done
            done += 1
            emit(_cell_event(label, done, total, False, elapsed, result))

        results = _execute(
            store,
            [
                (design, workload, config, energy_params, seed)
                for (design, workload), _key, _label in pending
            ],
            [key for _cell, key, _label in pending],
            [label for _cell, _key, label in pending],
            jobs,
            on_cell if emit is not None else None,
        )
        for (cell, _key, _label), result in zip(pending, results):
            finished[cell] = result

    table = ResultTable()
    for cell in cells:
        result = finished[cell]
        table.add(result)
        # Grid order + commutative merge => the aggregate is independent of
        # completion order, and warm cache hits still contribute metrics.
        current_aggregate().add(result.design, result.telemetry)
    return table


def run_cells(
    tasks: List[Tuple],
    store: CellStore,
    labels: List[str],
    jobs: Optional[int] = None,
) -> List[RunResult]:
    """Execute grid cells *as given* and put each result in ``store``.

    The whole-run planner's dispatch primitive: unlike :func:`run_suite`
    this neither looks up nor dedups — the planner already probed and
    deduped — it fans the tasks (``(design, workload, config,
    energy_params, seed)`` tuples) over ``jobs`` workers in the order
    supplied (the planner's LPT order), stores each result exactly as
    ``run_suite`` would, and returns results in submission order.

    Per-cell completion is streamed through the thread's
    :func:`cell_progress` hook as ``cell`` events (``planned: True``), so
    service jobs keep cell-granular progress and cancellation during a
    planned prefetch.
    """
    hook = _active_progress(None)
    total = len(tasks)

    def on_cell(index, label, result, elapsed):
        event = _cell_event(label, index + 1, total, False, elapsed, result)
        event["planned"] = True
        hook(event)

    return _execute(
        store,
        tasks,
        [cell_key(*task) for task in tasks],
        labels,
        resolve_jobs(jobs),
        on_cell if hook is not None else None,
    )

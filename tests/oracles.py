"""Readable reference implementations the shipped fast paths are checked against.

Each oracle is the plain, one-step-at-a-time statement of a behaviour whose
production version is inlined, indexed or vectorised for speed. They live
with the tests, not in ``src/repro``, because nothing at run time uses them:

* :class:`ScalarTimingEngine` — the secure engine's metadata walk, one
  ``CacheHierarchy.access_metadata`` call per probe and one
  :func:`enqueue` per request;
* :class:`ReferenceBank` / :class:`ReferenceChannel` — per-access DRAM
  timing as methods (``classify``/``access_latency``/``begin_access`` on
  the bank, ``plan``/``commit`` on the channel): the arithmetic the
  controller's fused decision step inlines;
* :class:`ReferenceController` — FR-FCFS over those channels by plain
  windowed scan, with an unconditional rescan after late arrivals: the
  schedule ``MemoryController.process`` must reproduce, its pool picked
  by :func:`update_drain_mode` (the hysteresis ``_select_pool`` inlines);
* :func:`generate_trace_reference` — the per-record trace-synthesis loop
  behind the batched ``generate_trace``;
* :func:`simulate_device` / :func:`sample_device_faults` — the event-based
  Monte-Carlo reference (every chip, every mode, Poisson arrivals), and
  :func:`_multi_fault_device_fails` / :func:`reference_shard_task` — the
  per-device ``fork`` draw path ``multi_fault_failures`` reproduces draw
  for draw, judged by :func:`reference_device_fails`, the ``FaultInstance``
  predicate (``_multi_chip_overlap``, ``_secded_fails``,
  ``footprints_intersect``) kept independent of the shipped record test.
"""

from collections import deque
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.sanitizer import get_sanitizer
from repro.cpu.trace import MemoryOp, Trace, TraceRecord
from repro.dram.bank import BankState
from repro.dram.channel import ChannelState
from repro.dram.controller import MemoryController, Request, RequestKind
from repro.dram.scheduler import FrFcfsScheduler
from repro.dram.timing import DramTiming, MemoryConfig
from repro.reliability.faults import FaultInstance
from repro.reliability.fitrates import FAULT_MODES, FaultGranularity, FaultMode
from repro.reliability.montecarlo import (
    _FIT_RATE,
    _LARGE_FRACTION,
    SHARD_FAILURE_EDGES,
    MonteCarloConfig,
)
from repro.reliability.schemes import ProtectionScheme
from repro.secure.designs import MacLocation, TreeKind
from repro.secure.timing_engine import SecureTimingEngine
from repro.telemetry import cell_scope
from repro.util.rng import DeterministicRng, derive_seed
from repro.workloads.generator import (
    _LINES_PER_PAGE,
    _NUM_STREAMS,
    _PAGE_WINDOW,
    _STREAM_STICKINESS,
    _check_args,
    _geometry,
)
from repro.workloads.profiles import WorkloadProfile

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


def enqueue(
    controller: MemoryController,
    kind: RequestKind,
    line_address: int,
    arrival: int,
    category: str = "data",
    core: int = 0,
) -> Request:
    """Enqueue one request; its ``completion`` is set by ``process``.

    The per-call form of ``MemoryController.enqueue_batch`` (a one-spec
    batch, so sequence numbering is the batch path's).
    """
    return controller.enqueue_batch([(kind, line_address, arrival, category, core)])[0]


class ReferenceBank(BankState):
    """One bank with its per-access timing stated as methods."""

    __slots__ = (
        "_lat_hit_read",
        "_lat_hit_write",
        "_lat_closed_read",
        "_lat_closed_write",
        "_lat_miss_read",
        "_lat_miss_write",
        "_ready_delta_read",
        "_ready_delta_write",
    )

    def __init__(self, timing: DramTiming):
        super().__init__()
        # Latency table: classification x direction.
        self._lat_hit_read = timing.t_cl
        self._lat_hit_write = timing.t_cwl
        self._lat_closed_read = timing.t_rcd + timing.t_cl
        self._lat_closed_write = timing.t_rcd + timing.t_cwl
        self._lat_miss_read = timing.t_rp + timing.t_rcd + timing.t_cl
        self._lat_miss_write = timing.t_rp + timing.t_rcd + timing.t_cwl
        # After an access the bank is ready again at start + tCCD (+ tWR
        # write recovery) — the row is open by then, so the column latency
        # cancels out of the original formulation.
        self._ready_delta_read = timing.t_ccd
        self._ready_delta_write = timing.t_ccd + timing.t_wr

    def classify(self, row: int) -> str:
        """'hit', 'miss' (conflict), or 'closed'."""
        if self.open_row is None:
            return "closed"
        return "hit" if self.open_row == row else "miss"

    def access_latency(self, row: int, is_write: bool) -> int:
        """Command-start to first-data-beat latency for accessing ``row``."""
        open_row = self.open_row
        if open_row is None:
            return self._lat_closed_write if is_write else self._lat_closed_read
        if open_row == row:
            return self._lat_hit_write if is_write else self._lat_hit_read
        return self._lat_miss_write if is_write else self._lat_miss_read

    def begin_access(self, row: int, start: int, is_write: bool) -> Optional[int]:
        """Commit an access starting at ``start``; updates row + ready time.

        Returns the row that was open *before* this access (``None`` for a
        closed bank).
        """
        open_row = self.open_row
        if open_row == row:
            self.row_hits += 1
        else:
            self.row_misses += 1
            self.open_row = row
        self.ready_at = start + (
            self._ready_delta_write if is_write else self._ready_delta_read
        )
        return open_row

    def earliest_start(self, now: int) -> int:
        """Earliest cycle a new command to this bank may start."""
        ready = self.ready_at
        return ready if ready > now else now


class ReferenceChannel(ChannelState):
    """One channel whose timing is planned and committed per request.

    ``plan`` computes the earliest (command_start, data_start, completion)
    for a request without touching bank or bus state (only the refresh
    stall accounting moves); ``commit`` applies it. Under the sanitizer
    every commit is checked against the pre-mutation state.
    """

    __slots__ = (
        "_model_refresh",
        "_model_faw",
        "_t_refi",
        "_t_rfc",
        "_t_rrd",
        "_t_faw",
        "_t_wtr",
        "_t_rtw",
        "_t_burst",
        "_sanitizer",
        "refresh_stall_cycles",
        "activate_waits",
    )

    def __init__(self, config: MemoryConfig):
        super().__init__(config)
        self.banks = [
            ReferenceBank(config.timing) for _ in range(config.banks_per_channel)
        ]
        timing = config.timing
        self._model_refresh = config.model_refresh
        self._model_faw = config.model_faw
        self._t_refi = timing.t_refi
        self._t_rfc = timing.t_rfc
        self._t_rrd = timing.t_rrd
        self._t_faw = timing.t_faw
        self._t_wtr = timing.t_wtr
        self._t_rtw = timing.t_rtw
        self._t_burst = timing.t_burst
        self._sanitizer = get_sanitizer()
        #: cycles plans were pushed out of refresh blackouts (per plan)
        self.refresh_stall_cycles = 0
        #: plans whose activate tRRD/tFAW delayed
        self.activate_waits = 0

    # -- refresh ------------------------------------------------------------

    def _after_refresh(self, start: int) -> int:
        """Push ``start`` out of any periodic refresh blackout window.

        All banks of a rank are unavailable for tRFC every tREFI; we model
        the blackout as channel-wide (ranks refresh staggered in reality —
        a second-order detail).
        """
        if not self._model_refresh:
            return start
        phase = start % self._t_refi
        if phase < self._t_rfc:
            shifted = start + (self._t_rfc - phase)
            self.refresh_stall_cycles += shifted - start
            return shifted
        return start

    # -- activation window ----------------------------------------------------

    def _after_faw(self, rank: int, start: int, will_activate: bool) -> int:
        """Respect tFAW (max 4 ACTs per rolling window) and tRRD."""
        if not self._model_faw or not will_activate:
            return start
        history = self._recent_activates[rank]
        if history:
            after_rrd = history[-1] + self._t_rrd
            if after_rrd > start:
                start = after_rrd
            if len(history) >= 4:
                after_faw = history[-4] + self._t_faw
                if after_faw > start:
                    start = after_faw
        return start

    def plan(
        self, rank: int, bank: int, row: int, is_write: bool, now: int
    ) -> Tuple[int, int, int]:
        """Earliest (command_start, data_start, completion) for a request.

        Bank-ready clamp, refresh blackout, tFAW/tRRD, latency class, bus
        turnaround — in that order.
        """
        bank_state = self.banks[self.flat_bank(rank, bank)]
        start = bank_state.earliest_start(now)
        start = self._after_refresh(start)
        unconstrained = start
        start = self._after_faw(rank, start, bank_state.open_row != row)
        if start != unconstrained:
            self.activate_waits += 1
        data_start = start + bank_state.access_latency(row, is_write)
        if is_write:
            turnaround = 0 if self.last_was_write else self._t_rtw
        else:
            turnaround = self._t_wtr if self.last_was_write else 0
        earliest_bus = self.bus_free_at + turnaround
        if data_start < earliest_bus:
            shift = earliest_bus - data_start
            start += shift
            data_start += shift
        completion = data_start + self._t_burst
        return start, data_start, completion

    def commit(
        self, rank: int, bank: int, row: int, is_write: bool, plan: Tuple[int, int, int]
    ) -> None:
        """Apply a previously planned access to bank and bus state."""
        if self._sanitizer is not None:
            self._sanitizer.check_dram_commit(self, rank, bank, row, is_write, plan)
        start, _data_start, completion = plan
        flat = self.flat_bank(rank, bank)
        previous = self.banks[flat].begin_access(row, start, is_write)
        if previous != row:
            if self._model_faw:
                history = self._recent_activates[rank]
                history.append(start)
                if len(history) > 8:
                    del history[:-8]
            if previous is None:
                self.closed_banks -= 1
            self.open_rows[flat] = row
        self.bus_free_at = completion
        self.last_was_write = is_write

    def is_row_hit(self, rank: int, bank: int, row: int) -> bool:
        """Does ``row`` currently sit in the bank's row buffer?"""
        return self.banks[self.flat_bank(rank, bank)].open_row == row


def update_drain_mode(
    scheduler: FrFcfsScheduler, write_queue_depth: int, read_queue_depth: int
) -> None:
    """Hysteresis: enter drain at HIGH, leave at LOW (or when reads wait).

    Counts a drain burst and records the write-queue depth on entering
    drain, as ``MemoryController._select_pool`` does inline.
    """
    was_draining = scheduler.draining
    if scheduler.draining:
        if write_queue_depth <= scheduler.drain_low:
            scheduler.draining = False
    else:
        if write_queue_depth >= scheduler.drain_high:
            scheduler.draining = True
    if read_queue_depth == 0 and write_queue_depth > 0:
        # Opportunistic writes when the channel would otherwise idle.
        scheduler.draining = True
    if scheduler.draining and not was_draining:
        scheduler._t_drain_bursts.inc()
        scheduler._t_write_queue_depth.record(write_queue_depth)


class ReferenceController(MemoryController):
    """FR-FCFS over :class:`ReferenceChannel`, decided by plain scan.

    Enqueue, accounting and telemetry are the shipped controller's; only
    ``process`` differs. Per decision: admit every arrival up to the
    horizon (the next arrival when idle, else one cycle past the last
    command start), pick the pool with ``update_drain_mode``, scan the
    oldest ``WINDOW`` requests for the smallest estimate
    ``max(arrival, horizon, ready_at) + access_latency`` (first scanned
    wins ties), plan it, and — when requests arrived before its start —
    admit them, pick the pool again and rescan, unconditionally. The
    pools' row census is not maintained.
    """

    def __init__(self, config: MemoryConfig):
        super().__init__(config)
        self.channels = [ReferenceChannel(config) for _ in range(config.channels)]
        self.rescans = 0  #: decisions re-chosen after late arrivals

    def process(self) -> None:
        for queues, channel, scheduler in zip(
            self._queues, self.channels, self.schedulers
        ):
            self._schedule(queues, channel, scheduler)

    @staticmethod
    def _pool(scheduler, reads, writes):
        update_drain_mode(scheduler, len(writes), len(reads))
        pool = writes if (scheduler.draining and writes) else reads
        return pool if pool else (writes or reads)

    def _choose(self, channel, pool, horizon):
        best, best_estimate = None, None
        for request in list(pool)[: self.WINDOW]:
            bank = channel.banks[request.flat_bank]
            estimate = bank.earliest_start(
                max(request.arrival, horizon)
            ) + bank.access_latency(request.row, request.is_write)
            if best is None or estimate < best_estimate:
                best, best_estimate = request, estimate
        return best

    def _schedule(self, queues, channel, scheduler) -> None:
        pending = deque(sorted(queues.incoming))
        del queues.incoming[:]
        reads, writes = queues.reads, queues.writes

        def admit(until):
            while pending and pending[0][0] <= until:
                request = pending.popleft()[2]
                (writes if request.is_write else reads).append(request)

        while pending or reads or writes:
            if reads or writes:
                horizon = queues.last_command_start + 1
            else:
                horizon = pending[0][0]
            admit(horizon)
            pool = self._pool(scheduler, reads, writes)
            chosen = self._choose(channel, pool, horizon)
            plan = channel.plan(
                chosen.rank, chosen.bank, chosen.row, chosen.is_write,
                max(chosen.arrival, horizon),
            )
            if pending and pending[0][0] <= plan[0]:
                self.rescans += 1
                admit(plan[0])
                pool = self._pool(scheduler, reads, writes)
                chosen = self._choose(channel, pool, horizon)
                plan = channel.plan(
                    chosen.rank, chosen.bank, chosen.row, chosen.is_write,
                    max(chosen.arrival, horizon),
                )
            depth = len(reads) + len(writes)
            self._depth_acc[depth] = self._depth_acc.get(depth, 0) + 1
            channel.commit(
                chosen.rank, chosen.bank, chosen.row, chosen.is_write, plan
            )
            start, data_start, completion = plan
            chosen.completion = completion
            queues.last_command_start = start
            pool.remove(chosen)
            acc = self._write_lat_acc if chosen.is_write else self._read_lat_acc
            latency = completion - chosen.arrival
            acc[latency] = acc.get(latency, 0) + 1
            self._c_data_bus_cycles.value += completion - data_start


class ScalarTimingEngine(SecureTimingEngine):
    """The secure engine's metadata walk, stated step by step.

    Drop-in for :class:`SecureTimingEngine`: same constructor, and the
    same driving surface — ``expand_read_miss_deferred`` (returns gating
    indices), ``writeback``, ``warm_metadata`` and ``flush_epoch``. It
    shares the engine's accounting table and telemetry, so the stat
    group's order and the registry snapshot compare directly. Requests
    are enqueued one by one as they are emitted (nothing schedules until
    ``process``, so this equals the engine's per-epoch batch), and
    ``flush_epoch`` returns the epoch's requests in emission order.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writeback = self._writeback
        self.warm_metadata = self._warm_metadata
        self._epoch: List[Request] = []
        self._gating: List[int] = []
        self._queue = deque()
        self._draining = False
        #: Whether emitted traffic is triggered by a data writeback (the
        #: Fig. 9 origin split) rather than a demand read.
        self._in_writeback_path = False

    # -- emission ---------------------------------------------------------

    def _emit(self, kind, line, when, category, core, gating=False):
        self._counter(self._in_writeback_path, category, kind).value += 1
        if category != "data":
            self._n_metadata_accesses += 1
        if gating:
            self._gating.append(len(self._epoch))
        self._epoch.append(enqueue(self.controller, kind, line, when, category, core))

    def flush_epoch(self) -> List[Request]:
        requests, self._epoch = self._epoch, []
        return requests

    def _access(self, line, is_write, use_llc, when, core) -> bool:
        """One metadata probe; drains its victim; returns hit."""
        result = self.hierarchy.access_metadata(line, is_write, use_llc)
        self._writeback(result.writeback_address, when, core)
        return result.hit

    @staticmethod
    def _record_depth(acc, depth):
        acc[depth] = acc.get(depth, 0) + 1

    # -- read path (LLC data miss) ------------------------------------------

    def expand_read_miss_deferred(self, data_line, when, core) -> List[int]:
        design = self.design
        self._gating = []
        self._emit(_READ, data_line, when, "data", core, gating=True)
        if design.encrypted:
            self._fetch_counter_chain(data_line, when, core)
            if design.mac_location is MacLocation.SEPARATE:
                self._fetch_mac(data_line, when, core)
        return self._gating

    def _fetch_counter_chain(self, data_line, when, core):
        design = self.design
        use_llc = design.counters_in_llc
        counter_line = self.map.counter_line(data_line)
        if self._access(counter_line, False, use_llc, when, core):
            self._c_counter_hits.value += 1
            self._n_counter_hits += 1
            return
        self._emit(_READ, counter_line, when, "counter", core, gating=True)
        if design.tree_kind is not TreeKind.BONSAI_COUNTER:
            return
        # Walk the counter tree until a cached level (trust anchor).
        depth = 0
        for tree_line in self.map.tree_path_from_counter(counter_line):
            if self._access(tree_line, False, use_llc, when, core):
                break
            self._emit(_READ, tree_line, when, "counter", core, gating=True)
            depth += 1
        self._record_depth(self._tree_depth_acc, depth)

    def _fetch_mac(self, data_line, when, core):
        # Table II: no design caches MACs, so every data access pays a MAC
        # memory access (the traffic Synergy eliminates). IVEC also stores
        # its untrusted MACs in the LLC, displacing data without eliding
        # the fetch, and walks its MAC tree.
        design = self.design
        mac_line = self.map.mac_line(data_line)
        self._emit(_READ, mac_line, when, "mac", core, gating=True)
        if design.macs_in_llc:
            self._writeback(self.hierarchy.llc.fill(mac_line), when, core)
        if design.tree_kind is not TreeKind.MAC_TREE:
            return
        depth = 0
        for tree_line in self.map.tree_path_from_mac(mac_line):
            if self._access(tree_line, False, design.macs_in_llc, when, core):
                break
            self._emit(_READ, tree_line, when, "mac", core, gating=True)
            depth += 1
        self._record_depth(self._mac_tree_depth_acc, depth)

    # -- write path (dirty eviction = memory write) ---------------------------

    def _writeback(self, victim: Optional[int], when, core):
        """Drain a dirty victim of any region, eviction chains included."""
        if victim is None:
            return
        self._queue.append(victim)
        if self._draining:
            return
        self._draining = True
        try:
            while self._queue:
                line = self._queue.popleft()
                if line < self.map.counter_base:
                    self._in_writeback_path = True
                    try:
                        self._expand_data_writeback(line, when, core)
                    finally:
                        self._in_writeback_path = False
                else:
                    # Metadata victims: plain writes, demand-origin.
                    self._emit(_WRITE, line, when, self._region(line), core)
        finally:
            self._draining = False

    def _region(self, line):
        """Traffic category of a metadata line by its region."""
        map_ = self.map
        if line < map_.mac_base:
            return "counter"
        if line < map_.parity_base:
            return "mac"
        if line < map_.tree_level_bases[0]:
            return "parity"
        return "counter"  # tree lines group with counters (Fig. 9)

    def _expand_data_writeback(self, data_line, when, core):
        design = self.design
        self._emit(_WRITE, data_line, when, "data", core)
        if design.encrypted:
            self._update_counter_chain(data_line, when, core)
            if design.mac_location is MacLocation.SEPARATE:
                self._update_mac(data_line, when, core)
        if design.parity_write_on_data_write:
            self._emit(_WRITE, self.map.parity_line(data_line), when, "parity", core)
        if design.lotecc_parity_rmw:
            parity_line = self.map.parity_line(data_line)
            if not design.lotecc_write_coalescing:
                self._emit(_READ, parity_line, when, "parity", core)
            self._emit(_WRITE, parity_line, when, "parity", core)

    def _update_counter_chain(self, data_line, when, core):
        design = self.design
        use_llc = design.counters_in_llc
        counter_line = self.map.counter_line(data_line)
        if not self._access(counter_line, True, use_llc, when, core):
            # RMW: the counter line is fetched before it is bumped.
            self._emit(_READ, counter_line, when, "counter", core)
        if design.tree_kind is not TreeKind.BONSAI_COUNTER:
            return
        # An update dirties every level up to the root; uncached levels
        # are fetched for the read-modify-write.
        for tree_line in self.map.tree_path_from_counter(counter_line):
            if not self._access(tree_line, True, use_llc, when, core):
                self._emit(_READ, tree_line, when, "counter", core)

    def _update_mac(self, data_line, when, core):
        design = self.design
        mac_line = self.map.mac_line(data_line)
        self._emit(_WRITE, mac_line, when, "mac", core)
        if design.macs_in_llc:
            self._writeback(self.hierarchy.llc.fill(mac_line), when, core)
        if design.tree_kind is not TreeKind.MAC_TREE:
            return
        # A Merkle tree of MACs re-hashes every level to the root.
        for tree_line in self.map.tree_path_from_mac(mac_line):
            if not self._access(tree_line, True, design.macs_in_llc, when, core):
                self._emit(_READ, tree_line, when, "mac", core)

    # -- warm-up (cache state only, no traffic) ------------------------------

    def _warm_metadata(self, data_line, is_write):
        design = self.design
        access = self.hierarchy.access_metadata
        counter_line = self.map.counter_line(data_line)
        chain = access(counter_line, is_write, design.counters_in_llc)
        if not chain.hit and design.tree_kind is TreeKind.BONSAI_COUNTER:
            for tree_line in self.map.tree_path_from_counter(counter_line):
                if access(tree_line, is_write, design.counters_in_llc).hit:
                    break
        if design.mac_location is MacLocation.SEPARATE:
            mac_line = self.map.mac_line(data_line)
            if design.macs_in_llc:
                self.hierarchy.llc.fill(mac_line)
            if design.tree_kind is TreeKind.MAC_TREE:
                for tree_line in self.map.tree_path_from_mac(mac_line):
                    if access(tree_line, is_write, design.macs_in_llc).hit:
                        break


def generate_trace_reference(
    profile: WorkloadProfile,
    num_accesses: int,
    core_id: int = 0,
    base_line: int = 0,
    seed_salt: object = "trace",
    scale_divisor: int = 1,
) -> Trace:
    """Per-record trace synthesis; ``generate_trace`` must match it exactly.

    Same arguments and determinism as ``generate_trace``; the draw
    sequence is frozen.
    """
    _check_args(num_accesses, scale_divisor)
    rng = DeterministicRng(derive_seed(profile.name, core_id, seed_salt))

    footprint_lines, hot_lines, num_pages = _geometry(profile, scale_divisor)
    # The hot set occupies the start of the footprint; streams and random
    # draws roam everywhere (overlap with the hot set is harmless).
    stream_positions = [
        rng.randint(0, footprint_lines - 1) for _ in range(_NUM_STREAMS)
    ]
    # Recently-touched-page window for the random component's page locality.
    page_window = [rng.randint(0, num_pages - 1) for _ in range(_PAGE_WINDOW)]
    window_cursor = 0
    burst_page = page_window[0]
    burst_left = 0
    burst_offset = 0
    active_stream = 0

    mean_gap = max(0.0, 1000.0 / profile.apki - 1.0)
    # Exponential inter-access gaps match the target APKI in expectation.
    records = []
    for _ in range(num_accesses):
        gap = int(rng.expovariate(1.0 / mean_gap)) if mean_gap > 0 else 0
        op = (
            MemoryOp.WRITE
            if rng.uniform() < profile.write_fraction
            else MemoryOp.READ
        )
        draw = rng.uniform()
        if draw < profile.sequential:
            # Sticky stream selection: real streaming loops issue long runs
            # from one stream before switching (row-buffer locality).
            if rng.uniform() > _STREAM_STICKINESS:
                current_stream = rng.randint(0, _NUM_STREAMS - 1)
            else:
                current_stream = active_stream
            active_stream = current_stream
            stream_positions[current_stream] = (
                stream_positions[current_stream] + 1
            ) % footprint_lines
            line = stream_positions[current_stream]
        elif draw < profile.sequential + profile.hot:
            line = rng.randint(0, hot_lines - 1)
        else:
            if burst_left <= 0:
                # Pick the next page to burst into: usually a recently
                # touched one, occasionally a fresh uniform page.
                if rng.uniform() < profile.page_locality:
                    burst_page = page_window[rng.randint(0, _PAGE_WINDOW - 1)]
                else:
                    burst_page = rng.randint(0, num_pages - 1)
                    page_window[window_cursor] = burst_page
                    window_cursor = (window_cursor + 1) % _PAGE_WINDOW
                burst_left = 1 + int(rng.expovariate(1.0 / profile.burst_length))
                burst_offset = rng.randint(0, _LINES_PER_PAGE - 1)
            burst_left -= 1
            # Bursts walk the page sequentially: real miss streams are
            # spatially clustered, which is what lets one counter line
            # (covering 8 adjacent data lines) serve a run of misses.
            line = min(
                footprint_lines - 1,
                burst_page * _LINES_PER_PAGE + burst_offset % _LINES_PER_PAGE,
            )
            burst_offset += 1
        records.append(TraceRecord(gap, op, base_line + line))
    return Trace(records, name="%s.c%d" % (profile.name, core_id))


# ---------------------------------------------------------------------------
# Monte-Carlo reliability: the event-based reference
# ---------------------------------------------------------------------------
#
# The Fig. 11 criterion as it was stated over ``FaultInstance`` objects,
# and the per-device draw path ``multi_fault_failures`` must reproduce:
# one ``DeterministicRng.fork("device", i)`` per device, ``randint`` and
# ``weighted_choice`` draws, a full fault list, then the predicate.


def _covers_all_banks(fault: FaultInstance) -> bool:
    return fault.granularity in (
        FaultGranularity.MULTI_BANK,
        FaultGranularity.MULTI_RANK,
    )


def _covers_all_rows(fault: FaultInstance) -> bool:
    return fault.granularity in (
        FaultGranularity.SINGLE_COLUMN,
        FaultGranularity.SINGLE_BANK,
        FaultGranularity.MULTI_BANK,
        FaultGranularity.MULTI_RANK,
    )


def _covers_all_columns(fault: FaultInstance) -> bool:
    return fault.granularity in (
        FaultGranularity.SINGLE_ROW,
        FaultGranularity.SINGLE_BANK,
        FaultGranularity.MULTI_BANK,
        FaultGranularity.MULTI_RANK,
    )


def active_during(first: FaultInstance, other: FaultInstance) -> bool:
    """Do the two faults' active windows intersect?"""
    start = max(first.start_hour, other.start_hour)
    end = min(
        first.end_hour if first.end_hour is not None else float("inf"),
        other.end_hour if other.end_hour is not None else float("inf"),
    )
    return start <= end


def _axis_intersects(a_all: bool, a_coord: int, b_all: bool, b_coord: int) -> bool:
    if a_all or b_all:
        return True
    return a_coord == b_coord


def footprints_intersect(a: FaultInstance, b: FaultInstance) -> bool:
    """Do the two faults corrupt at least one common word address?"""
    return (
        _axis_intersects(_covers_all_banks(a), a.bank, _covers_all_banks(b), b.bank)
        and _axis_intersects(_covers_all_rows(a), a.row, _covers_all_rows(b), b.row)
        and _axis_intersects(
            _covers_all_columns(a), a.column, _covers_all_columns(b), b.column
        )
    )


def _multi_chip_overlap(faults: List[FaultInstance]) -> bool:
    for index, first in enumerate(faults):
        for second in faults[index + 1 :]:
            if (
                first.chip != second.chip
                and active_during(first, second)
                and footprints_intersect(first, second)
            ):
                return True
    return False


def _secded_fails(faults: List[FaultInstance]) -> bool:
    # Any multi-bit fault corrupts >1 bit of some word: uncorrectable.
    for fault in faults:
        if fault.granularity is not FaultGranularity.SINGLE_BIT:
            return True
    # Two single-bit faults in the same word (any chips, same address).
    for index, first in enumerate(faults):
        for second in faults[index + 1 :]:
            same_word = (
                first.bank == second.bank
                and first.row == second.row
                and first.column == second.column
            )
            distinct_bits = first.chip != second.chip or first.bit != second.bit
            if same_word and distinct_bits and active_during(first, second):
                return True
    return False


def reference_device_fails(
    scheme: ProtectionScheme, faults: List[FaultInstance]
) -> bool:
    """Does this fault history make the device fail within lifetime?"""
    if not faults:
        return False
    if scheme.chip_correcting:
        return _multi_chip_overlap(faults)
    return _secded_fails(faults)


#: Fault-mode sampling weights for multi-fault devices (proportional to FIT).
_MODE_WEIGHTS = [mode.fit for mode in FAULT_MODES]


def _sample_fault(
    rng: DeterministicRng,
    chip: int,
    mode: FaultMode,
    config: MonteCarloConfig,
) -> FaultInstance:
    """Draw location and timing for one fault arrival."""
    geometry = config.geometry
    start = rng.uniform(0.0, config.lifetime_hours)
    if mode.transient:
        end: Optional[float] = start + config.scrub_interval_hours
    else:
        end = None
    return FaultInstance(
        chip=chip,
        granularity=mode.granularity,
        transient=mode.transient,
        start_hour=start,
        end_hour=end,
        bank=rng.randint(0, geometry.banks - 1),
        row=rng.randint(0, geometry.rows_per_bank - 1),
        column=rng.randint(0, geometry.words_per_row - 1),
        bit=rng.randint(0, 63),
    )


def sample_device_faults(
    rng: DeterministicRng, scheme: ProtectionScheme, config: MonteCarloConfig
) -> List[FaultInstance]:
    """All fault arrivals for one device over its lifetime (event-based)."""
    faults: List[FaultInstance] = []
    for chip in range(scheme.chips):
        for mode in FAULT_MODES:
            expected = mode.fit * 1e-9 * config.lifetime_hours
            arrivals = rng.poisson(expected)
            for _ in range(arrivals):
                faults.append(_sample_fault(rng, chip, mode, config))
    return faults


def simulate_device(
    rng: DeterministicRng, scheme: ProtectionScheme, config: MonteCarloConfig
) -> bool:
    """Reference path: does one simulated device fail?"""
    return reference_device_fails(scheme, sample_device_faults(rng, scheme, config))


def draw_device_faults(
    device_rng: DeterministicRng,
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    count: int,
) -> List[FaultInstance]:
    """The ``count`` faults of a multi-fault device, in draw order."""
    faults = []
    for _ in range(count):
        chip = device_rng.randint(0, scheme.chips - 1)
        mode = device_rng.weighted_choice(FAULT_MODES, _MODE_WEIGHTS)
        faults.append(_sample_fault(device_rng, chip, mode, config))
    return faults


def _multi_fault_device_fails(
    device_rng: DeterministicRng,
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    count: int,
) -> bool:
    """Explicit predicate for a device with ``count`` (>= 2) faults."""
    return reference_device_fails(
        scheme, draw_device_faults(device_rng, scheme, config, count)
    )


def reference_shard_task(task: Tuple) -> Tuple[int, dict]:
    """``_shard_task`` with the per-device fork path: ``(failures, payload)``."""
    scheme, config, shard_id, shard_size = task
    with cell_scope(cell="mc:%s" % scheme.name, shard=shard_id) as registry:
        shard_seed = derive_seed(config.seed, "mc-shard", shard_id)
        device_rate = _FIT_RATE * config.lifetime_hours * scheme.chips
        rng_np = np.random.default_rng(shard_seed)
        counts = rng_np.poisson(device_rate, shard_size)
        failures = 0
        single_fault_devices = int(np.count_nonzero(counts == 1))
        if not scheme.chip_correcting and single_fault_devices:
            failures += int(rng_np.binomial(single_fault_devices, _LARGE_FRACTION))
        rng = DeterministicRng(shard_seed)
        multi_indices = np.flatnonzero(counts >= 2)
        for device_index, count in zip(
            multi_indices.tolist(), counts[multi_indices].tolist()
        ):
            device_rng = rng.fork("device", device_index)
            if _multi_fault_device_fails(device_rng, scheme, config, count):
                failures += 1
        registry.counter("mc.shards").inc()
        registry.counter("mc.devices").inc(shard_size)
        registry.counter("mc.failures").inc(failures)
        registry.histogram("mc.shard_failures", SHARD_FAILURE_EDGES).record(failures)
        payload = registry.snapshot().to_payload()
    return failures, payload

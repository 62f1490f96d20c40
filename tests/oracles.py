"""Readable reference implementations the shipped fast paths are checked against.

Each oracle is the plain, one-step-at-a-time statement of a behaviour whose
production version is inlined, indexed or vectorised for speed. They live
with the tests, not in ``src/repro``, because nothing at run time uses them:

* :class:`ScalarTimingEngine` — the secure engine's metadata walk, one
  ``CacheHierarchy.access_metadata`` call per probe and one
  ``MemoryController.enqueue`` per request;
* :func:`reference_choose` — the O(queue) FR-FCFS scan behind
  ``FrFcfsScheduler.choose_indexed``;
* :func:`generate_trace_reference` — the per-record trace-synthesis loop
  behind the batched ``generate_trace``.
"""

from collections import deque
from typing import List, Optional

from repro.cpu.trace import MemoryOp, Trace, TraceRecord
from repro.dram.controller import Request, RequestKind
from repro.dram.scheduler import FrFcfsScheduler
from repro.secure.designs import MacLocation, TreeKind
from repro.secure.timing_engine import SecureTimingEngine
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
        self._epoch.append(
            self.controller.enqueue(kind, line, when, category, core)
        )

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


def reference_choose(
    scheduler: FrFcfsScheduler, channel, reads: List, writes: List
) -> Optional[object]:
    """FR-FCFS by scan: the decision ``choose_indexed`` must reproduce.

    Same drain-mode update (and side effects) as the indexed chooser,
    then the oldest row hit, else the oldest request, of the selected
    queue. Request objects expose ``flat_bank``/``row``/``arrival``; ties
    go to the first scanned.
    """
    scheduler.update_drain_mode(len(writes), len(reads))
    queue = writes if (scheduler.draining and writes) else reads
    if not queue:
        queue = writes if writes else reads
    if not queue:
        return None
    open_rows = channel.open_rows
    best = None
    best_key = None
    for request in queue:
        hit = open_rows[request.flat_bank] == request.row
        key = (0 if hit else 1, request.arrival)
        if best_key is None or key < best_key:
            best, best_key = request, key
    return best


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

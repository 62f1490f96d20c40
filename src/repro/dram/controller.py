"""Event-driven memory controller with FR-FCFS scheduling.

Co-simulation contract: producers (the system simulator) enqueue timestamped
requests; :meth:`MemoryController.process` then schedules everything that
has been enqueued, in causal order, assigning each request its completion
cycle. The system alternates "cores run until blocked" and "controller
schedules" epochs — cores can only block on their own outstanding reads, so
by the time ``process`` runs, every request that could contend is present.

Scheduling approximates FR-FCFS: at each decision the controller picks the
queued request with the earliest achievable data transfer (row hits
naturally win), with age as tie-break, and drains writes in bursts governed
by watermarks. Command-bus serialisation is modelled at one command per
cycle. Refresh blackouts (tREFI/tRFC) and the rank activation limits
(tRRD, tFAW) are modelled and on by default (``MemoryConfig.model_refresh``
/ ``model_faw``); the constraint left unenforced is tRAS
(``DramTiming.t_ras``, the minimum ACT-to-PRE time), second-order for the
traffic-volume effects this reproduction targets (see DESIGN.md).

Hot-path notes: ``enqueue_batch`` and the per-decision scheduling loop run
once per memory request and once per scheduling decision respectively —
millions of times per grid cell. Request is a ``__slots__`` class with
``is_write`` and the row-index key precomputed, per-(category, kind) stat
counters are bound once in a lookup table instead of string-formatted per
request, and ``incoming`` is a plain list sorted once per ``process`` epoch
(one Timsort over an almost-sorted list beats a heap pop per request).

Each decision is one fused step in ``_process_channel``: choose the request,
plan its timing and commit it inline, with the channel's bus state held in
locals for the epoch — no per-request plan/commit calls and no plan tuple.
The readable reference (a per-request ``plan``/``commit`` channel and a
plain windowed-scan controller) lives in ``tests/oracles.py``, and
``tests/test_dram_reference.py`` checks the two schedule identically.

The decision itself is indexed, not scanned: each pool keeps an incremental
row-hit census (``_PoolRowIndex``) so the common cases resolve in O(1) —

* pool has no row hits and every bank is open: all candidates are
  same-latency row misses, so the oldest request (the pool head) wins
  outright, no scan;
* otherwise the bounded window scan runs, but exits as soon as the current
  best is a ready row hit (unbeatable) and prunes on arrival order (pools
  are age-sorted, so once ``arrival >= best_estimate - lat_hit`` no later
  candidate can win).

The same census powers the late-arrival re-choose: admissions that cannot
have changed the scanned window (same pool object, window already full or
length unchanged) reuse the first decision instead of rescanning.
Invariants of the index are sanitizer-checked (REPRO_SANITIZE=1) against a
fresh queue scan; see ``repro.analysis.sanitizer.check_scheduler_index``.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.analysis.sanitizer import get_sanitizer

from repro.dram.address import AddressMapper
from repro.dram.channel import ChannelState
from repro.dram.scheduler import FrFcfsScheduler
from repro.dram.timing import MemoryConfig
from repro.telemetry import get_registry
from repro.util.stats import StatGroup

#: Telemetry bucket edges: queue depths in requests, latencies in memory
#: cycles (fixed so per-cell histograms merge across workers).
QUEUE_DEPTH_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128)
LATENCY_EDGES = (16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 1024, 4096)


class RequestKind(enum.Enum):
    """Memory request direction."""

    READ = "read"
    WRITE = "write"


_WRITE = RequestKind.WRITE


class Request:
    """One cacheline-sized memory request."""

    __slots__ = (
        "kind",
        "line_address",
        "arrival",
        "category",
        "core",
        "channel",
        "rank",
        "bank",
        "row",
        "flat_bank",
        "row_key",
        "completion",
        "sequence",
        "is_write",
    )

    def __init__(
        self,
        kind: RequestKind,
        line_address: int,
        arrival: int,
        category: str = "data",  #: data | counter | mac | parity | tree
        core: int = 0,
        channel: int = 0,
        rank: int = 0,
        bank: int = 0,
        row: int = 0,
        flat_bank: int = 0,  #: channel-local bank index, precomputed
        completion: Optional[int] = None,
        sequence: int = 0,
    ):
        self.kind = kind
        self.line_address = line_address
        self.arrival = arrival
        self.category = category
        self.core = core
        self.channel = channel
        self.rank = rank
        self.bank = bank
        self.row = row
        self.flat_bank = flat_bank
        # Row-index key: (flat_bank, row) packed into one int so the
        # per-pool row census needs a single dict probe per event. Rows are
        # far below 2**40 for any modelled geometry.
        self.row_key = (flat_bank << 40) | row
        self.completion = completion
        self.sequence = sequence
        self.is_write = kind is _WRITE

    def __repr__(self) -> str:
        return "Request(%s line=%d arrival=%d category=%s completion=%s)" % (
            self.kind.value,
            self.line_address,
            self.arrival,
            self.category,
            self.completion,
        )


class _PoolRowIndex:
    """Incremental open-row census for one scheduling pool.

    ``row_counts[row_key]`` is the number of queued requests targeting that
    (flat_bank, row); ``hits`` is the number of queued requests whose row is
    currently open in their bank. Both are maintained on admit/remove and
    re-based when a commit moves a bank's open row, so the scheduler can ask
    "does this pool contain any row hit?" in O(1) instead of scanning.
    """

    __slots__ = ("row_counts", "hits")

    def __init__(self) -> None:
        self.row_counts: Dict[int, int] = {}
        self.hits = 0


class _ChannelQueues:
    __slots__ = (
        "incoming",
        "reads",
        "writes",
        "read_index",
        "write_index",
        "last_command_start",
    )

    def __init__(self) -> None:
        self.incoming: List = []  # (arrival, seq, req); sorted per epoch
        self.reads: Deque[Request] = deque()
        self.writes: Deque[Request] = deque()
        self.read_index = _PoolRowIndex()
        self.write_index = _PoolRowIndex()
        self.last_command_start = -1


class MemoryController:
    """Schedules requests over the configured channels."""

    __slots__ = (
        "config",
        "mapper",
        "_pow2_decode",
        "channels",
        "schedulers",
        "_queues",
        "_sequence",
        "_banks_per_rank",
        "stats",
        "_read_counters",
        "_write_counters",
        "_h_read_latency",
        "_h_write_latency",
        "_c_data_bus_cycles",
        "_lat_hit_read",
        "_lat_hit_write",
        "_lat_closed_read",
        "_lat_closed_write",
        "_lat_miss_read",
        "_lat_miss_write",
        "_plan_constants",
        "_t_row_hits",
        "_t_row_misses",
        "_synced_rows",
        "_t_queue_depth",
        "_t_read_latency",
        "_t_write_latency",
        "_depth_acc",
        "_read_lat_acc",
        "_write_lat_acc",
        "_dec_total_mask",
        "_dec_channel_mask",
        "_dec_bank_shift",
        "_dec_bank_mask",
        "_dec_rank_shift",
        "_dec_rank_mask",
        "_dec_row_shift",
        "_dec_row_mask",
        "_sanitizer",
        "_san_tick",
    )

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.mapper = AddressMapper(config)
        # Inlined power-of-two decode for enqueue_batch: same arithmetic
        # as AddressMapper.decode_fast, but with the channel/column shifts
        # folded together (enqueue never needs the column) and no call.
        mapper = self.mapper
        self._pow2_decode = getattr(mapper, "_pow2", False)
        if self._pow2_decode:
            self._dec_total_mask = mapper._total_mask
            self._dec_channel_mask = mapper._channel_mask
            self._dec_bank_shift = mapper._channel_shift + mapper._column_shift
            self._dec_bank_mask = mapper._bank_mask
            self._dec_rank_shift = self._dec_bank_shift + mapper._bank_shift
            self._dec_rank_mask = mapper._rank_mask
            self._dec_row_shift = self._dec_rank_shift + mapper._rank_shift
            self._dec_row_mask = mapper._row_mask
        else:  # unused: enqueue_batch decodes through decode_fast
            self._dec_total_mask = self._dec_channel_mask = 0
            self._dec_bank_shift = self._dec_bank_mask = 0
            self._dec_rank_shift = self._dec_rank_mask = 0
            self._dec_row_shift = self._dec_row_mask = 0
        self.channels = [ChannelState(config) for _ in range(config.channels)]
        self.schedulers = [
            FrFcfsScheduler(config.write_drain_high, config.write_drain_low)
            for _ in range(config.channels)
        ]
        self._queues = [_ChannelQueues() for _ in range(config.channels)]
        self._sequence = 0
        self._banks_per_rank = config.banks_per_rank
        self.stats = StatGroup("memory_controller")
        #: category -> (requests_<kind>, traffic_<category>_<kind>) counter
        #: pairs, one dict per direction, built lazily so enqueue never
        #: string-formats. Keyed by the category string alone (str hashes
        #: are cached; hashing the (category, kind) tuple re-ran the
        #: enum's Python-level __hash__ on every request).
        self._read_counters: Dict[str, Tuple] = {}
        self._write_counters: Dict[str, Tuple] = {}
        # Per-direction latency stats, bound once instead of per record.
        self._h_read_latency = self.stats.histogram("read_latency")
        self._h_write_latency = self.stats.histogram("write_latency")
        self._c_data_bus_cycles = self.stats.counter("data_bus_cycles")
        # Command-start to first-data-beat latency per row class and
        # direction (identical across banks): a closed bank pays ACT (tRCD),
        # a row miss PRE + ACT (tRP + tRCD), a row hit only the CAS.
        timing = config.timing
        self._lat_hit_read = timing.t_cl
        self._lat_hit_write = timing.t_cwl
        self._lat_closed_read = timing.t_rcd + timing.t_cl
        self._lat_closed_write = timing.t_rcd + timing.t_cwl
        self._lat_miss_read = timing.t_rp + timing.t_rcd + timing.t_cl
        self._lat_miss_write = timing.t_rp + timing.t_rcd + timing.t_cwl
        # The rest of the commit-step constants, unpacked once per
        # _process_channel call. After an access the bank is ready again at
        # start + tCCD (+ tWR write recovery): the row is open by then, so
        # the column latency cancels out of the ready time.
        self._plan_constants = (
            timing.t_ccd,
            timing.t_ccd + timing.t_wr,
            timing.t_refi,
            timing.t_rfc,
            timing.t_rrd,
            timing.t_faw,
            timing.t_wtr,
            timing.t_rtw,
            timing.t_burst,
            config.model_refresh,
            config.model_faw,
        )
        registry = get_registry()
        self._t_row_hits = registry.counter("dram.row_hits")
        self._t_row_misses = registry.counter("dram.row_misses")
        # Deferred-telemetry watermarks (see record_telemetry).
        self._synced_rows = [0, 0]
        self._t_queue_depth = registry.histogram(
            "dram.queue_depth", QUEUE_DEPTH_EDGES
        )
        self._t_read_latency = registry.histogram(
            "dram.read_latency_cycles", LATENCY_EDGES
        )
        self._t_write_latency = registry.histogram(
            "dram.write_latency_cycles", LATENCY_EDGES
        )
        # Deferred histogram accumulators: the hot path tallies integer
        # observations as value -> weight and record_telemetry flushes them
        # weight-batched. All three record int cycles/depths, so the
        # batched sums are bit-identical to per-event recording.
        self._depth_acc: Dict[int, int] = {}
        self._read_lat_acc: Dict[int, int] = {}
        self._write_lat_acc: Dict[int, int] = {}
        # None unless REPRO_SANITIZE is on; when set, every commit is
        # checked for timing legality against the pre-mutation channel
        # state, and the row-hit index is cross-checked against a fresh
        # queue scan (sampled per decision and at every process() epoch
        # boundary).
        self._sanitizer = get_sanitizer()
        self._san_tick = 0

    # ------------------------------------------------------------------

    def _counters_for(self, category: str, kind: RequestKind) -> Tuple:
        """Bind the request/traffic counters for one (category, kind)."""
        counters = (
            self.stats.counter("requests_%s" % kind.value),
            self.stats.counter("traffic_%s_%s" % (category, kind.value)),
        )
        table = self._write_counters if kind is _WRITE else self._read_counters
        table[category] = counters
        return counters

    def enqueue_batch(
        self, specs: List[Tuple[RequestKind, int, int, str, int]]
    ) -> List[Request]:
        """Enqueue ``(kind, line, arrival, category, core)`` specs in order.

        Sequence numbers are assigned in list order, exactly as the same
        calls made one by one — producers that expand one event into
        several requests (the secure engine's metadata expansion) buffer
        their emissions and flush through here to amortise the per-call
        binding without perturbing arbitration order. Each request's
        ``completion`` is set by :meth:`process`.
        """
        pow2 = self._pow2_decode
        decode = self.mapper.decode_fast
        total_mask = self._dec_total_mask
        channel_mask = self._dec_channel_mask
        bank_shift = self._dec_bank_shift
        bank_mask = self._dec_bank_mask
        rank_shift = self._dec_rank_shift
        rank_mask = self._dec_rank_mask
        row_shift = self._dec_row_shift
        row_mask = self._dec_row_mask
        banks_per_rank = self._banks_per_rank
        queues = self._queues
        read_counters = self._read_counters
        write_counters = self._write_counters
        write = _WRITE
        sequence = self._sequence
        new = Request.__new__
        out: List[Request] = []
        append = out.append
        for kind, line_address, arrival, category, core in specs:
            if pow2:
                masked = line_address & total_mask
                channel = masked & channel_mask
                bank = (masked >> bank_shift) & bank_mask
                rank = (masked >> rank_shift) & rank_mask
                row = (masked >> row_shift) & row_mask
            else:
                channel, rank, bank, row, _column = decode(line_address)
            sequence += 1
            request = new(Request)
            request.kind = kind
            request.line_address = line_address
            request.arrival = arrival
            request.category = category
            request.core = core
            request.channel = channel
            request.rank = rank
            request.bank = bank
            request.row = row
            flat_bank = rank * banks_per_rank + bank
            request.flat_bank = flat_bank
            request.row_key = (flat_bank << 40) | row
            request.completion = None
            request.sequence = sequence
            is_write = kind is write
            request.is_write = is_write
            queues[channel].incoming.append((arrival, sequence, request))
            table = write_counters if is_write else read_counters
            try:
                counters = table[category]
            except KeyError:
                counters = self._counters_for(category, kind)
            counters[0].value += 1
            counters[1].value += 1
            append(request)
        self._sequence = sequence
        return out

    # ------------------------------------------------------------------

    def process(self) -> None:
        """Schedule every enqueued request, assigning completions."""
        bus_cycles = 0
        for channel_index in range(self.config.channels):
            bus_cycles += self._process_channel(channel_index)
        self._c_data_bus_cycles.value += bus_cycles
        if self._sanitizer is not None:
            # Epoch boundary: the row-hit index must agree with a fresh
            # scan of the (now drained) queues and the open-row tables
            # must mirror bank state.
            self._sanitizer.check_scheduler_index(self)

    def _process_channel(self, channel_index: int) -> int:
        """Schedule one channel's backlog; returns its data-bus cycles.

        Each iteration is one fused decision step: admit arrivals, pick
        the pool and the request, plan its timing (bank-ready clamp,
        refresh blackout, tRRD/tFAW, latency class, bus turnaround) and
        commit it (row hit/miss accounting, activate history, bank ready
        time, bus occupancy). The channel's bus state lives in locals for
        the whole epoch and is written back at exit — and before every
        sanitizer commit check, which reads it.
        """
        queues = self._queues[channel_index]
        incoming = queues.incoming
        reads = queues.reads
        writes = queues.writes
        if not incoming and not reads and not writes:
            return 0  # idle channel: skip the prologue entirely
        channel = self.channels[channel_index]
        scheduler = self.schedulers[channel_index]
        read_index = queues.read_index
        write_index = queues.write_index
        open_rows = channel.open_rows
        banks = channel.banks
        recent_activates = channel._recent_activates
        lat_hit_read = self._lat_hit_read
        lat_hit_write = self._lat_hit_write
        lat_closed_read = self._lat_closed_read
        lat_closed_write = self._lat_closed_write
        lat_miss_read = self._lat_miss_read
        lat_miss_write = self._lat_miss_write
        (
            ready_delta_read,
            ready_delta_write,
            t_refi,
            t_rfc,
            t_rrd,
            t_faw,
            t_wtr,
            t_rtw,
            t_burst,
            model_refresh,
            model_faw,
        ) = self._plan_constants
        select_pool = self._select_pool
        scan = self._scan
        depth_acc = self._depth_acc
        read_lat_acc = self._read_lat_acc
        write_lat_acc = self._write_lat_acc
        sanitizer = self._sanitizer
        window = self.WINDOW
        drain_high = scheduler.drain_high
        closed_banks = channel.closed_banks
        bus_free_at = channel.bus_free_at
        last_was_write = channel.last_was_write
        last_start = queues.last_command_start
        # Every queued request is scheduled before this call returns, each
        # holding the data bus for exactly one burst.
        bus_cycles = (len(incoming) + len(reads) + len(writes)) * t_burst

        # One near-linear Timsort per epoch replaces a heap pop per request
        # (producers emit almost-sorted arrivals; (arrival, seq) is unique).
        if incoming:
            incoming.sort()
        cursor = 0
        backlog = len(incoming)

        # Admission is inlined at its three sites (hot path): route into
        # the pool and maintain its row census — count the (bank, row)
        # key, and tally a hit when that bank currently holds the
        # request's row open.
        reads_append = reads.append
        writes_append = writes.append
        read_counts = read_index.row_counts
        write_counts = write_index.row_counts

        while cursor < backlog or reads or writes:
            if not reads and not writes:
                # Idle: jump to the next arrival.
                entry = incoming[cursor]
                cursor += 1
                request = entry[2]
                if request.is_write:
                    writes_append(request)
                    index = write_index
                    row_counts = write_counts
                else:
                    reads_append(request)
                    index = read_index
                    row_counts = read_counts
                key = request.row_key
                row_counts[key] = row_counts.get(key, 0) + 1
                if open_rows[request.flat_bank] == request.row:
                    index.hits += 1
                horizon = entry[0]
            else:
                horizon = last_start + 1
            # Admit everything that has arrived by the current horizon.
            while cursor < backlog and incoming[cursor][0] <= horizon:
                request = incoming[cursor][2]
                cursor += 1
                if request.is_write:
                    writes_append(request)
                    index = write_index
                    row_counts = write_counts
                else:
                    reads_append(request)
                    index = read_index
                    row_counts = read_counts
                key = request.row_key
                row_counts[key] = row_counts.get(key, 0) + 1
                if open_rows[request.flat_bank] == request.row:
                    index.hits += 1

            # Pool selection fast path: steady non-drain state with reads
            # pending and the write queue below the high watermark cannot
            # transition (no side effects) and always picks reads.
            if not scheduler.draining and reads and len(writes) < drain_high:
                pool = reads
            else:
                pool = select_pool(scheduler, reads, writes)
                if pool is None:
                    continue
            pool_len = len(pool)
            # Inline first-scan decision: same estimate policy as _scan
            # (max(arrival, horizon, ready) + latency class) with the pool
            # row census splitting the dominant steady state into an
            # all-miss scan and a two-way hit/miss scan.
            head = pool[0]
            if pool_len == 1:
                chosen = head
                pool_index = 0
            elif closed_banks == 0:
                if head.is_write:
                    lat_hit = lat_hit_write
                    lat_miss = lat_miss_write
                    index = write_index
                else:
                    lat_hit = lat_hit_read
                    lat_miss = lat_miss_read
                    index = read_index
                if index.hits == 0:
                    # All candidates are equal-latency row misses, so the
                    # estimate ordering is the earliest-start ordering: the
                    # oldest candidate startable at the horizon wins
                    # outright, else the oldest with the smallest start
                    # (strict < keeps the first-scanned-wins tie-break).
                    chosen = head
                    pool_index = 0
                    best_earliest = 1 << 62
                    position = 0
                    for request in pool:
                        if position >= window:
                            break
                        arrival = request.arrival
                        earliest = arrival if arrival > horizon else horizon
                        ready = banks[request.flat_bank].ready_at
                        if ready > earliest:
                            earliest = ready
                        if earliest <= horizon:
                            chosen = request
                            pool_index = position
                            break
                        if earliest < best_earliest:
                            chosen = request
                            pool_index = position
                            best_earliest = earliest
                        position += 1
                else:
                    # Hit-or-miss two-way scan; a ready row hit (estimate
                    # at the floor) is unbeatable, so stop there.
                    floor = horizon + lat_hit
                    chosen = head
                    pool_index = 0
                    best_estimate = 1 << 62
                    position = 0
                    for request in pool:
                        if position >= window:
                            break
                        arrival = request.arrival
                        earliest = arrival if arrival > horizon else horizon
                        bank = banks[request.flat_bank]
                        ready = bank.ready_at
                        if ready > earliest:
                            earliest = ready
                        estimate = earliest + (
                            lat_hit if bank.open_row == request.row else lat_miss
                        )
                        if estimate < best_estimate:
                            chosen = request
                            pool_index = position
                            best_estimate = estimate
                            if estimate <= floor:
                                break
                        position += 1
            else:
                # Warm-up (some banks still closed): three-way latency
                # classes — take the general scan.
                chosen, pool_index = scan(
                    channel, pool,
                    write_index if pool is writes else read_index,
                    horizon,
                )

            # Plan the chosen request; runs a second time only when late
            # arrivals re-choose (below).
            rechosen = False
            while True:
                fb = chosen.flat_bank
                bank = banks[fb]
                row = chosen.row
                is_write = chosen.is_write
                start = chosen.arrival
                if horizon > start:
                    start = horizon
                ready = bank.ready_at
                if ready > start:
                    start = ready
                if model_refresh:
                    # Push the start out of the periodic refresh blackout
                    # (modelled channel-wide: tRFC every tREFI).
                    phase = start % t_refi
                    if phase < t_rfc:
                        start += t_rfc - phase
                old_row = open_rows[fb]
                if old_row == row:
                    data_start = start + (lat_hit_write if is_write else lat_hit_read)
                else:
                    if model_faw:
                        # An activate waits tRRD after the rank's last ACT
                        # and tFAW after its fourth-last.
                        history = recent_activates[chosen.rank]
                        if history:
                            after_rrd = history[-1] + t_rrd
                            if after_rrd > start:
                                start = after_rrd
                            if len(history) >= 4:
                                after_faw = history[-4] + t_faw
                                if after_faw > start:
                                    start = after_faw
                    if old_row < 0:
                        data_start = start + (
                            lat_closed_write if is_write else lat_closed_read
                        )
                    else:
                        data_start = start + (
                            lat_miss_write if is_write else lat_miss_read
                        )
                # Bus turnaround: read->write pays tRTW, write->read tWTR.
                if is_write:
                    earliest_bus = (
                        bus_free_at if last_was_write else bus_free_at + t_rtw
                    )
                elif last_was_write:
                    earliest_bus = bus_free_at + t_wtr
                else:
                    earliest_bus = bus_free_at
                if data_start < earliest_bus:
                    start += earliest_bus - data_start
                    data_start = earliest_bus
                if rechosen or cursor >= backlog or incoming[cursor][0] > start:
                    break
                # Late arrivals before the chosen command start could alter
                # the decision; admit them and re-choose once. The rescan
                # is skipped when it provably cannot differ: same pool
                # object and either the candidate window was already full
                # (appends land beyond it) or nothing was admitted into
                # this pool. The pool selection itself always reruns: its
                # drain-burst accounting is part of the decision.
                while cursor < backlog and incoming[cursor][0] <= start:
                    request = incoming[cursor][2]
                    cursor += 1
                    if request.is_write:
                        writes_append(request)
                        index = write_index
                        row_counts = write_counts
                    else:
                        reads_append(request)
                        index = read_index
                        row_counts = read_counts
                    key = request.row_key
                    row_counts[key] = row_counts.get(key, 0) + 1
                    if open_rows[request.flat_bank] == request.row:
                        index.hits += 1
                if not scheduler.draining and reads and len(writes) < drain_high:
                    pool2 = reads
                else:
                    pool2 = select_pool(scheduler, reads, writes)
                if pool2 is pool and (
                    pool_len >= window or len(pool2) == pool_len
                ):
                    break
                pool = pool2
                chosen, pool_index = scan(
                    channel, pool,
                    write_index if pool is writes else read_index,
                    horizon,
                )
                rechosen = True
            completion = data_start + t_burst

            depth = len(reads) + len(writes)
            try:
                depth_acc[depth] += 1
            except KeyError:
                depth_acc[depth] = 1
            if sanitizer is not None:
                channel.bus_free_at = bus_free_at
                channel.last_was_write = last_was_write
                sanitizer.check_dram_commit(
                    channel, chosen.rank, chosen.bank, row, is_write,
                    (start, data_start, completion),
                )
            # Commit: row-buffer accounting, activate history, bank ready
            # time and bus occupancy.
            if old_row == row:
                bank.row_hits += 1
            else:
                if model_faw:
                    # ``history`` is this rank's list, bound by the plan.
                    history.append(start)
                    if len(history) > 8:
                        del history[:-8]
                # One activation per row miss; the telemetry counter is
                # synced from ``row_misses`` at snapshot time.
                bank.row_misses += 1
                if old_row < 0:
                    closed_banks -= 1
                    channel.closed_banks = closed_banks
                bank.open_row = row
                open_rows[fb] = row
                # The bank's open row moved: re-base both pools' hit
                # tallies — requests on the new row become hits, requests
                # on the old row (none existed while it was closed) stop
                # being hits.
                base = fb << 40
                key_new = base | row
                for index in (read_index, write_index):
                    row_counts = index.row_counts
                    delta = row_counts.get(key_new, 0)
                    if old_row >= 0:
                        delta -= row_counts.get(base | old_row, 0)
                    if delta:
                        index.hits += delta
            bank.ready_at = start + (
                ready_delta_write if is_write else ready_delta_read
            )
            bus_free_at = completion
            last_was_write = is_write
            chosen.completion = completion
            last_start = start
            if is_write:
                index = write_index
                row_counts = write_counts
            else:
                index = read_index
                row_counts = read_counts
            key = chosen.row_key
            count = row_counts[key] - 1
            if count:
                row_counts[key] = count
            else:
                del row_counts[key]
            # After the commit the chosen request's row is open in its
            # bank, so its removal always decrements the hit tally.
            index.hits -= 1
            if pool_index == 0:
                pool.popleft()
            else:
                del pool[pool_index]
            # Latency accounting: tally value -> weight; record_telemetry
            # flushes into both the stats and registry histograms (integer
            # weights, so batching is bit-exact).
            latency = completion - chosen.arrival
            acc = write_lat_acc if is_write else read_lat_acc
            try:
                acc[latency] += 1
            except KeyError:
                acc[latency] = 1
            if sanitizer is not None:
                # Sampled mid-stream consistency check (every 64 decisions)
                # so maintenance bugs surface near the offending commit.
                self._san_tick = tick = (self._san_tick + 1) & 63
                if tick == 0:
                    sanitizer.check_scheduler_index(self)
        del incoming[:]
        channel.bus_free_at = bus_free_at
        channel.last_was_write = last_was_write
        queues.last_command_start = last_start
        return bus_cycles

    #: Scheduler candidate window: only the oldest WINDOW queued requests
    #: are considered per decision (real FR-FCFS pickers have bounded
    #: associative search too). Keeps each decision O(WINDOW).
    WINDOW = 16

    def _select_pool(self, scheduler, reads, writes):
        """Drain-hysteresis pool selection (side effects preserved).

        The inlined form of ``update_drain_mode`` in ``tests/oracles.py``:
        same transitions, same telemetry on entering a drain burst. Runs
        once per decision and again on a late-arrival re-choose — the burst
        accounting is part of the bit-identical contract, so the re-choose
        path must execute it even when the rescan itself is skipped.
        """
        write_depth = len(writes)
        draining = scheduler.draining
        was_draining = draining
        if draining:
            if write_depth <= scheduler.drain_low:
                draining = False
        else:
            if write_depth >= scheduler.drain_high:
                draining = True
        if write_depth and not reads:
            # Opportunistic writes when the channel would otherwise idle.
            draining = True
        if draining != was_draining:
            scheduler.draining = draining
            if draining:
                scheduler._t_drain_bursts.inc()
                scheduler._t_write_queue_depth.record(write_depth)
        pool = writes if (draining and write_depth) else reads
        if not pool:
            pool = writes or reads
        return pool if pool else None

    def _scan(self, channel, pool, index, horizon):
        """Pick the pool request with the earliest achievable data start.

        Returns ``(request, pool_index)``; the caller plans the winner.
        The estimate is computed from bank state alone (the data-bus shift
        is common to all candidates).

        Fast paths, each provably equal to the plain windowed scan
        (``ReferenceController`` in ``tests/oracles.py``):

        * **head**: no row hit in the pool (``index.hits == 0``) and no
          closed bank on the channel means every candidate is a row miss
          with the same latency, so the estimate ordering degenerates to
          ``max(arrival, ready_at, horizon)`` — and when the pool head is
          both arrived and bank-ready, it is the minimum with the oldest
          (arrival, sequence), i.e. the scan's winner, without scanning.
        * **ready-hit exit**: once the running best is a row hit starting
          at the horizon (estimate == horizon + lat_hit) nothing later can
          beat it (estimates are bounded below by exactly that) and later
          ties lose on age, so the scan stops.
        * **arrival prune**: pools are age-ordered, so once a candidate's
          arrival reaches ``best_estimate - lat_hit`` its estimate (and
          every later one's) is >= the best, with older tie-break — stop.

        The scan itself exploits the age order too: (arrival, sequence)
        is strictly increasing along the pool, so a later candidate can
        never win a tie — the reference's composite tie-break reduces to
        a single strict ``estimate < best_estimate`` compare.
        """
        banks = channel.banks
        head = pool[0]
        if len(pool) == 1 or (
            index.hits == 0
            and channel.closed_banks == 0
            and head.arrival <= horizon
            and banks[head.flat_bank].ready_at <= horizon
        ):
            return head, 0
        window = self.WINDOW
        if head.is_write:
            lat_hit = self._lat_hit_write
            lat_closed = self._lat_closed_write
            lat_miss = self._lat_miss_write
        else:
            lat_hit = self._lat_hit_read
            lat_closed = self._lat_closed_read
            lat_miss = self._lat_miss_read
        floor = horizon + lat_hit
        best = None
        best_index = -1
        best_estimate = 1 << 62
        prune = 1 << 62
        position = 0
        if channel.closed_banks == 0:
            # Every bank holds an open row: candidates are hit or miss,
            # never closed — one compare decides the latency class.
            for request in pool:
                if position >= window:
                    break
                arrival = request.arrival
                if arrival >= prune:
                    break
                bank = banks[request.flat_bank]
                earliest = arrival if arrival > horizon else horizon
                ready = bank.ready_at
                if ready > earliest:
                    earliest = ready
                estimate = earliest + (
                    lat_hit if bank.open_row == request.row else lat_miss
                )
                if estimate < best_estimate:
                    best = request
                    best_index = position
                    best_estimate = estimate
                    if estimate <= floor:
                        break
                    prune = estimate - lat_hit
                position += 1
        else:
            for request in pool:
                if position >= window:
                    break
                arrival = request.arrival
                if arrival >= prune:
                    break
                bank = banks[request.flat_bank]
                earliest = arrival if arrival > horizon else horizon
                ready = bank.ready_at
                if ready > earliest:
                    earliest = ready
                open_row = bank.open_row
                if open_row is None:
                    latency = lat_closed
                elif open_row == request.row:
                    latency = lat_hit
                else:
                    latency = lat_miss
                estimate = earliest + latency
                if estimate < best_estimate:
                    best = request
                    best_index = position
                    best_estimate = estimate
                    if estimate <= floor:
                        break
                    prune = estimate - lat_hit
                position += 1
        return best, best_index

    # ------------------------------------------------------------------

    def traffic_by_category(self) -> Dict[str, int]:
        """Access counts keyed by '<category>_<read|write>'."""
        result: Dict[str, int] = {}
        for name, stat in self.stats:
            if name.startswith("traffic_"):
                result[name[len("traffic_") :]] = stat.value  # type: ignore[attr-defined]
        return result

    @property
    def last_completion(self) -> int:
        """Latest data-bus release across channels (end of simulation)."""
        return max(channel.bus_free_at for channel in self.channels)

    def record_telemetry(self) -> None:
        """End-of-run gauges: bus utilisation and per-bank access balance.

        Gauges aggregate as count/sum/min/max, so the per-bank observations
        expose utilisation imbalance (hot banks) after merging, not just
        the mean.

        Row-hit/miss and activation telemetry is recorded deferred: the
        hot path bumps the per-bank plain ints and this reconciles the
        registry counters (idempotently) before the snapshot. A scheduled
        request is a row hit at decision time iff its bank access commits
        as one, so the bank sums equal the per-decision counts.
        """
        row_hits = 0
        row_misses = 0
        for channel_state in self.channels:
            for bank in channel_state.banks:
                row_hits += bank.row_hits
                row_misses += bank.row_misses
                bank.sync_telemetry()
        synced = self._synced_rows
        self._t_row_hits.inc(row_hits - synced[0])
        self._t_row_misses.inc(row_misses - synced[1])
        synced[0] = row_hits
        synced[1] = row_misses
        # Flush the deferred histogram accumulators (weight-batched; all
        # integer observations, so batching is bit-exact). The latency
        # accumulators feed both the per-controller stats histograms and
        # the telemetry registry.
        for value, weight in self._depth_acc.items():
            self._t_queue_depth.record(value, weight)
        self._depth_acc.clear()
        for acc, histograms in (
            (self._read_lat_acc, (self._t_read_latency, self._h_read_latency)),
            (self._write_lat_acc, (self._t_write_latency, self._h_write_latency)),
        ):
            for value, weight in acc.items():
                for histogram in histograms:
                    histogram.record(value, weight)
            acc.clear()
        registry = get_registry()
        last = self.last_completion
        if last > 0:
            bus_cycles = 0
            if "data_bus_cycles" in self.stats:
                bus_cycles = self.stats["data_bus_cycles"].value  # type: ignore[attr-defined]
            registry.gauge("dram.bus_utilisation").set(
                bus_cycles / (last * self.config.channels)
            )
        bank_gauge = registry.gauge("dram.bank_accesses")
        for channel in self.channels:
            for bank in channel.banks:
                bank_gauge.set(bank.row_hits + bank.row_misses)

    def activation_counts(self) -> Dict[str, int]:
        """Row activations and accesses for the energy model."""
        activations = sum(
            bank.row_misses for channel in self.channels for bank in channel.banks
        )
        hits = sum(
            bank.row_hits for channel in self.channels for bank in channel.banks
        )
        return {"activations": activations, "row_hits": hits}

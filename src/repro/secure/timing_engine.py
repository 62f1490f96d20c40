"""Per-design metadata traffic expansion (the timing-plane secure engine).

For every LLC data miss or writeback, the engine consults the design
descriptor and the cache hierarchy and emits the memory requests the design
would need: counter fetches with a tree walk, MAC fetches (or none, for
Synergy) with IVEC's MAC-tree walk, parity updates, plus writebacks of
evicted dirty metadata. The read path returns the requests whose completion
gates the data (verification needs data + counter chain + MAC).

This is where the paper's central performance claim becomes mechanical:
SGX_O pays a MAC access per data access; Synergy does not, because the MAC
rides the ECC chip. Everything else (counter caching in LLC, tree walks,
split counters, IVEC's MAC tree, LOT-ECC parity RMW) is configuration.

Each path has one implementation, built once per engine as a closure over
the design flags and the cache internals: the read-miss expansion, the
writeback drain and the warm-up walk. They inline the dict probes of
``CacheHierarchy.access_metadata`` and append request specs to an epoch
batch that :meth:`SecureTimingEngine.flush_epoch` enqueues at the system's
resolve boundary. The scalar walk they are checked against lives in
``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

from repro.analysis.sanitizer import get_sanitizer
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.setassoc import ABSENT
from repro.dram.controller import MemoryController, Request, RequestKind
from repro.secure.designs import (
    CounterMode,
    MacLocation,
    SecureDesign,
    TreeKind,
)
from repro.telemetry import get_registry
from repro.util.stats import Counter, StatGroup

#: Tree-walk depth histogram edges: one bucket per level (0 = anchored at
#: the first node above the leaf), deep enough for any arity-8 tree here.
TREE_DEPTH_EDGES = (0, 1, 2, 3, 4, 5, 6, 7, 8)

#: Tree fan-out (counters per line for monolithic; tags per line for MAC tree).
TREE_ARITY = 8
#: Data lines covered per counter line.
MONOLITHIC_COVERAGE = 8
SPLIT_COVERAGE = 64
#: Data lines covered per MAC line / parity line.
MAC_COVERAGE = 8
PARITY_COVERAGE = 8

#: Enum members bound once — the expansion paths touch these per request.
_READ = RequestKind.READ
_WRITE = RequestKind.WRITE


class TimingMetadataMap:
    """Metadata line addresses for the timing plane.

    Regions are laid out above the data region in a flat line-address space;
    the DRAM address mapper interleaves them over channels/banks like any
    other lines (metadata shares the memory system with data, as in the
    paper's organisation).
    """

    __slots__ = (
        "num_data_lines",
        "counter_coverage",
        "counter_base",
        "num_counter_lines",
        "mac_base",
        "num_mac_lines",
        "parity_base",
        "num_parity_lines",
        "tree_level_bases",
        "tree_level_sizes",
        "total_lines",
    )

    def __init__(self, num_data_lines: int, counter_mode: CounterMode):
        self.num_data_lines = num_data_lines
        self.counter_coverage = (
            SPLIT_COVERAGE if counter_mode is CounterMode.SPLIT else MONOLITHIC_COVERAGE
        )
        cursor = num_data_lines

        self.counter_base = cursor
        self.num_counter_lines = -(-num_data_lines // self.counter_coverage)
        cursor += self.num_counter_lines

        self.mac_base = cursor
        self.num_mac_lines = -(-num_data_lines // MAC_COVERAGE)
        cursor += self.num_mac_lines

        self.parity_base = cursor
        self.num_parity_lines = -(-num_data_lines // PARITY_COVERAGE)
        cursor += self.num_parity_lines

        # Tree levels above the counter lines (Bonsai) — also reused as the
        # MAC-tree levels above MAC lines (IVEC), sized for whichever is
        # larger so one region serves both.
        leaves = max(self.num_counter_lines, self.num_mac_lines)
        self.tree_level_bases: List[int] = []
        self.tree_level_sizes: List[int] = []
        size = -(-leaves // TREE_ARITY)
        while True:
            self.tree_level_bases.append(cursor)
            self.tree_level_sizes.append(size)
            cursor += size
            if size == 1:
                break
            size = -(-size // TREE_ARITY)
        self.total_lines = cursor

    def counter_line(self, data_line: int) -> int:
        """Counter line covering a data line."""
        return self.counter_base + data_line // self.counter_coverage

    def mac_line(self, data_line: int) -> int:
        """MAC line covering a data line (separate-MAC designs)."""
        return self.mac_base + data_line // MAC_COVERAGE

    def parity_line(self, data_line: int) -> int:
        """Parity line covering a data line (Synergy / LOT-ECC tier 2)."""
        return self.parity_base + data_line // PARITY_COVERAGE

    def tree_path_from_counter(self, counter_line: int) -> List[int]:
        """Tree line addresses from just above a counter line to the root."""
        return self._tree_path(counter_line - self.counter_base)

    def tree_path_from_mac(self, mac_line: int) -> List[int]:
        """MAC-tree line addresses from just above a MAC line to the root."""
        return self._tree_path(mac_line - self.mac_base)

    def _tree_path(self, leaf_index: int) -> List[int]:
        path = []
        index = leaf_index
        for base, cap in self.tree_levels():
            index //= TREE_ARITY
            path.append(base + min(index, cap))
        return path

    def tree_levels(self) -> Tuple[Tuple[int, int], ...]:
        """Tree geometry as ``(base, last index)`` pairs, leaf side first.

        The engine's walks compute each level's address as they descend
        (``base + min(index, last)`` after one more ``//= TREE_ARITY``)
        instead of materialising the whole path: break-on-hit makes most
        of a full path wasted work.
        """
        return tuple(
            (base, size - 1)
            for base, size in zip(self.tree_level_bases, self.tree_level_sizes)
        )


class SecureTimingEngine:
    """Expands data accesses into design-specific memory traffic.

    Emission is epoch-deferred: every path appends request specs to one
    batch, and :meth:`flush_epoch` enqueues it in a single
    ``enqueue_batch`` call. The engine is the only request producer and
    the batch keeps emission order, so request content, arbitration order
    and sequence numbers equal those of serial enqueues; gating requests
    are returned as batch indices because their completions are only read
    after the controller's next ``process``.

    Besides :meth:`expand_read_miss_deferred`, two built paths are public
    attributes: ``writeback(victim, when, core)`` drains one dirty
    eviction of any region, and ``warm_metadata(data_line, is_write)``
    replays an LLC data miss's metadata walk during warm-up.
    """

    __slots__ = (
        "design",
        "hierarchy",
        "controller",
        "map",
        "stats",
        "writeback",
        "warm_metadata",
        "_expand",
        "_t_tree_walk_depth",
        "_t_mac_tree_walk_depth",
        "_t_metadata_accesses",
        "_t_counter_hits",
        "_c_counter_hits",
        "_n_metadata_accesses",
        "_n_counter_hits",
        "_synced_telemetry",
        "_tree_depth_acc",
        "_mac_tree_depth_acc",
        "_account_counters",
        "_batch",
        "_sanitizer",
        "_san_epoch_checked",
    )

    def __init__(
        self,
        design: SecureDesign,
        hierarchy: CacheHierarchy,
        controller: MemoryController,
        num_data_lines: int = 1 << 24,
    ):
        self.design = design
        self.hierarchy = hierarchy
        self.controller = controller
        self.map = TimingMetadataMap(num_data_lines, design.counter_mode)
        self.stats = StatGroup("secure_engine_%s" % design.name)
        registry = get_registry()
        self._t_tree_walk_depth = registry.histogram(
            "secure.tree_walk_depth", TREE_DEPTH_EDGES
        )
        self._t_mac_tree_walk_depth = registry.histogram(
            "secure.mac_tree_walk_depth", TREE_DEPTH_EDGES
        )
        self._t_metadata_accesses = registry.counter("secure.metadata_accesses")
        self._t_counter_hits = registry.counter("secure.counter_hits")
        # No design caches its MACs (Table II: IVEC's LLC copies never
        # elide a fetch), so this stays zero; it is registered so every
        # cell's telemetry snapshot keeps the same metric set.
        registry.counter("secure.mac_hits")
        self._c_counter_hits = self.stats.counter("counter_hits")
        # Deferred telemetry (see sync_telemetry): the per-access paths
        # bump plain ints / tally dicts; the registry objects are only
        # touched at snapshot time.
        self._n_metadata_accesses = 0
        self._n_counter_hits = 0
        self._synced_telemetry = [0, 0]
        self._tree_depth_acc: dict = {}
        self._mac_tree_depth_acc: dict = {}
        #: (writeback?, category, kind) -> bound accounting counter; built
        #: lazily so the per-request path never string-formats.
        self._account_counters: dict = {}
        #: The epoch batch of ``(kind, line, when, category, core)`` specs.
        self._batch: List = []
        self._sanitizer = get_sanitizer()
        # True means "no spot-check pending" — primed per epoch only when
        # a sanitizer is attached, so the hot path pays one bool test.
        self._san_epoch_checked = self._sanitizer is None
        # Order matters: the expansion binds the writeback drain for its
        # spill victims.
        self.writeback = self._build_writeback()
        self._expand = self._build_expand()
        self.warm_metadata = self._build_warm()

    # ------------------------------------------------------------------

    def _counter(self, writeback: bool, category: str, kind: RequestKind) -> Counter:
        """The accounting counter ``<origin>_<category>_<kind>``.

        Paper Fig. 9 splits traffic by what *triggered* it (the reads
        chart vs the writes chart), not by its physical direction — the
        read half of a counter RMW on the write path belongs to the writes
        chart — so ``writeback`` names the trigger. Counters bind on first
        use, which fixes the stat group's order.
        """
        key = (writeback, category, kind)
        counter = self._account_counters.get(key)
        if counter is None:
            counter = self._account_counters[key] = self.stats.counter(
                "%s_%s_%s"
                % ("writeback" if writeback else "demand", category, kind.value)
            )
        return counter

    def expand_read_miss_deferred(
        self, data_line: int, when: int, core: int
    ) -> List[int]:
        """Expand one LLC read miss; returns its gating epoch-batch indices.

        The indices resolve against the request list returned by the next
        :meth:`flush_epoch`. Index 0 is always the data read itself —
        speculative designs (§VII-B) complete on it alone.
        """
        if self._san_epoch_checked:
            return self._expand(data_line, when, core)
        # Sampled sanitizer spot-check: first expansion of each epoch.
        self._san_epoch_checked = True
        return self._sanitizer.check_expansion(self, data_line, when, core)

    def flush_epoch(self) -> List[Request]:
        """Enqueue the buffered epoch batch; returns the request list.

        Called by the system simulator at each resolve boundary, before
        ``controller.process``. Sequence numbers are assigned in batch
        order — identical to serial enqueues in emission order.
        """
        batch = self._batch
        if not batch:
            return []
        sanitizer = self._sanitizer
        if sanitizer is None:
            requests = self.controller.enqueue_batch(batch)
            del batch[:]
            return requests
        specs = list(batch)
        requests = self.controller.enqueue_batch(batch)
        sanitizer.check_epoch_flush(specs, requests)
        self._san_epoch_checked = False
        del batch[:]
        return requests

    def sync_telemetry(self) -> None:
        """Publish the deferred telemetry into the registry objects.

        Counters publish the delta since the last sync (watermarked, so
        instances sharing a registry counter each contribute their own
        events); histogram tallies flush weight-batched — all integer
        observations, so batching is bit-exact. ``SystemSimulator.run``
        calls this before the snapshot.
        """
        synced = self._synced_telemetry
        self._t_metadata_accesses.inc(self._n_metadata_accesses - synced[0])
        self._t_counter_hits.inc(self._n_counter_hits - synced[1])
        synced[0] = self._n_metadata_accesses
        synced[1] = self._n_counter_hits
        for acc, histogram in (
            (self._tree_depth_acc, self._t_tree_walk_depth),
            (self._mac_tree_depth_acc, self._t_mac_tree_walk_depth),
        ):
            for value, weight in acc.items():
                histogram.record(value, weight)
            acc.clear()

    def release(self) -> None:
        """Drop the built paths: each is a closure over this engine."""
        del self.writeback, self._expand, self.warm_metadata

    # ------------------------------------------------------------------
    # The built paths
    # ------------------------------------------------------------------

    def _build_expand(self):
        """Build the read-miss expansion.

        Emits the data read; on encrypted designs the counter probe, then
        on a miss the counter read and (Bonsai) the break-on-hit counter
        tree walk to the first cached level; on separate-MAC designs the
        MAC read (MACs are never cached, Table II), IVEC's LLC copy of it,
        and IVEC's break-on-hit MAC-tree walk. Every uncached level is a
        gating read. The dedicated/LLC dict probes of
        ``CacheHierarchy.access_metadata`` and ``SetAssociativeCache.access``
        are inlined, including the pinned
        ``llc_result.writeback_address or spill_writeback`` quirk, and
        victims drain through :attr:`writeback` where they arise.
        """
        design = self.design
        map_ = self.map
        hierarchy = self.hierarchy
        md = hierarchy.metadata_cache
        md_sets = md._sets
        md_mask = md._set_mask
        md_shift = md._set_shift
        md_assoc = md.associativity
        llc = hierarchy.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_shift = llc._set_shift
        llc_assoc = llc.associativity
        llc_fill = llc.fill
        counter_base = map_.counter_base
        counter_coverage = map_.counter_coverage
        mac_base = map_.mac_base
        encrypted = design.encrypted
        bonsai = design.tree_kind is TreeKind.BONSAI_COUNTER
        mac_tree = design.tree_kind is TreeKind.MAC_TREE
        counters_in_llc = design.counters_in_llc
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        tree_levels = map_.tree_levels()
        arity = TREE_ARITY
        batch = self._batch
        batch_append = batch.append
        handle_writeback = self.writeback
        counter_hits = self._c_counter_hits
        tree_depths = self._tree_depth_acc
        mac_tree_depths = self._mac_tree_depth_acc
        bind = self._counter
        absent = ABSENT
        read = _READ
        c_data = c_counter = c_mac = None

        def miss_probe(line, ways, tag, use_llc):
            # Continuation after the dedicated probe popped ABSENT:
            # finish the dedicated fill, then the optional LLC layer.
            # Returns (hit, writeback) exactly as access_metadata would.
            md.misses += 1
            dedicated_wb = None
            if len(ways) >= md_assoc:
                victim_tag = next(iter(ways))
                victim_dirty = ways.pop(victim_tag)
                md.evictions += 1
                if victim_dirty:
                    md.dirty_evictions += 1
                    dedicated_wb = (victim_tag << md_shift) | (line & md_mask)
            ways[tag] = False
            if not use_llc:
                return False, dedicated_wb
            llc_ways = llc_sets[line & llc_mask]
            llc_tag = line >> llc_shift
            prev = llc_ways.pop(llc_tag, absent)
            if prev is not absent:
                llc.hits += 1
                llc_ways[llc_tag] = prev
                if dedicated_wb is None:
                    return True, None
                return True, llc_fill(dedicated_wb, True)
            llc.misses += 1
            llc_wb = None
            if len(llc_ways) >= llc_assoc:
                victim_tag = next(iter(llc_ways))
                victim_dirty = llc_ways.pop(victim_tag)
                llc.evictions += 1
                if victim_dirty:
                    llc.dirty_evictions += 1
                    llc_wb = (victim_tag << llc_shift) | (line & llc_mask)
            llc_ways[llc_tag] = False
            hierarchy.metadata_llc_fills += 1
            spill = None
            if dedicated_wb is not None:
                spill = llc_fill(dedicated_wb, True)
            # Pinned quirk: `or`, not `is None` — a dirty LLC victim at
            # line 0 defers to the spill (dropped when there is none),
            # exactly as access_metadata computes its writeback.
            return False, llc_wb or spill

        def walk(index, use_llc, counter, category, when, core, blocking):
            # Break-on-hit walk from a leaf toward the cached trust
            # anchor: one gating read per uncached level. Returns the
            # number of levels fetched.
            depth = 0
            for level_base, level_cap in tree_levels:
                index //= arity
                line = level_base + (index if index < level_cap else level_cap)
                ways = md_sets[line & md_mask]
                tag = line >> md_shift
                prev = ways.pop(tag, absent)
                if prev is not absent:
                    md.hits += 1
                    ways[tag] = prev
                    break
                hit, wb = miss_probe(line, ways, tag, use_llc)
                if wb is not None:
                    handle_writeback(wb, when, core)
                if hit:
                    break
                counter.value += 1
                blocking.append(len(batch))
                batch_append((read, line, when, category, core))
                depth += 1
            return depth

        def expand(data_line, when, core):
            nonlocal c_data, c_counter, c_mac
            if c_data is None:
                c_data = bind(False, "data", read)
            c_data.value += 1
            blocking = [len(batch)]
            batch_append((read, data_line, when, "data", core))
            if not encrypted:
                return blocking
            counter_line = counter_base + data_line // counter_coverage
            ways = md_sets[counter_line & md_mask]
            tag = counter_line >> md_shift
            prev = ways.pop(tag, absent)
            if prev is not absent:
                md.hits += 1
                ways[tag] = prev
                counter_hits.value += 1
                self._n_counter_hits += 1
            else:
                hit, wb = miss_probe(counter_line, ways, tag, counters_in_llc)
                if wb is not None:
                    handle_writeback(wb, when, core)
                if hit:
                    counter_hits.value += 1
                    self._n_counter_hits += 1
                else:
                    if c_counter is None:
                        c_counter = bind(False, "counter", read)
                    c_counter.value += 1
                    blocking.append(len(batch))
                    batch_append((read, counter_line, when, "counter", core))
                    fetched = 1
                    if bonsai:
                        depth = walk(
                            counter_line - counter_base, counters_in_llc,
                            c_counter, "counter", when, core, blocking,
                        )
                        fetched += depth
                        tree_depths[depth] = tree_depths.get(depth, 0) + 1
                    self._n_metadata_accesses += fetched
            if separate_mac:
                mac_line = mac_base + data_line // MAC_COVERAGE
                if c_mac is None:
                    c_mac = bind(False, "mac", read)
                c_mac.value += 1
                blocking.append(len(batch))
                batch_append((read, mac_line, when, "mac", core))
                fetched = 1
                if macs_in_llc:
                    wb = llc_fill(mac_line)
                    if wb is not None:
                        handle_writeback(wb, when, core)
                if mac_tree:
                    depth = walk(
                        mac_line - mac_base, macs_in_llc,
                        c_mac, "mac", when, core, blocking,
                    )
                    fetched += depth
                    mac_tree_depths[depth] = mac_tree_depths.get(depth, 0) + 1
                self._n_metadata_accesses += fetched
            return blocking

        return expand

    def _build_writeback(self):
        """Build the writeback drain.

        Victims queue in FIFO order and drain iteratively: a data
        writeback dirties a counter line whose fill evicts another line,
        and so on. Metadata victims are plain memory writes, classified by
        region and accounted as demand-origin traffic (pinned behaviour:
        the drain runs outside a data victim's writeback accounting).
        Data victims get the write-side walk: the data write; the counter
        RMW probe and, on Bonsai designs, every counter-tree level up to
        the root (an update dirties each level, so no break-on-hit); the
        uncached MAC write, IVEC's LLC copy of it and every MAC-tree level
        up to the root (a Merkle update re-hashes the whole path,
        §VII-A1); and the Synergy parity write or LOT-ECC parity RMW.
        Each uncached level is an RMW read. Probes perform exactly
        ``access_metadata(..., is_write=True)``'s transitions and stat
        bumps, including the pinned ``llc_wb or spill`` quirk.
        """
        design = self.design
        map_ = self.map
        hierarchy = self.hierarchy
        md = hierarchy.metadata_cache
        md_sets = md._sets
        md_mask = md._set_mask
        md_shift = md._set_shift
        md_assoc = md.associativity
        llc = hierarchy.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_shift = llc._set_shift
        llc_assoc = llc.associativity
        llc_fill = llc.fill
        counter_base = map_.counter_base
        counter_coverage = map_.counter_coverage
        mac_base = map_.mac_base
        parity_base = map_.parity_base
        tree_base = map_.tree_level_bases[0]
        encrypted = design.encrypted
        bonsai = design.tree_kind is TreeKind.BONSAI_COUNTER
        mac_tree = design.tree_kind is TreeKind.MAC_TREE
        counters_in_llc = design.counters_in_llc
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        parity_on_write = design.parity_write_on_data_write
        lotecc_rmw = design.lotecc_parity_rmw
        lotecc_coalesced = design.lotecc_write_coalescing
        tree_levels = map_.tree_levels()
        arity = TREE_ARITY
        batch_append = self._batch.append
        queue = deque()
        queue_append = queue.append
        queue_popleft = queue.popleft
        bind = self._counter
        absent = ABSENT
        read = _READ
        write = _WRITE
        # Accounting counters by short key, bound on first use.
        cells = {}

        def tally(key, writeback, category, kind):
            counter = cells.get(key)
            if counter is None:
                counter = cells[key] = bind(writeback, category, kind)
            counter.value += 1

        def probe_write(line, use_llc):
            # access_metadata(line, is_write=True, use_llc) with the dict
            # probes inlined; returns (hit, writeback address or None).
            ways = md_sets[line & md_mask]
            tag = line >> md_shift
            prev = ways.pop(tag, absent)
            if prev is not absent:
                md.hits += 1
                ways[tag] = True
                return True, None
            md.misses += 1
            dedicated_wb = None
            if len(ways) >= md_assoc:
                victim_tag = next(iter(ways))
                victim_dirty = ways.pop(victim_tag)
                md.evictions += 1
                if victim_dirty:
                    md.dirty_evictions += 1
                    dedicated_wb = (victim_tag << md_shift) | (line & md_mask)
            ways[tag] = True
            if not use_llc:
                return False, dedicated_wb
            llc_ways = llc_sets[line & llc_mask]
            llc_tag = line >> llc_shift
            llc_prev = llc_ways.pop(llc_tag, absent)
            if llc_prev is not absent:
                llc.hits += 1
                llc_ways[llc_tag] = True
                if dedicated_wb is None:
                    return True, None
                return True, llc_fill(dedicated_wb, True)
            llc.misses += 1
            llc_wb = None
            if len(llc_ways) >= llc_assoc:
                victim_tag = next(iter(llc_ways))
                victim_dirty = llc_ways.pop(victim_tag)
                llc.evictions += 1
                if victim_dirty:
                    llc.dirty_evictions += 1
                    llc_wb = (victim_tag << llc_shift) | (line & llc_mask)
            llc_ways[llc_tag] = True
            hierarchy.metadata_llc_fills += 1
            spill = None
            if dedicated_wb is not None:
                spill = llc_fill(dedicated_wb, True)
            # Pinned quirk (see access_metadata): `or`, not `is None`.
            return False, llc_wb or spill

        def dirty_path(index, use_llc, key, category, when, core):
            # Dirty every level from a leaf to the root; returns the RMW
            # reads issued for the uncached ones.
            fetched = 0
            for level_base, level_cap in tree_levels:
                index //= arity
                line = level_base + (index if index < level_cap else level_cap)
                hit, wb = probe_write(line, use_llc)
                if wb is not None:
                    queue_append(wb)
                if not hit:
                    tally(key, True, category, read)
                    fetched += 1
                    batch_append((read, line, when, category, core))
            return fetched

        def writeback(victim, when, core):
            if victim is None:
                return
            queue_append(victim)
            n_meta = 0
            while queue:
                line = queue_popleft()
                if line >= counter_base:
                    if line < mac_base:
                        key, category = "dcw", "counter"
                    elif line < parity_base:
                        key, category = "dmw", "mac"
                    elif line < tree_base:
                        key, category = "dpw", "parity"
                    else:  # tree lines group with counters (Fig. 9)
                        key, category = "dcw", "counter"
                    tally(key, False, category, write)
                    n_meta += 1
                    batch_append((write, line, when, category, core))
                    continue
                tally("wd", True, "data", write)
                batch_append((write, line, when, "data", core))
                if encrypted:
                    counter_line = counter_base + line // counter_coverage
                    hit, wb = probe_write(counter_line, counters_in_llc)
                    if wb is not None:
                        queue_append(wb)
                    if not hit:
                        tally("wcr", True, "counter", read)
                        n_meta += 1
                        batch_append((read, counter_line, when, "counter", core))
                    if bonsai:
                        n_meta += dirty_path(
                            counter_line - counter_base, counters_in_llc,
                            "wcr", "counter", when, core,
                        )
                    if separate_mac:
                        mac_line = mac_base + line // MAC_COVERAGE
                        tally("wmw", True, "mac", write)
                        n_meta += 1
                        batch_append((write, mac_line, when, "mac", core))
                        if macs_in_llc:
                            wb = llc_fill(mac_line)
                            if wb is not None:
                                queue_append(wb)
                        if mac_tree:
                            n_meta += dirty_path(
                                mac_line - mac_base, macs_in_llc,
                                "wmr", "mac", when, core,
                            )
                if parity_on_write:
                    # Synergy: the new parity is computed from the written
                    # line itself, so no read is needed.
                    tally("wpw", True, "parity", write)
                    n_meta += 1
                    batch_append(
                        (write, parity_base + line // PARITY_COVERAGE,
                         when, "parity", core)
                    )
                if lotecc_rmw:
                    parity_line = parity_base + line // PARITY_COVERAGE
                    if not lotecc_coalesced:
                        # Tier-2 parity needs its old contents.
                        tally("wpr", True, "parity", read)
                        n_meta += 1
                        batch_append((read, parity_line, when, "parity", core))
                    tally("wpw", True, "parity", write)
                    n_meta += 1
                    batch_append((write, parity_line, when, "parity", core))
            self._n_metadata_accesses += n_meta

        return writeback

    def _build_warm(self):
        """Build the warm-up metadata walk (encrypted designs only).

        Performs exactly the cache-state transitions the read/write walk
        would — dedicated/LLC dict probes with ``is_write``-honouring
        dirty bits, victim spills, break-on-hit Bonsai and MAC-tree walks,
        IVEC's LLC MAC copy — with every stat bump skipped (legal only in
        warm-up: ``SystemSimulator.warmup`` resets all of them afterwards)
        and memory writebacks dropped (warm-up generates no DRAM traffic).
        Dirty dedicated victims still spill into the LLC when the design
        backs metadata there, because that *is* cache state.
        """
        design = self.design
        map_ = self.map
        hierarchy = self.hierarchy
        md = hierarchy.metadata_cache
        md_sets = md._sets
        md_mask = md._set_mask
        md_shift = md._set_shift
        md_assoc = md.associativity
        llc = hierarchy.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        llc_shift = llc._set_shift
        llc_assoc = llc.associativity
        llc_fill = llc.fill
        counter_base = map_.counter_base
        counter_coverage = map_.counter_coverage
        mac_base = map_.mac_base
        bonsai = design.tree_kind is TreeKind.BONSAI_COUNTER
        mac_tree = design.tree_kind is TreeKind.MAC_TREE
        counters_in_llc = design.counters_in_llc
        separate_mac = design.mac_location is MacLocation.SEPARATE
        macs_in_llc = design.macs_in_llc
        tree_levels = map_.tree_levels()
        arity = TREE_ARITY
        absent = ABSENT

        def warm_probe(line, is_write, use_llc):
            # access_metadata's state transitions, stats-free: dedicated
            # probe, optional LLC layer, dirty-victim spill. Returns hit.
            ways = md_sets[line & md_mask]
            tag = line >> md_shift
            prev = ways.pop(tag, absent)
            if prev is not absent:
                ways[tag] = True if is_write else prev
                return True
            victim = None
            if len(ways) >= md_assoc:
                victim_tag = next(iter(ways))
                if ways.pop(victim_tag):
                    victim = (victim_tag << md_shift) | (line & md_mask)
            ways[tag] = is_write
            if not use_llc:
                return False
            llc_ways = llc_sets[line & llc_mask]
            llc_tag = line >> llc_shift
            llc_prev = llc_ways.pop(llc_tag, absent)
            if llc_prev is not absent:
                llc_ways[llc_tag] = True if is_write else llc_prev
                if victim is not None:
                    llc_fill(victim, True)
                return True
            if len(llc_ways) >= llc_assoc:
                llc_ways.pop(next(iter(llc_ways)))
            llc_ways[llc_tag] = is_write
            if victim is not None:
                llc_fill(victim, True)
            return False

        def warm_walk(index, is_write, use_llc):
            # Break-on-hit walk toward the cached anchor.
            for level_base, level_cap in tree_levels:
                index //= arity
                line = level_base + (index if index < level_cap else level_cap)
                if warm_probe(line, is_write, use_llc):
                    break

        def warm(data_line, is_write):
            counter_line = counter_base + data_line // counter_coverage
            if not warm_probe(counter_line, is_write, counters_in_llc) and bonsai:
                warm_walk(counter_line - counter_base, is_write, counters_in_llc)
            if separate_mac:
                mac_line = mac_base + data_line // MAC_COVERAGE
                if macs_in_llc:
                    llc_fill(mac_line)
                if mac_tree:
                    warm_walk(mac_line - mac_base, is_write, macs_in_llc)

        return warm

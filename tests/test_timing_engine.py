"""Secure timing-engine tests: metadata traffic expansion per design.

The engine is driven the way ``SystemSimulator`` drives it: read misses
through ``expand_read_miss_deferred`` with the epoch enqueued by
``flush_epoch``, dirty evictions through ``writeback``, and warm-up
through ``warm_metadata`` after an LLC data miss.
"""

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.dram.controller import MemoryController
from repro.dram.timing import MemoryConfig
from repro.secure.designs import (
    IVEC,
    LOTECC,
    LOTECC_COALESCED,
    NON_SECURE,
    SGX_O,
    SYNERGY,
    CounterMode,
)
from repro.secure.timing_engine import SecureTimingEngine, TimingMetadataMap
from repro.telemetry import cell_scope


def make_engine(design, num_data_lines=1 << 20):
    controller = MemoryController(MemoryConfig())
    hierarchy = CacheHierarchy(CacheConfig(llc_bytes=512 * 64, metadata_bytes=64 * 64))
    engine = SecureTimingEngine(design, hierarchy, controller, num_data_lines)
    return engine, controller


def read_miss(engine, line, when=0, core=0):
    """Expand one LLC read miss and flush its epoch; returns the gating requests."""
    indices = engine.expand_read_miss_deferred(line, when, core)
    requests = engine.flush_epoch()
    return [requests[index] for index in indices]


def writeback(engine, victim, when=0, core=0):
    """Drain one dirty eviction and flush its epoch."""
    engine.writeback(victim, when, core)
    engine.flush_epoch()


def warm_access(engine, line, is_write):
    """One warm-up access: LLC data probe, metadata walk on a miss."""
    if not engine.hierarchy.access_data(line, is_write).hit:
        engine.warm_metadata(line, is_write)


class TestTimingMetadataMap:
    def test_region_ordering(self):
        metadata_map = TimingMetadataMap(1 << 20, CounterMode.MONOLITHIC)
        assert metadata_map.counter_base == 1 << 20
        assert metadata_map.mac_base > metadata_map.counter_base
        assert metadata_map.parity_base > metadata_map.mac_base
        assert metadata_map.tree_level_bases[0] > metadata_map.parity_base

    def test_monolithic_coverage(self):
        metadata_map = TimingMetadataMap(1 << 20, CounterMode.MONOLITHIC)
        assert metadata_map.counter_line(0) == metadata_map.counter_line(7)
        assert metadata_map.counter_line(8) == metadata_map.counter_line(0) + 1

    def test_split_coverage(self):
        metadata_map = TimingMetadataMap(1 << 20, CounterMode.SPLIT)
        assert metadata_map.counter_line(0) == metadata_map.counter_line(63)
        assert metadata_map.num_counter_lines == (1 << 20) // 64

    def test_tree_path_reaches_root(self):
        metadata_map = TimingMetadataMap(1 << 20, CounterMode.MONOLITHIC)
        path = metadata_map.tree_path_from_counter(metadata_map.counter_base)
        assert len(path) == len(metadata_map.tree_level_sizes)
        assert path[-1] == metadata_map.tree_level_bases[-1]

    def test_tree_path_distinct_levels(self):
        metadata_map = TimingMetadataMap(1 << 20, CounterMode.MONOLITHIC)
        path = metadata_map.tree_path_from_counter(metadata_map.counter_base + 100)
        assert len(set(path)) == len(path)


class TestReadExpansion:
    def test_non_secure_single_request(self):
        engine, controller = make_engine(NON_SECURE)
        blocking = read_miss(engine, 0)
        assert [request.line_address for request in blocking] == [0]
        assert controller.traffic_by_category() == {"data_read": 1}

    def test_sgx_o_adds_counter_chain_and_mac(self):
        engine, controller = make_engine(SGX_O)
        read_miss(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["data_read"] == 1
        assert traffic["mac_read"] == 1
        assert traffic["counter_read"] >= 1  # counter + cold tree walk

    def test_synergy_has_no_mac_traffic(self):
        engine, controller = make_engine(SYNERGY)
        read_miss(engine, 0)
        traffic = controller.traffic_by_category()
        assert "mac_read" not in traffic

    def test_mac_always_fetched_when_uncached(self):
        engine, controller = make_engine(SGX_O)
        read_miss(engine, 0)
        read_miss(engine, 0, when=1)
        assert controller.traffic_by_category()["mac_read"] == 2

    def test_counter_cached_after_first_access(self):
        engine, controller = make_engine(SGX_O)
        read_miss(engine, 0)
        first = controller.traffic_by_category().get("counter_read", 0)
        read_miss(engine, 1, when=1)  # same counter line
        second = controller.traffic_by_category().get("counter_read", 0)
        assert second == first

    def test_every_fetch_gates_and_data_comes_first(self):
        engine, controller = make_engine(SGX_O)
        blocking = read_miss(engine, 0)
        assert blocking[0].line_address == 0
        assert blocking[0].category == "data"
        assert len(blocking) == sum(controller.traffic_by_category().values())

    def test_ivec_walks_mac_tree(self):
        engine, controller = make_engine(IVEC)
        read_miss(engine, 0)
        traffic = controller.traffic_by_category()
        # MAC line + at least one MAC-tree level on a cold walk.
        assert traffic["mac_read"] >= 2


class TestIvecMacTree:
    """IVEC: MACs are Merkle-tree members, fetched on every access."""

    def test_cold_read_walks_every_uncached_level(self):
        engine, controller = make_engine(IVEC)
        blocking = read_miss(engine, 0)
        mac_line = engine.map.mac_line(0)
        path = engine.map.tree_path_from_mac(mac_line)
        assert [r.line_address for r in blocking] == [
            0,
            engine.map.counter_line(0),
            mac_line,
            *path,
        ]
        # IVEC's counters have no Bonsai tree: one counter read only.
        assert controller.traffic_by_category() == {
            "data_read": 1,
            "counter_read": 1,
            "mac_read": 1 + len(path),
        }

    def test_neighbouring_read_stops_at_first_cached_level(self):
        engine, controller = make_engine(IVEC)
        read_miss(engine, 0)
        before = controller.traffic_by_category()["mac_read"]
        # Next MAC line, same first-level parent: the walk anchors there.
        blocking = read_miss(engine, 8, when=1)
        assert controller.traffic_by_category()["mac_read"] == before + 1
        assert blocking[-1].line_address == engine.map.mac_line(8)
        # Eight MAC lines on: a new first-level node, cached second level.
        data_line = 8 * 8
        blocking = read_miss(engine, data_line, when=2)
        first_level = engine.map.tree_path_from_mac(engine.map.mac_line(data_line))[0]
        assert blocking[-1].line_address == first_level
        assert controller.traffic_by_category()["mac_read"] == before + 3

    def test_mac_copy_lands_in_llc(self):
        engine, _controller = make_engine(IVEC)
        read_miss(engine, 0)
        assert engine.hierarchy.llc.probe(engine.map.mac_line(0))

    def test_writeback_rmws_every_uncached_mac_tree_level(self):
        engine, controller = make_engine(IVEC)
        writeback(engine, 0)
        levels = len(engine.map.tree_level_sizes)
        assert controller.traffic_by_category() == {
            "data_write": 1,
            "counter_read": 1,  # the counter RMW; no Bonsai levels
            "mac_write": 1,
            "mac_read": levels,
        }
        stats = engine.stats.as_dict()
        assert stats["writeback_mac_read"] == levels
        assert stats["writeback_counter_read"] == 1

    def test_writeback_dirties_the_whole_path(self):
        engine, _controller = make_engine(IVEC)
        writeback(engine, 0)
        md = engine.hierarchy.metadata_cache
        for line in engine.map.tree_path_from_mac(engine.map.mac_line(0)):
            ways = md._sets[line & md._set_mask]
            assert ways[line >> md._set_shift] is True

    def test_mac_tree_walk_depth_recorded(self):
        with cell_scope(cell="ivec-depth") as registry:
            engine, _controller = make_engine(IVEC)
            read_miss(engine, 0)
            read_miss(engine, 8, when=1)
            engine.sync_telemetry()
            depth = registry["secure.mac_tree_walk_depth"]
            counter_depth = registry["secure.tree_walk_depth"]
        levels = len(engine.map.tree_level_sizes)
        assert (depth.count, depth.total) == (2, levels)
        assert (depth.minimum, depth.maximum) == (0, levels)
        assert counter_depth.count == 0


class TestWriteExpansion:
    def test_synergy_parity_write(self):
        engine, controller = make_engine(SYNERGY)
        writeback(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["data_write"] == 1
        assert traffic["parity_write"] == 1

    def test_sgx_o_mac_update(self):
        engine, controller = make_engine(SGX_O)
        writeback(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["mac_write"] == 1
        assert "parity_write" not in traffic

    def test_lotecc_parity_rmw(self):
        engine, controller = make_engine(LOTECC)
        writeback(engine, 0)
        traffic = controller.traffic_by_category()
        assert traffic["parity_read"] == 1
        assert traffic["parity_write"] == 1

    def test_lotecc_coalescing_drops_read(self):
        engine, controller = make_engine(LOTECC_COALESCED)
        writeback(engine, 0)
        traffic = controller.traffic_by_category()
        assert "parity_read" not in traffic
        assert traffic["parity_write"] == 1

    def test_counter_rmw_on_write_miss(self):
        engine, controller = make_engine(SGX_O)
        writeback(engine, 0)
        assert controller.traffic_by_category()["counter_read"] >= 1

    def test_non_secure_write_is_single(self):
        engine, controller = make_engine(NON_SECURE)
        writeback(engine, 0)
        assert controller.traffic_by_category() == {"data_write": 1}


class TestWritebackDispatch:
    def test_data_victim_gets_full_expansion(self):
        engine, controller = make_engine(SYNERGY)
        writeback(engine, 5)
        traffic = controller.traffic_by_category()
        assert traffic["data_write"] == 1
        assert traffic["parity_write"] == 1

    def test_metadata_victim_plain_write(self):
        engine, controller = make_engine(SYNERGY)
        counter_line = engine.map.counter_line(0)
        writeback(engine, counter_line)
        assert controller.traffic_by_category() == {"counter_write": 1}

    def test_tree_victim_classified_as_counter(self):
        engine, controller = make_engine(SYNERGY)
        tree_line = engine.map.tree_level_bases[0]
        writeback(engine, tree_line)
        assert controller.traffic_by_category() == {"counter_write": 1}

    def test_metadata_victims_are_demand_origin(self):
        engine, _controller = make_engine(SGX_O)
        writeback(engine, engine.map.mac_line(0))
        writeback(engine, engine.map.parity_line(0))
        stats = engine.stats.as_dict()
        assert stats["demand_mac_write"] == 1
        assert stats["demand_parity_write"] == 1

    def test_none_is_noop(self):
        engine, controller = make_engine(SYNERGY)
        writeback(engine, None)
        assert controller.traffic_by_category() == {}


class TestWarmPath:
    def test_warm_generates_no_traffic(self):
        engine, controller = make_engine(SGX_O)
        for line in range(50):
            warm_access(engine, line, is_write=False)
        assert engine.flush_epoch() == []
        assert controller.traffic_by_category() == {}

    def test_warm_fills_caches(self):
        engine, controller = make_engine(SGX_O)
        warm_access(engine, 0, is_write=False)
        read_miss(engine, 1)  # same counter line as 0
        assert controller.traffic_by_category().get("counter_read", 0) == 0

    def test_ivec_warm_walks_mac_tree(self):
        engine, controller = make_engine(IVEC)
        warm_access(engine, 0, is_write=False)
        assert controller.traffic_by_category() == {}
        read_miss(engine, 8)  # next MAC line, warmed first-level parent
        assert controller.traffic_by_category()["mac_read"] == 1

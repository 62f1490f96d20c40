"""Randomized equivalence: the shipped secure engine vs its scalar oracle.

``SecureTimingEngine`` (closures that inline the cache probes and batch
their emissions per epoch) must be bit-identical to ``ScalarTimingEngine``
in ``tests/oracles.py`` (one ``access_metadata`` call per probe, one
``enqueue`` per request) for *every* design in ``secure/designs.py`` —
IVEC's MAC tree included, not just the golden grid's subset. These tests
drive both engines with the same pseudo-random access stream (an LCG, so
failures reproduce exactly) and compare every observable:

* the controller's incoming queues — request lines, kinds, categories,
  arrival times and **sequence numbers**, per channel, in order;
* the blocking sets of every expansion (resolved to (line, sequence));
* the engine's accounting stats (``StatGroup`` insertion order included);
* both cache's full set dictionaries — entry order *is* LRU state;
* the per-engine telemetry snapshot.

The warm phase compares the two ``warm_metadata`` walks under the same
post-warmup reset contract the system simulator applies.

A second class pins the Monte-Carlo shard kernel to the per-device
``fork`` oracle (``reference_shard_task``), failure counts and per-shard
telemetry payloads alike, and the serial (``jobs=1``) route to the pool
route.
"""

import pytest

from repro.cache.hierarchy import CacheConfig, CacheHierarchy
from repro.dram.controller import MemoryController
from repro.dram.timing import MemoryConfig
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    _shard_task,
    simulate_failure_probability,
)
from repro.reliability.schemes import (
    CHIPKILL_SCHEME,
    IVEC_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
)
from repro.secure.designs import ALL_DESIGNS, IVEC, LOTECC, SGX_O, SYNERGY
from repro.secure.timing_engine import SecureTimingEngine
from repro.telemetry import cell_scope

from oracles import ScalarTimingEngine, reference_shard_task

#: Small caches so a short stream still produces evictions, dirty spills
#: and metadata-cache misses (the interesting transitions).
_CACHES = CacheConfig(llc_bytes=64 * 1024, metadata_bytes=8 * 1024)
_NUM_DATA_LINES = 4096
_WARM_EVENTS = 300
_MEASURED_EVENTS = 600
_FLUSH_EVERY = 64


def _lcg_stream(seed):
    state = seed & 0x7FFFFFFF
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def _resolve(blocking_log, pending, requests):
    for event, indices in pending:
        blocking_log.append(
            (
                event,
                [(requests[i].line_address, requests[i].sequence) for i in indices],
            )
        )
    del pending[:]


def _drive(design, engine_cls, seed):
    """Run one engine over the shared stream; return its observables."""
    cell = "equiv:%s:%s" % (design.name, engine_cls.__name__)
    with cell_scope(cell=cell) as registry:
        controller = MemoryController(MemoryConfig())
        hierarchy = CacheHierarchy(_CACHES)
        engine = engine_cls(design, hierarchy, controller, _NUM_DATA_LINES)
        stream = _lcg_stream(seed)

        # Warm phase: metadata walks only (the system simulator handles
        # the data-cache side), then the same resets warmup applies.
        if design.encrypted:
            for index in range(_WARM_EVENTS):
                value = next(stream)
                engine.warm_metadata(value % _NUM_DATA_LINES, index % 3 == 0)
        hierarchy.llc.reset_stats()
        hierarchy.metadata_cache.reset_stats()
        hierarchy.reset_fill_stats()

        # Measured phase: read-miss expansions with a writeback every
        # fifth event and an epoch flush every _FLUSH_EVERY events,
        # mirroring the system's resolve boundary.
        blocking_log = []
        pending = []  # (event_index, indices) awaiting this epoch's flush
        for index in range(_MEASURED_EVENTS):
            value = next(stream)
            line = value % _NUM_DATA_LINES
            when = 2 + index * 3
            core = value % 4
            if index % 5 == 4:
                engine.writeback(line, when, core)
            else:
                pending.append(
                    (index, engine.expand_read_miss_deferred(line, when, core))
                )
            if (index + 1) % _FLUSH_EVERY == 0:
                _resolve(blocking_log, pending, engine.flush_epoch())
        _resolve(blocking_log, pending, engine.flush_epoch())
        engine.sync_telemetry()

        queues = [
            [
                (
                    arrival,
                    sequence,
                    request.line_address,
                    request.kind.value,
                    request.category,
                    request.core,
                )
                for arrival, sequence, request in queue.incoming
            ]
            for queue in controller._queues
        ]
        observables = {
            "queues": queues,
            "blocking": sorted(blocking_log),
            "stats": list(engine.stats.as_dict().items()),
            "metadata_accesses": engine._n_metadata_accesses,
            "md_sets": [
                list(ways.items())
                for ways in hierarchy.metadata_cache._sets
            ],
            "llc_sets": [list(ways.items()) for ways in hierarchy.llc._sets],
            "cache_stats": [
                (
                    cache.hits,
                    cache.misses,
                    cache.evictions,
                    cache.dirty_evictions,
                )
                for cache in (hierarchy.llc, hierarchy.metadata_cache)
            ],
            "fills": (
                hierarchy.data_llc_fills,
                hierarchy.metadata_llc_fills,
            ),
            "telemetry": registry.snapshot().deterministic().to_payload(),
        }
    return observables


@pytest.mark.parametrize(
    "design", ALL_DESIGNS, ids=[d.name for d in ALL_DESIGNS]
)
def test_deferred_engine_matches_scalar_oracle(design):
    """Every design: shipped engine == scalar oracle, bit for bit."""
    oracle = _drive(design, ScalarTimingEngine, seed=0xC0FFEE)
    shipped = _drive(design, SecureTimingEngine, seed=0xC0FFEE)
    for key in oracle:
        assert shipped[key] == oracle[key], (
            "%s diverged for %s" % (key, design.name)
        )


@pytest.mark.parametrize("seed", [1, 2018, 0x5EED])
def test_deferred_equivalence_seed_sweep(seed):
    """One design per walk shape stays equivalent across seeds."""
    for design in (SGX_O, SYNERGY, LOTECC, IVEC):
        oracle = _drive(design, ScalarTimingEngine, seed=seed)
        shipped = _drive(design, SecureTimingEngine, seed=seed)
        assert shipped == oracle, design.name


def _shards_match_oracle(scheme, config):
    """Per-shard ``(failures, payload)`` equal the oracle's; both routes agree."""
    shards = config.shards()
    shipped = [
        _shard_task((scheme, config, shard_id, size)) for shard_id, size in shards
    ]
    reference = [
        reference_shard_task((scheme, config, shard_id, size))
        for shard_id, size in shards
    ]
    assert shipped == reference, scheme.name
    expected = sum(failures for failures, _payload in reference) / config.devices
    for jobs in (1, 2):
        probability = simulate_failure_probability(
            scheme, config, jobs=jobs, cache=False
        )
        assert probability == expected, (scheme.name, jobs)


class TestMonteCarloShards:
    def test_shards_match_oracle_on_both_routes(self):
        config = MonteCarloConfig(
            devices=120_000, shard_devices=50_000, seed=77
        )
        for scheme in (
            SECDED_SCHEME,
            CHIPKILL_SCHEME,
            SYNERGY_SCHEME,
            IVEC_SCHEME,
        ):
            _shards_match_oracle(scheme, config)

    def test_ragged_final_shard_matches_oracle(self):
        config = MonteCarloConfig(devices=70_001, shard_devices=30_000, seed=5)
        assert [size for _sid, size in config.shards()] == [30_000, 30_000, 10_001]
        _shards_match_oracle(SECDED_SCHEME, config)

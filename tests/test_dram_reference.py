"""Randomized equivalence: the shipped FR-FCFS controller vs its reference.

``MemoryController.process`` fuses each decision into one inline step
(indexed choice, plan, commit, bus state in locals) and skips provably
redundant late-arrival rescans. ``ReferenceController`` in
``tests/oracles.py`` schedules the same queues by plain windowed scan over
a channel that plans and commits per request, rescanning after every late
arrival. Both are driven with the same multi-epoch ``enqueue_batch``
stream (an LCG, so failures reproduce exactly) and must agree on:

* every request's completion cycle;
* every bank's row hits and misses, open row and ready time, and each
  channel's bus state and activate history;
* the controller stat group (order included) and the telemetry snapshot.

The streams cover closed-bank warm-up (every run starts cold), refresh and
tFAW on and off, write-drain entry and exit, late arrivals, a one-channel
(lock-step) config and a geometry that is not all powers of two.
"""

from dataclasses import replace

import pytest

from repro.dram.controller import MemoryController, RequestKind
from repro.dram.timing import DramTiming, MemoryConfig
from repro.telemetry import cell_scope

from oracles import ReferenceController

_READ = RequestKind.READ
_WRITE = RequestKind.WRITE

#: Tight activation limits so tRRD/tFAW bind often.
_TIGHT_FAW = DramTiming(t_faw=60, t_rrd=8)

CONFIGS = {
    "default": MemoryConfig(),
    "no-refresh": MemoryConfig(model_refresh=False),
    "no-faw": MemoryConfig(model_faw=False),
    "bare": MemoryConfig(model_refresh=False, model_faw=False),
    "tight-faw": MemoryConfig(timing=_TIGHT_FAW),
    "one-channel": MemoryConfig(channels=1, timing=_TIGHT_FAW),
    "short-refresh": MemoryConfig(
        channels=1, timing=DramTiming(t_refi=400, t_rfc=60)
    ),
    "non-pow2": MemoryConfig(channels=3, banks_per_rank=6, rows_per_bank=1000),
}

_EPOCHS = 40


def _lcg(seed):
    state = seed & 0x7FFFFFFF
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        yield state


def _stream(seed):
    """Epoch batches of ``(kind, line, arrival, category, core)`` specs.

    Phases alternate a read-heavy mix, a write burst (fills the write
    queue past the drain watermark) and a light trickle (lets it drain
    and the channel idle). Addresses mix sequential runs (row hits) with
    a small random footprint (conflicts); arrivals within an epoch are
    jittered, so the epoch sort and late admissions both do work.
    """
    rng = _lcg(seed)
    base = 0
    cursor = 0
    batches = []
    for epoch in range(_EPOCHS):
        phase = epoch % 4
        count = (24, 90, 8, 40)[phase]
        write_share = (20, 85, 40, 35)[phase]
        spacing = (3, 1, 30, 2)[phase]
        specs = []
        for index in range(count):
            value = next(rng)
            if value % 3:
                cursor += 1
                line = cursor
            else:
                line = (value >> 4) % 6000
            kind = _WRITE if (value >> 8) % 100 < write_share else _READ
            arrival = base + index * spacing + (value >> 12) % 7
            category = ("data", "counter", "mac")[(value >> 16) % 3]
            specs.append((kind, line, arrival, category, (value >> 20) % 4))
        batches.append(specs)
        base += count * spacing - (value >> 5) % 16
    return batches


def _drive(controller_cls, config, batches, cell):
    with cell_scope(cell=cell) as registry:
        controller = controller_cls(config)
        requests = []
        for specs in batches:
            requests.extend(controller.enqueue_batch(specs))
            controller.process()
        controller.record_telemetry()
        stats = []
        for name, stat in controller.stats:
            value = stat.items() if hasattr(stat, "items") else stat.value
            stats.append((name, value))
        observables = {
            "completions": [request.completion for request in requests],
            "banks": [
                [
                    (bank.row_hits, bank.row_misses, bank.open_row, bank.ready_at)
                    for bank in channel.banks
                ]
                for channel in controller.channels
            ],
            "channels": [
                (
                    channel.bus_free_at,
                    channel.last_was_write,
                    channel.closed_banks,
                    channel.open_rows,
                    channel._recent_activates,
                )
                for channel in controller.channels
            ],
            "draining": [s.draining for s in controller.schedulers],
            "stats": stats,
            "activations": controller.activation_counts(),
            "telemetry": registry.snapshot().deterministic().to_payload(),
        }
    return observables, controller


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", [7, 2018])
def test_controller_matches_reference(name, seed):
    config = CONFIGS[name]
    batches = _stream(seed)
    shipped, _ = _drive(MemoryController, config, batches, "shipped")
    oracle, reference = _drive(ReferenceController, config, batches, "oracle")
    for key in oracle:
        assert shipped[key] == oracle[key], "%s diverged (%s)" % (key, name)
    # The stream really exercises what it claims to.
    assert all(c is not None for c in shipped["completions"])
    assert reference.rescans > 0, "no late arrival re-chose"
    bursts = shipped["telemetry"]["dram.write_drain_bursts"]["value"]
    assert bursts >= 2  # entered, left, re-entered
    channels = reference.channels
    if config.model_refresh:
        assert sum(c.refresh_stall_cycles for c in channels) > 0
    if config.model_faw and config.timing is _TIGHT_FAW:
        assert sum(c.activate_waits for c in channels) > 0, "tRRD/tFAW idle"


def test_simultaneous_arrivals_match_reference():
    """Every request arrives at once: no late admissions, pure choice.

    The first batch opens every bank (line bits 8-11 pick the flat bank)
    amid a mixed load; the second is a conflict storm on one bank (bits
    12+ pick the row), so the all-miss scan runs the whole window without
    finding a request startable at the horizon.
    """
    config = MemoryConfig(model_refresh=False)
    mixed = [(_READ, flat << 8 | channel, 0, "data", 0)
             for flat in range(16) for channel in range(2)]
    mixed += [
        (_WRITE if i % 4 == 0 else _READ, (i * 37) % 900, 0, "data", 0)
        for i in range(120)
    ]
    storm = [(_READ, ((i * 7919) % 5000) << 12, 5000, "data", 0) for i in range(60)]
    shipped, _ = _drive(MemoryController, config, [mixed, storm], "shipped")
    oracle, _ = _drive(ReferenceController, config, [mixed, storm], "oracle")
    assert shipped == oracle

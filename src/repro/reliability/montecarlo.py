"""Monte-Carlo reliability simulation (the FAULTSIM methodology).

For each simulated device (one protection group of chips), fault arrivals
are Poisson with the Table I FIT rates over a 7-year lifetime; each fault
gets a uniformly random location and — if transient — a bounded active
window ending at the next scrub. The device fails if the scheme's
uncorrectability predicate ever holds.

Each shard draws every device's fault count with numpy; zero- and
single-fault devices (all but ~1e-3) resolve in bulk, and the rest run
:func:`multi_fault_failures`, the per-device kernel: one SHA-256 prefix
and one re-seeded Mersenne Twister per shard, fault records drawn as flat
tuples and judged by :meth:`ProtectionScheme.fault_decides` as they
arrive. This is how the billion-device scale of the paper becomes
tractable in Python. The event-based reference the kernel is checked
against, draw for draw, lives in ``tests/oracles.py``.

The device population is partitioned into fixed-size *shards* whose RNG
streams derive from ``(seed, shard_id)`` alone — never from execution
order — so running shards serially, across a process pool, or in any
interleaving produces bit-identical failure counts. ``jobs``/``cache``
default to the process execution context (see ``repro.parallel``), and
finished curves land in the content-addressed run cache so Fig. 11 and
the scrub-interval sweep share work.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.parallel import parallel_map, resolve_cache, resolve_jobs
from repro.parallel.runcache import RunCache, cache_key
from repro.reliability.faults import ChipGeometry, FaultRecord, coverage
from repro.reliability.fitrates import FAULT_MODES
from repro.reliability.schemes import ProtectionScheme
from repro.telemetry import (
    MetricsSnapshot,
    cell_scope,
    current_aggregate,
    get_registry,
)
from repro.util.rng import (
    MersenneTwister,
    derive_seed,
    randbelow_for,
    reseeding_stream,
)
from repro.util.units import HOURS_PER_YEAR

#: Failure-count buckets for the per-shard failure histogram.
SHARD_FAILURE_EDGES = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)

#: Total per-chip fault rate (faults per chip-hour): Table I FIT rates
#: summed, FIT = failures per 1e9 device-hours. Hoisted to module scope so
#: the per-shard fast path does not re-reduce FAULT_MODES on every call;
#: the expression (and therefore float-op order) matches the old inline
#: ``sum(mode.fit for mode in FAULT_MODES) * 1e-9`` exactly.
_FIT_RATE = sum(mode.fit for mode in FAULT_MODES) * 1e-9

#: Fraction of fault arrivals that span more than one bit (the failures a
#: SECDED-class scheme cannot correct). Same float-op order as the old
#: inline two-sum quotient, so sampled probabilities are unchanged.
_LARGE_FRACTION = (
    sum(m.fit for m in FAULT_MODES if m.is_large)
    / sum(m.fit for m in FAULT_MODES)
)

#: Cumulative fault-mode weights (proportional to FIT) and their float
#: total, computed once the way ``random.choices`` computes them per call.
_MODE_CUM_WEIGHTS = list(accumulate(mode.fit for mode in FAULT_MODES))
_MODE_TOTAL = _MODE_CUM_WEIGHTS[-1] + 0.0
#: Per mode, ``(transient, coverage flags)`` for the fault record.
_MODE_FLAGS = [(mode.transient, coverage(mode.granularity)) for mode in FAULT_MODES]


@dataclass(frozen=True)
class MonteCarloConfig:
    """Parameters of one reliability experiment."""

    devices: int = 200_000
    lifetime_years: float = 7.0
    #: Transient faults are repaired at the next scrub; Table I transients
    #: otherwise persist forever, which field studies contradict.
    scrub_interval_hours: float = 24.0
    geometry: ChipGeometry = field(default_factory=ChipGeometry)
    seed: int = 2018
    #: Devices per deterministic RNG shard. Part of the experiment's
    #: identity: the same (seed, shard_devices) pair reproduces the same
    #: population no matter how many workers simulate it.
    shard_devices: int = 50_000

    @property
    def lifetime_hours(self) -> float:
        """Device lifetime in hours."""
        return self.lifetime_years * HOURS_PER_YEAR

    def shards(self) -> List[Tuple[int, int]]:
        """The (shard_id, device_count) partition of the population."""
        out: List[Tuple[int, int]] = []
        remaining = self.devices
        shard_id = 0
        while remaining > 0:
            size = min(self.shard_devices, remaining)
            out.append((shard_id, size))
            remaining -= size
            shard_id += 1
        return out


def fault_sampler(
    rnd: MersenneTwister, config: MonteCarloConfig
) -> Callable[[int], FaultRecord]:
    """``sample(chip)``: draw one fault on ``chip`` from ``rnd``.

    The mode as ``random.choices(FAULT_MODES, weights=fit)`` draws it
    (one ``random()`` bisected into the cumulative weights), a start
    uniform over the lifetime, then bank, row, column and bit as
    ``randint`` draws them (:func:`repro.util.rng.randbelow_for`).
    """
    randbelow = randbelow_for(rnd)
    unit = rnd.random
    geometry = config.geometry
    banks = geometry.banks
    rows = geometry.rows_per_bank
    columns = geometry.words_per_row
    lifetime = config.lifetime_hours
    scrub = config.scrub_interval_hours
    cum_weights = _MODE_CUM_WEIGHTS
    total = _MODE_TOTAL
    last = len(cum_weights) - 1
    flags_by_mode = _MODE_FLAGS
    permanent = float("inf")

    def sample(chip: int) -> FaultRecord:
        mode = bisect(cum_weights, unit() * total, 0, last)
        transient, flags = flags_by_mode[mode]
        # uniform(0.0, lifetime) is 0.0 + lifetime * random(): same float.
        start = lifetime * unit()
        end = start + scrub if transient else permanent
        return (
            chip,
            start,
            end,
            randbelow(banks),
            randbelow(rows),
            randbelow(columns),
            randbelow(64),
            *flags,
        )

    return sample


def multi_fault_failures(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shard_seed: int,
    devices: Iterable[Tuple[int, int]],
) -> int:
    """Failures among one shard's ``(device_index, fault_count)`` devices.

    Device ``i`` draws from the stream of ``DeterministicRng(shard_seed)
    .fork("device", i)``, reproduced by one re-seeded generator per shard
    (:func:`repro.util.rng.reseeding_stream`). Each fault is a uniformly
    random chip, then :func:`fault_sampler`'s draws. Every device has its
    own stream, so a device stops drawing at the fault that decides it
    without moving any other draw.
    """
    rnd, reseed = reseeding_stream(shard_seed, "device")
    randbelow = randbelow_for(rnd)
    sample = fault_sampler(rnd, config)
    decides = scheme.fault_decides
    chips = scheme.chips
    failures = 0
    for device_index, count in devices:
        reseed(device_index)
        history: List[FaultRecord] = []
        for _ in range(count):
            fault = sample(randbelow(chips))
            if decides(history, fault):
                failures += 1
                break
            history.append(fault)
    return failures


def simulate_shard(
    scheme: ProtectionScheme,
    config: MonteCarloConfig,
    shard_id: int,
    shard_size: int,
) -> int:
    """Failure count among one shard's devices.

    Fast path: the number of faults per device is Poisson with a small
    mean, so devices are binned by fault count with numpy. Zero-fault
    devices survive. Single-fault devices fail only under SECDED and only
    for multi-bit faults — a Bernoulli, also vectorised. Multi-fault
    devices (about 1e-3 of them) run :func:`multi_fault_failures`.

    All randomness derives from ``(config.seed, shard_id)``, so the shard
    is a pure function of its arguments — the property that makes serial
    and process-pool execution bit-identical.
    """
    shard_seed = derive_seed(config.seed, "mc-shard", shard_id)
    per_chip_rate = _FIT_RATE * config.lifetime_hours
    device_rate = per_chip_rate * scheme.chips

    rng_np = np.random.default_rng(shard_seed)
    counts = rng_np.poisson(device_rate, shard_size)

    failures = 0
    single_fault_devices = int(np.count_nonzero(counts == 1))
    if not scheme.chip_correcting and single_fault_devices:
        failures += int(
            rng_np.binomial(single_fault_devices, _LARGE_FRACTION)
        )
    # Chip-correcting schemes survive any single fault by construction.

    multi_indices = np.flatnonzero(counts >= 2)
    # One bulk conversion: the kernel sees plain Python ints.
    failures += multi_fault_failures(
        scheme,
        config,
        shard_seed,
        zip(multi_indices.tolist(), counts[multi_indices].tolist()),
    )
    registry = get_registry()
    registry.counter("mc.shards").inc()
    registry.counter("mc.devices").inc(shard_size)
    registry.counter("mc.failures").inc(failures)
    registry.histogram("mc.shard_failures", SHARD_FAILURE_EDGES).record(failures)
    return failures


def _shard_task(task: Tuple) -> Tuple[int, dict]:
    """Module-level worker entry so shards pickle into pool processes.

    Returns ``(failures, telemetry_payload)``: the shard runs under its own
    registry scope so the snapshot contains exactly this shard's metrics,
    regardless of which worker process executed it.
    """
    scheme, config, shard_id, shard_size = task
    with cell_scope(cell="mc:%s" % scheme.name, shard=shard_id) as registry:
        failures = simulate_shard(scheme, config, shard_id, shard_size)
        payload = registry.snapshot().to_payload()
    return failures, payload


def simulate_failure_probability(
    scheme: ProtectionScheme,
    config: MonteCarloConfig = MonteCarloConfig(),
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
) -> float:
    """Probability of device failure over the lifetime (Fig. 11's metric).

    The device budget is split into deterministic shards (see
    :meth:`MonteCarloConfig.shards`) fanned over ``jobs`` worker
    processes; failure counts merge by summation, which is
    order-independent. The finished probability is cached on disk keyed
    by (scheme, config, code version).
    """
    jobs = resolve_jobs(jobs)
    run_cache = resolve_cache(cache)
    label = "mc:%s" % scheme.name
    key = None
    if run_cache is not None:
        key = cache_key("montecarlo", scheme=scheme, config=config)
        payload = run_cache.get(key, label=label)
        if payload is not None:
            # Warm hit: revive the cached telemetry so reports still carry
            # metrics even when no shard actually executed.
            current_aggregate().add(label, payload.get("telemetry"))
            return float(payload["probability"])

    shards = config.shards()
    shard_results = parallel_map(
        _shard_task,
        [(scheme, config, shard_id, size) for shard_id, size in shards],
        jobs=jobs,
        labels=["%s/shard%d" % (label, shard_id) for shard_id, _size in shards],
    )
    failures = sum(result[0] for result in shard_results)
    # parallel_map returns in submission (= shard) order, and the merge is
    # commutative anyway: the aggregate is independent of worker count.
    telemetry = MetricsSnapshot()
    for _failures, shard_payload in shard_results:
        telemetry = telemetry.merge(MetricsSnapshot.from_payload(shard_payload))
    current_aggregate().add(label, telemetry)
    probability = failures / config.devices
    if run_cache is not None and key is not None:
        run_cache.put(
            key,
            {"probability": probability, "telemetry": telemetry.to_payload()},
        )
    return probability


def failure_probability_series(
    scheme: ProtectionScheme,
    years: List[float],
    config: MonteCarloConfig = MonteCarloConfig(),
    jobs: Optional[int] = None,
    cache: Union[None, bool, str, RunCache] = None,
) -> List[float]:
    """Failure probability at several lifetimes (for time-series plots)."""
    from dataclasses import replace

    return [
        simulate_failure_probability(
            scheme, replace(config, lifetime_years=y), jobs=jobs, cache=cache
        )
        for y in years
    ]

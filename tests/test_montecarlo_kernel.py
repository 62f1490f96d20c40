"""The Monte-Carlo shard kernel against the per-device ``fork`` oracle.

``multi_fault_failures`` seeds one generator per device from a hashed
prefix, draws integers through a local copy of CPython's
``_randbelow_with_getrandbits`` and fault modes by bisecting precomputed
cumulative weights. These tests pin all three shortcuts to the draws the
oracle makes through ``DeterministicRng.fork``, ``randint`` and
``weighted_choice`` — outcome per device, and every fault record drawn up
to the one that decides the device.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reliability import montecarlo
from repro.reliability.faults import ChipGeometry
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    fault_sampler,
    multi_fault_failures,
)
from repro.reliability.schemes import ALL_SCHEMES
from repro.util.rng import DeterministicRng, randbelow_for, reseeding_stream

from oracles import draw_device_faults, reference_device_fails


def _oracle_device(scheme, config, shard_seed, device_index, count):
    """``(fails, faults drawn up to the deciding one)`` via the oracle."""
    device_rng = DeterministicRng(shard_seed).fork("device", device_index)
    faults = draw_device_faults(device_rng, scheme, config, count)
    decided = next(
        (
            length
            for length in range(1, count + 1)
            if reference_device_fails(scheme, faults[:length])
        ),
        None,
    )
    if decided is None:
        return False, faults
    return True, faults[:decided]


def _kernel_draws(scheme, config, shard_seed, devices):
    """Run the kernel, recording every fault record it draws."""
    drawn = []

    def recording_sampler(rnd, sampler_config):
        sample = fault_sampler(rnd, sampler_config)

        def record(chip):
            fault = sample(chip)
            drawn.append(fault)
            return fault

        return record

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(montecarlo, "fault_sampler", recording_sampler)
        failures = multi_fault_failures(scheme, config, shard_seed, devices)
    return failures, drawn


geometries = st.builds(
    ChipGeometry,
    banks=st.integers(1, 16),
    rows_per_bank=st.integers(1, 1 << 17),
    words_per_row=st.integers(1, 2048),
)
configs = st.builds(
    MonteCarloConfig,
    lifetime_years=st.floats(0.01, 20.0),
    scrub_interval_hours=st.floats(0.5, 1e6),
    geometry=st.one_of(st.just(ChipGeometry()), geometries),
)
devices = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(2, 6)), min_size=1, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(
    scheme=st.sampled_from(ALL_SCHEMES),
    config=configs,
    shard_seed=st.integers(0, (1 << 64) - 1),
    devices=devices,
)
def test_kernel_matches_oracle_draw_for_draw(scheme, config, shard_seed, devices):
    expected_failures = 0
    expected_draws = []
    for device_index, count in devices:
        fails, faults = _oracle_device(
            scheme, config, shard_seed, device_index, count
        )
        expected_failures += fails
        expected_draws.extend(fault.record() for fault in faults)
    failures, drawn = _kernel_draws(scheme, config, shard_seed, devices)
    assert failures == expected_failures
    assert drawn == expected_draws


def test_kernel_counts_each_device_once():
    # Small, pathological geometry: most multi-fault devices fail, and a
    # device must count once however many of its pairs overlap.
    config = MonteCarloConfig(
        geometry=ChipGeometry(banks=1, rows_per_bank=1, words_per_row=1),
        scrub_interval_hours=1e9,
    )
    devices = [(index, 6) for index in range(200)]
    for scheme in ALL_SCHEMES:
        expected = sum(
            _oracle_device(scheme, config, 99, index, count)[0]
            for index, count in devices
        )
        assert multi_fault_failures(scheme, config, 99, devices) == expected
        assert 0 < expected <= len(devices)


_GEOMETRY = ChipGeometry()


@pytest.mark.parametrize(
    "n",
    [1, 2, 3, 4, 7, 8, 9, 16, 18, 64, 100, 1 << 12, 3000]
    + [_GEOMETRY.banks, _GEOMETRY.rows_per_bank, _GEOMETRY.words_per_row],
)
def test_randbelow_matches_randrange(n):
    """The local ``_randbelow`` copy tracks the interpreter's, word for word."""
    ours = random.Random(n * 7919 + 1)
    theirs = random.Random(n * 7919 + 1)
    randbelow = randbelow_for(ours)
    for _ in range(500):
        assert randbelow(n) == theirs.randrange(n)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("last", [0, 1, 12345, "device", (3, "x")])
def test_reseeding_stream_matches_fork(last):
    generator, reseed = reseeding_stream(2018, "mc", 7)
    reseed(last)
    forked = DeterministicRng(2018).fork("mc", 7, last)
    assert generator.getstate() == forked.generator.getstate()
    assert generator.random() == forked.uniform()

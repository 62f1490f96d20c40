"""Randomized equivalence: indexed FR-FCFS chooser vs the reference scan.

The indexed chooser (:class:`BankIndexedPool` + ``choose_indexed``) must
make exactly the decision the O(queue) reference scan makes — same request
object, same drain-mode side effects — across thousands of interleaved
enqueue/choose/complete steps, including write-drain entry/exit and
open-row changes. Any divergence is a policy change, not a speedup.
"""

import pytest

from repro.dram.scheduler import BankIndexedPool, FrFcfsScheduler
from repro.util.rng import DeterministicRng

from oracles import reference_choose


class FakeRequest:
    __slots__ = ("flat_bank", "row", "arrival")

    def __init__(self, flat_bank: int, row: int, arrival: int):
        self.flat_bank = flat_bank
        self.row = row
        self.arrival = arrival

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"req(fb={self.flat_bank}, row={self.row}, t={self.arrival})"


class FakeChannel:
    __slots__ = ("open_rows",)

    def __init__(self, banks: int):
        self.open_rows = [-1] * banks


def drive(seed: int, steps: int, banks: int = 8, rows: int = 4) -> int:
    """Run both choosers in lock-step; returns the decision count."""
    rng = DeterministicRng(seed)
    channel = FakeChannel(banks)
    # Low watermarks so the walk crosses drain transitions constantly.
    reference = FrFcfsScheduler(drain_high=4, drain_low=1)
    indexed = FrFcfsScheduler(drain_high=4, drain_low=1)
    reads, writes = [], []
    read_pool = BankIndexedPool(channel.open_rows)
    write_pool = BankIndexedPool(channel.open_rows)
    arrival = 0
    decisions = 0
    for step in range(steps):
        if rng.uniform() < 0.55 or (not reads and not writes):
            arrival += rng.randint(0, 2)
            request = FakeRequest(
                rng.randint(0, banks - 1), rng.randint(0, rows - 1), arrival
            )
            if rng.uniform() < 0.4:
                writes.append(request)
                write_pool.add(request)
            else:
                reads.append(request)
                read_pool.add(request)
            continue
        expected = reference_choose(reference, channel, reads, writes)
        actual = indexed.choose_indexed(read_pool, write_pool)
        assert actual is expected, (
            f"step {step}: indexed chose {actual}, reference {expected}"
        )
        assert indexed.draining == reference.draining, f"step {step}"
        if expected is None:
            continue
        decisions += 1
        if expected in reads:
            reads.remove(expected)
            read_pool.remove(expected)
        else:
            writes.remove(expected)
            write_pool.remove(expected)
        assert len(read_pool) == len(reads)
        assert len(write_pool) == len(writes)
        # Commit: the scheduled request's row becomes the bank's open row.
        if channel.open_rows[expected.flat_bank] != expected.row:
            channel.open_rows[expected.flat_bank] = expected.row
            read_pool.notify_row_change(expected.flat_bank, expected.row)
            write_pool.notify_row_change(expected.flat_bank, expected.row)
    return decisions


class TestIndexedChooserEquivalence:
    @pytest.mark.parametrize("seed", [1234, 777, 31337])
    def test_matches_reference_over_random_walk(self, seed):
        decisions = drive(seed, steps=6000)
        assert decisions > 1000  # the walk actually scheduled things

    def test_row_conflict_heavy(self):
        # Two banks, many rows: almost every decision is a miss decision,
        # exercising the age heap and stale hit-heap entries.
        assert drive(99, steps=4000, banks=2, rows=16) > 500

    def test_hit_heavy(self):
        # One row per bank: after warmup everything is a hit, exercising
        # the per-(bank, row) FIFO succession logic.
        assert drive(7, steps=4000, banks=4, rows=1) > 500


class TestBankIndexedPool:
    def test_empty_pool_chooses_none(self):
        pool = BankIndexedPool([-1] * 4)
        assert pool.choose() is None
        assert len(pool) == 0

    def test_oldest_hit_beats_older_miss(self):
        open_rows = [-1] * 4
        pool = BankIndexedPool(open_rows)
        miss = FakeRequest(0, 5, arrival=0)
        hit = FakeRequest(1, 9, arrival=10)
        pool.add(miss)
        pool.add(hit)
        open_rows[1] = 9
        pool.notify_row_change(1, 9)
        assert pool.choose() is hit
        pool.remove(hit)
        assert pool.choose() is miss

    def test_hit_invalidated_when_row_moves(self):
        open_rows = [7, -1]
        pool = BankIndexedPool(open_rows)
        request = FakeRequest(0, 7, arrival=3)
        pool.add(request)  # enters the hit heap (row 7 open)
        open_rows[0] = 8  # bank moved away; entry is now stale
        other = FakeRequest(1, 2, arrival=1)
        pool.add(other)
        assert pool.choose() is other  # oldest request, no live hits

    def test_bank_head_tracks_fifo(self):
        pool = BankIndexedPool([-1] * 2)
        first = FakeRequest(0, 1, arrival=0)
        second = FakeRequest(0, 2, arrival=1)
        pool.add(first)
        pool.add(second)
        assert pool.bank_head(0) is first
        pool.remove(first)
        assert pool.bank_head(0) is second
        assert pool.bank_head(1) is None

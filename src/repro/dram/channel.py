"""One memory channel: a set of banks sharing a command/data bus.

The channel holds per-bank state, the data-bus occupancy and read/write
direction, the per-rank activate history (tFAW/tRRD) and the flat
open-row table the scheduler classifies candidates against.

Hot-path notes: the channel is state only. The controller's fused
decision step (``MemoryController._process_channel``) plans and commits
each scheduled request inline against this state — bank-ready clamp,
refresh blackout, tFAW/tRRD, latency class, bus turnaround — keeping the
bus fields in locals for a whole epoch and writing them back at its end.
The readable plan/commit pair it must match lives with the tests
(``tests/oracles.py``).
"""

from __future__ import annotations

from typing import List

from repro.dram.bank import BankState
from repro.dram.timing import DramTiming, MemoryConfig


class ChannelState:
    """Timing state of one channel (banks + shared data bus)."""

    __slots__ = (
        "config",
        "timing",
        "banks",
        "open_rows",
        "closed_banks",
        "bus_free_at",
        "last_was_write",
        "_recent_activates",
        "_banks_per_rank",
    )

    def __init__(self, config: MemoryConfig):
        self.config = config
        self.timing: DramTiming = config.timing
        self.banks: List[BankState] = [
            BankState() for _ in range(config.banks_per_channel)
        ]
        #: Open-row table: ``open_rows[flat_bank]`` mirrors the bank's
        #: ``open_row`` with -1 for closed. Schedulers classify candidates
        #: against this flat list (one index + compare) instead of chasing
        #: per-bank attributes, and the controller's row-hit index keys off
        #: it. Maintained by the controller's commit step.
        self.open_rows: List[int] = [-1] * config.banks_per_channel
        #: Banks whose row buffer has never been opened. Monotone to zero
        #: (open-page policy never precharges without activating), which
        #: makes ``closed_banks == 0`` a cheap "every candidate classifies
        #: hit-or-miss" predicate for scheduler fast paths.
        self.closed_banks = config.banks_per_channel
        self.bus_free_at = 0
        self.last_was_write = False
        #: per-rank recent activate times (tFAW/tRRD bookkeeping)
        self._recent_activates: List[List[int]] = [
            [] for _ in range(config.ranks_per_channel)
        ]
        self._banks_per_rank = config.banks_per_rank

    def flat_bank(self, rank: int, bank: int) -> int:
        """Flatten (rank, bank) into a channel-local bank index."""
        return rank * self._banks_per_rank + bank

    @property
    def row_hit_rate(self) -> float:
        """Aggregate row-buffer hit rate across banks."""
        hits = sum(b.row_hits for b in self.banks)
        misses = sum(b.row_misses for b in self.banks)
        total = hits + misses
        return hits / total if total else 0.0

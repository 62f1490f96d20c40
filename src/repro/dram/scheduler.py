"""FR-FCFS scheduling state with write-drain watermarks (USIMM-style policy).

Reads have priority; writes are buffered and drained in bursts once the
write queue crosses its high watermark, continuing until the low watermark.
Within a class, First-Ready (row hit) requests go first, ties broken by age
— the classic FR-FCFS policy.

:class:`FrFcfsScheduler` holds one channel's drain watermarks, its drain
state and the drain-burst instruments. The decision itself is inlined in
``MemoryController._select_pool`` and ``MemoryController._scan``; the
plain-scan statement it must reproduce is ``ReferenceController`` (with
``update_drain_mode``) in ``tests/oracles.py``.
"""

from __future__ import annotations

from repro.telemetry import get_registry


class FrFcfsScheduler:
    """One channel's write-drain state and its telemetry."""

    __slots__ = (
        "drain_high",
        "drain_low",
        "draining",
        "_t_drain_bursts",
        "_t_write_queue_depth",
    )

    def __init__(self, drain_high: int, drain_low: int):
        self.drain_high = drain_high
        self.drain_low = drain_low
        self.draining = False
        registry = get_registry()
        self._t_drain_bursts = registry.counter("dram.write_drain_bursts")
        self._t_write_queue_depth = registry.histogram(
            "dram.write_queue_depth", (0, 1, 2, 4, 8, 16, 32, 64, 128)
        )

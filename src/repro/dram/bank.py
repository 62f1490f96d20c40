"""Per-bank state: open row and earliest next-command time.

Open-page policy: a row stays open after an access until a conflicting
access precharges it, so each access classifies as a row hit, a row miss
(conflict) or a closed-bank access.

Hot-path notes: the class is plain ``__slots__`` state. The controller's
fused decision step (``MemoryController._process_channel``) reads
``ready_at`` in its candidate scans and performs the per-access timing
and row-hit/miss accounting inline against per-controller latency
constants, so the bank carries no per-access methods; the readable
per-access reference (classify, latency, begin-access) is the oracle
channel in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry import get_registry


class BankState:
    """Timing state of one DRAM bank (open-page policy)."""

    __slots__ = (
        "open_row",
        "ready_at",
        "row_hits",
        "row_misses",
        "_t_activations",
        "_synced_activations",
    )

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.ready_at = 0  #: earliest cycle the next command may start
        self.row_hits = 0
        self.row_misses = 0
        # Shared across all banks created under the same registry scope.
        self._t_activations = get_registry().counter("dram.bank_activations")
        self._synced_activations = 0

    def sync_telemetry(self) -> None:
        """Reconcile the activation counter with ``row_misses`` (idempotent).

        Banks under one registry scope share the ``dram.bank_activations``
        counter; each bank contributes its own delta, so syncing every
        bank once sums to the per-event total the hot path used to record.
        """
        delta = self.row_misses - self._synced_activations
        if delta:
            self._t_activations.inc(delta)
            self._synced_activations = self.row_misses

"""Fault instances with address footprints, and overlap tests.

A fault lives on one chip and covers a rectangular footprint in the chip's
(bank, row, column) space, possibly for a bounded time window (transient
faults disappear at the next scrub). Two faults on *different* chips of a
protection group defeat chip-level correction only if their footprints
intersect — i.e. some codeword has corrupted symbols from two chips — and
their active windows overlap in time. This is the FAULTSIM methodology.

The Monte-Carlo kernel carries faults as flat :data:`FaultRecord` tuples
(no object per fault); :class:`FaultInstance` is the readable form, and
:meth:`FaultInstance.record` converts one into the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.reliability.fitrates import FaultGranularity

#: ``(chip, start_hour, end_hour, bank, row, column, bit, large, all_banks,
#: all_rows, all_columns)``. A permanent fault ends at ``inf``; the four
#: flags are :func:`coverage` of the fault's granularity.
FaultRecord = Tuple[int, float, float, int, int, int, int, bool, bool, bool, bool]

#: Granularities whose footprint spans every bank (whole-chip faults).
_ALL_BANKS: FrozenSet[FaultGranularity] = frozenset(
    {FaultGranularity.MULTI_BANK, FaultGranularity.MULTI_RANK}
)
#: ... every row of their bank(s) (column, bank and chip faults).
_ALL_ROWS = _ALL_BANKS | {FaultGranularity.SINGLE_COLUMN, FaultGranularity.SINGLE_BANK}
#: ... every column of their row(s) (row, bank and chip faults).
_ALL_COLUMNS = _ALL_BANKS | {FaultGranularity.SINGLE_ROW, FaultGranularity.SINGLE_BANK}


def coverage(granularity: FaultGranularity) -> Tuple[bool, bool, bool, bool]:
    """``(large, all_banks, all_rows, all_columns)`` flags of a granularity.

    ``large`` marks a fault spanning more than one bit of a word; each
    ``all_*`` flag says whether that footprint axis spans everything or
    is pinned to the fault's own coordinate.
    """
    return (
        granularity is not FaultGranularity.SINGLE_BIT,
        granularity in _ALL_BANKS,
        granularity in _ALL_ROWS,
        granularity in _ALL_COLUMNS,
    )


@dataclass(frozen=True)
class ChipGeometry:
    """Internal organisation of one DRAM chip (for footprint arithmetic)."""

    banks: int = 8
    rows_per_bank: int = 64 * 1024
    words_per_row: int = 1024  #: 8KB row / 8B contribution per word

    @property
    def words_per_chip(self) -> int:
        """Total addressable words."""
        return self.banks * self.rows_per_bank * self.words_per_row


@dataclass(frozen=True)
class FaultInstance:
    """One fault on one chip.

    ``bank``/``row``/``column`` anchor the footprint; whether each axis is
    a single coordinate or spans everything follows from the granularity.
    ``end_hour`` is None for permanent faults (active until end of life).
    """

    chip: int
    granularity: FaultGranularity
    transient: bool
    start_hour: float
    end_hour: Optional[float]
    bank: int = 0
    row: int = 0
    column: int = 0
    bit: int = 0  #: bit position within the word (single-bit faults)

    def record(self) -> FaultRecord:
        """This fault as the kernel's flat :data:`FaultRecord`."""
        end = self.end_hour if self.end_hour is not None else float("inf")
        return (
            self.chip,
            self.start_hour,
            end,
            self.bank,
            self.row,
            self.column,
            self.bit,
        ) + coverage(self.granularity)


def records_overlap(a: FaultRecord, b: FaultRecord) -> bool:
    """Spatial *and* temporal overlap of two fault records.

    The active windows intersect, and on every footprint axis one fault
    spans the axis or both share the coordinate — some word address is
    corrupted by both faults while both are active.
    """
    return (
        max(a[1], b[1]) <= min(a[2], b[2])
        and (a[8] or b[8] or a[3] == b[3])
        and (a[9] or b[9] or a[4] == b[4])
        and (a[10] or b[10] or a[5] == b[5])
    )


def faults_overlap(a: FaultInstance, b: FaultInstance) -> bool:
    """Spatial *and* temporal overlap (the uncorrectability condition)."""
    return records_overlap(a.record(), b.record())

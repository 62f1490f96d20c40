"""Uncorrectable-error predicates for each protection scheme (Fig. 11).

A *device* is the unit Fig. 11 plots: the memory a workload's channel sees.

* SECDED — a 9-chip ECC-DIMM with (72,64) Hamming per word: corrects one
  bit per word; any multi-bit fault, or two single-bit faults meeting in
  one word, is uncorrectable.
* Chipkill — 18 lock-stepped chips (two DIMMs over two channels): corrects
  all errors confined to one chip; two chips with spatio-temporally
  overlapping faults are uncorrectable.
* Synergy — one 9-chip DIMM: MAC-detect + parity-correct over 9 chips;
  same two-chip-overlap criterion but over the 9-chip group.
* IVEC — 16-chip x4 commodity DIMM with MAC + in-line parity: corrects one
  chip of 16.

The 185x / 37x reductions of Fig. 11 follow from the group sizes: the
probability of two faulty chips grows with the square of the chips that
could pair up (Section VI-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.reliability.faults import FaultInstance, FaultRecord, records_overlap


@dataclass(frozen=True)
class ProtectionScheme:
    """Failure predicate parameters for one scheme."""

    name: str
    chips: int  #: chips in one correction group (= device, Fig. 11 style)
    chip_correcting: bool  #: can it erase a whole chip's errors?

    def device_fails(self, faults: List[FaultInstance]) -> bool:
        """Does this fault history make the device fail within lifetime?"""
        history: List[FaultRecord] = []
        for fault in faults:
            record = fault.record()
            if self.fault_decides(history, record):
                return True
            history.append(record)
        return False

    def fault_decides(
        self, history: Sequence[FaultRecord], fault: FaultRecord
    ) -> bool:
        """Does ``fault`` make a device with the surviving ``history`` fail?

        The Fig. 11 uncorrectability rule, one arrival at a time: a device
        fails as soon as some fault decides it, so the Monte-Carlo kernel
        stops drawing there and :meth:`device_fails` folds it over a list.

        * Chip-correcting schemes (Chipkill, Synergy, IVEC) fail when two
          faults on different chips overlap spatio-temporally.
        * SECDED fails on any multi-bit fault, or on two single-bit faults
          active together in one word (distinct chips or bit positions).
        """
        chip = fault[0]
        if self.chip_correcting:
            for other in history:
                if other[0] != chip and records_overlap(other, fault):
                    return True
            return False
        if fault[7]:
            return True
        _chip, start, end, bank, row, column, bit = fault[:7]
        # A surviving SECDED history holds single-bit faults only.
        for other in history:
            if (
                other[3] == bank
                and other[4] == row
                and other[5] == column
                and (other[0] != chip or other[6] != bit)
                and max(other[1], start) <= min(other[2], end)
            ):
                return True
        return False


SECDED_SCHEME = ProtectionScheme("SECDED", chips=9, chip_correcting=False)
CHIPKILL_SCHEME = ProtectionScheme("Chipkill", chips=18, chip_correcting=True)
SYNERGY_SCHEME = ProtectionScheme("Synergy", chips=9, chip_correcting=True)
IVEC_SCHEME = ProtectionScheme("IVEC", chips=16, chip_correcting=True)

ALL_SCHEMES = [SECDED_SCHEME, CHIPKILL_SCHEME, SYNERGY_SCHEME, IVEC_SCHEME]

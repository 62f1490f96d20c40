"""FAULTSIM-style memory reliability simulation (Fig. 11, Table I).

* :mod:`repro.reliability.fitrates` — the Sridharan & Liberty field-study
  fault model (Table I): FIT rates per DRAM failure mode, transient and
  permanent.
* :mod:`repro.reliability.faults` — fault records with address-range
  footprints inside a chip, and the overlap test between faults.
* :mod:`repro.reliability.schemes` — the per-scheme uncorrectable-error
  rule (SECDED, Chipkill, Synergy, IVEC), one fault arrival at a time.
* :mod:`repro.reliability.montecarlo` — Monte-Carlo over device lifetimes
  in deterministic shards: numpy bins devices by fault count, and one
  kernel draws and judges the faults of multi-fault devices (the
  event-based reference it reproduces lives in ``tests/oracles.py``).
* :mod:`repro.reliability.analytical` — closed-form cross-checks and the
  SDC-rate arithmetic of Section IV-A.
"""

from repro.reliability.fitrates import FAULT_MODES, FaultMode, total_fit_per_chip
from repro.reliability.faults import FaultInstance, faults_overlap
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
    simulate_shard,
)
from repro.reliability.schemes import (
    CHIPKILL_SCHEME,
    IVEC_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
    ProtectionScheme,
)

__all__ = [
    "FAULT_MODES",
    "FaultMode",
    "total_fit_per_chip",
    "FaultInstance",
    "faults_overlap",
    "MonteCarloConfig",
    "simulate_failure_probability",
    "simulate_shard",
    "ProtectionScheme",
    "SECDED_SCHEME",
    "CHIPKILL_SCHEME",
    "SYNERGY_SCHEME",
    "IVEC_SCHEME",
]

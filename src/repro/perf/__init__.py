"""Performance measurement: microbenchmarks and profiling helpers.

This package exists so the perf tooling (``benchmarks/micro``,
``tools/profile_run.py``, ``tools/bench_snapshot.py``) shares one set of
deterministic hot-path workloads instead of each inventing its own.

The case roster covers every per-event simulator path. CI gates four of
them against the committed snapshot: ``scheduler_choose_indexed`` (the
indexed FR-FCFS chooser in isolation), ``trace_generate`` (vectorised
workload synthesis), ``miss_expansion`` (the secure engine's read-miss
expansion) and ``rob_advance`` (the batch-advance core model). Every case
times shipped code; the readable oracles that code is checked against
live in ``tests/oracles.py``.
"""

from repro.perf.microbench import CASES, MicroResult, run_all, run_case

__all__ = ["CASES", "MicroResult", "run_all", "run_case"]

"""Scoped simulation contexts: isolation, memo bounding, concurrency.

The contract under test (see ``repro.simcontext`` and DESIGN.md
"Execution contexts & the concurrency model"):

* code that never enters a context sees the shared process-default scope,
  whose lazily-bound stats/aggregate ARE the ``EXECUTION_STATS`` /
  ``TELEMETRY_AGGREGATE`` module globals (back-compat identity);
* a thread inside :func:`sim_context` sees its own registry stack, tracer,
  memos and stats — invisible to sibling threads and to the default scope;
* the cell-result memo is LRU-by-bytes bounded, with evictions counted
  into ``exec.memo_evictions``.
"""

import threading

from repro.parallel import EXECUTION_STATS, current_stats
from repro.simcontext import (
    BoundedBytesMemo,
    SimContext,
    activate,
    current_context,
    default_context,
    sim_context,
)
from repro.telemetry import TELEMETRY_AGGREGATE, current_aggregate, get_tracer
from repro.telemetry.registry import get_registry, scoped_registry


class TestBoundedBytesMemo:
    def test_round_trip_and_recency(self):
        memo = BoundedBytesMemo(max_bytes=1024)
        assert memo.get("missing") is None
        memo.put("a", "1" * 10)
        memo.put("b", "2" * 10)
        assert memo.get("a") == "1" * 10
        assert len(memo) == 2
        assert "a" in memo and "c" not in memo

    def test_eviction_is_lru_and_counted(self):
        # Each entry is len(key)+len(value) = 1 + 40 = 41 bytes; a budget
        # of 100 holds two entries, so the third put evicts the oldest.
        memo = BoundedBytesMemo(max_bytes=100)
        assert memo.put("a", "x" * 40) == 0
        assert memo.put("b", "y" * 40) == 0
        assert memo.put("c", "z" * 40) == 1
        assert memo.get("a") is None, "the least-recent entry must go first"
        assert memo.get("b") is not None
        assert memo.evictions == 1
        assert memo.used_bytes <= 100

    def test_get_refreshes_recency(self):
        memo = BoundedBytesMemo(max_bytes=100)
        memo.put("a", "x" * 40)
        memo.put("b", "y" * 40)
        assert memo.get("a") is not None  # a becomes most recent
        memo.put("c", "z" * 40)
        assert memo.get("b") is None, "b was least recent after the touch"
        assert memo.get("a") is not None

    def test_overwrite_same_key_does_not_leak_bytes(self):
        memo = BoundedBytesMemo(max_bytes=200)
        for _ in range(10):
            memo.put("k", "v" * 50)
        assert len(memo) == 1
        assert memo.used_bytes == 1 + 50

    def test_single_oversize_entry_is_not_stored(self):
        memo = BoundedBytesMemo(max_bytes=32)
        assert memo.put("huge", "x" * 1000) == 0
        assert len(memo) == 0
        assert memo.used_bytes == 0
        assert memo.evictions == 0

    def test_zero_budget_disables_the_memo(self):
        memo = BoundedBytesMemo(max_bytes=0)
        assert memo.put("k", "v") == 0
        assert memo.get("k") is None

    def test_clear_keeps_lifetime_evictions(self):
        memo = BoundedBytesMemo(max_bytes=100)
        memo.put("a", "x" * 40)
        memo.put("b", "y" * 40)
        memo.put("c", "z" * 40)
        assert memo.evictions == 1
        memo.clear()
        assert len(memo) == 0
        assert memo.used_bytes == 0
        assert memo.evictions == 1


class TestContextResolution:
    def test_default_context_is_current_outside_any_scope(self):
        assert current_context() is default_context()

    def test_sim_context_swaps_and_restores(self):
        outer = current_context()
        with sim_context(name="t") as inner:
            assert current_context() is inner
            assert inner is not outer
            with sim_context(name="nested") as nested:
                assert current_context() is nested
            assert current_context() is inner
        assert current_context() is outer

    def test_activate_reuses_a_long_lived_context(self):
        keeper = SimContext(name="slot")
        with activate(keeper):
            current_context().run_memo.put("warm", "entry")
        with activate(keeper):
            assert current_context().run_memo.get("warm") == "entry"
        assert default_context().run_memo.get("warm") is None

    def test_default_scope_stats_and_aggregate_are_the_module_globals(self):
        # Back-compat identity: entry points that reference the globals
        # directly (the CLI) and context-resolved code must see one object.
        assert current_stats() is EXECUTION_STATS
        assert current_aggregate() is TELEMETRY_AGGREGATE

    def test_scoped_stats_aggregate_tracer_are_private(self):
        default_tracer = get_tracer()
        with sim_context(name="scoped"):
            assert current_stats() is not EXECUTION_STATS
            assert current_aggregate() is not TELEMETRY_AGGREGATE
            assert get_tracer() is not default_tracer
            current_stats().record_cell("scoped", 0.0)
        assert current_stats() is EXECUTION_STATS

    def test_scoped_registry_stack_is_private(self):
        outer_registry = get_registry()
        with sim_context(name="scoped"):
            inner_registry = get_registry()
            assert inner_registry is not outer_registry
            with scoped_registry(enabled=True) as pushed:
                assert get_registry() is pushed
                pushed.counter("scoped.only").inc()
            assert get_registry() is inner_registry
        assert get_registry() is outer_registry
        assert "scoped.only" not in get_registry().snapshot()


class TestRunnerMemoScoping:
    def test_memo_put_counts_evictions_into_scoped_stats(self):
        from repro.analysis.sanitizer import sanitized
        from repro.sim.runner import CellStore

        baseline = EXECUTION_STATS.memo_evictions
        context = SimContext(name="tiny-memo")
        context.run_memo = BoundedBytesMemo(100)
        with sanitized(False), activate(context):
            store = CellStore(False)
            for key in ("a", "b", "c"):
                store.put(key, {"v": key * 35}, "", 0.0)
            assert context.run_memo.evictions == 1
            assert current_stats().memo_evictions == 1
            assert "memo_evictions" in current_stats().as_dict()
        assert EXECUTION_STATS.memo_evictions == baseline

    def test_generator_words_hint_is_scoped(self):
        from repro.workloads.generator import generate_trace
        from repro.workloads.profiles import profile_by_name

        profile = profile_by_name("mcf")
        default_hints = len(default_context().words_hint)
        with sim_context(name="hints"):
            generate_trace(profile, 2_000)
            scoped_hints = dict(current_context().words_hint)
        assert scoped_hints, "the exact-consumption hint must be recorded"
        assert len(default_context().words_hint) == default_hints


class TestThreadIsolation:
    def test_concurrent_scopes_do_not_share_state(self):
        """Two threads simulate-and-record inside their own scopes at once;
        neither sees the other's registry, memos, stats or hints."""
        barrier = threading.Barrier(2, timeout=30.0)
        results = {}
        errors = []

        def body(tag, rounds):
            try:
                with sim_context(name=tag) as context:
                    barrier.wait()  # both threads are inside a scope now
                    with scoped_registry(enabled=True) as registry:
                        counter = registry.counter("stress.%s" % tag)
                        for _ in range(rounds):
                            counter.inc()
                            current_context().run_memo.put(
                                "%s-%d" % (tag, counter.value), tag
                            )
                            current_stats().record_cell(tag, 0.0)
                        barrier.wait()  # both finished mutating
                        results[tag] = {
                            "count": registry.snapshot().value(
                                "stress.%s" % tag
                            ),
                            "memo_len": len(context.run_memo),
                            "cells": current_stats().cells_executed,
                            "names": sorted(
                                name
                                for name, _ in registry
                            ),
                        }
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=body, args=("alpha", 500)),
            threading.Thread(target=body, args=("beta", 700)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
        assert not errors, errors
        assert results["alpha"]["count"] == 500
        assert results["beta"]["count"] == 700
        assert results["alpha"]["memo_len"] == 500
        assert results["beta"]["memo_len"] == 700
        assert results["alpha"]["cells"] == 500
        assert results["beta"]["cells"] == 700
        # No registry saw the other scope's counter.
        assert results["alpha"]["names"] == ["stress.alpha"]
        assert results["beta"]["names"] == ["stress.beta"]
        # And nothing leaked into the process-default scope.
        assert "stress.alpha" not in get_registry().snapshot()
        assert default_context().run_memo.get("alpha-1") is None

def test_same_suite_in_two_scopes_yields_equal_telemetry():
    """The aggregate a simulation produces is a function of the spec, not
    of which scope (or thread interleaving) hosted it — the property the
    multi-worker service relies on for snapshot equality."""
    from repro.parallel import overridden
    from repro.secure.designs import SGX_O
    from repro.sim.config import SystemConfig
    from repro.sim.runner import run_suite

    tiny = SystemConfig(accesses_per_core=400)

    def run_once(tag):
        with sim_context(name=tag):
            with overridden(cache_enabled=False):
                run_suite([SGX_O], ["mcf"], tiny, jobs=1)
            return current_aggregate().as_dict()

    first = run_once("scope-one")
    second = run_once("scope-two")
    assert first == second
    assert first["groups"], "the run must have recorded telemetry"

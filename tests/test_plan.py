"""Whole-grid execution planner: dedup, LPT scheduling, byte-identity.

The contracts under test:

* the planner enumerates exactly the cells the figures will request and
  dedups the overlap (figs 8/9/10 share a grid, fig 12 re-requests it);
* a planned run assembles every figure **bit-identically** to a
  figure-at-a-time run, at any worker count;
* after a planned prefetch, assembling a planned figure executes *zero*
  cells — the drift guard that keeps ``CELL_SOURCES`` in lock-step with
  the figure functions;
* the persistent pool is reused across maps, grows by respawn, survives
  only in the process that spawned it, and shuts down idempotently;
* executed cells record their wall time in the fingerprint-free timing
  sidecar that feeds the cost model.
"""

import hashlib
import json

import pytest

from repro.analysis.sanitizer import configure_sanitizer, sanitizer_enabled
from repro.harness.experiments import EXPERIMENTS, UNSCALED, _workloads
from repro.harness.plan import (
    CELL_SOURCES,
    CellSpec,
    CostModel,
    estimate_cell_seconds,
    execute_cells,
    execute_plan,
    lpt_order,
    plan_experiments,
)
from repro.harness.scales import QUICK, Scale
from repro.parallel import (
    EXECUTION_STATS,
    ExecutionStats,
    RunCache,
    active_pool,
    cache_key,
    get_pool,
    overridden,
    parallel_map,
    runcache,
    shutdown_pool,
)
from repro.secure.designs import SGX, SGX_O, SYNERGY
from repro.sim.config import SystemConfig
from repro.sim.runner import cell_cost_key, clear_run_memos

#: The planner deliberately stands down under the invariant sanitizer
#: (sanitize runs must recompute every cell through the checked path), so
#: the tests that assert on a plan's *execution* skip in that mode.
requires_planner = pytest.mark.skipif(
    sanitizer_enabled(), reason="planner stands down under the sanitizer"
)

#: Small enough that three full planned/figure-at-a-time legs run in seconds.
TINY = Scale("planner-tiny", "smoke", 240, False, 20_000)
TINY_CONFIG = SystemConfig(accesses_per_core=240)

ALL_NAMES = sorted(EXPERIMENTS)


class TestPlanEnumeration:
    def test_quick_grid_dedup_counts(self):
        plan = plan_experiments(ALL_NAMES, QUICK)
        w = len(_workloads(QUICK))
        # 3w each for figs 6/8/9/10/16, 9w for fig12 (3 channel widths),
        # 4w each for figs 13/14/17 => 36w requested; the union is 10
        # distinct designs at 2 channels + 3 designs at 4 and 8 => 16w.
        assert plan.requested == 36 * w
        assert plan.unique == 16 * w
        assert plan.deduped == 20 * w

    def test_per_experiment_contributions(self):
        plan = plan_experiments(ALL_NAMES, QUICK)
        w = len(_workloads(QUICK))
        assert plan.per_experiment["fig8"] == 3 * w
        assert plan.per_experiment["fig12"] == 9 * w
        assert plan.per_experiment["fig17"] == 4 * w
        # Tables / ablations / the internally-sharded Monte-Carlo figure
        # contribute no grid cells.
        for name in sorted(UNSCALED) + ["fig11"]:
            assert plan.per_experiment[name] == 0

    def test_identical_figures_dedup_to_one_grid(self):
        plan = plan_experiments(["fig8", "fig9", "fig10"], QUICK)
        w = len(_workloads(QUICK))
        assert plan.requested == 9 * w
        assert plan.unique == 3 * w

    def test_first_request_order_is_preserved(self):
        plan = plan_experiments(["fig6", "fig8"], QUICK)
        labels = [cell.label for cell in plan.cells]
        assert labels == sorted(set(labels), key=labels.index)
        # fig6's cells (incl. NON_SECURE) come before fig8's novel ones.
        assert labels[0].startswith("SGX_O/")
        assert any(label.startswith("Synergy/") for label in labels[-3:])


class TestLptOrder:
    def _cells(self):
        return [
            CellSpec(design, workload, TINY_CONFIG)
            for design in (SGX_O, SGX, SYNERGY)
            for workload in ("mcf", "lbm")
        ]

    def test_orders_longest_first(self):
        cells = self._cells()
        costs = {cell.label: float(index) for index, cell in enumerate(cells)}
        ordered = lpt_order(cells, lambda cell: costs[cell.label])
        assert [costs[c.label] for c in ordered] == sorted(
            costs.values(), reverse=True
        )

    def test_ties_break_deterministically(self):
        cells = self._cells()
        flat = lpt_order(cells, lambda cell: 1.0)
        assert [c.label for c in flat] == sorted(c.label for c in cells)
        assert [c.label for c in lpt_order(reversed(cells), lambda c: 1.0)] == [
            c.label for c in flat
        ]

    def test_same_label_order_ignores_the_code_fingerprint(self, monkeypatch):
        # Fig. 12's channel variants share a label; their order must not
        # follow the fingerprinted cache key, which every code edit moves.
        cells = [
            CellSpec(SYNERGY, "mcf", TINY_CONFIG.with_channels(channels))
            for channels in (2, 4, 8)
        ]
        assert len({cell.label for cell in cells}) == 1

        def order():
            return [cell.cost_key() for cell in lpt_order(cells, lambda c: 1.0)]

        before = order()
        for fingerprint in ("edited-a", "edited-b", "edited-c"):
            monkeypatch.setattr(runcache, "code_fingerprint", lambda f=fingerprint: f)
            assert order() == before


class TestCostModel:
    def test_cold_cell_uses_scale_estimate(self):
        model = CostModel(None)
        cell = CellSpec(SGX_O, "mcf", TINY_CONFIG)
        assert model.estimate(cell) == estimate_cell_seconds(cell)
        bigger = CellSpec(
            SGX_O, "mcf", SystemConfig(accesses_per_core=2 * 240)
        )
        assert estimate_cell_seconds(bigger) == 2 * estimate_cell_seconds(cell)

    def test_recorded_timing_wins(self, tmp_path):
        cache = RunCache(str(tmp_path))
        cell = CellSpec(SGX_O, "mcf", TINY_CONFIG)
        cache.record_timing(cell.cost_key(), 7.25)
        assert CostModel(cache).estimate(cell) == 7.25

    def test_cost_key_matches_runner(self):
        cell = CellSpec(SGX_O, "mcf", TINY_CONFIG, seed=3)
        assert cell.cost_key() == cell_cost_key(
            SGX_O, "mcf", TINY_CONFIG, None, 3
        )


class TestRunCacheMetadata:
    def test_has_probe_is_silent(self, tmp_path):
        stats = ExecutionStats()
        cache = RunCache(str(tmp_path), stats=stats)
        key = cache_key("unit", value=2)
        assert not cache.has(key)
        cache.put(key, {"v": 1})
        assert cache.has(key)
        assert stats.cache_hits == 0 and stats.cache_misses == 0

    def test_timing_sidecar_survives_clear(self, tmp_path):
        cache = RunCache(str(tmp_path))
        key = cache_key("unit", value=3)
        cost = "f" * 64
        cache.put(key, {"v": 1})
        cache.record_timing(cost, 0.75)
        assert len(cache) == 1  # the sidecar is not an entry
        assert cache.clear() == 1
        assert cache.timing(cost) == 0.75
        assert cache.timing("0" * 64) is None


class TestExecutePlan:
    def test_sanitizer_stands_down(self):
        was_enabled = sanitizer_enabled()
        configure_sanitizer(True)
        try:
            plan = plan_experiments(["fig8"], TINY)
            summary = execute_plan(plan)
            assert summary["skipped"] == "sanitizer"
            assert summary["cells_pending"] == 0
        finally:
            configure_sanitizer(was_enabled)

    @requires_planner
    def test_execute_cells_dedups_adhoc_lists(self, tmp_path):
        clear_run_memos()
        cells = [
            CellSpec(design, workload, TINY_CONFIG)
            for design in (SGX_O, SGX_O, SYNERGY)
            for workload in ("mcf",)
        ]
        with overridden(cache_enabled=True, cache_dir=str(tmp_path), jobs=1):
            summary = execute_cells(cells)
            assert summary["cells_requested"] == 3
            assert summary["cells_unique"] == 2
            assert summary["cells_pending"] == 2
            # Everything is now warm: a re-run dispatches nothing.
            again = execute_cells(cells)
            assert again["cells_pending"] == 0


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def _assemble(scale):
    """Run every experiment exactly as the 'all' loop would; digest each."""
    digests = {}
    for name in ALL_NAMES:
        function = EXPERIMENTS[name]
        payload = (
            function(quiet=True)
            if name in UNSCALED
            else function(scale, quiet=True)
        )
        digests[name] = _digest(payload)
    return digests


@requires_planner
class TestPlannedLegacyEquivalence:
    """The acceptance gate: planned output == figure-at-a-time output."""

    @pytest.fixture(scope="class")
    def legs(self, tmp_path_factory):
        out = {}
        # Reference: figure at a time, serial, fresh memo + cache.
        clear_run_memos()
        with overridden(
            cache_enabled=True,
            cache_dir=str(tmp_path_factory.mktemp("figure")),
            jobs=1,
        ):
            out["figure"] = {"digests": _assemble(TINY)}
        for jobs in (1, 4):
            clear_run_memos()
            with overridden(
                cache_enabled=True,
                cache_dir=str(tmp_path_factory.mktemp("planned%d" % jobs)),
                jobs=jobs,
            ):
                plan = plan_experiments(ALL_NAMES, TINY)
                summary = execute_plan(plan)
                executed_during_assembly = {}
                digests = {}
                for name in ALL_NAMES:
                    function = EXPERIMENTS[name]
                    before = EXECUTION_STATS.cells_executed
                    payload = (
                        function(quiet=True)
                        if name in UNSCALED
                        else function(TINY, quiet=True)
                    )
                    digests[name] = _digest(payload)
                    executed_during_assembly[name] = (
                        EXECUTION_STATS.cells_executed - before
                    )
                out["planned%d" % jobs] = {
                    "digests": digests,
                    "summary": summary,
                    "executed": executed_during_assembly,
                }
        shutdown_pool()
        return out

    @pytest.mark.parametrize("leg", ["planned1", "planned4"])
    def test_every_figure_bit_identical(self, legs, leg):
        assert legs[leg]["digests"] == legs["figure"]["digests"]

    @pytest.mark.parametrize("leg", ["planned1", "planned4"])
    def test_prefetch_covers_the_whole_grid(self, legs, leg):
        summary = legs[leg]["summary"]
        assert summary["cells_pending"] == summary["cells_unique"]
        assert summary["cells_unique"] < summary["cells_requested"]

    @pytest.mark.parametrize("leg", ["planned1", "planned4"])
    def test_assembly_executes_zero_planned_cells(self, legs, leg):
        # Every figure with a CELL_SOURCES entry must assemble purely from
        # hits: a non-zero count means the registry drifted from the
        # figure's actual grid.
        executed = legs[leg]["executed"]
        for name in sorted(CELL_SOURCES):
            assert executed[name] == 0, name


def _identity(value):
    return value


class TestPersistentPool:
    def test_pool_reused_across_maps(self):
        shutdown_pool()
        stats = ExecutionStats()
        first = parallel_map(_identity, list(range(8)), jobs=2, stats=stats)
        pool = active_pool()
        second = parallel_map(_identity, list(range(8)), jobs=2, stats=stats)
        assert first == second == list(range(8))
        assert active_pool() is pool  # same warm pool, not a respawn
        assert stats.pool_spawns == 1
        assert stats.pool_maps == 2
        assert shutdown_pool() == 2
        assert active_pool() is None

    def test_grows_by_respawn_never_shrinks(self):
        shutdown_pool()
        stats = ExecutionStats()
        get_pool(2, stats=stats)
        grown = get_pool(3, stats=stats)
        assert grown.workers == 3
        assert stats.pool_spawns == 2
        assert get_pool(2, stats=stats) is grown  # larger pool reused as-is
        assert stats.pool_spawns == 2
        shutdown_pool()

    def test_serial_maps_never_spawn(self):
        shutdown_pool()
        parallel_map(_identity, [1, 2, 3], jobs=1, stats=ExecutionStats())
        assert active_pool() is None

    def test_stale_pid_handle_is_abandoned(self):
        shutdown_pool()
        stats = ExecutionStats()
        pool = get_pool(2, stats=stats)
        pool.pid -= 1  # simulate a handle inherited across fork
        assert active_pool() is None
        replacement = get_pool(2, stats=stats)
        assert replacement is not pool
        assert stats.pool_spawns == 2
        shutdown_pool()

    def test_shutdown_is_idempotent(self):
        shutdown_pool()
        get_pool(2, stats=ExecutionStats())
        assert shutdown_pool() == 2
        assert shutdown_pool() == 0

    def test_ephemeral_policy_bypasses_pool(self):
        shutdown_pool()
        with overridden(pool_policy="ephemeral"):
            result = parallel_map(
                _identity, list(range(6)), jobs=2, stats=ExecutionStats()
            )
        assert result == list(range(6))
        assert active_pool() is None

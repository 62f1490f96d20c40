"""Seeded inputs: same seed, same outputs; plain and traced batches agree.

These drive the real program with shrunken inputs (short traces, few
devices), so they take a few seconds.
"""

import pytest

from perfbench import layers, workloads
from perfbench.spans import Tracer


def small_cells(tmp_path, kind=workloads.CellsFused):
    workload = kind(str(tmp_path))
    workload.accesses_per_core = 300
    return workload


def small_ivec(tmp_path):
    return small_cells(tmp_path, workloads.CellsIvec)


def small_mc(tmp_path):
    workload = workloads.McFig11(str(tmp_path))
    workload.devices = 200_000
    return workload


@pytest.mark.parametrize("make", [small_cells, small_ivec, small_mc])
def test_same_seed_same_outputs_other_seed_different(make, tmp_path):
    workload = make(tmp_path)

    def outputs(seed):
        batch = workload.run_batch(workload.build(seed), None)
        assert workload.check(batch, None) == {}
        return batch.outputs

    first = outputs(3)
    assert outputs(3) == first
    assert outputs(4) != first


@pytest.mark.parametrize("make", [small_cells, small_ivec])
def test_traced_batch_matches_plain_and_accounts_for_its_wall(make, tmp_path):
    workload = make(tmp_path)
    inputs = workload.build(11)
    plain = workload.run_batch(inputs, None)
    traced = workload.run_batch(inputs, Tracer())
    assert traced.outputs == plain.outputs
    metrics = layers.layer_metrics([traced], [plain])
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER}
    assert metrics["dram.requests"] > 0 and metrics["secure.read_misses"] > 0
    for group in layers.CELL_GROUPS:
        assert (metrics[group + "_wall_s"] > 0) == (group == workload.group)
    assert layers.layer_sum(metrics) == pytest.approx(metrics["traced_wall_s"])
    assert metrics["unattributed_s"] < 0.05 * metrics["traced_wall_s"]
    # The wrappers are gone: a later plain batch is untraced and equal.
    assert workload.run_batch(inputs, None).outputs == plain.outputs


def test_traced_mc_batch_reports_per_scheme_metrics(tmp_path):
    workload = small_mc(tmp_path)
    inputs = workload.build(5)
    plain = workload.run_batch(inputs, None)
    traced = workload.run_batch(inputs, Tracer())
    assert traced.outputs == plain.outputs
    metrics = layers.layer_metrics([traced], [plain])
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER}
    for scheme, failures in plain.outputs.items():
        assert metrics["reliability.failures." + scheme] == failures
        assert metrics["reliability.devices_per_s." + scheme] > 0
    assert metrics["parallel.mc_shards_executed"] == 4 * 4  # 200k / 50k per scheme
    assert metrics["parallel.grid_cells_executed"] == 0
    # Both pool workers' peaks are read before the pool is joined.
    assert plain.children_peak_kib > 0
    assert layers.layer_sum(metrics) == pytest.approx(metrics["traced_wall_s"])

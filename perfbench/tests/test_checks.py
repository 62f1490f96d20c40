"""Output checks: a forced mismatch must show in failed/attempted."""

import json
import os

from perfbench import run, workloads
from perfbench.workloads import Batch, GridQuick, cell_invariants, check_outputs, mc_invariants

REFERENCE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "reference.json")


def grid_reference():
    with open(REFERENCE) as handle:
        return GridQuick("").reference(json.load(handle), seed=0)


def batch_of(outputs, errors=None):
    return Batch(wall_s=1.0, outputs=outputs, errors=errors or {}, task_s=[], work=1)


def test_committed_grid_reference_covers_every_experiment():
    from repro.harness.experiments import EXPERIMENTS

    assert sorted(grid_reference()) == sorted(EXPERIMENTS)


def test_forced_digest_mismatch_raises_error_rate():
    expected = grid_reference()
    good = batch_of(dict(expected))
    assert run.check_batches(GridQuick(""), [good], expected) == (len(expected), [])

    forced = dict(expected)
    forced["fig8"] = "0" * 64
    attempted, failures = run.check_batches(GridQuick(""), [batch_of(forced)], expected)
    assert attempted == len(expected)
    assert len(failures) == 1 and "fig8" in failures[0]


def test_exceptions_and_missing_references_count_as_failures():
    failures = check_outputs({"a": "x", "new": "y"}, {"b": "Boom()"}, {"a": "x", "b": "z"}, {})
    assert set(failures) == {"b", "new"}


def test_a_batch_differing_from_the_first_fails():
    workload = workloads.McFig11("")
    first = {"SECDED": 100, "Chipkill": 20, "Synergy": 5, "IVEC": 10}
    second = dict(first, IVEC=11)
    batches = [batch_of(first), batch_of(second)]
    attempted, failures = run.check_batches(workload, batches, None)
    assert attempted == 8
    assert failures == ["batch 1 IVEC: differs from the run's first batch"]


def test_mc_invariants_hold_fig11_ordering():
    assert mc_invariants({"SECDED": 100, "Chipkill": 20, "Synergy": 5, "IVEC": 10}) == {}
    broken = mc_invariants({"SECDED": 100, "Chipkill": 4, "Synergy": 5, "IVEC": 10})
    assert set(broken) == {"Synergy"}


def test_cell_invariants_flag_wrong_traffic_and_ipc_order():
    def record(ipc, traffic):
        return {"ipc": ipc, "cpu_cycles": 10.0, "traffic": traffic}

    data = {"data_read": 10, "data_write": 2}
    secure = dict(data, counter_read=3, mac_read=10)
    records = {
        "NonSecure/mcf": record(2.0, data),
        "Synergy/mcf": record(1.5, dict(data, counter_read=3)),
        "SGX_O/mcf": record(1.0, secure),
    }
    assert cell_invariants(records) == {}
    records["NonSecure/mcf"] = record(2.0, secure)
    records["SGX_O/mcf"] = record(1.8, secure)
    failures = cell_invariants(records)
    assert set(failures) == {"NonSecure/mcf", "Synergy/mcf"}

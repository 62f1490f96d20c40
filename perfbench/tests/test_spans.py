"""Span self time, the unattributed remainder and the layer wrappers."""

import types

import pytest

from perfbench import layers
from perfbench.spans import Patches, Tracer, span
from perfbench.workloads import Batch


class FakeClock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def plain_batch(wall_s, loop_s=0.0):
    return Batch(wall_s=wall_s, outputs={}, errors={}, task_s=[], work=1, loop_s=loop_s)


def nested_tracer():
    # root [0, 10] > A [1, 4] > B [2, 3];  root > C [5, 9]
    tracer = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 9, 10]))
    tracer.begin(layers.ROOT, keep=True)
    tracer.begin("a.x")
    tracer.begin("b.x", keep=True)
    tracer.end()
    tracer.end()
    tracer.begin("c.x")
    tracer.end()
    tracer.end()
    return tracer


def test_self_time_subtracts_only_direct_children():
    tracer = nested_tracer()
    assert tracer.total_s == {layers.ROOT: 10, "a.x": 3, "b.x": 1, "c.x": 4}
    assert tracer.self_s == {layers.ROOT: 3, "a.x": 2, "b.x": 1, "c.x": 4}
    assert tracer.calls == {layers.ROOT: 1, "a.x": 1, "b.x": 1, "c.x": 1}


def test_self_times_plus_unattributed_equal_the_root_duration():
    tracer = nested_tracer()
    unattributed = tracer.self_s[layers.ROOT]
    layer_self = sum(v for k, v in tracer.self_s.items() if k != layers.ROOT)
    assert unattributed == 3
    assert layer_self + unattributed == tracer.total_s[layers.ROOT]


def test_only_kept_spans_are_recorded_with_their_parent():
    tracer = nested_tracer()
    assert tracer.spans == [("b.x", 2, 3, "a.x"), (layers.ROOT, 0, 10, None)]


def test_span_context_is_a_no_op_without_tracer():
    with span(None, "anything"):
        pass
    tracer = Tracer(clock=FakeClock([0, 2]))
    with span(tracer, "x"):
        pass
    assert tracer.total_s == {"x": 2}


class Base:
    def inherited(self):
        return "base"


class Child(Base):
    __slots__ = ()

    def own(self, value):
        return value * 2


def test_patches_wrap_classes_and_modules_and_restore_exactly():
    module = types.ModuleType("fake")
    module.double = lambda value: value * 2
    original_double = module.double
    original_own = Child.__dict__["own"]
    tracer = Tracer()
    seen = []
    with Patches() as patches:
        patches.wrap(tracer, Child, "own", "c.own", on_return=lambda r, a: seen.append(r))
        patches.wrap(tracer, Child, "inherited", "c.inherited")
        patches.wrap(tracer, module, "double", "m.double")
        # Instances built after installation (slots and all) go through
        # the wrappers.
        assert Child().own(3) == 6
        assert Child().inherited() == "base"
        assert module.double(4) == 8
    assert tracer.calls == {"c.own": 1, "c.inherited": 1, "m.double": 1}
    assert seen == [6]
    assert Child.__dict__["own"] is original_own
    assert "inherited" not in Child.__dict__
    assert module.double is original_double


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer()
    with Patches() as patches:
        patches.wrap(tracer, Child, "own", "c.own")
        with pytest.raises(TypeError):
            Child().own(None)
    assert tracer.calls == {"c.own": 1}
    assert not tracer._stack


def test_layer_metrics_report_unattributed_sum_and_overhead():
    batch = Batch(
        wall_s=10.0, outputs={}, errors={}, task_s=[], work=1,
        tracer=nested_tracer(),
    )
    metrics = layers.layer_metrics([batch], [plain_batch(8.0)])
    assert set(metrics) == {name for name, _unit in layers.PER_LAYER}
    assert metrics["traced_wall_s"] == 10
    assert metrics["plain_wall_s"] == 8
    assert metrics["unattributed_s"] == 3
    assert metrics["trace_overhead_frac"] == pytest.approx(0.25)


def test_trace_overhead_is_measured_in_probe_loops_when_probed():
    # The host ran 1.5x slower during the traced batch: 5000 probe loops
    # against the plain batch's 4000 is 25% overhead, not the raw 87.5%.
    traced = Batch(
        wall_s=7.5, outputs={}, errors={}, task_s=[], work=1,
        tracer=nested_tracer(), loop_s=0.0015,
    )
    metrics = layers.layer_metrics([traced], [plain_batch(4.0, loop_s=0.001)])
    assert metrics["trace_overhead_frac"] == pytest.approx(0.25)
    assert metrics["host.loop_us"] == pytest.approx(1000.0)


def test_layer_sum_equals_traced_wall_for_named_layers():
    clock = FakeClock([0, 1, 3, 4, 7, 8, 9, 10])
    tracer = Tracer(clock=clock)
    tracer.begin(layers.ROOT)
    tracer.begin("sim.package")  # 1..9
    tracer.begin("dram.process")  # 3..4
    tracer.end()
    tracer.begin("cpu.rob_advance")  # 7..8
    tracer.end()
    tracer.end()
    tracer.end()
    batch = Batch(wall_s=10.0, outputs={}, errors={}, task_s=[], work=1, tracer=tracer)
    metrics = layers.layer_metrics([batch], [plain_batch(10.0)])
    assert metrics["sim.package_s"] == 6
    assert metrics["dram.process_s"] == 1
    assert metrics["cpu.rob_advance_s"] == 1
    assert metrics["unattributed_s"] == 2
    assert layers.layer_sum(metrics) == metrics["traced_wall_s"] == 10


def test_parent_wrappers_split_figures_by_layer_and_restore():
    from repro.harness import experiments, plan

    originals = (experiments.run_experiment, plan.plan_experiments, plan.execute_plan)
    tracer = Tracer()
    patches = layers.install_parent(tracer)
    try:
        experiments.run_experiment("table1", scale="quick", quiet=True)
        assert tracer.calls == {"harness.nongrid": 1}
    finally:
        patches.restore()
    assert (experiments.run_experiment, plan.plan_experiments, plan.execute_plan) == originals
    assert tracer.spans[0][0] == "harness.nongrid"

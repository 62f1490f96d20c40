"""Tests for refresh (tREFI/tRFC) and activation-window (tFAW) modelling.

Each behaviour is pinned twice: on the per-request reference channel
(``ReferenceChannel.plan``/``commit`` in ``tests/oracles.py``) and through
the shipped controller (``enqueue_batch`` + ``process``), whose fused
decision step inlines the same arithmetic.
"""

import random
from dataclasses import replace

from repro.dram.controller import MemoryController, RequestKind
from repro.dram.timing import DramTiming, MemoryConfig

from oracles import ReferenceChannel, enqueue

_READ = RequestKind.READ


def _schedule(config, specs):
    """Enqueue ``(line, arrival)`` reads as one batch; return completions."""
    controller = MemoryController(config)
    requests = controller.enqueue_batch(
        [(_READ, line, arrival, "data", 0) for line, arrival in specs]
    )
    controller.process()
    return [request.completion for request in requests]


def _bank_line(flat_bank, row=0, column=0):
    """Line on channel 0 of the default geometry (channel bit 0, column
    bits 1-7, flat bank bits 8-11, row above)."""
    return (row << 12) | (flat_bank << 8) | (column << 1)


class TestRefresh:
    def test_start_pushed_out_of_blackout(self):
        config = MemoryConfig()
        channel = ReferenceChannel(config)
        timing = config.timing
        # A request landing inside the first blackout window is delayed.
        start, _data, _done = channel.plan(0, 0, 5, False, 10)
        assert start >= timing.t_rfc

    def test_no_delay_outside_blackout(self):
        config = MemoryConfig()
        channel = ReferenceChannel(config)
        timing = config.timing
        now = timing.t_rfc + 100
        start, _data, _done = channel.plan(0, 0, 5, False, now)
        assert start == now

    def test_disabled_refresh(self):
        config = replace(MemoryConfig(), model_refresh=False)
        channel = ReferenceChannel(config)
        start, _data, _done = channel.plan(0, 0, 5, False, 10)
        assert start == 10

    def test_refresh_stall_accounting(self):
        config = MemoryConfig()
        channel = ReferenceChannel(config)
        channel.plan(0, 0, 5, False, 0)
        assert channel.refresh_stall_cycles > 0

    def test_refresh_costs_throughput(self):
        def run(model_refresh):
            config = replace(MemoryConfig(channels=1), model_refresh=model_refresh)
            controller = MemoryController(config)
            rng = random.Random(1)
            for t in range(3000):
                enqueue(controller, _READ, rng.randrange(1 << 20), t * 2)
            controller.process()
            return controller.last_completion

        assert run(True) > run(False)

    def test_controller_waits_out_first_blackout(self):
        config = MemoryConfig()
        timing = config.timing
        (done,) = _schedule(config, [(_bank_line(0), 10)])
        assert done == timing.t_rfc + timing.row_closed_read + timing.t_burst

    def test_controller_unaffected_outside_blackout(self):
        config = MemoryConfig()
        timing = config.timing
        now = timing.t_rfc + 100
        (done,) = _schedule(config, [(_bank_line(0), now)])
        assert done == now + timing.row_closed_read + timing.t_burst


class TestFaw:
    def make_channel(self):
        # Exaggerated window to make the constraint visible.
        timing = DramTiming(t_faw=200, t_rrd=2)
        config = replace(MemoryConfig(), timing=timing, model_refresh=False)
        return ReferenceChannel(config), timing

    def test_fifth_activate_delayed(self):
        channel, timing = self.make_channel()
        starts = []
        for bank in range(5):
            plan = channel.plan(0, bank, 1, False, 0)
            channel.commit(0, bank, 1, False, plan)
            starts.append(plan[0])
        # The 5th activate must wait for the 1st + tFAW.
        assert starts[4] >= starts[0] + timing.t_faw

    def test_row_hits_unconstrained(self):
        channel, timing = self.make_channel()
        plan = channel.plan(0, 0, 1, False, 0)
        channel.commit(0, 0, 1, False, plan)
        # Subsequent row hits need no ACT: tFAW/tRRD do not apply.
        hit_plan = channel.plan(0, 0, 1, False, plan[2])
        assert hit_plan[0] <= plan[2] + timing.t_ccd + 1

    def test_other_rank_independent(self):
        channel, timing = self.make_channel()
        for bank in range(4):
            plan = channel.plan(0, bank, 1, False, 0)
            channel.commit(0, bank, 1, False, plan)
        other_rank = channel.plan(1, 0, 1, False, 0)
        assert other_rank[0] < timing.t_faw

    def test_trrd_spacing(self):
        channel, timing = self.make_channel()
        first = channel.plan(0, 0, 1, False, 0)
        channel.commit(0, 0, 1, False, first)
        second = channel.plan(0, 1, 1, False, 0)
        assert second[0] >= first[0] + timing.t_rrd

    def test_controller_fifth_activate_waits_faw(self):
        channel, timing = self.make_channel()
        done = _schedule(
            channel.config, [(_bank_line(bank), 0) for bank in range(5)]
        )
        # Same latency class for all five, so completions are starts
        # shifted by one constant: the 5th ACT waits for the 1st + tFAW.
        assert done[4] >= done[0] + timing.t_faw
        assert done[3] < done[0] + timing.t_faw

    def test_controller_row_hits_not_faw_limited(self):
        channel, timing = self.make_channel()
        opened = [(_bank_line(bank), 0) for bank in range(4)]
        hits = [(_bank_line(0, column=column), 100) for column in range(1, 5)]
        fifth_activate = [(_bank_line(4), 100)]
        done = _schedule(channel.config, opened + hits + fifth_activate)
        # The 4 row hits to bank 0 finish while the 5th ACT still waits.
        assert max(done[4:8]) < timing.t_faw
        assert done[8] >= done[0] + timing.t_faw

    def test_disabled_faw(self):
        config = replace(
            MemoryConfig(),
            timing=DramTiming(t_faw=500),
            model_refresh=False,
            model_faw=False,
        )
        channel = ReferenceChannel(config)
        starts = []
        for bank in range(5):
            plan = channel.plan(0, bank, 1, False, 0)
            channel.commit(0, bank, 1, False, plan)
            starts.append(plan[0])
        assert starts[4] < 500

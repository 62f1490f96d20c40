"""The host probe: harmonic-mean loop time over a batch's window."""

import os

import pytest

from perfbench.hostprobe import HostProbe, benchmark_cpus


def write_samples(probe, per_cpu):
    for path, lines in zip(probe.paths, per_cpu):
        with open(path, "w") as handle:
            handle.writelines("%f %f\n" % sample for sample in lines)


def test_loop_time_is_the_harmonic_mean_over_the_window_on_every_cpu(tmp_path):
    probe = HostProbe(str(tmp_path), [0, 1])
    write_samples(
        probe,
        [
            [(0.5, 9.0), (1.0, 1.0), (2.0, 2.0)],
            [(1.5, 4.0), (3.5, 9.0), (4.0, 1.0)],  # last line cut short below
        ],
    )
    with open(probe.paths[1], "a") as handle:
        handle.write("4.5")
    loop_s, count = probe.loop_s(1.0, 3.0)
    assert count == 3
    assert loop_s == pytest.approx(3 / (1 / 1.0 + 1 / 2.0 + 1 / 4.0))


def test_window_without_samples_takes_the_closest_one(tmp_path):
    probe = HostProbe(str(tmp_path), [0])
    write_samples(probe, [[(1.0, 3.0), (10.0, 5.0)]])
    assert probe.loop_s(8.0, 9.0) == (5.0, 1)


def test_probes_start_and_stop_with_the_context(tmp_path):
    cpus = benchmark_cpus(1)
    with HostProbe(str(tmp_path), cpus) as probe:
        probe.wait_for_samples()
        processes = list(probe.processes)
        assert probe.samples()
    assert all(process.poll() is not None for process in processes)
    assert len(cpus) == 1 and cpus[0] in os.sched_getaffinity(0)

"""Host-speed probe: a fixed loop timed on each benchmark CPU during a run.

The benchmark's CPUs are vCPUs of a shared host. Their speed changes by up
to 1.5x in phases of seconds to minutes, and each vCPU changes on its own,
so a batch's wall time says as much about the host as about the program.
One probe process per CPU, pinned to it, times a fixed pure-Python loop
(:data:`LOOPS` iterations, well under a millisecond) every
:data:`PERIOD_S` seconds with its own thread CPU time, and appends
``<monotonic time> <loop seconds>`` lines to a file. A time measured on
those CPUs, divided by the harmonic mean of the loop times taken while it
ran and multiplied by :data:`LOOP_REF_S`, is that time in *reference
seconds*: seconds on a host whose probe loop takes :data:`LOOP_REF_S`. A
host slowdown lengthens both and cancels; a faster program shortens only
the measured time.

Run as a script by :class:`HostProbe`; it exits when its parent does.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Optional, Sequence, Tuple

#: Seconds between two timings of the loop on one CPU.
PERIOD_S = 0.05

#: Iterations of the timed loop (about 0.6 ms on a 2.x GHz Xeon vCPU), so a
#: probe takes about 1% of its CPU.
LOOPS = 3000

#: The loop's time on the 2-vCPU Xeon host this benchmark was built on,
#: at its usual speed (measured 600-900 us). A fixed scale, not a
#: calibration: it only turns probe-loop lengths into readable seconds.
LOOP_REF_S = 700e-6

#: A probe left behind by a parent that could not stop it ends by itself.
MAX_LIFETIME_S = 900.0


def probe_loop() -> int:
    """The timed work: interpreter-bound integer and dict operations, like
    the simulator's inner loops."""
    table = {}
    total = 0
    for i in range(LOOPS):
        table[i & 63] = total
        total += (i * 7) % 13 + table.get(i & 31, 0) % 5
    return total


def probe_main(path: str, cpu: int, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    ends = time.monotonic() + MAX_LIFETIME_S
    due = time.monotonic()
    with open(path, "w", buffering=1) as out:
        while os.getppid() == parent and time.monotonic() < ends:
            started = time.thread_time()
            probe_loop()
            loop_s = time.thread_time() - started
            out.write("%.6f %.9f\n" % (time.monotonic(), loop_s))
            due += PERIOD_S
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            else:
                due = time.monotonic()


def benchmark_cpus(jobs: int) -> List[int]:
    """The first ``jobs`` CPUs this process may run on."""
    return sorted(os.sched_getaffinity(0))[: max(1, jobs)]


class HostProbe:
    """One probe process per CPU in ``cpus``, writing under ``work_dir``.

    Use as a context manager: the probes are stopped and waited for on
    every way out.
    """

    def __init__(self, work_dir: str, cpus: Sequence[int]):
        self.paths = [os.path.join(work_dir, "probe-cpu%d.txt" % cpu) for cpu in cpus]
        self.cpus = list(cpus)
        self.processes: List[subprocess.Popen] = []

    def __enter__(self) -> "HostProbe":
        try:
            for cpu, path in zip(self.cpus, self.paths):
                self.processes.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            os.path.abspath(__file__),
                            path,
                            str(cpu),
                            str(os.getpid()),
                        ]
                    )
                )
        except BaseException:
            self.close()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        for process in self.processes:
            process.wait()
        self.processes = []

    def samples(self, cpu: Optional[int] = None) -> List[Tuple[float, float]]:
        """Every ``(monotonic time, loop seconds)`` written so far, on
        ``cpu`` or on every probe CPU."""
        found = []
        for probe_cpu, path in zip(self.cpus, self.paths):
            if cpu is not None and probe_cpu != cpu:
                continue
            try:
                with open(path) as handle:
                    for line in handle:
                        fields = line.split()
                        if len(fields) == 2:  # the last line may be partial
                            found.append((float(fields[0]), float(fields[1])))
            except FileNotFoundError:
                pass  # that probe has not started writing yet
        return found

    def wait_for_samples(self, timeout: float = 30.0) -> None:
        """Block until every probe has written at least one sample."""
        ends = time.monotonic() + timeout
        while True:
            seen = {path for path in self.paths if os.path.exists(path) and os.path.getsize(path)}
            if len(seen) == len(self.paths):
                return
            if time.monotonic() > ends or any(p.poll() is not None for p in self.processes):
                raise RuntimeError("host probe did not start")
            time.sleep(PERIOD_S)

    def loop_s(self, start: float, end: float, cpu: Optional[int] = None) -> Tuple[float, int]:
        """Harmonic mean of the loop times taken in ``[start, end]`` on
        ``cpu`` (default: every probe CPU), and their count.

        Harmonic, because a batch's progress is proportional to host speed,
        the reciprocal of the loop time; its mean over the batch is the
        mean of the reciprocals. A window with no sample takes the sample
        closest to it.
        """
        found = self.samples(cpu)
        inside = [loop for stamp, loop in found if start <= stamp <= end]
        if not inside:
            inside = [min(found, key=lambda s: min(abs(s[0] - start), abs(s[0] - end)))[1]]
        return statistics.harmonic_mean(inside), len(inside)

    def reference_s(self, seconds: float, start: float, cpu: Optional[int] = None) -> float:
        """``seconds`` measured from ``start`` (on ``cpu``), in reference
        seconds."""
        return seconds * LOOP_REF_S / self.loop_s(start, start + seconds, cpu)[0]


if __name__ == "__main__":
    probe_main(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))

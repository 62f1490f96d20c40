#!/usr/bin/env python3
"""Run one benchmark workload, check its outputs and print its metrics.

    python3 perfbench/run.py --workload cells-fused --seed 3 --seconds 10 --trace 0

Run from the root of a checkout (the program is imported from ``src/``).
Batches of the workload's operations run until ``--seconds`` have passed
(at least one batch). Every operation's output is checked against the
committed reference (``perfbench/reference.json``) when the seed has one,
against seed-independent invariants always, and against the run's first
batch. The process and its pool workers run on the first ``jobs`` CPUs,
each watched by a host probe (:mod:`perfbench.hostprobe`), and the
end-to-end times are reported in the probe's reference seconds.
``--trace 1`` alternates plain and traced batches and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The lines before it print every metric with its sample count, the host
block, and each failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(ROOT_DIR, "src")
REFERENCE_PATH = os.path.join(ROOT_DIR, "perfbench", "reference.json")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: End-to-end metrics: (name, unit). Times are in reference seconds
#: (``hostprobe``), which a change of host speed does not move.
END_TO_END = [
    ("wall_ref_s", "s"),
    ("work_per_ref_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]

#: Printed with the end-to-end metrics but not on the result line: the raw
#: times and work rate, which follow the host's speed, the host probe's
#: loop time, and the median task, whose run-to-run spread on the cells
#: workloads exceeds any allowed bound.
PRINTED_ONLY = [
    ("wall_s", "s"),
    ("work_per_s", "1/s"),
    ("setup_raw_s", "s"),
    ("host.loop_us", "us"),
    ("task_s", "s"),
]


def prepare_imports() -> None:
    """Import the program from this checkout's ``src``, with no env knobs."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: %s/repro not found; run from the root of a full checkout"
            % SRC_DIR
        )
    # REPRO_JOBS / REPRO_CACHE* / REPRO_SCALE would silently change what
    # a batch does; every workload sets its own policy explicitly.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, SRC_DIR)


def setup_probe(workload_name: str, seed: int) -> str:
    """Import the program and build the inputs in this (fresh) process;
    ``"<monotonic start> <seconds>"``."""
    from perfbench.workloads import WORKLOADS

    started = time.monotonic()  # the host probe's clock
    WORKLOADS[workload_name](work_dir="").build(seed)
    return "%.6f %.9f" % (started, time.monotonic() - started)


def measure_setup(workload_name: str, seed: int, probe, cpu: int) -> list:
    """``(seconds, reference seconds)`` of each set-up probe, run on ``cpu``."""
    command = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        workload_name,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        stamp, seconds = map(float, done.stdout.split())
        samples.append((seconds, probe.reference_s(seconds, stamp, cpu)))
    return samples


def host_block(jobs: int, cpus) -> dict:
    import numpy

    from repro.parallel import code_fingerprint

    return {
        "cpu_count": os.cpu_count(),
        "cpus": list(cpus),
        "jobs": jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "code_fingerprint": code_fingerprint(),
        "platform": platform.platform(),
    }


def peak_rss_mib(batch) -> float:
    """Peak resident set of this process plus the batch's pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return (own + batch.children_peak_kib) / 1024.0


def run_batches(workload, inputs, seconds: float, trace: bool, probe):
    """Plain batches until ``seconds`` pass; with ``trace``, alternate
    plain and traced batches, at least one of each. Each batch gets the
    host probe's loop time over its span.

    Returns ``(plain, traced, peak_rss_mib)``. The peak is read after the
    first batch: the allocator keeps some of each batch's memory, so a
    later read would depend on how many batches fit in ``seconds``.
    """
    from perfbench.spans import Tracer

    def probed(tracer):
        start = time.monotonic()
        batch = workload.run_batch(inputs, tracer)
        batch.loop_s, batch.loop_n = probe.loop_s(start, time.monotonic())
        return batch

    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    plain.append(probed(None))
    rss = peak_rss_mib(plain[0])
    while time.perf_counter() < deadline or (trace and len(traced) < len(plain)):
        if trace and len(traced) < len(plain):
            traced.append(probed(Tracer()))
        else:
            plain.append(probed(None))
    return plain, traced, rss


def check_batches(workload, batches, expected):
    """(attempted, failures): every operation of every batch, checked
    against the reference and invariants and against the first batch."""
    attempted = 0
    failures = []
    first = batches[0].outputs
    for index, batch in enumerate(batches):
        problems = workload.check(batch, expected)
        for name, output in batch.outputs.items():
            if name not in problems and output != first.get(name):
                problems[name] = "differs from the run's first batch"
        attempted += len(set(batch.outputs) | set(batch.errors) | set(problems))
        failures += ["batch %d %s: %s" % (index, n, r) for n, r in sorted(problems.items())]
    return attempted, failures


def end_to_end_metrics(plain, setup, rss) -> dict:
    from perfbench.summary import timing_summary

    # A batch whose every operation failed has no tasks; it reads 0 here
    # and is counted in ``failed``.
    tasks = [s for batch in plain for s in batch.task_s] or [0.0]
    return {
        "wall_ref_s": timing_summary([b.wall_ref_s for b in plain]),
        "work_per_ref_s": timing_summary([b.work / b.wall_ref_s for b in plain]),
        "setup_s": timing_summary([ref for _raw, ref in setup]),
        "peak_rss_mib": {"n": 1, "p50": rss},
        "wall_s": timing_summary([b.wall_s for b in plain]),
        "work_per_s": timing_summary([b.work / b.wall_s for b in plain]),
        "setup_raw_s": timing_summary([raw for raw, _ref in setup]),
        "host.loop_us": {
            "n": sum(b.loop_n for b in plain),
            "p50": 1e6 * statistics.median(b.loop_s for b in plain),
        },
        "task_s": timing_summary(tasks),
    }


def print_spans(spans) -> None:
    """The kept spans of one traced batch, as (name, start, end, parent),
    times relative to the batch start, in the order they closed."""
    origin = min(start for _name, start, _end, _parent in spans)
    print("spans of the first traced batch: name start_s end_s parent")
    for name, start, end, parent in spans:
        print(
            "span %-24s %10.6f %10.6f %s"
            % (name, start - origin, end - origin, parent or "-")
        )


def main(argv=None) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    prepare_imports()
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0

    from perfbench import layers
    from perfbench.hostprobe import HostProbe, benchmark_cpus

    with open(REFERENCE_PATH) as handle:
        reference = json.load(handle)
    work_dir = os.path.join(ROOT_DIR, ".perfbench_work", "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](work_dir)
        # Pool workers inherit the CPU set; set-up probes run on its first.
        cpus = benchmark_cpus(workload.jobs)
        os.sched_setaffinity(0, cpus)
        with HostProbe(work_dir, cpus) as probe:
            probe.wait_for_samples()
            setup = measure_setup(args.workload, args.seed, probe, cpus[0])
            inputs = workload.build(args.seed)
            host = host_block(workload.jobs, cpus)
            expected = workload.reference(reference, args.seed)
            plain, traced, rss = run_batches(
                workload, inputs, args.seconds, bool(args.trace), probe
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run is still using it

    attempted, failures = check_batches(workload, plain + traced, expected)
    tables = [(end_to_end_metrics(plain, setup, rss), dict(END_TO_END + PRINTED_ONLY))]
    if args.trace:
        per_layer = layers.layer_metrics(traced, plain)
        summaries = {name: {"n": len(traced), "p50": v} for name, v in per_layer.items()}
        tables.append((summaries, dict(layers.PER_LAYER)))

    print(
        "workload %s, seed %d: %d plain batch(es), %d traced; reference %s"
        % (
            args.workload,
            args.seed,
            len(plain),
            len(traced),
            "checked" if expected is not None else "absent for this seed (invariants only)",
        )
    )
    print("host " + json.dumps(host, sort_keys=True))
    for summaries, units in tables:
        for name, summary in summaries.items():
            extra = " ".join(
                "%s=%.6g" % (key, value)
                for key, value in summary.items()
                if key not in ("n", "p50")
            )
            print(
                "%-36s %14.6g %-6s n=%d %s"
                % (name, summary["p50"], units[name], summary["n"], extra)
            )
    if args.trace:
        print_spans(traced[0].tracer.spans)
        print(
            "layer self times + unattributed_s = %.6f s of traced_wall_s %.6f s"
            % (layers.layer_sum(per_layer), per_layer["traced_wall_s"])
        )
    print("error_rate %d/%d" % (len(failures), attempted))
    for line in failures[:50]:
        print("FAILED " + line)
    # The result line carries the end-to-end metrics, or with --trace 1
    # the per-layer ones.
    summaries, units = tables[-1]
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": {
                    name: {"value": float(summary["p50"]), "unit": units[name]}
                    for name, summary in summaries.items()
                    if args.trace or name in dict(END_TO_END)
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT_DIR)  # for the perfbench package itself
    sys.exit(main())

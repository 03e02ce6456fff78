"""End-to-end and per-layer benchmark: cold tuning and steady-state serving.

    python3 benchmarks/e2e/run.py --workload tune_complex --seed 7
    python3 benchmarks/e2e/run.py --workload serve_repeat --trace 1
    python3 benchmarks/e2e/run.py --smoke
    python3 benchmarks/e2e/run.py --check-repeat

(``python -m benchmarks.e2e.run`` is the same program.)  One run builds
the workload's inputs, measures repetitions for about ``--seconds``
seconds, checks the program's outputs, and prints every metric by name
with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The names, units and bounds are fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import layers  # noqa: E402
from benchmarks.e2e.trace import SpanTable, Tracer, installed  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    SMOKE_WORKLOADS,
    WORKLOADS,
)

#: the statements every run measures (see README.md, "The seed")
RECORDED_RAGS_SEED = 7
#: fewest repetitions of an untraced run: ``setup_s`` is the median and
#: every other timing the best of at least this many
MIN_REPS = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


class Outcome:
    """Repetitions of one workload, reduced to metrics."""

    def __init__(self) -> None:
        self.reps = []
        self.plain = []  # the repetitions measured without tracing
        self.setup_s = []
        self.mismatches = 0
        self.layer_rows = []  # layers.measure() of each traced repetition
        self.reference_wall = 0.0
        self.peak_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return sum(rep.attempted for rep in self.reps)

    @property
    def failed(self) -> int:
        return sum(rep.failed for rep in self.reps) + self.mismatches

    def end_to_end(self) -> dict:
        """The end-to-end metrics of the untraced repetitions.

        Every repetition runs the same statements from the same state
        and the host only ever slows work down (README.md, "Noise"), so
        each timing is that of the repetition that did best on it: a
        whole pass, or percentiles over all the requests of one
        repetition.  ``setup_s`` stays a median.
        """
        reps, first = self.plain, self.plain[0]
        return {
            "setup_s": statistics.median(self.setup_s),
            "tune_wall_s": min(rep.tune_s for rep in reps),
            "serve_query_ms_p50": min(
                float(np.percentile(rep.query_ms, 50)) for rep in reps
            ),
            "serve_query_ms_p99": min(
                float(np.percentile(rep.query_ms, 99)) for rep in reps
            ),
            "serve_rps": max(rep.statements / rep.serve_s for rep in reps),
            "stats_creation_cost": first.stats_creation_cost,
            "retained_update_cost": first.retained_update_cost,
            "workload_exec_cost": first.workload_exec_cost,
            "peak_rss_mb": self.peak_rss_mb,
        }

    def dml_ms_p50(self) -> float:
        """Median DML request latency of the untraced repetition that did
        best on it; 0 where the workload sends no DML."""
        if not self.plain[0].dml_ms:
            return 0.0
        return min(float(np.percentile(rep.dml_ms, 50)) for rep in self.plain)


def _counts_agree(rep, first) -> bool:
    return (
        rep.stats_creation_cost == first.stats_creation_cost
        and rep.retained_update_cost == first.retained_update_cost
        and rep.workload_exec_cost == first.workload_exec_cost
        and rep.counters == first.counters
    )


def run_workload(
    workload, rags_seed: int, seconds: float, min_reps: int, traced: bool,
    trace_out=None,
) -> Outcome:
    """Repeat ``workload`` for about ``seconds`` of measured time.

    A traced run alternates untraced and traced repetitions: the
    untraced ones are the base of ``trace.overhead_share``.  The first
    repetition's outputs are checked against the oracle last, so that
    ``peak_rss_mb`` is the program's peak and not the oracle's.
    """
    outcome = Outcome()
    first_state = []

    def repetition(tracer):
        began = time.perf_counter()
        state = workload.setup(rags_seed)
        outcome.setup_s.append(time.perf_counter() - began)
        try:
            rep = workload.measure(state, tracer)
        finally:
            workload.teardown(state)
        outcome.reps.append(rep)
        if tracer is None:
            outcome.plain.append(rep)
        first = outcome.reps[0]
        if rep is first:
            first_state.append(state)
        else:
            outcome.mismatches += workload.verify(state, rep, first)
            outcome.mismatches += not _counts_agree(rep, first)
        return rep

    tracer = Tracer()
    untraced_walls = []
    measured = last = 0.0
    # stop at the repetition that brings the measured time nearest to
    # ``seconds``
    while len(outcome.plain) < min_reps or measured + last / 2.0 < seconds:
        rep = repetition(None)
        last = rep.measured_s
        if traced:
            untraced_walls.append(rep.window[1] - rep.window[0])
            with installed(tracer):
                rep = repetition(tracer)
            table = SpanTable(tracer, *rep.window)
            outcome.layer_rows.append(layers.measure(table, rep))
            last += rep.measured_s
            if trace_out is None:
                tracer.clear()
        measured += last
    if traced:
        outcome.reference_wall = statistics.median(untraced_walls)
    if trace_out is not None:
        tracer.write(trace_out)
    outcome.peak_rss_mb = peak_rss_mb()
    first = outcome.reps[0]
    outcome.mismatches += workload.verify(first_state[0], first, first)
    return outcome


def peak_rss_mb() -> float:
    """Peak resident set of this process: ``VmHWM`` where there is one.

    ``ru_maxrss`` survives ``exec``, so it starts at the peak of
    whichever process spawned this one (``--check-repeat`` once reported
    its own 400 MB for every child).
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_to_one_cpu() -> str:
    """Confine the process (and the threads it starts) to one CPU.

    The load is lock-step, so only one thread has work at any moment;
    left free, the threads land on different virtual CPUs and every
    hand-off waits for the hypervisor to wake the other one.  On the box
    this was sized on that wait was a third of ``serve_mixed``'s request
    latency and doubled its run-to-run spread (README.md, "Noise").
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # not Linux, or not permitted
        return "not pinned"
    return f"pinned to cpu {cpu}"


def header(args, pinned: str) -> None:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    print(
        f"# python {platform.python_version()}  commit {commit}  "
        f"cpus {os.cpu_count()} ({pinned})  switchinterval "
        f"{sys.getswitchinterval()}  gc {'on' if gc.isenabled() else 'off'} "
        f"{gc.get_threshold()}"
    )
    print(
        f"# seed {args.seed} (no effect: the statements are recorded, RAGS "
        f"seed {RECORDED_RAGS_SEED})  seconds {args.seconds}  trace "
        f"{args.trace}  smoke {args.smoke}"
    )


def measure(
    spec: dict, name: str, seconds: float, trace: bool, smoke: bool = False,
    rags_seed: int = RECORDED_RAGS_SEED, trace_out=None,
) -> dict:
    """Run one workload, print its metrics, return the result object.

    ``smoke`` runs the toy-sized workload once in each mode and prints
    both sets of metrics.
    """
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    if smoke:
        workload, seconds, min_reps = SMOKE_WORKLOADS[name], 0.0, 1
    else:
        workload, min_reps = WORKLOADS[name], 1 if trace else MIN_REPS
    outcome = run_workload(
        workload, rags_seed, seconds, min_reps, smoke or trace, trace_out
    )
    attempted, failed = outcome.attempted, outcome.failed
    metrics = {}
    if smoke or not trace:
        metrics.update(outcome.end_to_end())
    if smoke or trace:
        metrics.update(
            layers.reduce(outcome.layer_rows, outcome.reference_wall)
        )
        metrics["serve_dml_ms_p50"] = outcome.dml_ms_p50()
        metrics["failed_share"] = failed / attempted

    print(f"== workload {name} ==")
    samples = [len(rep.query_ms) for rep in outcome.plain]
    print(
        f"# repetitions {len(outcome.reps)}  of them traced "
        f"{len(outcome.layer_rows)}  setup samples {len(outcome.setup_s)}  "
        f"query latency samples per untraced repetition {samples[0]} "
        f"({samples[0] / 100.0:.1f} beyond p99), in all {sum(samples)}"
    )
    for metric, value in metrics.items():
        print(f"metric {metric} {value!r} {units[metric]}")
    if outcome.layer_rows:
        print("# self time by layer, share of the traced wall")
        for layer, self_s, share in layers.shares(outcome.layer_rows):
            print(f"#   {layer:22s} {self_s:9.4f} s  {share:6.1%}")
    print(f"# failed {failed} of {attempted} attempted")
    errors = [rep.error for rep in outcome.reps if rep.error]
    if errors:
        print(errors[0], file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument(
        "--seed", type=int, default=RECORDED_RAGS_SEED,
        help="printed and otherwise without effect: the statements are "
        "recorded (README.md, 'The seed')",
    )
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"])
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--trace-out", help="write the traced run's spans here (JSON lines)"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="every workload (or --workload) at toy size, both modes",
    )
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="run every workload twice and compare against the bounds",
    )
    args = parser.parse_args(argv)
    if args.check_repeat:
        from benchmarks.e2e import check

        return check.check_repeat(
            spec, args.seconds,
            lambda name: measure(
                spec, name, args.seconds, False,
                rags_seed=check.OTHER_RAGS_SEED,
            ),
        )
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke / --check-repeat)")

    header(args, pin_to_one_cpu())
    results = [
        measure(
            spec, name, args.seconds, bool(args.trace), args.smoke,
            trace_out=args.trace_out,
        )
        for name in ([args.workload] if args.workload else names)
    ]
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())

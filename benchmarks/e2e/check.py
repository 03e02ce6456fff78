"""``--check-repeat``: do two sets of runs of the same code agree?

Every workload is run 2 x ``RUNS`` times, each run a fresh process, the
runs going to the two sets in turn so that both see the same stretches of
a host whose speed drifts.  The two sets must agree on every end-to-end
metric within the bound BENCHMARK.json fixes for it, and exactly on every
count (the cost metrics, and the per-layer counters of two traced runs).  One
more pass, in this process, on the statements of RAGS seed 11 shows that
the output check passes on a workload nobody looked at while sizing the
benchmark.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Callable, List

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
OTHER_RAGS_SEED = 11
#: runs on each side of the comparison
RUNS = 5
#: units of metrics that count work and therefore repeat exactly
EXACT_UNITS = ("count", "units")


def _run(workload: str, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, RUN, "--workload", workload,
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{' '.join(command)} exited {done.returncode} without a "
            f"result\n{done.stderr}"
        )
    # a run whose output check failed exits non-zero and still reports
    return json.loads(lines[-1])


def _values(results: List[dict], metric: str) -> List[float]:
    return [result["metrics"][metric]["value"] for result in results]


def check_repeat(
    spec: dict, seconds: float, run_other_seed: Callable[[str], dict]
) -> int:
    """``run_other_seed(workload)`` runs one workload on the statements
    of ``OTHER_RAGS_SEED`` and returns its result object."""
    disagreements = 0
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        print(f"# {workload}: 2 x {RUNS} runs, 2 traced, 1 on RAGS seed "
              f"{OTHER_RAGS_SEED}", flush=True)
        first, second = [], []
        for _ in range(RUNS):
            first.append(_run(workload, seconds, 0))
            second.append(_run(workload, seconds, 0))
        traced = [_run(workload, seconds, 1) for _ in range(2)]
        other = run_other_seed(workload)

        for result in first + second + traced + [other]:
            if not result["correct"] or result["failed"]:
                disagreements += 1
                rows.append((workload, "output check", "", "FAILED", "", "", ""))
        for metric in spec["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            a, b = _values(first, name), _values(second, name)
            a_low, a_mid, a_high = statistics.quantiles(a, n=4)
            b_low, b_mid, b_high = statistics.quantiles(b, n=4)
            if unit in EXACT_UNITS:
                agree = len(set(a + b)) == 1
                limit = "exact"
            else:
                agree = abs(b_mid - a_mid) <= metric["bound"] * a_mid
                limit = f"{metric['bound']:.2f}"
            disagreements += not agree
            rows.append((
                workload, name, unit,
                f"{a_mid:.6g} [{a_low:.6g}, {a_high:.6g}]",
                f"{b_mid:.6g} [{b_low:.6g}, {b_high:.6g}]",
                f"{(b_mid - a_mid) / a_mid:+.3f} / {limit}",
                "ok" if agree else "DISAGREE",
            ))
        moved = [
            m["name"]
            for m in spec["per_layer"]
            if m["unit"] in EXACT_UNITS
            and len(set(_values(traced, m["name"]))) != 1
        ]
        disagreements += len(moved)
        rows.append((
            workload, "per-layer counters", "", "", "",
            "exact", "ok" if not moved else "DISAGREE " + ",".join(moved),
        ))

    header = ("workload", "metric", "unit", "first median [q1, q3]",
              "second median [q1, q3]", "change / bound", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(7)]
    for row in [header] + rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)).rstrip())
    print(f"# {disagreements} disagreement(s)")
    return 1 if disagreements else 0

"""Smoke test of the benchmark itself (not collected by tier-1).

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs every workload at toy size in both modes and checks that each metric
BENCHMARK.json names is printed exactly once per workload, with its unit,
and that no statement failed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_smoke_prints_every_metric_once():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    units = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr

    sections = {}
    for line in done.stdout.splitlines():
        if line.startswith("== workload "):
            current = sections.setdefault(line.split()[2], [])
        elif line.startswith("metric "):
            current.append(line.split()[1:])
    assert list(sections) == [w["name"] for w in spec["workloads"]]
    for workload, printed in sections.items():
        names = [name for name, _value, _unit in printed]
        assert sorted(names) == sorted(units), workload
        for name, value, unit in printed:
            assert unit == units[name], (workload, name)
            if name == "failed_share":
                assert float(value) == 0.0, workload
            else:
                float(value)

    results = [
        json.loads(line)
        for line in done.stdout.splitlines()
        if line.startswith("{")
    ]
    assert len(results) == len(spec["workloads"])
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1

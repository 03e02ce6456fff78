"""Benchmark-harness plumbing for the system benches.

Run one with::

    REPRO_BENCH_SCALE=0.002 REPRO_BENCH_QUERIES=20 \
        python -m pytest benchmarks/bench_plan_cache.py -q

Each bench computes its arms once (module-scoped fixture), asserts its
claim, writes ``BENCH_<name>.json`` (``compare_baselines.py`` holds it
to ``baselines/``); some add a table to the terminal summary.  The
paper's experiments are not benches: ``python -m repro.cli experiment``
runs them, and ``tests/experiments/test_experiments_golden.py`` pins
them.

Environment knobs:

* ``REPRO_BENCH_SCALE`` — TPC-D scale factor (default 0.002).
* ``REPRO_BENCH_QUERIES`` — per-workload query cap (default 30).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.common import default_database_factory

_SECTIONS = []


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.002"))


def bench_query_cap() -> int:
    return int(os.environ.get("REPRO_BENCH_QUERIES", "30"))


def write_bench_json(name: str, payload: dict) -> str:
    """Persist one bench's machine-readable results as BENCH_<name>.json.

    CI uploads these as build artifacts so runs can be compared across
    commits.  ``REPRO_BENCH_JSON_DIR`` overrides the output directory
    (default: the current working directory).
    """
    directory = os.environ.get("REPRO_BENCH_JSON_DIR", os.getcwd())
    target = os.path.join(directory, f"BENCH_{name}.json")
    with open(target, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target


@pytest.fixture(scope="session")
def factory():
    """Fresh-database factory shared by all benches."""
    return default_database_factory(scale=bench_scale())


@pytest.fixture(scope="session")
def report():
    """Collector for paper-vs-measured tables (printed at the end)."""

    class _Report:
        def add_section(self, title: str, body: str) -> None:
            _SECTIONS.append((title, body))

    return _Report()


def pytest_terminal_summary(terminalreporter):
    if not _SECTIONS:
        return
    terminalreporter.section("paper reproduction results")
    for title, body in _SECTIONS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"== {title} ==")
        for line in body.splitlines():
            terminalreporter.write_line(line)

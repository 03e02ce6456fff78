"""Lint-engine performance and hygiene on the repo's own source tree.

Three arms over ``src/`` with all fourteen rules (R001-R015; R008 is
retired) enabled:

* **cold** — no cache: every file rule and every project rule runs,
  including the interprocedural typestate engine behind R012-R015;
* **cached** — a second run against a warm incremental cache must
  execute *zero* rules (pure fingerprint hits);
* **jobs2** — a two-process run whose rendered output must be
  byte-identical to the serial run.

The payload is trend-gated in CI via ``compare_baselines.py``: the
structural keys (file count, finding count — which must be 0 on our own
tree — rule count, warm-run execution counts) are held to the tolerance
band, while the ``wall_seconds_*`` keys ride along for trend plots but
are exempt from the gate (CI runner speed is not a regression).

Deliberately plain pytest (no ``benchmark`` fixture) so it doubles as
the CI smoke step without pytest-benchmark installed.
"""

import os
import time

import pytest

from repro.analysis.engine import run_lint
from repro.analysis.framework import RULES
from repro.analysis.output import render_json

from benchmarks.conftest import write_bench_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def _timed(**kwargs):
    started = time.perf_counter()
    findings = run_lint([SRC], **kwargs)
    return findings, time.perf_counter() - started


@pytest.fixture(scope="module")
def lint_runs(tmp_path_factory):
    cache = str(tmp_path_factory.mktemp("lint_bench") / "cache.json")
    cold_stats, warm_stats = {}, {}
    cold, cold_wall = _timed(cache_path=cache, stats=cold_stats)
    warm, warm_wall = _timed(cache_path=cache, stats=warm_stats)
    par, par_wall = _timed(jobs=2)
    return {
        "cold": (cold, cold_wall, cold_stats),
        "warm": (warm, warm_wall, warm_stats),
        "par": (par, par_wall),
    }


@pytest.fixture(scope="module")
def bench_payload():
    payload = {}
    yield payload
    if payload:
        write_bench_json("lint", payload)


def test_own_tree_is_clean_and_trend_gated(lint_runs, report, bench_payload):
    cold, cold_wall, cold_stats = lint_runs["cold"]
    warm, warm_wall, warm_stats = lint_runs["warm"]
    _, par_wall = lint_runs["par"]
    files = sum(
        name.endswith(".py")
        for _, _, names in os.walk(SRC)
        for name in names
    )
    payload = {
        "files": files,
        "rules": len(RULES),
        "findings": len(cold),
        "cold_file_rule_runs": cold_stats["file_rule_runs"],
        "cold_project_rule_runs": cold_stats["project_rule_runs"],
        "warm_file_rule_runs": warm_stats["file_rule_runs"],
        "warm_project_rule_runs": warm_stats["project_rule_runs"],
        "wall_seconds_cold": round(cold_wall, 4),
        "wall_seconds_cached": round(warm_wall, 4),
        "wall_seconds_jobs2": round(par_wall, 4),
        "warm_wall_speedup": round(cold_wall / max(warm_wall, 1e-9), 3),
    }
    bench_payload.update(payload)
    report.add_section(
        "Lint engine — src tree, all rules",
        f"cold {cold_wall:.2f}s -> cached {warm_wall:.2f}s "
        f"({payload['warm_wall_speedup']}x), jobs=2 {par_wall:.2f}s, "
        f"{payload['findings']} finding(s) over {files} files",
    )
    # our own tree lints clean with zero baseline entries
    assert cold == []
    # a warm cache executes nothing: every result is a fingerprint hit
    assert warm_stats["file_rule_runs"] == 0
    assert warm_stats["project_rule_runs"] == 0
    assert warm == cold


def test_parallel_run_matches_serial_byte_for_byte(lint_runs):
    cold, _, _ = lint_runs["cold"]
    par, _ = lint_runs["par"]
    assert render_json(par) == render_json(cold)

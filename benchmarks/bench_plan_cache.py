"""Plan-cache effectiveness on the paper's tuning-then-serving loop.

Models the deployment the caching redesign targets: a tuning pass (MNSA
on the Figure 4 workload, MNSA/D on the Table 1 workload) followed by
repeated re-optimization of the same workload — the steady state of a
server whose queries recur.  With the cache on, every post-tuning pass
is served from the cache, so cold ``_optimize`` invocations must drop by
at least 2x versus the uncached run, while the tuning results themselves
stay *identical* (the cache may never change an answer).

Deliberately plain pytest (no ``benchmark`` fixture) so it doubles as
the CI smoke step without pytest-benchmark installed.
"""

import time

import pytest

from repro.backends.memory import MemoryBackend
from repro.core.mnsa import mnsa_for_workload
from repro.core.mnsad import mnsad_for_workload
from repro.optimizer import OptimizationRequest, Optimizer, PlanCache
from repro.workload import generate_workload

from benchmarks.conftest import bench_query_cap, write_bench_json

SERVE_PASSES = 40
Z = 2.0

MNSA_WORKLOAD = "U25-S-100"  # Figure 4
MNSAD_WORKLOAD = "U25-C-100"  # Table 1


def _queries(factory, workload_name):
    db = factory(Z)
    return db, generate_workload(db, workload_name).queries()[
        : bench_query_cap()
    ]


def _serve(optimizer, queries, passes=SERVE_PASSES):
    for _ in range(passes):
        for query in queries:
            optimizer.optimize_request(OptimizationRequest(query))


def _tune_and_serve(factory, workload_name, algorithm, cache):
    db, queries = _queries(factory, workload_name)
    optimizer = Optimizer(db, cache=cache)
    started = time.perf_counter()
    result = algorithm(MemoryBackend(db, optimizer), queries)
    _serve(optimizer, queries)
    wall = time.perf_counter() - started
    return result, optimizer, queries, wall


def _mnsa_key(result):
    return (
        result.created,
        result.skipped,
        result.iterations,
        result.optimizer_calls,
        result.stop_reason,
        result.creation_cost,
    )


def _mnsad_key(result):
    return (
        result.created,
        result.retained,
        result.dropped,
        result.iterations,
        result.optimizer_calls,
        result.stop_reason,
        result.creation_cost,
    )


@pytest.fixture(scope="module")
def mnsa_runs(factory):
    uncached = _tune_and_serve(factory, MNSA_WORKLOAD, mnsa_for_workload, None)
    cached = _tune_and_serve(
        factory, MNSA_WORKLOAD, mnsa_for_workload, PlanCache(1024)
    )
    return uncached, cached


@pytest.fixture(scope="module")
def mnsad_runs(factory):
    uncached = _tune_and_serve(
        factory, MNSAD_WORKLOAD, mnsad_for_workload, None
    )
    cached = _tune_and_serve(
        factory, MNSAD_WORKLOAD, mnsad_for_workload, PlanCache(1024)
    )
    return uncached, cached


@pytest.fixture(scope="module")
def bench_payload():
    """Accumulates per-arm numbers; written as BENCH_plan_cache.json."""
    payload = {"serve_passes": SERVE_PASSES}
    yield payload
    if len(payload) > 1:
        write_bench_json("plan_cache", payload)


def _payload_entry(workload_name, uncached, cached):
    _, opt_off, _, wall_off = uncached
    _, opt_on, _, wall_on = cached
    counters = opt_on.cache.counters()
    return {
        "workload": workload_name,
        "cold_optimize_uncached": opt_off.cold_optimize_count,
        "cold_optimize_cached": opt_on.cold_optimize_count,
        "cold_optimize_reduction": round(
            opt_off.cold_optimize_count / opt_on.cold_optimize_count, 3
        ),
        "cache_hits": counters["hits"],
        "cache_misses": counters["misses"],
        "cache_revalidations": counters["revalidations"],
        "wall_seconds_uncached": round(wall_off, 4),
        "wall_seconds_cached": round(wall_on, 4),
        "wall_speedup": round(wall_off / wall_on, 3),
    }


def _report_row(label, cold_off, cold_on, cache):
    counters = cache.counters()
    return (
        f"{label}: cold optimize {cold_off} -> {cold_on} "
        f"({cold_off / cold_on:.1f}x reduction), "
        f"hits={counters['hits']} misses={counters['misses']} "
        f"revalidations={counters['revalidations']}"
    )


def test_mnsa_cache_halves_cold_optimizations(mnsa_runs, report, bench_payload):
    (result_off, opt_off, _, _), (result_on, opt_on, _, _) = mnsa_runs
    assert _mnsa_key(result_on) == _mnsa_key(result_off)
    assert opt_on.call_count == opt_off.call_count
    ratio = opt_off.cold_optimize_count / opt_on.cold_optimize_count
    bench_payload["mnsa"] = _payload_entry(MNSA_WORKLOAD, *mnsa_runs)
    report.add_section(
        "Plan cache — Figure 4 MNSA tuning + serving loop",
        _report_row(
            MNSA_WORKLOAD,
            opt_off.cold_optimize_count,
            opt_on.cold_optimize_count,
            opt_on.cache,
        ),
    )
    assert ratio >= 2.0, (
        f"cold optimizations only fell {ratio:.2f}x "
        f"({opt_off.cold_optimize_count} -> {opt_on.cold_optimize_count})"
    )


def test_mnsad_cache_halves_cold_optimizations(mnsad_runs, report, bench_payload):
    (result_off, opt_off, _, _), (result_on, opt_on, _, _) = mnsad_runs
    assert _mnsad_key(result_on) == _mnsad_key(result_off)
    assert opt_on.call_count == opt_off.call_count
    ratio = opt_off.cold_optimize_count / opt_on.cold_optimize_count
    bench_payload["mnsad"] = _payload_entry(MNSAD_WORKLOAD, *mnsad_runs)
    report.add_section(
        "Plan cache — Table 1 MNSA/D tuning + serving loop",
        _report_row(
            MNSAD_WORKLOAD,
            opt_off.cold_optimize_count,
            opt_on.cold_optimize_count,
            opt_on.cache,
        ),
    )
    assert ratio >= 2.0, (
        f"cold optimizations only fell {ratio:.2f}x "
        f"({opt_off.cold_optimize_count} -> {opt_on.cold_optimize_count})"
    )


def test_serving_steady_state_is_all_hits(mnsa_runs):
    """After the first serve pass, every pass is a pure cache hit."""
    _, (_, opt_on, queries, _) = mnsa_runs
    cold_before = opt_on.cold_optimize_count
    hits_before = opt_on.cache.hit_count
    _serve(opt_on, queries, passes=2)
    assert opt_on.cold_optimize_count == cold_before
    assert opt_on.cache.hit_count == hits_before + 2 * len(queries)

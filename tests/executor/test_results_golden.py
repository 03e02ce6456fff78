"""Byte-identity pins for plan execution.

``golden_results.json`` holds, for every query of ``U0-C-100`` and
``U25-C-100`` (scale 0.002, z=2, data seed 42, RAGS seed 7), one sha256
per arm over ``(row_count, actual_cost.hex(), the bottom-up operator
cardinalities, and the dtype + raw bytes of each output column in
output_keys() order)`` — a zero-row column hashes as just that, because
the executor the file was generated from returned float64 key columns
from a GROUP BY over empty input whatever the key's type, which the
rewrite fixed:

* ``none`` — no statistics (magic-number plans: hash/merge joins, scans);
* ``all`` — every candidate statistic of the workload built;
* ``indexed`` — all statistics plus the 13 tuned TPC-D indexes, so index
  seeks, NL-index and NL-scan joins, stream aggregates and sorts all run.

Rows are pinned in order, not as a multiset: the executor's row order is
part of its contract (``ExecutionResult.rows()``).

The file was generated from the eager, gather-per-column executor
*before* it was rewritten around row-id vectors; regenerate (only when a
result change is intended) with
``PYTHONPATH=src python tests/executor/test_results_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.candidates import workload_candidate_statistics
from repro.datagen import make_tpcd_database
from repro.executor import Executor
from repro.executor.evaluate import evaluate_scalar
from repro.index.tuned_tpcd import apply_tuned_tpcd_indexes
from repro.optimizer import OptimizationRequest, Optimizer
from repro.workload import generate_workload

GOLDEN = Path(__file__).with_name("golden_results.json")
WORKLOADS = ("U0-C-100", "U25-C-100")


def _output_arrays(database, result):
    """The arrays ``rows()`` reads, in ``output_keys()`` order."""
    relation = result.relation
    for key in result.output_keys():
        if key in relation:
            yield relation.column(key)
        else:
            yield evaluate_scalar(database, relation, key)


def _digest(database, result) -> str:
    sha = hashlib.sha256()
    cardinalities = [o.actual_rows for o in result.operator_observations]
    sha.update(
        f"{result.row_count}|{result.actual_cost.hex()}|{cardinalities}".encode()
    )
    for array in _output_arrays(database, result):
        array = np.ascontiguousarray(array)
        dtype = array.dtype.str if array.size else "empty"
        sha.update(f"|{dtype}{array.shape}|".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _arm(database, workload, queries, label, out):
    optimizer = Optimizer(database)
    executor = Executor(database)
    for index, query in enumerate(queries):
        plan = optimizer.optimize_request(OptimizationRequest(query)).plan
        result = executor.execute(plan, query)
        out[f"{workload}/q{index:02d}/{label}"] = _digest(database, result)


def compute_digests() -> dict:
    out: dict = {}
    for workload in WORKLOADS:
        database = make_tpcd_database(scale=0.002, z=2.0, seed=42)
        queries = generate_workload(database, workload, seed=7).queries()
        _arm(database, workload, queries, "none", out)
        for key in workload_candidate_statistics(queries):
            database.stats.create(key)
        _arm(database, workload, queries, "all", out)
        apply_tuned_tpcd_indexes(database)
        _arm(database, workload, queries, "indexed", out)
    return out


def test_results_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(golden)
    changed = sorted(k for k in golden if actual[k] != golden[k])
    assert not changed, f"{len(changed)} results changed, first: {changed[:5]}"


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")

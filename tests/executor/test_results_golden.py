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

Each plan is executed twice through one executor and both runs must
match the digest: the second runs from the layout the first compiled.

Rows are pinned in order, not as a multiset: the executor's row order is
part of its contract (``ExecutionResult.rows()``).

The file was generated from the eager, gather-per-column executor
*before* it was rewritten around row-id vectors; regenerate (only when a
result change is intended) with
``PYTHONPATH=src python tests/executor/test_results_golden.py``.

``... test_results_golden.py --diff`` recomputes the digests without
touching the file and prints the changed / new / gone ``(workload, arm,
query)`` keys; CI runs it so a red golden test says what moved.  The file
holds one digest per key, so *which* field of a changed key moved — row
count, cost hex, cardinalities, or which output column — takes both
sides: ``--fields FILE`` writes this checkout's field-level breakdown
(anywhere but here), ``--diff --against FILE`` at the other commit names
the first differing field of every changed key.
"""

import hashlib
import json
import sys
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


def _fields(database, result) -> dict:
    """What :func:`_digest` covers, field by field (``--diff``)."""
    columns = []
    arrays = _output_arrays(database, result)
    for key, array in zip(result.output_keys(), arrays):
        array = np.ascontiguousarray(array)
        dtype = array.dtype.str if array.size else "empty"
        columns.append(
            [
                str(key),
                f"{dtype}{array.shape}",
                hashlib.sha256(array.tobytes()).hexdigest(),
            ]
        )
    return {
        "row count": result.row_count,
        "cost hex": result.actual_cost.hex(),
        "cardinalities": [
            o.actual_rows for o in result.operator_observations
        ],
        "columns": columns,
    }


def _arm(database, workload, queries, label, out, fields):
    """Every plan runs twice through one executor, the second time from
    the layout the first compiled: a key whose runs differ holds both
    digests, so it matches no golden one."""
    optimizer = Optimizer(database)
    executor = Executor(database)
    for index, query in enumerate(queries):
        plan = optimizer.optimize_request(OptimizationRequest(query)).plan
        result = executor.execute(plan, query)
        key = f"{workload}/q{index:02d}/{label}"
        out[key] = _digest(database, result)
        rerun = _digest(database, executor.execute(plan, query))
        if rerun != out[key]:
            out[key] += f" then {rerun}"
        if fields is not None:
            fields[key] = _fields(database, result)


def compute_digests(fields=None) -> dict:
    """key -> digest; with ``fields`` (a dict) also key -> :func:`_fields`
    into it."""
    out: dict = {}
    for workload in WORKLOADS:
        database = make_tpcd_database(scale=0.002, z=2.0, seed=42)
        queries = generate_workload(database, workload, seed=7).queries()
        _arm(database, workload, queries, "none", out, fields)
        for key in workload_candidate_statistics(queries):
            database.stats.create(key)
        _arm(database, workload, queries, "all", out, fields)
        apply_tuned_tpcd_indexes(database)
        _arm(database, workload, queries, "indexed", out, fields)
    return out


def _first_difference(old, new) -> str:
    """The first field of a result that differs between two
    :func:`_fields` breakdowns, in the order the digest hashes them."""
    if old is None:
        columns = ", ".join(f"{key} {shape}" for key, shape, _ in new["columns"])
        return (
            f"now row count {new['row count']}, cost hex {new['cost hex']}, "
            f"cardinalities {new['cardinalities']}, columns [{columns}]"
        )
    for name in ("row count", "cost hex", "cardinalities"):
        if old[name] != new[name]:
            return f"{name} {old[name]} -> {new[name]}"
    for position, (was, now) in enumerate(zip(old["columns"], new["columns"])):
        if was[:2] != now[:2]:
            return f"output column {position}: {was[:2]} -> {now[:2]}"
        if was != now:
            return f"output column {position} ({now[0]}): values differ"
    return f"output columns {len(old['columns'])} -> {len(new['columns'])}"


def diff_against_golden(against=None) -> int:
    """Print the keys that left the golden file; the file is only read.
    Returns the process exit code."""
    golden = json.loads(GOLDEN.read_text())
    fields: dict = {}
    actual = compute_digests(fields)
    reference = json.loads(Path(against).read_text()) if against else {}
    moved = {
        "changed": sorted(
            key
            for key in golden.keys() & actual.keys()
            if golden[key] != actual[key]
        ),
        "new": sorted(actual.keys() - golden.keys()),
        "gone": sorted(golden.keys() - actual.keys()),
    }
    for label, keys in moved.items():
        for key in keys:
            workload, query, arm = key.split("/")
            line = f"{label:7} ({workload}, {arm}, {query})"
            if label == "changed":
                line += ": " + _first_difference(
                    reference.get(key), fields[key]
                )
            print(line)
    if not any(moved.values()):
        print(f"{len(golden)} results match {GOLDEN.name}")
        return 0
    if moved["changed"] and not against:
        print(
            "(one digest per key: run --fields FILE at the other commit, "
            "then --diff --against FILE here, to name the field that moved)"
        )
    return 1


def test_results_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(golden)
    changed = sorted(k for k in golden if actual[k] != golden[k])
    assert not changed, f"{len(changed)} results changed, first: {changed[:5]}"


def test_first_difference_names_the_field_in_digest_order():
    old = {
        "row count": 2,
        "cost hex": "0x1p+0",
        "cardinalities": [5, 2],
        "columns": [["t.a", "<i8(2,)", "aa"], ["count(*)", "<f8(2,)", "bb"]],
    }
    assert _first_difference(old, dict(old, **{"row count": 3})) == (
        "row count 2 -> 3"
    )
    assert _first_difference(old, dict(old, cardinalities=[5, 3])) == (
        "cardinalities [5, 2] -> [5, 3]"
    )
    moved = dict(old, columns=[old["columns"][0], ["count(*)", "<f8(2,)", "cc"]])
    assert _first_difference(old, moved) == (
        "output column 1 (count(*)): values differ"
    )
    retyped = dict(old, columns=[["t.a", "<i4(2,)", "aa"], old["columns"][1]])
    assert "output column 0: ['t.a', '<i8(2,)']" in _first_difference(
        old, retyped
    )
    assert _first_difference(None, old).startswith("now row count 2, cost hex")


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--diff"]:
        sys.exit(diff_against_golden())
    if len(args) == 3 and args[:2] == ["--diff", "--against"]:
        sys.exit(diff_against_golden(args[2]))
    if len(args) == 2 and args[0] == "--fields":
        breakdown: dict = {}
        compute_digests(breakdown)
        Path(args[1]).write_text(json.dumps(breakdown, sort_keys=True) + "\n")
        print(f"wrote {args[1]}")
        sys.exit(0)
    if args:
        sys.exit(
            f"usage: {sys.argv[0]} [--diff [--against FILE] | --fields FILE]"
        )
    GOLDEN.write_text(
        json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")

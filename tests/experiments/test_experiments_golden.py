"""Pins and shape checks for the paper's experiments.

``golden_experiments.json`` holds the records of every entry of
:data:`repro.experiments.EXPERIMENTS` at its documented arguments (TPC-D
scale 0.002, data seed 42, the workloads, skew settings and query caps
the entry names): each runner's result fields, the derived percentages
and, where the paper states a band, ``in_band``.  A change that moves a
plan, a created set or a cost moves some of these cells.
``... test_experiments_golden.py --diff`` recomputes the records without
touching the file and names each cell that moved; CI runs it.  Regenerate
(only when a change to an experiment's outcome is intended, and say which
cells moved and why) with
``PYTHONPATH=src python tests/experiments/test_experiments_golden.py``.

The shape checks hold the paper's qualitative claims as inequalities on
the freshly computed records, so a regenerated file cannot hide a broken
claim.  The paper's bands are reported (``in_band``), not asserted:
several cells lie outside them today, and EXPERIMENTS.md says why.

EXPERIMENTS.md's tables are rendered from the golden file: each
experiment's table must appear in it verbatim.
"""

import functools
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS, SCALE, default_database_factory

GOLDEN = Path(__file__).with_name("golden_experiments.json")
DOC = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
BY_NAME = {experiment.name: experiment for experiment in EXPERIMENTS}


@functools.lru_cache(maxsize=None)
def fresh_records(name: str) -> list:
    """``name``'s records at the documented arguments, as JSON holds them."""
    records = BY_NAME[name].records(default_database_factory(scale=SCALE))
    return json.loads(json.dumps(records))


def diff_against_golden() -> int:
    """Print the cells that left the golden file; the file is only read.
    Returns the process exit code."""
    golden = json.loads(GOLDEN.read_text())
    moved = 0
    for name in BY_NAME:
        actual, expected = fresh_records(name), golden.get(name, [])
        for index in range(max(len(actual), len(expected))):
            now = actual[index] if index < len(actual) else {}
            was = expected[index] if index < len(expected) else {}
            for field in sorted(set(now) | set(was)):
                if now.get(field) != was.get(field):
                    moved += 1
                    print(f"{name}[{index}].{field}:")
                    print(f"  golden {was.get(field)!r}")
                    print(f"  now    {now.get(field)!r}")
    for name in sorted(set(golden) - set(BY_NAME)):
        moved += 1
        print(f"gone    {name}")
    if not moved:
        count = sum(len(records) for records in golden.values())
        print(f"{count} records of {len(golden)} experiments match {GOLDEN.name}")
    return 1 if moved else 0


@pytest.mark.parametrize("name", list(BY_NAME))
def test_records_match_golden(name):
    assert fresh_records(name) == json.loads(GOLDEN.read_text())[name]


# -- the paper's shape, as inequalities on fresh records ---------------------


def _cell(records, database, workload):
    (record,) = [
        r for r in records if (r["database"], r["workload"]) == (database, workload)
    ]
    return record


def _by(records, key):
    return {record[key]: record for record in records}


def shape_intro(records):
    *queries, total = records
    assert len(queries) == total["queries"] == 17
    # a clear majority of the 17 plans change (paper: 15)
    assert total["plans_changed"] >= 9
    # and more statistics do not make the workload dearer (Sec 3.3)
    assert total["cost_after"] <= total["cost_before"] * 1.02


def shape_figure3(records):
    assert len(records) == 8
    assert _cell(records, "TPCD_2", "U25-S-100")["creation_reduction_percent"] >= 30
    for record in records:
        # the paper's <= 3% quality bound, with slack for the small scale
        assert record["execution_increase_percent"] <= 10
        assert record["heuristic_count"] < record["exhaustive_count"]


def shape_figure4(records):
    assert len(records) == 8
    # paper band 30-45%: a wide but meaningful reduction
    assert _cell(records, "TPCD_2", "U25-S-100")["creation_reduction_percent"] >= 20
    for record in records:
        assert record["mnsa_created_count"] <= record["candidate_count"]
        assert record["execution_increase_percent"] <= 10


def shape_single_column(records):
    assert len(records) == 4
    assert _cell(records, "TPCD_2", "U0-S-500")["creation_reduction_percent"] >= 10
    for record in records:
        assert record["execution_increase_percent"] <= 10


def shape_table1(records):
    assert len(records) == 4
    assert _cell(records, "TPCD_2", "U25-C-100")["update_cost_reduction_percent"] >= 10
    for record in records:
        # MNSA/D never raises the update cost ...
        assert record["mnsad_update_cost"] <= record["mnsa_update_cost"]
        # ... and the re-run quality loss stays bounded (paper: 6%)
        assert record["execution_increase_percent"] <= 15


def shape_threshold(records):
    assert [r["t_percent"] for r in records] == [5, 10, 20, 40, 80]
    counts = [r["created_count"] for r in records]
    assert counts == sorted(counts, reverse=True)


def shape_next_stat(records):
    (record,) = records
    # the heuristic never builds meaningfully more than arbitrary order
    assert record["heuristic_created"] <= record["arbitrary_created"] * 1.2 + 2


def shape_shrinking(records):
    (record,) = records
    assert record["shrink_retained"] <= record["mnsa_retained"]
    assert record["mnsad_retained"] <= record["mnsa_retained"]
    assert record["shrink_update_cost"] <= record["mnsad_update_cost"] * 1.5


def shape_equivalence(records):
    assert "execution_tree" in _by(records, "criterion")
    by_t = sorted(
        (float(r["criterion"].rsplit("_", 1)[1]), r["retained"])
        for r in records
        if r["criterion"].startswith("t_cost_")
    )
    assert len(by_t) == 3
    # a larger t never retains more statistics
    retained = [count for _, count in by_t]
    assert retained == sorted(retained, reverse=True)


def shape_histograms(records):
    by_kind = _by(records, "kind")
    # MaxDiff is at least as accurate as equi-depth on skewed data
    assert (
        by_kind["maxdiff"]["q_error_geomean"]
        <= by_kind["equi_depth"]["q_error_geomean"] + 0.05
    )


def shape_sampling(records):
    assert records[0]["sample_rows"] is None and len(records) == 4
    # smaller samples cost less to build ...
    costs = [r["creation_cost"] for r in records]
    assert costs == sorted(costs, reverse=True)
    # ... and the full scan is the most accurate
    full = records[0]["q_error_geomean"]
    assert all(full <= r["q_error_geomean"] + 0.05 for r in records)


def shape_joint(records):
    by_config = _by(records, "configuration")
    assert (
        by_config["joint 2-D"]["q_error_geomean"]
        <= by_config["density only"]["q_error_geomean"]
    )


def shape_aging(records):
    without, with_aging = records
    assert not without["aging_enabled"] and with_aging["aging_enabled"]
    # aging does not raise the statistics creation spend
    assert with_aging["creation_cost"] <= without["creation_cost"] * 1.02


def shape_join_estimation(records):
    by_config = _by(records, "configuration")
    assert (
        by_config["histogram join"]["q_error_geomean"]
        <= by_config["1/max(ndv) rule"]["q_error_geomean"]
    )


def shape_maintenance(records):
    by_key = {(r["scenario"], r["strategy"]): r for r in records}
    assert len(by_key) == 4
    full, incremental = by_key["stationary", "full_refresh"], by_key[
        "stationary", "incremental"
    ]
    # stationary inserts: incremental is cheaper and no less accurate
    assert incremental["maintenance_cost"] < full["maintenance_cost"]
    assert incremental["q_error_geomean"] <= full["q_error_geomean"] + 0.1
    # drift: incremental keeps accuracy at least as good
    assert (
        by_key["drift", "incremental"]["q_error_geomean"]
        <= by_key["drift", "full_refresh"]["q_error_geomean"] + 0.05
    )


SHAPES = {
    "intro": shape_intro,
    "figure3": shape_figure3,
    "figure4": shape_figure4,
    "single-column": shape_single_column,
    "table1": shape_table1,
    "threshold": shape_threshold,
    "next-stat": shape_next_stat,
    "shrinking": shape_shrinking,
    "equivalence": shape_equivalence,
    "histograms": shape_histograms,
    "sampling": shape_sampling,
    "joint": shape_joint,
    "aging": shape_aging,
    "join-estimation": shape_join_estimation,
    "maintenance": shape_maintenance,
}


def test_every_experiment_has_a_shape_check():
    assert list(SHAPES) == list(BY_NAME)


@pytest.mark.parametrize("name", list(BY_NAME))
def test_shape(name):
    SHAPES[name](fresh_records(name))


@pytest.mark.parametrize("name", list(BY_NAME))
def test_experiments_md_shows_the_golden_table(name):
    records = json.loads(GOLDEN.read_text())[name]
    assert BY_NAME[name].table(records) in DOC.read_text()


def test_diff_mode_names_moved_cells_and_leaves_the_file(
    tmp_path, monkeypatch, capsys
):
    module = sys.modules[__name__]
    records = [{"retained": 3, "criterion": "t"}, {"retained": 5, "criterion": "u"}]
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "BY_NAME", {"E": None})
    monkeypatch.setattr(module, "fresh_records", lambda name: records)
    golden.write_text(json.dumps({"E": [records[0], {**records[1], "retained": 4}]}))
    before = golden.read_text()
    assert diff_against_golden() == 1
    out = capsys.readouterr().out
    assert "E[1].retained" in out and "criterion" not in out
    assert "E[0]" not in out
    assert golden.read_text() == before
    golden.write_text(json.dumps({"E": records}))
    assert diff_against_golden() == 0
    assert "2 records of 1 experiments match" in capsys.readouterr().out


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff_against_golden())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    GOLDEN.write_text(
        json.dumps(
            {name: fresh_records(name) for name in BY_NAME}, indent=1, sort_keys=True
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")

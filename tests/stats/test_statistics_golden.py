"""Byte-identity pins for statistic construction.

``golden_statistics.json`` holds one sha256 per built statistic over
``lows/highs/counts/distincts`` (raw float64 bytes), the histogram kind
and row count, ``row_count``, ``prefix_densities``, ``build_cost``,
``update_count`` and, when present, every joint-histogram cell — for
every candidate key of ``U25-S-100`` and ``U25-C-30`` (scale 0.002, z=2,
data seed 42, RAGS seed 7) under each arm of

* MaxDiff / equi-depth leading-column histograms,
* a full scan / ``sample_rows=500``,
* joint histograms off / on (16 cells, so the suite stays fast),

first as built by ``create``, then — after the workload's own DML has
changed the tables — as rebuilt by ``refresh_table``.

The file was generated from the builder *before* it was rewritten as the
integer-code kernel; regenerate (only when a change to statistic
contents is intended) with
``PYTHONPATH=src python tests/stats/test_statistics_golden.py``.
``... test_statistics_golden.py --diff`` recomputes the digests without
writing: it prints the changed, new and gone keys and exits 1, or says
how many statistics match and exits 0.
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

from repro.config import OptimizerConfig
from repro.core.candidates import workload_candidate_statistics
from repro.datagen import make_tpcd_database
from repro.executor.dml import apply_dml
from repro.stats.histogram import HistogramKind
from repro.workload import generate_workload

GOLDEN = Path(__file__).with_name("golden_statistics.json")

WORKLOADS = ("U25-S-100", "U25-C-30")


def statistic_digest(stat) -> str:
    histogram = stat.histogram
    digest = hashlib.sha256()
    for array in (
        histogram.lows,
        histogram.highs,
        histogram.counts,
        histogram.distincts,
    ):
        digest.update(array.tobytes())
        digest.update(b"|")
    fields = [
        histogram.kind.value,
        str(histogram.row_count),
        str(stat.row_count),
        str(stat.update_count),
        stat.build_cost.hex(),
    ]
    fields.extend(density.hex() for density in stat.prefix_densities)
    joint = stat.joint_histogram
    if joint is not None:
        fields.append(f"{joint.kind.value}:{joint.row_count}")
        for cell in joint.cells:
            fields.extend(
                float(v).hex()
                for v in (
                    cell.x_lo,
                    cell.x_hi,
                    cell.y_lo,
                    cell.y_hi,
                    cell.count,
                )
            )
    digest.update("|".join(fields).encode())
    return digest.hexdigest()


def _arms():
    for kind, sample_rows, joint in itertools.product(
        (HistogramKind.MAXDIFF, HistogramKind.EQUI_DEPTH),
        (None, 500),
        (False, True),
    ):
        label = "{}/{}/{}".format(
            kind.value,
            "full" if sample_rows is None else f"sample{sample_rows}",
            "joint" if joint else "nojoint",
        )
        config = OptimizerConfig(
            sample_rows=sample_rows,
            enable_joint_histograms=joint,
            joint_histogram_cells=16,
        )
        yield label, kind, config


def compute_digests() -> dict:
    out: dict = {}
    for workload_name in WORKLOADS:
        for label, kind, config in _arms():
            database = make_tpcd_database(scale=0.002, z=2.0, seed=42)
            database.stats.config = config
            workload = generate_workload(database, workload_name, seed=7)
            keys = workload_candidate_statistics(workload.queries())
            for key in keys:
                stat = database.stats.create(key, histogram_kind=kind)
                out[f"{workload_name}/{label}/create/{key}"] = (
                    statistic_digest(stat)
                )
            for statement in workload.dml():
                apply_dml(database, statement)
            for table in sorted({key.table for key in keys}):
                database.stats.refresh_table(table)
            for key in keys:
                out[f"{workload_name}/{label}/refresh/{key}"] = (
                    statistic_digest(database.stats.get(key))
                )
    return out


def diff_against_golden() -> int:
    """Print the keys whose digest left the golden file; the file is only
    read.  Returns the process exit code."""
    golden = json.loads(GOLDEN.read_text())
    actual = compute_digests()
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
            print(f"{label:7} {key}")
    if any(moved.values()):
        return 1
    print(f"{len(actual)} statistics match {GOLDEN.name}")
    return 0


def test_statistics_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(golden)
    changed = sorted(k for k in golden if actual[k] != golden[k])
    assert not changed, (
        f"{len(changed)} statistics changed, first: {changed[:5]}"
    )


def test_diff_mode_names_moved_keys_and_leaves_the_file(
    tmp_path, monkeypatch, capsys
):
    module = sys.modules[__name__]
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(
        module, "compute_digests", lambda: {"a": "1", "b": "2", "c": "3"}
    )
    golden.write_text(json.dumps({"a": "1", "b": "0", "d": "4"}))
    before = golden.read_text()
    assert diff_against_golden() == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["changed b", "new     c", "gone    d"]
    assert golden.read_text() == before
    golden.write_text(json.dumps({"a": "1", "b": "2", "c": "3"}))
    assert diff_against_golden() == 0
    assert capsys.readouterr().out == "3 statistics match golden.json\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff_against_golden())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    GOLDEN.write_text(
        json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")

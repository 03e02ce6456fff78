"""Byte-identity pins for the generated inputs.

``golden_generation.json`` holds, for the TPC-D databases the
end-to-end benchmark builds (z=2, data seed 42, scales 0.002 and
0.01):

* ``tpcd/<scale>/<table>.<column>/array`` — sha256 of the stored
  array's dtype and raw bytes (dictionary codes for STRING columns);
* ``tpcd/<scale>/<table>.<column>/dictionary`` — sha256 of the STRING
  column's dictionary values in code order.

``database_checksum`` hashes decoded values, so only these two digests
see a change in the order codes are assigned.  For the RAGS workloads
the benchmark draws on those databases (RAGS seed 7) it holds
``rags/<name>@<scale>/statements`` (the statement count) and
``rags/<name>@<scale>/sql`` (sha256 of every statement rendered to SQL,
one per line).

Regenerate (only when a change to generated data or workloads is
intended) with ``PYTHONPATH=src python
tests/datagen/test_generation_golden.py``.  ``... --diff`` recomputes
the digests without writing: it prints the changed, new and gone keys
and exits 1, or says how many digests match and exits 0.
"""

import hashlib
import json
import sys
from pathlib import Path

from repro.catalog import ColumnType
from repro.datagen import make_tpcd_database
from repro.datagen.checksum import database_checksum
from repro.sql.render import render_statement
from repro.storage import StringDictionary
from repro.workload import generate_workload

GOLDEN = Path(__file__).with_name("golden_generation.json")

SCALES = (0.002, 0.01)

#: (RAGS workload, database scale) pairs the end-to-end benchmark uses
WORKLOADS = (
    ("U25-C-100", 0.002),
    ("U0-C-100", 0.002),
    ("U25-S-1000", 0.002),
    ("U25-S-1000", 0.01),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def database_digests(database, scale) -> dict:
    out = {}
    for table in sorted(database.table_names()):
        data = database.table(table)
        for col in data.schema.columns:
            prefix = f"tpcd/{scale}/{table}.{col.name}"
            arr = data.column_array(col.name)
            out[f"{prefix}/array"] = _sha(
                arr.dtype.str.encode() + b"|" + arr.tobytes()
            )
            if col.type == ColumnType.STRING:
                values = data.string_dictionary(col.name).values()
                out[f"{prefix}/dictionary"] = _sha(
                    json.dumps(values).encode()
                )
    return out


def compute_digests() -> dict:
    out: dict = {}
    databases = {}
    for scale in SCALES:
        databases[scale] = make_tpcd_database(scale=scale, z=2.0, seed=42)
        out.update(database_digests(databases[scale], scale))
    for name, scale in WORKLOADS:
        database = databases[scale]
        workload = generate_workload(database, name, seed=7)
        sql = "\n".join(
            render_statement(statement, database.schema)
            for statement in workload
        )
        out[f"rags/{name}@{scale}/statements"] = str(len(workload))
        out[f"rags/{name}@{scale}/sql"] = _sha(sql.encode())
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
    print(f"{len(actual)} digests match {GOLDEN.name}")
    return 0


def test_generated_inputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    actual = compute_digests()
    assert sorted(actual) == sorted(golden)
    changed = sorted(k for k in golden if actual[k] != golden[k])
    assert not changed, f"{len(changed)} digests changed: {changed[:5]}"


def test_the_digests_see_a_code_order_the_checksum_cannot():
    database = make_tpcd_database(scale=0.002, z=2.0, seed=42)
    before = database_digests(database, 0.002)
    checksum = database_checksum(database)
    data = database.table("region")
    columns = {
        name: data.decoded_column(name)
        for name in data.schema.column_names()
    }
    reordered = data.string_dictionary("r_name").values()[::-1]
    data.attach_dictionary("r_name", StringDictionary(reordered))
    data.load_columns(columns)
    after = database_digests(database, 0.002)
    assert database_checksum(database) == checksum
    assert sorted(key for key in before if before[key] != after[key]) == [
        "tpcd/0.002/region.r_name/array",
        "tpcd/0.002/region.r_name/dictionary",
    ]


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
    assert capsys.readouterr().out == "3 digests match golden.json\n"


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff_against_golden())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    GOLDEN.write_text(
        json.dumps(compute_digests(), indent=0, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")

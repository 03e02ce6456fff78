"""Count pins for the cold tuning loop.

``golden_tuning.json`` holds, for ``U25-S-100`` (scale 0.01) and
``U25-C-30`` (scale 0.002) at z=2, data seed 42, RAGS seed 7, what
``mnsad_for_workload(MemoryBackend(database), queries, MnsaConfig())``
decided and what it cost: the ``created`` / ``retained`` / ``dropped``
lists as strings, ``iterations``, ``optimizer_calls``, ``stop_reason``,
``creation_cost.hex()``, the statistics epoch after the pass, and — after
``purge_drop_list()`` — ``update_cost_of_keys(visible_keys()).hex()``
(a float sum, so the order of ``visible_keys()`` is part of the pin).

The file was generated on the commit where MNSA/D stopped re-probing
after a drop-listed group: only ``optimizer_calls`` and ``creation_cost``
moved then (547 -> 345 calls on U25-S-100, 198 -> 134 on U25-C-30, 5
work units per call saved), every list, count and epoch stayed; regenerate
(only when a change to the tuning outcome is intended) with
``PYTHONPATH=src python tests/core/test_tuning_golden.py``.
``... test_tuning_golden.py --diff`` recomputes the fields without
touching the file and prints the ones that moved; CI runs it so a red
golden test says what moved.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.backends.memory import MemoryBackend
from repro.core.mnsa import MnsaConfig
from repro.core.mnsad import mnsad_for_workload
from repro.datagen import make_tpcd_database
from repro.workload import generate_workload

GOLDEN = Path(__file__).with_name("golden_tuning.json")

#: workload -> TPC-D scale factor
WORKLOADS = {"U25-S-100": 0.01, "U25-C-30": 0.002}


def tuning_outcome(name: str) -> dict:
    database = make_tpcd_database(scale=WORKLOADS[name], z=2.0, seed=42)
    queries = generate_workload(database, name, seed=7).queries()
    result = mnsad_for_workload(
        MemoryBackend(database), queries, config=MnsaConfig()
    )
    stats = database.stats
    outcome = {
        "created": [str(key) for key in result.created],
        "retained": [str(key) for key in result.retained],
        "dropped": [str(key) for key in result.dropped],
        "iterations": result.iterations,
        "optimizer_calls": result.optimizer_calls,
        "stop_reason": result.stop_reason,
        "creation_cost": result.creation_cost.hex(),
        "epoch": stats.epoch,
    }
    stats.purge_drop_list()
    outcome["retained_update_cost"] = stats.update_cost_of_keys(
        stats.visible_keys()
    ).hex()
    return outcome


def diff_against_golden() -> int:
    """Print the fields that left the golden file; the file is only
    read.  Returns the process exit code."""
    golden = json.loads(GOLDEN.read_text())
    moved = 0
    for name in WORKLOADS:
        actual, expected = tuning_outcome(name), golden.get(name, {})
        for field in sorted(set(actual) | set(expected)):
            if actual.get(field) != expected.get(field):
                moved += 1
                print(f"{name}.{field}:")
                print(f"  golden {expected.get(field)!r}")
                print(f"  now    {actual.get(field)!r}")
    for name in sorted(set(golden) - set(WORKLOADS)):
        moved += 1
        print(f"gone    {name}")
    if not moved:
        print(f"{len(WORKLOADS)} workloads match {GOLDEN.name}")
    return 1 if moved else 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tuning_outcome_matches_golden(name):
    assert tuning_outcome(name) == json.loads(GOLDEN.read_text())[name]


def test_diff_mode_names_moved_fields_and_leaves_the_file(
    tmp_path, monkeypatch, capsys
):
    module = sys.modules[__name__]
    outcome = {"iterations": 3, "stop_reason": "workload"}
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "WORKLOADS", {"W": 0.0})
    monkeypatch.setattr(module, "tuning_outcome", lambda name: dict(outcome))
    golden.write_text(json.dumps({"W": {**outcome, "iterations": 4}}))
    before = golden.read_text()
    assert diff_against_golden() == 1
    out = capsys.readouterr().out
    assert "W.iterations" in out and "stop_reason" not in out
    assert golden.read_text() == before
    golden.write_text(json.dumps({"W": outcome}))
    assert diff_against_golden() == 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        sys.exit(diff_against_golden())
    if sys.argv[1:]:
        sys.exit(f"usage: {sys.argv[0]} [--diff]")
    GOLDEN.write_text(
        json.dumps(
            {name: tuning_outcome(name) for name in WORKLOADS},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")

"""Count pins for the cold tuning loop.

``golden_tuning.json`` holds, for ``U25-S-100`` (scale 0.01) and
``U25-C-30`` (scale 0.002) at z=2, data seed 42, RAGS seed 7, what
``mnsad_for_workload(MemoryBackend(database), queries, MnsaConfig())``
decided and what it cost: the ``created`` / ``retained`` / ``dropped``
lists as strings, ``iterations``, ``optimizer_calls``, ``stop_reason``,
``creation_cost.hex()``, the statistics epoch after the pass, and — after
``purge_drop_list()`` — ``update_cost_of_keys(visible_keys()).hex()``
(a float sum, so the order of ``visible_keys()`` is part of the pin).
The ``mnsa <workload>`` entries pin ``mnsa_for_workload`` the same way:
``created`` / ``skipped``, the counts, the stop reason, the creation
cost and the epoch.  They were generated before MNSA and MNSA/D were
folded into one loop, which left every one of them in place.

The file was generated on the commit where MNSA/D stopped re-probing
after a drop-listed group: only ``optimizer_calls`` and ``creation_cost``
moved then (547 -> 345 calls on U25-S-100, 198 -> 134 on U25-C-30, 5
work units per call saved), every list, count and epoch stayed; regenerate
(only when a change to the tuning outcome is intended) with
``PYTHONPATH=src python tests/core/test_tuning_golden.py``.
``... test_tuning_golden.py --diff`` recomputes the fields without
touching the file and prints the ones that moved; CI runs it so a red
golden test says what moved.

A plan cache may only shift optimizer work into cache hits: the same
pass through ``MemoryBackend(database, Optimizer(database,
cache=PlanCache()))`` must match the golden file too, and a cached MNSA
or MNSA/D pass must decide and cost exactly what the uncached one does.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.backends.memory import MemoryBackend
from repro.core.mnsa import MnsaConfig, mnsa_for_workload
from repro.core.mnsad import mnsad_for_workload
from repro.datagen import make_tpcd_database
from repro.optimizer import Optimizer, PlanCache
from repro.workload import generate_workload

GOLDEN = Path(__file__).with_name("golden_tuning.json")

#: workload -> TPC-D scale factor
WORKLOADS = {"U25-S-100": 0.01, "U25-C-30": 0.002}

#: golden entry -> (workload, tuner); MNSA/D's entries are the bare names
ENTRIES = {
    **{name: (name, mnsad_for_workload) for name in WORKLOADS},
    **{f"mnsa {name}": (name, mnsa_for_workload) for name in WORKLOADS},
}


def _backend(database, cached: bool) -> MemoryBackend:
    if cached:
        return MemoryBackend(database, Optimizer(database, cache=PlanCache()))
    return MemoryBackend(database)


def _workload(name: str):
    database = make_tpcd_database(scale=WORKLOADS[name], z=2.0, seed=42)
    return database, generate_workload(database, name, seed=7).queries()


def tuning_outcome(entry: str, cached: bool = False) -> dict:
    name, tune = ENTRIES[entry]
    database, queries = _workload(name)
    result = tune(_backend(database, cached), queries, config=MnsaConfig())
    stats = database.stats
    outcome = {
        "created": [str(key) for key in result.created],
        "iterations": result.iterations,
        "optimizer_calls": result.optimizer_calls,
        "stop_reason": result.stop_reason,
        "creation_cost": result.creation_cost.hex(),
        "epoch": stats.epoch,
    }
    if tune is mnsa_for_workload:
        outcome["skipped"] = [str(key) for key in result.skipped]
        return outcome
    outcome["retained"] = [str(key) for key in result.retained]
    outcome["dropped"] = [str(key) for key in result.dropped]
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
    for name in ENTRIES:
        actual, expected = tuning_outcome(name), golden.get(name, {})
        for field in sorted(set(actual) | set(expected)):
            if actual.get(field) != expected.get(field):
                moved += 1
                print(f"{name}.{field}:")
                print(f"  golden {expected.get(field)!r}")
                print(f"  now    {actual.get(field)!r}")
    for name in sorted(set(golden) - set(ENTRIES)):
        moved += 1
        print(f"gone    {name}")
    if not moved:
        print(f"{len(ENTRIES)} entries match {GOLDEN.name}")
    return 1 if moved else 0


@pytest.mark.parametrize(
    "name, cached",
    [pytest.param(name, False, id=name) for name in sorted(WORKLOADS)]
    + [pytest.param(name, True, id=f"{name}-cached") for name in sorted(WORKLOADS)]
    + [
        pytest.param(f"mnsa {name}", False, id=f"mnsa-{name}")
        for name in sorted(WORKLOADS)
    ],
)
def test_tuning_outcome_matches_golden(name, cached):
    assert tuning_outcome(name, cached) == json.loads(GOLDEN.read_text())[name]


def _snapshot(result) -> tuple:
    """The fields a cached pass must reproduce."""
    return (
        result.created,
        result.retained,
        result.dropped,
        result.skipped,
        result.iterations,
        result.optimizer_calls,
        result.stop_reason,
        result.creation_cost.hex(),
    )


@pytest.mark.parametrize("tune", [mnsa_for_workload, mnsad_for_workload])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_cached_pass_matches_uncached(name, tune):
    """Tuning the workload twice over: the second pass meets its own
    plans in the cache, fresh or to be revalidated."""
    outcomes = []
    for cached in (False, True):
        database, queries = _workload(name)
        backend = _backend(database, cached)
        outcomes.append(_snapshot(tune(backend, queries + queries)))
    assert backend.optimizer.cache.hit_count > 0
    assert outcomes[1] == outcomes[0]


def test_diff_mode_names_moved_fields_and_leaves_the_file(
    tmp_path, monkeypatch, capsys
):
    module = sys.modules[__name__]
    outcome = {"iterations": 3, "stop_reason": "workload"}
    golden = tmp_path / "golden.json"
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "ENTRIES", {"W": ("W", None)})
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
            {name: tuning_outcome(name) for name in ENTRIES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {GOLDEN}")

"""``repro.analysis`` — repo-specific static analysis for the statistics
service.

An AST-based lint suite (stdlib :mod:`ast`, zero dependencies) with
eleven rules guarding the invariants the concurrent service layer, the
plan cache, and the statistics lifecycle depend on:

=====  =======================  ====================================================
id     name                     checks
=====  =======================  ====================================================
R001   guarded-by               ``guarded_by()``-annotated attributes accessed
                                only under their declared lock
R002   lock-order               the global lock acquisition graph is acyclic
R003   exhaustive-dispatch      marked visitors handle every SQL AST / plan node
R004   no-blocking-under-lock   no sleep/join/wait/blocking-get or statement
                                execution while holding a component lock
R005   magic-number-literals    ε / 1−ε selectivity pins come from
                                ``optimizer/variables.py``, never inline floats
R006   epoch-bump               every path mutating epoch-versioned guarded
                                state also bumps ``_epoch``
R007   metrics-registry         metric names are literals registered in
                                ``service/metric_names.py``
R009   plan-state-versioning    state read on the optimize path is versioned
                                into the plan-cache key
R010   guarded-escape           guarded mutable containers do not escape by
                                reference
R011   check-then-act           no mutation governed by a condition computed
                                under an earlier hold of the same lock
R014   shard-lock-order         multi-shard locks taken in ascending shard order
=====  =======================  ====================================================

(R008, R012, R013 and R015 are retired — runtime tests hold their
invariants; the ids are not renumbered.)  R002, R006, R007, R009 and
R011 run on a summary-based interprocedural **effect analysis**
(:mod:`repro.analysis.effects`): per-function effect sets — attributes
mutated, metrics emitted, locks taken — propagated through
``self.method()`` and module-call edges, on one call graph and one
worklist fixpoint (:mod:`repro.analysis.core`).

Run via ``repro lint src/`` (``--cache`` for incremental re-runs,
``--format json|sarif`` for machine-readable output, ``--fix`` for
mechanical rewrites) or programmatically::

    from repro.analysis import run_lint
    findings = run_lint(["src"])

See ``docs/analysis.md`` for the rule catalog and suppression syntax.
"""

from repro.analysis.framework import (
    BASELINE_FILENAME,
    Finding,
    Rule,
    RULES,
    all_rule_ids,
    lint_paths,
    lint_project,
    build_project,
    load_baseline,
    save_baseline,
)
from repro.analysis.engine import CACHE_FILENAME, run_lint
from repro.analysis.model import Project

__all__ = [
    "BASELINE_FILENAME",
    "CACHE_FILENAME",
    "Finding",
    "Project",
    "Rule",
    "RULES",
    "all_rule_ids",
    "build_project",
    "lint_paths",
    "lint_project",
    "load_baseline",
    "run_lint",
    "save_baseline",
]

"""Experiment runners reproducing every table and figure of the paper.

Each runner is a pure function over freshly built databases (supplied via
a factory, because statistics accumulate), returning a result dataclass
whose fields mirror the metric the paper reports.  :data:`EXPERIMENTS`
(:mod:`repro.experiments.registry`) describes each experiment once: its
documented arguments, its records and its table.  ``repro experiment``,
the golden ``tests/experiments/golden_experiments.json`` and
EXPERIMENTS.md's tables all come from it.

| Paper artifact | Runner |
|---|---|
| Intro experiment (Sec 1)   | :func:`run_intro_experiment` |
| Figure 3                   | :func:`run_figure3` |
| Figure 4                   | :func:`run_figure4` |
| Sec 8.2 single-column MNSA | :func:`run_single_column_mnsa` |
| Table 1                    | :func:`run_table1` |

Ablations and extensions (see DESIGN.md §5b):
:func:`run_threshold_sweep`, :func:`run_next_stat_ablation`,
:func:`run_shrinking_ablation`, :func:`run_equivalence_ablation`,
:func:`run_histogram_kind_ablation`, :func:`run_sampling_ablation`,
:func:`run_joint_histogram_ablation`, :func:`run_aging_experiment`,
:func:`run_incremental_maintenance_experiment`, and the q-error
instrumentation in :mod:`repro.experiments.accuracy`.
"""

from repro.experiments.common import (
    default_database_factory,
    workload_execution_cost,
)
from repro.experiments.intro import IntroResult, run_intro_experiment
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import (
    Figure4Result,
    run_figure4,
    run_single_column_mnsa,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.ablations import (
    EquivalenceAblationRow,
    NextStatAblationResult,
    ShrinkingAblationResult,
    ThresholdSweepRow,
    run_equivalence_ablation,
    run_next_stat_ablation,
    run_shrinking_ablation,
    run_threshold_sweep,
)

from repro.experiments.accuracy import (
    AccuracyReport,
    estimation_accuracy,
)
from repro.experiments.statistics_ablations import (
    HistogramKindRow,
    JoinEstimationRow,
    JointHistogramRow,
    SamplingRow,
    run_histogram_kind_ablation,
    run_join_estimation_ablation,
    run_joint_histogram_ablation,
    run_sampling_ablation,
)
from repro.experiments.aging import AgingRow, run_aging_experiment
from repro.experiments.incremental import (
    MaintenanceRow,
    run_incremental_maintenance_experiment,
)
from repro.experiments.registry import EXPERIMENTS, SCALE, Experiment

__all__ = [
    "AccuracyReport",
    "estimation_accuracy",
    "EXPERIMENTS",
    "Experiment",
    "SCALE",
    "HistogramKindRow",
    "run_histogram_kind_ablation",
    "JointHistogramRow",
    "run_joint_histogram_ablation",
    "JoinEstimationRow",
    "run_join_estimation_ablation",
    "SamplingRow",
    "run_sampling_ablation",
    "AgingRow",
    "run_aging_experiment",
    "MaintenanceRow",
    "run_incremental_maintenance_experiment",
    "ThresholdSweepRow",
    "run_threshold_sweep",
    "NextStatAblationResult",
    "run_next_stat_ablation",
    "ShrinkingAblationResult",
    "run_shrinking_ablation",
    "EquivalenceAblationRow",
    "run_equivalence_ablation",
    "default_database_factory",
    "workload_execution_cost",
    "IntroResult",
    "run_intro_experiment",
    "Figure3Result",
    "run_figure3",
    "Figure4Result",
    "run_figure4",
    "run_single_column_mnsa",
    "Table1Result",
    "run_table1",
]

"""Tests for repro.cli."""

import os

import pytest

from repro.cli import main
from repro.storage.persistence import save_database

from tests.util import simple_db


@pytest.fixture
def tpcd_dir(tmp_path):
    """A small TPC-D database saved to disk."""
    path = str(tmp_path / "db")
    assert (
        main(
            [
                "generate",
                "--scale",
                "0.002",
                "--z",
                "2",
                "--seed",
                "11",
                "--out",
                path,
            ]
        )
        == 0
    )
    return path


class TestGenerate:
    def test_generates_and_reports(self, tpcd_dir, capsys):
        # fixture already ran generate; re-run to capture its output
        main(
            [
                "generate",
                "--scale",
                "0.002",
                "--z",
                "0",
                "--out",
                tpcd_dir + "_b",
            ]
        )
        out = capsys.readouterr().out
        assert "TPCD_0" in out
        assert "lineitem" in out

    def test_mix_mode(self, tmp_path, capsys):
        main(
            [
                "generate",
                "--scale",
                "0.002",
                "--z",
                "mix",
                "--out",
                str(tmp_path / "m"),
            ]
        )
        assert "TPCD_MIX" in capsys.readouterr().out


class TestQuery:
    def test_select(self, tpcd_dir, capsys):
        code = main(
            [
                "query",
                "--db",
                tpcd_dir,
                "SELECT COUNT(*) FROM orders WHERE o_totalprice > 100000",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "Scan(orders)" in out
        assert "actual cost" in out

    def test_explain_only(self, tpcd_dir, capsys):
        main(
            [
                "query",
                "--db",
                tpcd_dir,
                "--explain",
                "SELECT * FROM nation",
            ]
        )
        out = capsys.readouterr().out
        assert "Scan(nation)" in out
        assert "actual cost" not in out

    def test_limit(self, tpcd_dir, capsys):
        main(
            [
                "query",
                "--db",
                tpcd_dir,
                "--limit",
                "3",
                "SELECT * FROM nation",
            ]
        )
        out = capsys.readouterr().out
        assert "more)" in out

    def test_dml(self, tpcd_dir, capsys):
        main(
            [
                "query",
                "--db",
                tpcd_dir,
                "DELETE FROM orders WHERE o_orderkey = 1",
            ]
        )
        assert "row(s) affected" in capsys.readouterr().out


class TestWorkloadAndTune:
    def test_workload_to_file(self, tpcd_dir, tmp_path, capsys):
        out_file = str(tmp_path / "w.sql")
        main(
            [
                "workload",
                "--db",
                tpcd_dir,
                "--name",
                "U25-S-100",
                "--out",
                out_file,
            ]
        )
        assert os.path.exists(out_file)
        assert "100 statements" in capsys.readouterr().out
        with open(out_file) as handle:
            assert "SELECT" in handle.read()

    @pytest.mark.parametrize("mode", ["mnsa", "mnsad", "syntactic"])
    def test_tune_online_modes(self, tpcd_dir, tmp_path, capsys, mode):
        out_file = str(tmp_path / "w.sql")
        main(
            [
                "workload",
                "--db",
                tpcd_dir,
                "--name",
                "U0-S-100",
                "--out",
                out_file,
            ]
        )
        capsys.readouterr()
        code = main(
            ["tune", "--db", tpcd_dir, "--workload", out_file, "--mode", mode]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "created" in out

    def test_tune_offline(self, tpcd_dir, tmp_path, capsys):
        out_file = str(tmp_path / "w.sql")
        main(
            [
                "workload",
                "--db",
                tpcd_dir,
                "--name",
                "U0-S-100",
                "--out",
                out_file,
            ]
        )
        capsys.readouterr()
        main(["tune", "--db", tpcd_dir, "--workload", out_file])
        out = capsys.readouterr().out
        assert "Shrinking Set retained" in out


class TestBackendSelection:
    def test_tune_sqlite_backend(self, tpcd_dir, tmp_path, capsys):
        out_file = str(tmp_path / "w.sql")
        main(
            [
                "workload",
                "--db",
                tpcd_dir,
                "--name",
                "U0-S-100",
                "--out",
                out_file,
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "tune",
                "--db",
                tpcd_dir,
                "--workload",
                out_file,
                "--mode",
                "mnsa",
                "--backend",
                "sqlite",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "created" in out

    def test_tune_sqlite_backend_mnsad_with_dml(
        self, tpcd_dir, tmp_path, capsys
    ):
        """MNSA/D over SQLite on a workload with DML: the drop-list
        SQLite decided is mirrored into the statistics the CLI reports."""
        out_file = str(tmp_path / "w.sql")
        main(
            [
                "workload",
                "--db",
                tpcd_dir,
                "--name",
                "U25-S-20",
                "--seed",
                "7",
                "--out",
                out_file,
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "tune",
                "--db",
                tpcd_dir,
                "--workload",
                out_file,
                "--mode",
                "mnsad",
                "--backend",
                "sqlite",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mnsad: processed 20 statements" in out
        assert "  drop-list: " in out

    def test_unknown_backend_exits_2(self, tpcd_dir, tmp_path, capsys):
        out_file = str(tmp_path / "w.sql")
        main(
            [
                "workload",
                "--db",
                tpcd_dir,
                "--name",
                "U0-S-100",
                "--out",
                out_file,
            ]
        )
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "tune",
                    "--db",
                    tpcd_dir,
                    "--workload",
                    out_file,
                    "--backend",
                    "bogus",
                ]
            )
        assert excinfo.value.code == 2

    def test_serve_sqlite_backend(self, tpcd_dir, capsys):
        code = main(
            [
                "serve",
                "--db",
                tpcd_dir,
                "--workload",
                "U25-S-10",
                "--clients",
                "1",
                "--seed",
                "7",
                "--backend",
                "sqlite",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "sqlite analysis backend" in out
        assert "backend.analyses" in out


class TestServe:
    def test_serve_small_workload(self, tpcd_dir, capsys):
        code = main(
            [
                "serve",
                "--db",
                tpcd_dir,
                "--workload",
                "U25-S-20",
                "--workers",
                "2",
                "--clients",
                "2",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "statements submitted:  20" in out
        assert "statistics created off the query path" in out
        # at least one statistic was built by the background workers
        assert "built " in out
        assert "--- metrics" in out
        assert "advisor.stats_created" in out
        assert "error" not in out

    def test_serve_plan_only_mnsa(self, tpcd_dir, capsys):
        code = main(
            [
                "serve",
                "--db",
                tpcd_dir,
                "--workload",
                "U25-S-10",
                "--policy",
                "mnsa",
                "--no-execute",
                "--clients",
                "1",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # plan-only mode never executes, so no execution cost accrues
        assert "service.execution_cost" not in out
        assert "service.queries" in out

    def test_serve_with_feedback(self, tpcd_dir, capsys):
        code = main(
            [
                "serve",
                "--db",
                tpcd_dir,
                "--workload",
                "U25-S-10",
                "--refresh-policy",
                "qerror",
                "--clients",
                "1",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "feedback on (qerror refresh)" in out
        assert "--- feedback (worst targets)" in out
        assert "feedback.observations" in out

    def test_serve_with_learned_corrections(self, tpcd_dir, capsys):
        code = main(
            [
                "serve",
                "--db",
                tpcd_dir,
                "--workload",
                "U25-S-10",
                "--learned",
                "--clients",
                "1",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # --learned implies feedback even without --feedback
        assert "feedback on (churn refresh)" in out
        assert "learned corrections (multiplicative)" in out
        assert "--- corrections" in out
        assert "correction.observations" in out


class TestFeedbackCommand:
    def test_feedback_report(self, capsys):
        code = main(
            [
                "feedback",
                "--scale",
                "0.002",
                "--workload",
                "U50-S-20",
                "--seed",
                "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "operator observations" in out
        assert "decayed q" in out  # the report table rendered
        # the update-heavy workload misestimates something somewhere
        assert "due for refresh" in out or "no table reaches" in out
        # without --learned the report advertises the flag
        assert "re-run with --learned" in out

    def test_feedback_report_with_learned_corrections(self, capsys):
        code = main(
            [
                "feedback",
                "report",
                "--scale",
                "0.002",
                "--workload",
                "U50-S-20",
                "--seed",
                "7",
                "--learned",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "decayed q" in out  # per-key decayed-max q-error table
        assert "--- corrections (multiplicative" in out
        assert "hits" in out and "misses" in out
        assert "factor" in out  # per-target factor table rendered


class TestExperiments:
    def test_intro(self, capsys):
        main(["experiment", "intro", "--scale", "0.002"])
        out = capsys.readouterr().out
        assert "plans changed" in out

    def test_figure4_single_z(self, capsys):
        main(
            [
                "experiment",
                "figure4",
                "--scale",
                "0.002",
                "--z",
                "2",
                "--queries",
                "10",
            ]
        )
        out = capsys.readouterr().out
        assert "creation reduction" in out

    def test_figure3_single_z(self, capsys):
        main(
            [
                "experiment",
                "figure3",
                "--scale",
                "0.002",
                "--z",
                "2",
                "--queries",
                "6",
            ]
        )
        assert "creation reduction" in capsys.readouterr().out

    def test_table1_single_z(self, capsys):
        main(
            [
                "experiment",
                "table1",
                "--scale",
                "0.002",
                "--z",
                "0",
                "--queries",
                "4",
            ]
        )
        assert "update-cost reduction" in capsys.readouterr().out

    def test_single_column_experiment(self, capsys):
        main(
            [
                "experiment",
                "single-column",
                "--scale",
                "0.002",
                "--z",
                "2",
                "--queries",
                "6",
            ]
        )
        assert "creation reduction" in capsys.readouterr().out

    def test_join_estimation_ablation(self, capsys):
        main(["ablation", "join-estimation", "--scale", "0.002"])
        out = capsys.readouterr().out
        assert "histogram join" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestAblations:
    @pytest.mark.parametrize(
        "which", ["threshold", "histograms", "sampling", "joint"]
    )
    def test_ablation_commands(self, capsys, which):
        code = main(["ablation", which, "--scale", "0.002"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip()

    def test_next_stat_ablation(self, capsys):
        main(["ablation", "next-stat", "--scale", "0.002"])
        assert "costliest-operator" in capsys.readouterr().out

    def test_shrinking_ablation(self, capsys):
        main(["ablation", "shrinking", "--scale", "0.002"])
        assert "Shrinking Set" in capsys.readouterr().out

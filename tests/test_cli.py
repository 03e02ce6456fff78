"""Tests for repro.cli."""

import os
import subprocess
import sys

import pytest

import repro
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


def _number(text: str) -> float:
    return float(text.replace(",", ""))


def _creation_parenthesis(line: str) -> list:
    """The parts of ``(creation cost N, M optimizer calls)`` in a
    ``tune`` summary line."""
    return line.split("creation cost ")[1].split(")")[0].split(", ")


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


class TestClosedPipe:
    def test_a_reader_that_stops_early_gets_no_traceback(self, tpcd_dir):
        """``repro query ... | head -1``: the output is far larger than a
        pipe buffer, so the program is still writing when the reader
        closes its end."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "query", "--db", tpcd_dir,
                "--limit", "100000", "SELECT * FROM lineitem",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            assert process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read().decode()
            code = process.wait(timeout=120)
        finally:
            process.kill()
            process.stderr.close()
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err
        assert code == 1


class TestSkewArgument:
    """``--z`` is parsed by argparse on every subcommand that takes it, so
    a bad value is a usage error (exit 2), not a ``ValueError``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--out", "unused", "--z", "abc"],
            ["serve", "--z", "abc"],
            ["feedback", "--z", "abc"],
            ["experiment", "aging", "--z", "abc"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_bad_skew_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid skew 'abc'" in err
        assert "Traceback" not in err

    def test_mix_and_numbers_parse(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["serve", "--z", "mix"]).z == "mix"
        assert parser.parse_args(["serve", "--z", "1.5"]).z == 1.5
        assert parser.parse_args(["serve"]).z == 2.0
        assert parser.parse_args(["generate", "--out", "d"]).z == 0.0


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
        lines = out.splitlines()
        assert ("optimizer calls" in lines[0]) == (mode != "syntactic")
        split = [line for line in lines if "creation cost split" in line]
        sampled = [line for line in lines if "(sampled 2000 rows)" in line]
        if mode != "mnsad":
            assert split == [] and sampled == []
            return
        # MNSA/D: the split adds up, and only drop-listed statistics
        # are left sampled
        total = _number(_creation_parenthesis(lines[0])[0])
        first, completions = (
            _number(part.rsplit(" ", 1)[1]) for part in split[0].split(", ")
        )
        assert completions > 0
        assert abs(first + completions - total) <= 1
        assert sampled
        assert all(line.startswith("  drop-list: ") for line in sampled)

    def test_tune_prints_the_analyses_optimizer_calls(
        self, tpcd_dir, tmp_path, capsys, monkeypatch
    ):
        """MNSA/D's summary line names the optimizer calls its analyses
        made, next to the creation cost they are charged into."""
        from repro.service import worker

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
        results = []
        analyze = worker.mnsad_for_query

        def recording(*args, **kwargs):
            results.append(analyze(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(worker, "mnsad_for_query", recording)
        code = main(
            ["tune", "--db", tpcd_dir, "--workload", out_file, "--mode", "mnsad"]
        )
        summary = capsys.readouterr().out.splitlines()[0]
        assert code == 0
        _cost, calls = _creation_parenthesis(summary)
        assert calls.endswith(" optimizer calls")
        assert results
        assert _number(calls.split()[0]) == sum(
            result.optimizer_calls for result in results
        )

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
        assert "correction.version" in out


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
        assert "re-run with --learned" not in out


class TestExperiments:
    def test_intro(self, capsys):
        assert main(["experiment", "intro", "--scale", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "| total | 11 of 17" in out
        assert "paper: 15 of 17 plans change" in out

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
        # --z keeps one database per workload, --queries caps each
        rows = [line for line in out.splitlines() if line.startswith("| TPCD")]
        assert [row.split("|")[1:3] for row in rows] == [
            [" TPCD_2   ", " U25-S-100 "],
            [" TPCD_2   ", " U0-S-500  "],
        ]
        assert "| 24 " in rows[0]  # candidates of 10 queries, not 30 (40)

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
        out = capsys.readouterr().out
        assert "update-cost reduction" in out
        assert "TPCD_0" in out and "TPCD_2" not in out

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
        main(["experiment", "join-estimation", "--scale", "0.002"])
        out = capsys.readouterr().out
        assert "histogram join" in out

    def test_several_names_print_in_the_order_given(self, capsys):
        assert main(["experiment", "join-estimation", "histograms"]) == 0
        out = capsys.readouterr().out
        assert out.index("half the suppliers deleted") < out.index(
            "MaxDiff vs. equi-depth"
        )
        assert "Figure 3" not in out

    def test_unknown_experiment_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "joint", "figure5"])
        assert exit_info.value.code == 2
        assert "unknown experiment 'figure5'" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestAblations:
    """The former ``ablation`` subcommand's names run through
    ``experiment``.  These are the cheap ones; the golden experiments
    test runs every entry, and CI runs ``experiment aging``."""

    def test_ablation_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["ablation", "joint", "--scale", "0.002"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'ablation'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "which",
        ["threshold", "histograms", "sampling", "joint", "maintenance"],
    )
    def test_ablation_commands(self, capsys, which):
        code = main(["experiment", which, "--scale", "0.002"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("## ") and "\n| ---" in out

    def test_next_stat_ablation(self, capsys):
        main(["experiment", "next-stat", "--scale", "0.002"])
        assert "costliest operator" in capsys.readouterr().out

    def test_shrinking_ablation(self, capsys):
        main(["experiment", "shrinking", "--scale", "0.002"])
        assert "Shrinking Set" in capsys.readouterr().out

"""Tests for the command-line interface."""

import ast
import json
import os
import pathlib
import re
import socket
import subprocess
import sys

import pytest

from repro.cli import COMMANDS, build_parser, main

REPO = pathlib.Path(__file__).resolve().parents[1]
#: stdout + stderr of the CLI at a99611a (COLUMNS=80), before the
#: per-command table: what a user sees must not have moved.  Deliberate
#: removals since: ``repro profile``, ``repro lint --profile`` and
#: ``repro trace run`` (``repro broker`` now takes traces, so the
#: ``broker`` and ``trace`` help lines changed with it).
GOLDENS = pathlib.Path(__file__).parent / "goldens" / "cli"

#: One representative argv per command (every sub-subcommand of trace).
REPRESENTATIVE_ARGV = {
    "list-workloads": [["list-workloads"]],
    "run": [["run", "knn", "-n", "2", "-c", "4", "--cluster",
             "opteron-infiniband", "--faults", "s.json"]],
    "predict": [["predict", "p.json", "-n", "2", "-c", "4", "--model",
                 "no-communication"]],
    "classify": [["classify", "knn"]],
    "figure": [["figure", "fig09", "--fast", "--chart"]],
    "suite": [["suite", "--fast", "--only", "fig09", "--journal", "j"]],
    "campaign": [["campaign", "m.json", "--resume"]],
    "broker": [
        ["broker", "w.json", "--policy", "min-cost", "--recovery", "migrate"],
        ["broker", "t.gwf"],
    ],
    "trace": [
        ["trace", "generate", "gwa-mixed", "--count", "50"],
        ["trace", "load", "t.gwf", "-o", "t.json"],
    ],
    "lint": [["lint", "src/repro", "--flow", "--select", "REP003",
              "--format", "json"]],
    "shares": [["shares", "defect", "--size", "350 MB"]],
    "whatif": [["whatif", "p.json", "--tolerance", "0.1"]],
    "serve": [["serve", "--port", "0", "--rate", "1000"]],
}


class TestCommandTable:
    """The table and ``build_parser(only=...)`` are invisible from outside."""

    def test_every_command_has_a_representative_argv(self):
        assert [name for name, _, _ in COMMANDS] == list(REPRESENTATIVE_ARGV)

    @pytest.mark.parametrize("name", sorted(REPRESENTATIVE_ARGV))
    def test_only_parser_parses_like_the_full_parser(self, name):
        (owner,) = [owner for command, _, owner in COMMANDS if command == name]
        for argv in REPRESENTATIVE_ARGV[name]:
            narrow = build_parser(only=name).parse_args(argv)
            assert vars(narrow) == vars(build_parser().parse_args(argv))
            # The handler lives in the module the table names.
            assert narrow.func.__module__ == owner

    @pytest.mark.parametrize(
        "argv, golden, code",
        [
            (["--help"], "help.txt", 0),
            ([], "noargs.txt", 2),
            (["nosuch"], "nosuch.txt", 2),
            (["figure", "fig99"], "figure_fig99.txt", 2),
            (["lint", "--help"], "lint_help.txt", 0),
        ],
    )
    def test_usage_text_is_the_parent_commits(
        self, argv, golden, code, capsys, monkeypatch
    ):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == code
        captured = capsys.readouterr()
        assert captured.out + captured.err == (GOLDENS / golden).read_text()

    def test_no_flag_was_added(self):
        owners = {owner for _, _, owner in COMMANDS} | {"repro.cli"}
        sources = [
            REPO / "src" / (owner.replace(".", "/") + ".py")
            for owner in sorted(owners)
        ]
        assert sum(
            len(re.findall(r"\.add_argument\(", path.read_text()))
            for path in sources
        ) == 76

    def test_cli_module_is_the_table_plus_main(self):
        """No command lives in ``repro/cli.py``, and importing it imports
        nothing but the stdlib's parser plumbing and the error base."""
        tree = ast.parse((REPO / "src/repro/cli.py").read_text())
        defined = [
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        assert sorted(defined) == ["build_parser", "main"]
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
        assert imported <= {
            "__future__", "argparse", "sys", "importlib", "typing",
            "repro.errors",
        }

    def test_predict_loads_no_other_subsystem(self, tmp_path):
        """The docstring's promise: ``repro predict`` runs without the
        broker, the service, the linter or the campaign engine — and,
        running no kernel, without SciPy."""
        profile = tmp_path / "knn.json"
        assert main(["run", "knn", "--size", "350 MB",
                     "--save-profile", str(profile)]) == 0
        script = (
            "import json, sys\n"
            "from repro.cli import build_parser, main\n"
            "build_parser(only='predict')\n"
            "code = main(['predict', sys.argv[1], '-n', '2', '-c', '4'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(profile)],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        foreign = ("repro.broker", "repro.service", "repro.lint",
                   "repro.campaign")
        assert [m for m in loaded if m.startswith(foreign)] == []
        assert [m for m in loaded if m.startswith("scipy")] == []

    def test_serve_loads_no_broker(self):
        """``broker-submit`` is answered 501 without a broker behind it,
        so a served run never imports the broker package."""
        script = (
            "import json, sys\n"
            "from repro.cli import build_parser, main\n"
            "build_parser(only='serve')\n"
            "code = main(['serve', '--requests', '20'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout.splitlines()[-1])
        assert code == 0
        assert [m for m in loaded if m.startswith("repro.broker")] == []


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])


class TestListWorkloads:
    def test_lists_all(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        for name in ["kmeans", "em", "knn", "vortex", "defect", "apriori"]:
            assert name in out
        assert "paper eval" in out and "extension" in out


class TestRun:
    def test_run_prints_breakdown(self, capsys):
        code = main(["run", "knn", "-n", "1", "-c", "2", "--size", "350 MB"])
        assert code == 0
        out = capsys.readouterr().out
        assert "T_disk" in out and "T_network" in out and "total" in out

    def test_unknown_workload(self, capsys):
        assert main(["run", "sorting"]) == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_invalid_configuration_reports_error(self, capsys):
        # more data nodes than compute nodes violates M >= N
        code = main(["run", "knn", "-n", "4", "-c", "2", "--size", "350 MB"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_save_profile(self, tmp_path, capsys):
        path = tmp_path / "knn.json"
        code = main(
            ["run", "knn", "-n", "1", "-c", "1", "--size", "350 MB",
             "--save-profile", str(path)]
        )
        assert code == 0
        assert path.exists()

    def test_run_with_fault_scenario(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(
            '{"seed": 3, "faults": ['
            '{"type": "data-node-crash", "pass": 0, "data_node": 1,'
            ' "at_fraction": 0.5},'
            '{"type": "chunk-read-error", "rate": 0.2}]}'
        )
        code = main(["run", "knn", "-n", "2", "-c", "4", "--size", "350 MB",
                     "--faults", str(scenario)])
        assert code == 0
        out = capsys.readouterr().out
        assert "fault/recovery event(s)" in out
        assert "data-node-failover" in out

    def test_missing_fault_scenario_reports_error(self, tmp_path, capsys):
        code = main(["run", "knn", "-n", "1", "-c", "2", "--size", "350 MB",
                     "--faults", str(tmp_path / "nope.json")])
        assert code == 1
        assert "scenario file not found" in capsys.readouterr().err


class TestPredict:
    def test_round_trip_with_run(self, tmp_path, capsys):
        path = tmp_path / "knn.json"
        main(["run", "knn", "-n", "1", "-c", "1", "--size", "350 MB",
              "--save-profile", str(path)])
        capsys.readouterr()
        code = main(["predict", str(path), "-n", "2", "-c", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "global-reduction model" in out
        assert "2-4" in out

    def test_model_choice(self, tmp_path, capsys):
        path = tmp_path / "knn.json"
        main(["run", "knn", "-n", "1", "-c", "1", "--size", "350 MB",
              "--save-profile", str(path)])
        capsys.readouterr()
        code = main(
            ["predict", str(path), "-n", "2", "-c", "4",
             "--model", "no-communication"]
        )
        assert code == 0
        assert "no-communication model" in capsys.readouterr().out

    def test_missing_profile(self, tmp_path, capsys):
        code = main(["predict", str(tmp_path / "nope.json"), "-n", "1", "-c", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestFigure:
    def test_fast_figure(self, capsys):
        code = main(["figure", "fig09", "--fast"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "global reduction" in out


class TestClassify:
    def test_classify_knn(self, capsys):
        code = main(["classify", "knn"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reduction object size class: constant" in out
        assert "global reduction time class: linear-constant" in out


class TestSuite:
    def test_fast_suite_subset(self, capsys):
        code = main(["suite", "--fast", "--only", "fig09"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig09" in out
        assert "match the paper" in out


class TestShares:
    def test_shares_table(self, capsys):
        code = main(["shares", "defect"])
        assert code == 0
        out = capsys.readouterr().out
        assert "dominant" in out
        assert "8-16" in out

    def test_unknown_workload(self, capsys):
        assert main(["shares", "sorting"]) == 2


class TestWhatIf:
    def test_whatif_from_saved_profile(self, tmp_path, capsys):
        path = tmp_path / "km.json"
        main(["run", "kmeans", "-n", "1", "-c", "1", "--size", "350 MB",
              "--save-profile", str(path)])
        capsys.readouterr()
        code = main(["whatif", str(path), "--tolerance", "0.10"])
        assert code == 0
        out = capsys.readouterr().out
        assert "marginal speedups" in out
        assert "recommended" in out
        assert "8-16" in out


class TestFigureChart:
    def test_chart_flag_renders_bars(self, capsys):
        code = main(["figure", "fig09", "--fast", "--chart"])
        assert code == 0
        out = capsys.readouterr().out
        assert "relative error" in out
        assert "█" in out


class TestSuiteJournal:
    def test_resume_requires_journal(self, capsys):
        code = main(["suite", "--fast", "--resume"])
        assert code == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_journaled_suite_and_resume(self, tmp_path, capsys):
        journal = str(tmp_path / "suite.journal.json")
        code = main(
            ["suite", "--fast", "--only", "fig09", "--journal", journal]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "completed" in out
        assert "match the paper" in out

        # A second run without --resume must refuse to clobber the journal.
        code = main(
            ["suite", "--fast", "--only", "fig09", "--journal", journal]
        )
        assert code == 1
        assert "already exists" in capsys.readouterr().err

        # --resume restores the settled entry without re-running it.
        code = main(
            [
                "suite",
                "--fast",
                "--only",
                "fig09",
                "--journal",
                journal,
                "--resume",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed" in out


class TestSuiteWithoutJournal:
    """A run without ``--journal`` is the same campaign on a scratch
    journal: every option of ``repro suite`` takes effect."""

    def test_results_dir_matches_a_journaled_run(self, tmp_path, capsys):
        argv = ["suite", "--fast", "--only", "fig09", "--results-dir"]
        assert main(argv + [str(tmp_path / "plain")]) == 0
        assert main(
            argv + [str(tmp_path / "journaled"),
                    "--journal", str(tmp_path / "suite.journal")]
        ) == 0
        plain = (tmp_path / "plain" / "fig09.json").read_bytes()
        assert plain == (tmp_path / "journaled" / "fig09.json").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "journaled", "plain", "suite.journal",
        ]

    def test_deadline_times_an_experiment_out(self, capsys):
        code = main(
            ["suite", "--fast", "--only", "fig09", "--deadline", "0.000001"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "timed-out" in out
        assert "match the paper" not in out


class TestCampaign:
    def _write_manifest(self, tmp_path, ids=("fig09",)):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                {
                    "name": "cli-campaign",
                    "entries": [{"id": i, "fast": True} for i in ids],
                }
            )
        )
        return path

    def test_campaign_runs_manifest(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        code = main(["campaign", str(manifest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig09" in out
        assert "campaign 'cli-campaign': 1 completed" in out
        # Default journal path sits beside the manifest.
        assert (tmp_path / "campaign.json.journal.json").exists()

    def test_campaign_resume_and_results_dir(self, tmp_path, capsys):
        manifest = self._write_manifest(tmp_path)
        results = tmp_path / "results"
        assert main(["campaign", str(manifest), "--results-dir", str(results)]) == 0
        capsys.readouterr()
        code = main(
            ["campaign", str(manifest), "--results-dir", str(results), "--resume"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 resumed" in out
        assert (results / "fig09.json").exists()

    def test_resume_rebuilds_lost_artifacts(self, tmp_path, capsys):
        # Artifacts are unsynced copies of the journal: an OS crash may
        # leave one empty or missing, and --resume writes it again.
        manifest = self._write_manifest(tmp_path, ("fig09", "fig04"))
        results = tmp_path / "results"
        argv = ["campaign", str(manifest), "--results-dir", str(results)]
        assert main(argv) == 0
        written = {p.name: p.read_bytes() for p in results.iterdir()}
        assert sorted(written) == ["fig04.json", "fig09.json"]
        (results / "fig09.json").write_bytes(b"")
        (results / "fig04.json").unlink()
        capsys.readouterr()
        assert main(argv + ["--resume"]) == 0
        assert "2 resumed" in capsys.readouterr().out
        assert {p.name: p.read_bytes() for p in results.iterdir()} == written

    def test_missing_manifest_reports_error(self, tmp_path, capsys):
        code = main(["campaign", str(tmp_path / "absent.json")])
        assert code == 1
        assert "no campaign manifest" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "broken, message",
        [
            ({"workload": "nosuch"}, "unknown workload 'nosuch'"),
            ({"size_label": "9 GB"}, "no dataset size '9 GB'"),
            ({"scenario": {"faults": [{"type": "nonsense"}]}}, "nonsense"),
        ],
        ids=["workload", "size-label", "fault-type"],
    )
    def test_broken_fault_scenario_entry_rejected_at_load(
        self, tmp_path, capsys, broken, message
    ):
        import json

        entry = {
            "id": "defect-under-faults",
            "kind": "fault-scenario",
            "workload": "defect",
            "fast": True,
            "scenario": {"faults": [{"type": "chunk-read-error", "rate": 0.05}]},
        }
        entry.update(broken)
        path = tmp_path / "campaign.json"
        path.write_text(
            json.dumps(
                {
                    "name": "typo",
                    "entries": [{"id": "fig09", "fast": True}, entry],
                }
            )
        )
        code = main(["campaign", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "entry 'defect-under-faults'" in captured.err
        assert message in captured.err
        # Refused at manifest load: nothing ran, no journal exists.
        assert "fig09" not in captured.out
        assert not (tmp_path / "campaign.json.journal.json").exists()


class TestBroker:
    def _write_workload(self, tmp_path, body=None):
        import json

        doc = body or {
            "name": "cli-broker",
            "allocations": [[1, 2]],
            "sites": [
                {"name": "repo", "kind": "repository",
                 "cluster": "pentium-myrinet", "nodes": 8},
                {"name": "hpc", "kind": "compute",
                 "cluster": "pentium-myrinet", "nodes": 8},
            ],
            "links": [{"a": "repo", "b": "hpc", "bw": 2.0e6}],
            "jobs": [
                {"id": "j0", "workload": "kmeans"},
                {"id": "j1", "workload": "kmeans", "arrival": 0.05},
            ],
        }
        path = tmp_path / "workload.json"
        path.write_text(json.dumps(doc))
        return path

    def test_broker_runs_all_policies(self, tmp_path, capsys):
        code = main(["broker", str(self._write_workload(tmp_path))])
        out = capsys.readouterr().out
        assert code == 0
        for policy in ["min-completion", "min-cost", "deadline-aware",
                       "round-robin"]:
            assert policy in out
        assert "(uncalibrated)" in out
        assert "makespan" in out

    def test_broker_single_policy_with_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            ["broker", str(self._write_workload(tmp_path)),
             "--policy", "min-completion", "--no-calibration-baseline",
             "--report", str(report_path), "--schedule"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "min-cost" not in out
        assert "j0" in out  # --schedule prints the placement table
        runs = json.loads(report_path.read_text())["runs"]
        assert [(run["policy"], run["calibrated"]) for run in runs] == [
            ("min-completion", True)
        ]

    def test_broker_stream_workload(self, tmp_path, capsys):
        doc = {
            "name": "cli-stream",
            "allocations": [[1, 2]],
            "sites": [
                {"name": "repo", "kind": "repository",
                 "cluster": "pentium-myrinet", "nodes": 8},
                {"name": "hpc", "kind": "compute",
                 "cluster": "pentium-myrinet", "nodes": 8},
            ],
            "links": [{"a": "repo", "b": "hpc", "bw": 2.0e6}],
            "stream": {"count": 5, "seed": 3, "mix": [["kmeans"]]},
        }
        code = main(
            ["broker", str(self._write_workload(tmp_path, doc)),
             "--policy", "round-robin", "--no-calibration-baseline"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "round-robin" in out

    def test_missing_workload_reports_error(self, tmp_path, capsys):
        code = main(["broker", str(tmp_path / "absent.json")])
        assert code == 1
        assert "no broker workload" in capsys.readouterr().err

    def test_bad_alpha_reports_error(self, tmp_path, capsys):
        code = main(
            ["broker", str(self._write_workload(tmp_path)), "--alpha", "2.0"]
        )
        assert code == 1
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "body",
        [
            '{"sites": [{"name": "r", "kind": "repository", "cluster": "x"}],'
            ' "jobs": [{"workload": "knn"}]}',
            '{"sites": [{"name": "r", "kind": "repository", "cluster": "x"}],'
            ' "jobs": [{"id": "j0", "workload": "knn", "arrival": NaN}]}',
            '{"sites": [{"name": "r", "kind": "repository", "cluster": "x",'
            ' "nodes": "many"}], "jobs": [{"id": "j0", "workload": "knn"}]}',
            '{"sites": [{"name": "r", "kind": "repository", "cluster": "x"}],'
            ' "allocations": [[1, 2, 3]], "jobs": [["j0"]]}',
        ],
    )
    def test_malformed_workload_is_one_error_line(self, tmp_path, capsys, body):
        path = tmp_path / "workload.json"
        path.write_text(body)
        assert main(["broker", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_report_path_that_is_a_directory(self, tmp_path, capsys):
        code = main(
            ["broker", str(self._write_workload(tmp_path)),
             "--policy", "round-robin", "--no-calibration-baseline",
             "--report", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and str(tmp_path) in err
        assert err.count("\n") == 1


class TestTraceGenerate:
    @pytest.mark.parametrize(
        "flags,says",
        [
            (["--seed", "-1"], "seed must be >= 0"),
            (["--count", "99999999999999999999"], "count must be at most"),
            (["--count", "0"], "count must be positive"),
        ],
    )
    def test_numeric_arguments_are_one_error_line(
        self, tmp_path, capsys, flags, says
    ):
        out = tmp_path / "t.trace.json"
        code = main(["trace", "generate", "poisson", *flags, "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and says in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestBrokerInputs:
    """``repro broker`` takes a trace artifact or a ``.gwf`` file as well
    as a workload document, and brokers a trace on the reference grid
    with the same options and output."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("trace") / "t.trace.json"
        assert main(["trace", "generate", "poisson", "--count", "300",
                     "--seed", "1", "-o", str(path)]) == 0
        return path

    @staticmethod
    def _cli_report(tmp_path, argv):
        report = tmp_path / "report.json"
        assert main(["broker", *argv, "--report", str(report)]) == 0
        return report.read_bytes()

    @staticmethod
    def _library_bytes(tmp_path, report):
        return report.save(tmp_path / "library.json").read_bytes()

    def test_trace_artifact_report_is_the_pinned_trace_run_report(
        self, trace_path, tmp_path, capsys
    ):
        import hashlib

        from repro.broker.policies import POLICY_NAMES
        from tests.broker.test_report_digests import FAULT_FREE

        policies = [flag for name in POLICY_NAMES for flag in ("--policy", name)]
        data = self._cli_report(
            tmp_path,
            [str(trace_path), *policies, "--no-calibration-baseline"],
        )
        assert hashlib.sha256(data).hexdigest() == FAULT_FREE[("poisson", 300)]
        assert "queue pressure: 600 events" in capsys.readouterr().out

    def test_gwf_file_is_brokered_like_the_parsed_trace(
        self, trace_path, tmp_path, capsys
    ):
        from repro.broker import GridBroker
        from repro.workloads.traces import (
            REFERENCE_ALLOCATIONS,
            TraceWorkload,
            parse_gwf,
            reference_grid,
            trace_to_gwf,
        )

        gwf = tmp_path / "t.gwf"
        gwf.write_text(trace_to_gwf(TraceWorkload.load(trace_path)))
        data = self._cli_report(tmp_path, [str(gwf)])
        trace = parse_gwf(gwf)
        broker = GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)
        expected = broker.compare(trace.name, list(trace.jobs))
        assert data == self._library_bytes(tmp_path, expected)
        assert len(expected.runs) == 5

    def test_faults_and_migrate_recovery_apply_to_a_trace(
        self, trace_path, tmp_path, capsys
    ):
        from repro.broker import GridBroker
        from repro.broker.report import BrokerReport
        from repro.faults import load_grid_scenario
        from repro.workloads.traces import (
            REFERENCE_ALLOCATIONS,
            TraceWorkload,
            reference_grid,
        )

        trace = TraceWorkload.load(trace_path)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps({"grid_faults": [
            {"type": "site-outage", "site": "hpc-1", "at": 0.5,
             "repair_after": 1.0},
            {"type": "transient-job-failure", "job": trace.jobs[5].job_id,
             "failures": 1},
        ]}))
        data = self._cli_report(
            tmp_path,
            [str(trace_path), "--policy", "min-completion",
             "--no-calibration-baseline", "--faults", str(scenario_path),
             "--recovery", "migrate"],
        )
        scenario = load_grid_scenario(scenario_path)
        broker = GridBroker(reference_grid(), REFERENCE_ALLOCATIONS)
        run = broker.run(
            list(trace.jobs), "min-completion", faults=scenario.schedule,
            recovery="migrate", retry=scenario.retry,
        )
        # Only worth pinning while some resumed attempt pays T_recover.
        assert any(p.recovery_charge > 0 for p in run.placements)
        expected = BrokerReport(name=trace.name, runs=(run,))
        assert data == self._library_bytes(tmp_path, expected)

    def test_retry_attempts_apply_to_a_trace(self, trace_path, tmp_path, capsys):
        scenario_path = tmp_path / "scenario.json"
        job_id = json.loads(trace_path.read_text())["jobs"][5]["id"]
        scenario_path.write_text(json.dumps({"grid_faults": [
            {"type": "transient-job-failure", "job": job_id, "failures": 2},
        ]}))
        data = self._cli_report(
            tmp_path,
            [str(trace_path), "--policy", "min-completion",
             "--no-calibration-baseline", "--faults", str(scenario_path),
             "--retry-attempts", "2"],
        )
        (run,) = json.loads(data)["runs"]
        (failure,) = run["failures"]
        assert failure["job_id"] == job_id
        assert failure["code"] == "retry-budget-exhausted"

    def test_trace_run_is_gone(self, trace_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "run", str(trace_path)])
        assert exit_info.value.code == 2
        assert "invalid choice: 'run'" in capsys.readouterr().err


class TestServe:
    def test_smoke_run_prints_metrics(self, capsys):
        code = main(["serve", "--requests", "60", "--rate", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "smoke: served 60 seeded request(s)" in out
        assert "latency p50" in out
        assert "breaker opens" in out

    def test_smoke_run_is_deterministic(self, capsys):
        assert main(["serve", "--requests", "40", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert main(["serve", "--requests", "40", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_smoke_output_is_the_parent_commits(self, capsys):
        """Virtual time did not move: stdout, byte for byte."""
        assert main(["serve", "--requests", "200", "--seed", "1"]) == 0
        golden = GOLDENS / "serve_smoke_seed1.txt"
        assert capsys.readouterr().out == golden.read_text()

    def test_chaos_campaign_passes(self, capsys):
        code = main(
            ["serve", "--chaos", "--requests", "50", "--cases", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict: PASS" in out
        assert "replay" in out

    def _refused(self, argv, capsys):
        """``serve`` with an address that cannot be bound: exit 1 and
        exactly one ``error:`` line naming it, never a traceback."""
        assert main(["serve"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: cannot serve on ")
        return line

    def test_port_in_use_is_a_repro_error(self, capsys):
        with socket.socket() as held:
            held.bind(("127.0.0.1", 0))
            held.listen(1)
            port = held.getsockname()[1]
            line = self._refused(["--port", str(port)], capsys)
        assert f"127.0.0.1:{port}" in line

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["--port", "99999"], "127.0.0.1:99999"),
            (["--port", "-1"], "127.0.0.1:-1"),
            # A numeric IPv6 literal on the IPv4 listener: a real
            # socket.gaierror, raised without a DNS query.
            (["--port", "0", "--host", "::1"], "::1:0"),
        ],
        ids=["port-too-large", "port-negative", "host-unresolvable"],
    )
    def test_unbindable_address_is_a_repro_error(self, argv, named, capsys):
        assert named in self._refused(argv, capsys)

    def test_http_round_trip(self):
        import json
        import threading
        import urllib.request

        from repro.service import (
            MonotonicClock,
            PredictionService,
            demo_profiles,
            make_server,
        )

        service = PredictionService(demo_profiles(), clock=MonotonicClock())
        server = make_server(service, port=0)
        host, port = server.server_address[:2]
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.05),
            daemon=True,
        )
        thread.start()
        try:
            body = json.dumps(
                {"params": {"profile": "kmeans", "data_nodes": 2,
                            "compute_nodes": 4}}
            ).encode("utf-8")
            with urllib.request.urlopen(
                urllib.request.Request(
                    f"http://{host}:{port}/v1/predict", data=body
                ),
                timeout=10.0,
            ) as response:
                payload = json.loads(response.read())
            assert response.status == 200
            assert payload["outcome"] == "ok"
            assert payload["total"] > 0
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5.0)

"""Tests for the registry-driven command-line interface."""

import json

import pytest

from repro.cli import _parse_overrides, _parse_value, build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        actions = {
            a.dest: a for a in parser._subparsers._group_actions  # noqa: SLF001
        }
        choices = set(actions["command"].choices)
        assert {"list", "run", "sweep"} <= choices

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_are_scenario_defaults(self):
        args = build_parser().parse_args(["run", "G-T"])
        assert args.iterations is None
        assert args.fragments is None
        assert args.seed is None
        assert args.executor == "serial"

    def test_sweep_requires_param_and_values(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "G-T"])

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "G-T", "--executor", "gpu"])


class TestValueParsing:
    def test_scalars(self):
        assert _parse_value("3") == 3
        assert _parse_value("0.5") == 0.5
        assert _parse_value("true") is True
        assert _parse_value("pastel") == "pastel"

    def test_comma_lists(self):
        assert _parse_value("4,6,8") == (4, 6, 8)
        assert _parse_value("0.1,1") == (0.1, 1)

    def test_overrides(self):
        assert _parse_overrides(["per-site=4", "squeeze=0.2"]) == {
            "per_site": 4,
            "squeeze": 0.2,
        }
        with pytest.raises(ValueError):
            _parse_overrides(["nonsense"])


class TestCommands:
    def test_list_shows_all_families_and_paper_datasets(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("2x2", "B", "B-T", "G-T", "B-G-T", "B-G-T-L"):
            assert name in out
        for family in ("paper", "figure", "fat-tree", "random-bottleneck",
                       "hetero-uplink"):
            assert f"family {family}:" in out

    def test_list_single_family(self, capsys):
        assert main(["list", "--family", "paper"]) == 0
        out = capsys.readouterr().out
        assert "family paper:" in out
        assert "family figure:" not in out

    def test_list_unknown_family_fails(self, capsys):
        assert main(["list", "--family", "nope"]) == 2
        assert "unknown family" in capsys.readouterr().err

    def test_run_unknown_scenario_fails(self, capsys):
        assert main(["run", "NOPE"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "G-T" in err  # the error lists what is available

    def test_run_dataset_small(self, capsys):
        code = main(
            [
                "run", "G-T",
                "--per-site", "4",
                "--iterations", "3",
                "--fragments", "200",
                "--seed", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters found:" in out
        assert "overlapping NMI" in out
        assert "cluster 0" in out

    def test_run_dataset_2x2(self, capsys):
        code = main(["run", "2x2", "--iterations", "3", "--fragments", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "clusters found: 1" in out

    def test_run_netpipe(self, capsys):
        assert main(["run", "netpipe"]) == 0
        out = capsys.readouterr().out
        assert "intra-cluster peak bandwidth" in out
        assert "890" in out

    def test_run_fig5_small(self, capsys):
        code = main(
            ["run", "fig5", "--per-site", "4", "--iterations", "6",
             "--fragments", "150", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "zero-fragment runs" in out

    def test_run_bad_override_fails_cleanly(self, capsys):
        code = main(["run", "netpipe", "--set", "bogus_knob=1"])
        assert code == 2
        assert "bad override" in capsys.readouterr().err

    def test_run_malformed_set_fails_cleanly(self, capsys):
        assert main(["run", "netpipe", "--set", "nonsense"]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_sweep_unknown_param_fails_cleanly(self, capsys):
        code = main(["sweep", "netpipe", "--param", "bogus", "--values", "1,2"])
        assert code == 2
        assert "unknown tunables" in capsys.readouterr().err

    def test_run_json_output(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            ["run", "G-T", "--per-site", "3", "--iterations", "2",
             "--fragments", "120", "--json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["command"] == "run"
        assert payload["scenario"] == "G-T"
        assert payload["executor"] == "serial"
        assert payload["found_clusters"] == 2
        assert "result" not in payload  # heavy objects are stripped

    def test_list_json_output(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        assert main(["list", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        names = {entry["name"] for entry in payload["scenarios"]}
        assert {"B-G-T", "fig4", "FATTREE-4x4", "RANDBOT-1", "HETERO-UPLINK"} <= names

    def test_sweep_json_output(self, tmp_path, capsys):
        path = tmp_path / "sweep.json"
        code = main(
            ["sweep", "G-T", "--param", "per_site", "--values", "3,4",
             "--iterations", "2", "--fragments", "120", "--json", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per_site=3" in out
        assert "per_site=4" in out
        payload = json.loads(path.read_text())
        assert payload["param"] == "per_site"
        assert payload["values"] == [3, 4]
        assert [row["hosts"] for row in payload["rows"]] == [6, 8]

    def test_sweep_campaign_parameter(self, capsys):
        code = main(
            ["sweep", "G-T", "--param", "iterations", "--values", "1,2",
             "--per-site", "3", "--fragments", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iterations=1" in out
        assert "iterations=2" in out

    def test_run_with_process_executor(self, capsys):
        code = main(
            ["run", "G-T", "--per-site", "3", "--iterations", "2",
             "--fragments", "120", "--executor", "process", "--workers", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "executor process" in out


class TestListTunables:
    """A one-value ``--set``/``--values`` for a tunable whose default is a
    sequence is a one-element sequence, not a scalar the runner iterates."""

    def test_one_node_count_runs(self, capsys, tmp_path):
        path = tmp_path / "eff.json"
        assert main(["run", "broadcast-efficiency", "--fragments", "80",
                     "--set", "node_counts=4", "--json", str(path)]) == 0
        assert len(json.loads(path.read_text())["durations_by_nodes"]) == 1

    def test_one_dataset_runs(self, capsys, tmp_path):
        path = tmp_path / "fig13.json"
        assert main(["run", "fig13", "--iterations", "1", "--fragments", "80",
                     "--per-site", "2", "--set", "datasets=G-T",
                     "--json", str(path)]) == 0
        record = json.loads(path.read_text())
        assert [k for k, v in record.items()
                if isinstance(v, dict) and "curve" in v] == ["G-T"]

    def test_sweep_over_node_counts(self, capsys, tmp_path):
        path = tmp_path / "sweep.json"
        assert main(["sweep", "broadcast-efficiency", "--param", "node_counts",
                     "--values", "4,8", "--fragments", "80",
                     "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["values"] == [4, 8]
        assert [row["node_counts"] for row in payload["rows"]] == [4, 8]
        assert [len(row["durations_by_nodes"]) for row in payload["rows"]] == [1, 1]


class TestSweepAxis:
    """A swept campaign parameter must reach the body; one run may carry a
    knob its body ignores."""

    def test_sweep_over_a_knob_the_body_ignores_exits_2(self, capsys):
        assert main(["sweep", "netpipe", "--param", "seed",
                     "--values", "1,2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "netpipe" in err[0] and "seed" in err[0]

    def test_run_ignores_a_knob_the_body_does_not_take(self, capsys):
        assert main(["run", "netpipe", "--seed", "5", "--set", "repeats=2"]) == 0


class TestRunKnobs:
    """``--set`` and a sweep axis take tunables only: each run knob has its
    own flag, and a sweep along ``iterations`` bounds ``--quorum`` once per
    value before it prints anything."""

    SMALL = ["--iterations", "2", "--fragments", "40", "--per-site", "2"]

    @pytest.mark.parametrize(
        "argv, knob, flag",
        [
            (["run", "fig4", "--set", "executor=process"], "executor", "--executor"),
            (["sweep", "fig4", "--param", "executor", "--values", "process"],
             "executor", "--executor"),
            (["run", "LINK-BLACKOUT", "--set", "quorum=2"], "quorum", "--quorum"),
            (["run", "fig4", "--set", "seed=3"], "seed", "--seed"),
        ],
        ids=["run-executor", "sweep-executor", "run-quorum", "run-seed"],
    )
    def test_a_run_knob_is_not_a_tunable(self, capsys, argv, knob, flag):
        assert main([*argv, *self.SMALL]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            f"{knob} is a run knob, not a tunable: use {flag}"
        ]

    def test_sweep_along_iterations_bounds_quorum_before_its_header(self, capsys):
        assert main(["sweep", "G-T", "--param", "iterations", "--values", "1,3",
                     "--quorum", "2", "--fragments", "40", "--per-site", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [
            "--quorum (2) cannot exceed the campaign's iterations (1): "
            "the quorum could never be met"
        ]


class TestKnobTypes:
    """A ``--set`` value and a swept value must be of their default's type
    (a swept campaign parameter an int): a malformed one exits 2 with one
    line before anything runs or prints."""

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["run", "G-T", "--set", "per_site=x", "--iterations", "1",
              "--fragments", "40"], "per_site: expected int, got 'x'"),
            (["run", "G-T", "--set", "per_site=2.5", "--iterations", "1",
              "--fragments", "40"], "per_site: expected int, got 2.5"),
            (["run", "CHURN", "--set", "churn_rate=abc", "--iterations", "1",
              "--fragments", "40"], "churn_rate: expected float, got 'abc'"),
            (["sweep", "G-T", "--param", "iterations", "--values", "x",
              "--fragments", "40", "--per-site", "2"],
             "iterations: expected int, got 'x'"),
        ],
        ids=["run-int-str", "run-int-float", "run-float-str", "sweep-iterations"],
    )
    def test_a_malformed_value_exits_2_naming_knob_value_and_type(
        self, capsys, argv, line
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [line]


class TestNoSettingDropped:
    """An option without the one it needs, and an empty ``--values``, exit 2
    with one line before anything runs or prints: an explicit request is
    never silently dropped."""

    SMALL = ["--iterations", "1", "--fragments", "40", "--per-site", "2"]
    SWEEP = ["sweep", "G-T", "--param", "seed", "--values", "1", *SMALL]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["run", "G-T", *SMALL, "--workers", "3"],
             "--workers needs --executor process"),
            ([*SWEEP, "--workers", "3"], "--workers needs --executor process"),
            (["run", "G-T", *SMALL, "--trace-detail", "full"],
             "--trace-detail needs --trace"),
            ([*SWEEP, "--trace-detail", "full"], "--trace-detail needs --trace"),
            (["sweep", "G-T", "--param", "per_site", "--values", ","],
             "--values needs at least one value"),
            (["sweep", "G-T", "--param", "iterations", "--values", ",",
              "--fragments", "40", "--per-site", "2"],
             "--values needs at least one value"),
        ],
        ids=["run-workers", "sweep-workers", "run-trace-detail",
             "sweep-trace-detail", "sweep-tunable-values",
             "sweep-iterations-values"],
    )
    def test_exits_2_before_anything_runs(self, capsys, argv, line):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == [line]

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["run", "G-T", *SMALL, "--executor", "process", "--workers", "0"],
             "workers must be at least 1"),
            ([*SWEEP, "--executor", "process", "--workers", "0"],
             "workers must be at least 1"),
            (["sweep", "netpipe", "--param", "seed", "--values", "1,2"],
             "scenario netpipe does not take seed"),
            (["run", "netpipe", "--quorum", "1"],
             "scenario netpipe does not take --quorum"),
            (["run", "fig4", *SMALL, "--faults", "blackout"],
             "scenario fig4 does not take --faults"),
            (["run", "G-T", *SMALL, "--detect-factor", "2"],
             "scenario G-T has no failure detector; "
             "--detect-factor needs a fault plan (--faults)"),
        ],
        ids=["run-workers", "sweep-workers", "sweep-ignored-knob",
             "run-untaken-quorum", "run-untaken-faults", "run-no-detector"],
    )
    def test_a_rejected_command_leaves_the_trace_file_as_it_was(
        self, capsys, tmp_path, argv, line
    ):
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(b'{"kind": "meta"}\n{"kind": "span"}\n')
        assert main([*argv, "--trace", str(trace)]) == 2
        assert capsys.readouterr().err.strip().splitlines() == [line]
        assert trace.read_bytes() == b'{"kind": "meta"}\n{"kind": "span"}\n'


class TestDetectionKnobs:
    """Fail-fast validation of --detect-factor/--quorum and `faults list`."""

    def test_detect_factor_below_one_fails_fast(self, capsys):
        code = main(
            ["run", "LINK-BLACKOUT", "--iterations", "3", "--fragments", "80",
             "--per-site", "2", "--detect-factor", "0.9"]
        )
        assert code == 2
        assert "--detect-factor must exceed 1.0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "faults",
        [pytest.param([], id="no-faults"),
         pytest.param(["--faults", "none"], id="faults-none")],
    )
    def test_detect_factor_on_detectorless_scenario_fails(self, capsys, faults):
        # The empty plan injects nothing, so it has no detector either.
        code = main(
            ["run", "G-T", "--iterations", "1", "--fragments", "80",
             "--per-site", "2", "--detect-factor", "1.5", *faults]
        )
        assert code == 2
        assert "has no failure detector" in capsys.readouterr().err

    def test_quorum_beyond_iterations_fails_fast(self, capsys):
        code = main(
            ["run", "G-T", "--iterations", "2", "--fragments", "80",
             "--per-site", "2", "--quorum", "9"]
        )
        assert code == 2
        assert "could never be met" in capsys.readouterr().err
        code = main(
            ["run", "G-T", "--fragments", "80", "--per-site", "2",
             "--quorum", "0"]
        )
        assert code == 2
        assert "--quorum must be at least 1" in capsys.readouterr().err

    def test_unknown_fault_preset_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "FAULT-INJECTION", "--faults", "gremlins"]
            )

    def test_faults_list(self, capsys, tmp_path):
        path = tmp_path / "faults.json"
        assert main(["faults", "list", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        for name in ("blackout", "chaos", "none", "route-flap"):
            assert name in out
        payload = json.loads(path.read_text())
        presets = {p["name"]: p for p in payload["presets"]}
        assert presets["blackout"]["kinds"] == {"link-failure": 1}
        assert presets["none"]["injectors"] == 0

    def test_detect_factor_forwarded_to_fault_study(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            ["run", "LINK-BLACKOUT", "--iterations", "3", "--fragments", "80",
             "--per-site", "2", "--detect-factor", "1.1", "--json", str(path)]
        )
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["detect_factor"] == 1.1
        assert "time_to_localize_s" in payload
        assert "localization_status" in payload

    def test_detect_factor_with_faults_on_campaign_scenario(self, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            ["run", "G-T", "--iterations", "4", "--fragments", "80",
             "--per-site", "2", "--faults", "blackout", "--detect-factor",
             "1.1", "--json", str(path)]
        )
        assert code == 0
        assert json.loads(path.read_text())["detect_factor"] == 1.1

    def test_detect_factor_with_faults_on_interference_scenario(self, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            ["run", "CHURN", "--per-site", "2", "--iterations", "2",
             "--faults", "blackout", "--detect-factor", "1.5",
             "--json", str(path)]
        )
        assert code == 0
        assert json.loads(path.read_text())["detect_factor"] == 1.5

    def test_detect_factor_without_faults_on_interference_scenario_fails(
        self, capsys
    ):
        # CHURN takes --faults, so without a plan its detector is missing,
        # not silently run at the default ratio.
        code = main(
            ["run", "CHURN", "--per-site", "2", "--iterations", "2",
             "--detect-factor", "1.5"]
        )
        assert code == 2
        assert "has no failure detector" in capsys.readouterr().err

    def test_sweep_prints_localization_column(self, capsys):
        code = main(
            ["sweep", "LINK-BLACKOUT", "--param", "residual", "--values",
             "0.02,0.05", "--iterations", "4", "--fragments", "150",
             "--per-site", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "time_to_localize_s" in out


class TestKnobRule:
    """One rule for the campaign knobs on every scenario: forwarded when
    the scenario's body takes them, a one-line exit 2 otherwise."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "netpipe", "--quorum", "1"], "--quorum"),
            (["run", "fig4", "--workload", "cross-heavy", "--iterations", "2",
              "--fragments", "80", "--per-site", "4"], "--workload"),
            (["run", "broadcast-efficiency", "--faults", "blackout",
              "--fragments", "80", "--set", "node_counts=4,8"], "--faults"),
            (["run", "CHURN", "--workload", "churn", "--iterations", "2",
              "--fragments", "80", "--per-site", "2"], "--workload"),
            (["run", "LINK-BLACKOUT", "--faults", "blackout",
              "--iterations", "3", "--fragments", "80", "--per-site", "2"],
             "--faults"),
        ],
        ids=["netpipe-quorum", "fig4-workload", "efficiency-faults",
             "churn-workload", "blackout-faults"],
    )
    def test_unsupported_knob_exits_2_naming_scenario_and_flag(
        self, capsys, argv, flag
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert argv[1] in err[0] and flag in err[0]

    def test_stepping_skips_runners_without_a_control_loop(self, capsys):
        assert main(["run", "netpipe", "--stepping", "fixed",
                     "--set", "repeats=2"]) == 0


class TestUnifiedSummary:
    """Every campaign under --workload/--faults reports through the one
    study and prints through the one formatter."""

    def test_faults_on_campaign_scenario_report_verdicts(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code = main(
            ["run", "G-T", "--iterations", "4", "--fragments", "80",
             "--per-site", "2", "--faults", "blackout", "--json", str(path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(path.read_text())
        assert payload["detected"]
        assert payload["time_to_detect_s"] > 0
        assert payload["localization_status"]
        assert "faults blackout" in out
        assert "failure detected at iteration" in out

    def test_workload_on_campaign_scenario_prints_tenants(self, capsys):
        code = main(
            ["run", "G-T", "--iterations", "2", "--fragments", "80",
             "--per-site", "2", "--workload", "cross-heavy"]
        )
        assert code == 0
        assert "tenants per broadcast" in capsys.readouterr().out


class TestJsonRecords:
    """A ``--json`` record, metrics included, is a pure function of
    scenario, knobs and seed: no wall-clock value and nothing an earlier run
    left in the process reaches it."""

    def test_run_record_replays_byte_for_byte(self, capsys, tmp_path):
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            code = main(
                ["run", "LINK-BLACKOUT", "--iterations", "3", "--fragments",
                 "80", "--per-site", "2", "--json", str(path)]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_process_record_equals_serial_but_for_the_backend(
        self, capsys, tmp_path
    ):
        argv = ["run", "G-T", "--iterations", "4", "--fragments", "80",
                "--per-site", "2", "--faults", "chaos", "--json"]
        serial_path, pooled_path = tmp_path / "serial.json", tmp_path / "process.json"
        assert main([*argv, str(serial_path)]) == 0
        assert main([*argv, str(pooled_path), "--executor", "process",
                     "--workers", "2"]) == 0
        serial = json.loads(serial_path.read_text())
        pooled = json.loads(pooled_path.read_text())
        assert (serial.pop("executor"), pooled.pop("executor")) == (
            "serial", "process"
        )
        assert pooled["metrics"]["counters"].pop("executor.tasks") >= 1
        assert pooled == serial

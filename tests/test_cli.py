"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--benchmark", "NOPE"])

    def test_benchmark_case_insensitive(self):
        args = build_parser().parse_args(["run", "--benchmark", "matvec"])
        assert args.benchmark == "MATVEC"

    def test_version_case_insensitive(self):
        args = build_parser().parse_args(
            ["run", "--benchmark", "MATVEC", "--version", "b"]
        )
        assert args.version == "B"

    def test_scale_default(self):
        args = build_parser().parse_args(["list"])
        assert args.scale == "small"

    def test_figure_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "12"])
        args = build_parser().parse_args(["figure", "10bc"])
        assert args.number == "10bc"


class TestCommands:
    def test_list(self, capsys):
        assert main(["list", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "MATVEC" in output
        assert "FFTPDE" in output

    def test_compile(self, capsys):
        assert main(["compile", "--benchmark", "MATVEC", "--scale", "tiny"]) == 0
        output = capsys.readouterr().out
        assert "prefetch" in output
        assert "priority=1 " in output or "priority=1" in output

    def test_table_1(self, capsys):
        assert main(["table", "1", "--scale", "tiny"]) == 0
        assert "swap_disks" in capsys.readouterr().out

    def test_table_2(self, capsys):
        assert main(["table", "2", "--scale", "tiny"]) == 0
        assert "hazard" in capsys.readouterr().out

    def test_run(self, capsys):
        assert (
            main(
                [
                    "run",
                    "--benchmark",
                    "MATVEC",
                    "--version",
                    "R",
                    "--scale",
                    "tiny",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "elapsed_s" in output
        assert "pages_released" in output

    def test_suite(self, capsys):
        assert (
            main(
                [
                    "suite",
                    "--benchmark",
                    "MATVEC",
                    "--versions",
                    "PR",
                    "--scale",
                    "tiny",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "daemon_stole" in output

    def test_table_3(self, capsys):
        assert main(["table", "3", "--scale", "tiny"]) == 0
        assert "stolen_O" in capsys.readouterr().out


class TestTraceCommands:
    @pytest.fixture()
    def recorded(self, tmp_path, capsys):
        """One tiny MATVEC/B recording; returns the trace path."""
        rc = main(
            [
                "trace",
                "record",
                "--benchmark",
                "MATVEC",
                "--version",
                "B",
                "--scale",
                "tiny",
                "--out",
                str(tmp_path / "traces"),
            ]
        )
        assert rc == 0
        assert "recorded MATVEC" in capsys.readouterr().out
        return tmp_path / "traces" / "MATVEC.trace"

    def test_record_replay_diff_round_trip(self, recorded, tmp_path, capsys):
        rc = main(
            [
                "trace",
                "replay",
                str(recorded),
                "--interactive",
                "--scale",
                "tiny",
                "--record-to",
                str(tmp_path / "replayed"),
            ]
        )
        assert rc == 0
        assert "trace replay" in capsys.readouterr().out
        rc = main(
            [
                "trace",
                "diff",
                str(recorded),
                str(tmp_path / "replayed" / "MATVEC.trace"),
            ]
        )
        assert rc == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_exit_1_on_difference(self, recorded, tmp_path, capsys):
        from repro.trace import read_trace, write_trace

        header, ops = read_trace(recorded)
        index = next(i for i, op in enumerate(ops) if op[0] == "t")
        ops[index] = ("t", ops[index][1] + 1, ops[index][2], 0.0)
        other = tmp_path / "tampered.trace"
        write_trace(other, header, ops)
        assert main(["trace", "diff", str(recorded), str(other)]) == 1
        assert "differ at index" in capsys.readouterr().out

    def test_info_text_and_json(self, recorded, capsys):
        assert main(["trace", "info", str(recorded)]) == 0
        assert "MATVEC" in capsys.readouterr().out
        assert main(["trace", "info", "--json", str(recorded)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["workload"] == "MATVEC"
        assert data["ops"] > 0

    def test_verify(self, recorded, capsys):
        assert main(["trace", "verify", str(recorded)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_import(self, tmp_path, capsys):
        source = tmp_path / "scan.txt"
        source.write_text("0 r\n1 w prefetch=2\n2 r\n")
        out = tmp_path / "scan.trace"
        assert main(["trace", "import", str(source), "--out", str(out)]) == 0
        assert "imported" in capsys.readouterr().out
        assert main(["trace", "info", str(out)]) == 0
        assert "source=import" in capsys.readouterr().out

    def test_run_spec_with_trace_entry(self, recorded, capsys):
        spec = json.dumps(
            {
                "scale": "tiny",
                "processes": [
                    {"trace": str(recorded)},
                    {"workload": "interactive"},
                ],
            }
        )
        assert main(["run", "--spec", spec]) == 0
        output = capsys.readouterr().out
        assert "MATVEC" in output


class TestStructuredErrors:
    """Bad input exits 2 with a one-line message, never a traceback."""

    def assert_error(self, argv, capsys, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("repro: error:")
        assert needle in captured.err
        assert "Traceback" not in captured.err

    def test_missing_spec_file(self, capsys):
        self.assert_error(
            ["run", "--spec", "/nonexistent/mix.json"], capsys, "no such file"
        )

    def test_bad_inline_spec_json(self, capsys):
        self.assert_error(["run", "--spec", "{broken"], capsys, "invalid")

    def test_spec_entry_without_workload_or_trace(self, capsys):
        self.assert_error(
            ["run", "--spec", '{"processes": [{"version": "B"}]}'],
            capsys,
            "'workload' or 'trace'",
        )

    def test_missing_trace_file(self, capsys):
        self.assert_error(
            ["trace", "info", "/nonexistent.trace"], capsys, "cannot read"
        )

    def test_corrupt_trace_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_bytes(b"RPROTRC1" + b"\xff" * 64)
        self.assert_error(["trace", "info", str(bad)], capsys, "corrupt")

    def test_truncated_trace_file(self, tmp_path, capsys):
        from repro.trace import TraceHeader, write_trace

        path = tmp_path / "full.trace"
        header = TraceHeader(
            process="x",
            workload="x",
            version="O",
            scale="tiny",
            page_size=0,
            layout=(("data", 4),),
        )
        write_trace(path, header, [("t", 1, False, 0.0)])
        cut = tmp_path / "cut.trace"
        cut.write_bytes(path.read_bytes()[:-6])
        assert main(["trace", "replay", str(cut), "--scale", "tiny"]) == 2

    def test_bad_import_source(self, tmp_path, capsys):
        source = tmp_path / "bad.txt"
        source.write_text("not-a-vpn r\n")
        self.assert_error(
            ["trace", "import", str(source), "--out", str(tmp_path / "o.trace")],
            capsys,
            "line 1",
        )

    def test_record_without_target(self, capsys):
        self.assert_error(
            ["trace", "record", "--out", "/tmp/x"],
            capsys,
            "give --benchmark or --spec",
        )

    def test_bad_fault_plan_file(self, capsys):
        self.assert_error(
            [
                "run",
                "--benchmark",
                "MATVEC",
                "--scale",
                "tiny",
                "--faults",
                "/nonexistent/faults.json",
            ],
            capsys,
            "no such file",
        )


class TestSweepCommands:
    """`repro sweep run|resume|status` and `repro ensemble`."""

    def test_synthetic_run_resume_status(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "8"]) == 0
        first = capsys.readouterr().out
        assert "8/8 ok" in first
        assert main(["sweep", "status", "--state-dir", state, "--digest"]) == 0
        status = capsys.readouterr().out
        assert "pending" in status
        # Both surfaces agree on the merged digest.
        digest = [
            line for line in first.splitlines() if line.startswith("merged digest:")
        ][0]
        assert digest in status
        assert main(["sweep", "resume", "--state-dir", state]) == 0
        assert digest in capsys.readouterr().out

    def test_failures_exit_nonzero(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        code = main(
            [
                "sweep", "run", "--state-dir", state,
                "--synthetic", "6", "--synthetic-fail-every", "3",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "4/6 ok" in captured.out
        assert "synthetic failure" in captured.err

    def test_rerun_without_resume_is_an_error(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "2"]) == 0
        capsys.readouterr()
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "2"]) == 2
        assert "resume" in capsys.readouterr().err

    def test_grid_run(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        grid = '{"axes": {"benchmark": ["MATVEC"], "version": ["R"]}}'
        code = main(
            ["sweep", "run", "--state-dir", state, "--grid", grid, "--scale", "tiny"]
        )
        assert code == 0
        assert "1/1 ok" in capsys.readouterr().out
        # The recorded grid lets resume rebuild the specs by itself.
        assert main(["sweep", "resume", "--state-dir", state]) == 0
        assert "1/1 ok" in capsys.readouterr().out

    def test_ensemble_deterministic_table(self, tmp_path, capsys):
        argv = [
            "ensemble", "--benchmark", "MATVEC", "--scale", "tiny",
            "--seeds", "3", "--resamples", "50",
            "--faults", '{"disk": {"io_error_prob": 0.02}}',
            "--fault-seed", "5",
        ]
        assert main(argv + ["--state-dir", str(tmp_path / "a")]) == 0
        first = capsys.readouterr().out
        assert "3/3 fault seeds" in first
        assert "ci95_lo" in first
        assert main(argv + ["--state-dir", str(tmp_path / "b")]) == 0
        # Fixed --fault-seed: the whole table (members + CIs) reproduces.
        assert capsys.readouterr().out == first


class TestComparePoliciesExit:
    def test_failed_cells_exit_nonzero(self, capsys):
        code = main(
            [
                "compare-policies", "--benchmark", "MATVEC", "--scale", "tiny",
                "--timeout", "0.0001",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED(timeout)" in captured.out
        assert "policy cells failed" in captured.err


class TestVersionFlag:
    def test_version_matches_package(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestScenarioCommands:
    def test_validate_template_ok(self, capsys):
        assert main(["validate", "standard-mix"]) == 0
        output = capsys.readouterr().out
        assert "OK" in output
        assert "digest" in output

    def test_validate_bad_file_exits_2_with_path(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"scenario": 1, "benchmark": "MATVEC", "version": "Z"}),
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: version:")
        assert "Z" in err

    def test_validate_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "no such scenario file" in capsys.readouterr().err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        assert "standard-mix" in capsys.readouterr().out

    def test_scenarios_json(self, capsys):
        assert main(["scenarios", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["name"] for row in payload["scenarios"]}
        assert "version-suite" in names

    def test_run_scenario_digest_matches_service_formula(self, capsys):
        from repro.scenarios import builtin_registry, compile_scenario
        from repro.service import run_direct

        assert main(["run", "--scenario", "standard-mix", "--digest"]) == 0
        output = capsys.readouterr().out
        registry = builtin_registry()
        compiled = compile_scenario(
            registry.get("standard-mix"), registry=registry, name="standard-mix"
        )
        _outcomes, digest = run_direct(compiled)
        assert f"scenario digest: {digest}" in output


class TestJsonOutputs:
    def test_cache_list_json(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert (
            main(
                [
                    "run", "--scenario", "standard-mix",
                    "--cache-dir", str(cache),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["cache", "list", "--cache-dir", str(cache), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"]
        assert payload["entries"][0]["status"] == "ok"

    def test_sweep_status_json_and_expect_gate(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "2"]) == 0
        capsys.readouterr()
        assert (
            main(["sweep", "status", "--state-dir", state, "--digest", "--json"])
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["done"] == 2
        digest = payload["digest"]
        # The gate: matching digest exits 0, anything else exits non-zero.
        assert (
            main(
                [
                    "sweep", "status", "--state-dir", state,
                    "--digest", "--expect", digest,
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "sweep", "status", "--state-dir", state,
                "--digest", "--expect", "0" * 64,
            ]
        )
        assert code == 1
        assert "digest mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [b'{"version": 1, "cou', b"[1, 2]"])
    @pytest.mark.parametrize("command", ["status", "resume"])
    def test_corrupt_sweep_meta_is_an_input_error(self, tmp_path, capsys, meta, command):
        state = tmp_path / "sweep"
        assert main(["sweep", "run", "--state-dir", str(state), "--synthetic", "2"]) == 0
        capsys.readouterr()
        (state / "meta.json").write_bytes(meta)
        assert main(["sweep", command, "--state-dir", str(state)]) == 2
        err = capsys.readouterr().err
        assert "meta.json" in err and "Traceback" not in err

    def test_cache_prune_keeps_a_finished_sweep(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        argv = ["sweep", "run", "--state-dir", state, "--synthetic", "6"]
        assert main(argv + ["--synthetic-fail-every", "3"]) == 1
        capsys.readouterr()
        status = ["sweep", "status", "--state-dir", state, "--digest", "--json"]
        assert main(status) == 0
        before = json.loads(capsys.readouterr().out)["digest"]
        cache = str(tmp_path / "sweep" / "cache")
        assert main(["cache", "list", "--cache-dir", cache, "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)["entries"]
        assert [entry["status"] for entry in entries] == ["ok"] * 4
        assert main(["cache", "prune", "--cache-dir", cache]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out
        assert main(status) == 0
        assert json.loads(capsys.readouterr().out)["digest"] == before

    def test_sweep_status_expect_requires_digest(self, tmp_path, capsys):
        state = str(tmp_path / "sweep")
        assert main(["sweep", "run", "--state-dir", state, "--synthetic", "1"]) == 0
        capsys.readouterr()
        assert (
            main(["sweep", "status", "--state-dir", state, "--expect", "x"]) == 2
        )
        assert "--expect needs --digest" in capsys.readouterr().err

    def test_compare_policies_json(self, capsys):
        code = main(
            [
                "compare-policies", "--benchmark", "MATVEC", "--scale", "tiny",
                "--policy", "paging-directed", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"][0]["policy"] == "paging-directed"
        assert payload["rows"][0]["failed"] is False


class TestServiceCommands:
    def test_submit_requires_server_location(self, capsys):
        assert main(["submit", "standard-mix"]) == 2
        assert "--url or --state-dir" in capsys.readouterr().err

    def test_unreachable_server_exits_2(self, capsys):
        assert main(["jobs", "--url", "http://127.0.0.1:1"]) == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_serve_submit_watch_fetch_roundtrip(self, tmp_path, capsys):
        from repro.service import ExperimentServer

        state = tmp_path / "state"
        with ExperimentServer(state, workers=1) as server:
            url = server.url
            assert main(["submit", "standard-mix", "--url", url, "--json"]) == 0
            snap = json.loads(capsys.readouterr().out)
            assert main(["watch", snap["id"], "--url", url]) == 0
            watched = capsys.readouterr().out
            assert "job.finished" in watched
            assert main(["jobs", "--url", url]) == 0
            assert "standard-mix" in capsys.readouterr().out
            assert (
                main(["fetch", snap["id"], "--url", url, "--what", "result"])
                == 0
            )
            payload = json.loads(capsys.readouterr().out)
            assert payload["status"] == "done"
            assert payload["digest"]

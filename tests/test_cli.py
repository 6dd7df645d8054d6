"""CLI parser and dispatch."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize("command", ["fig3", "fig4", "table4", "sync", "ablations"])
    def test_model_flag(self, command):
        args = build_parser().parse_args([command, "--model", "resnet152"])
        assert args.model == "resnet152"

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig3", "--model", "alexnet"])

    def test_curves_flag(self):
        args = build_parser().parse_args(["fig6", "--curves"])
        assert args.curves is True

    def test_all_command(self):
        assert build_parser().parse_args(["all"]).command == "all"


class TestNetsimCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["netsim"])
        assert args.model == "vgg19"
        assert args.nodes == "VRGQ"
        assert args.alloc == "ED"
        assert args.nm is None
        assert args.profile == "grpc_tf112"
        assert args.top == 8

    def test_flags(self):
        args = build_parser().parse_args(
            ["netsim", "--model", "resnet152", "--nodes", "VR", "--alloc", "NP",
             "--d", "2", "--nm", "3", "--placement", "local",
             "--profile", "nccl_modern", "--top", "4"]
        )
        assert args.nodes == "VR" and args.nm == 3 and args.profile == "nccl_modern"

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["netsim", "--profile", "smoke-signals"])

    def test_netsim_runs(self, capsys):
        assert main(
            ["netsim", "--nodes", "VR", "--alloc", "NP", "--nm", "1", "--top", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "congested resources" in out
        assert "shared fabric" in out


@pytest.mark.slow
class TestDispatch:
    def test_sync_runs(self, capsys):
        assert main(["sync", "--model", "resnet152"]) == 0
        out = capsys.readouterr().out
        assert "sync overhead" in out


class TestUnwritableOutput:
    """An output path under a regular file is one error line, exit 2."""

    @pytest.mark.parametrize("argv", [
        ["trace", "examples/specs/trace_demo.json", "--out", "{blocker}/x.json"],
        ["sweep", "examples/specs/resume_grid.json", "--store", "{blocker}/st"],
    ], ids=["trace", "sweep"])
    def test_exits_2_naming_the_path(self, tmp_path, capsys, argv):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main([arg.format(blocker=blocker) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(blocker) in err and "Traceback" not in err


class TestLogLevel:
    def test_defaults_to_warning(self):
        assert build_parser().parse_args(["fuzz"]).log_level == "warning"

    def test_choices_enforced(self):
        args = build_parser().parse_args(["--log-level", "debug", "fuzz"])
        assert args.log_level == "debug"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "chatty", "fuzz"])

    def test_info_level_emits_sweep_progress(self, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="repro"):
            assert main(["--log-level", "info", "fuzz", "--seeds", "2"]) == 0
        messages = [r.getMessage() for r in caplog.records]
        assert any("fuzz: 2 seeds" in m for m in messages)
        assert any("sweep_map: 2 item(s)" in m for m in messages)


class TestFuzzCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["fuzz"])
        assert args.seeds == 25 and args.base_seed == 0 and args.verbose is False

    def test_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--seeds", "7", "--base-seed", "100", "--verbose"]
        )
        assert args.seeds == 7 and args.base_seed == 100 and args.verbose is True

    def test_network_flag(self):
        assert build_parser().parse_args(["fuzz"]).network == "dedicated"
        args = build_parser().parse_args(["fuzz", "--network", "shared"])
        assert args.network == "shared"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--network", "token-ring"])

    def test_shared_network_batch_exits_zero(self, capsys):
        assert main(["fuzz", "--seeds", "3", "--network", "shared"]) == 0
        out = capsys.readouterr().out
        assert "3 scenarios" in out and "0 violations" in out

    @pytest.mark.parametrize("seeds", ["0", "-5", "abc"])
    def test_non_positive_or_garbage_seed_count_rejected(self, seeds):
        """A zero-scenario batch would make the fuzz gate pass vacuously."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fuzz", "--seeds", seeds])

    def test_clean_batch_exits_zero(self, capsys):
        assert main(["fuzz", "--seeds", "5"]) == 0
        out = capsys.readouterr().out
        assert "5 scenarios" in out and "0 violations" in out

    def test_verbose_prints_per_scenario_lines(self, capsys):
        assert main(["fuzz", "--seeds", "3", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert out.count("seed=") >= 3

    def test_failing_batch_exits_nonzero(self, monkeypatch, capsys):
        import repro.scenarios.runner as runner_mod
        from repro.errors import ConfigurationError

        def boom(seed):
            raise ConfigurationError("synthetic")

        monkeypatch.setattr(runner_mod, "generate_run_spec", boom)
        assert main(["fuzz", "--seeds", "2"]) == 1
        assert "2 failing" in capsys.readouterr().out

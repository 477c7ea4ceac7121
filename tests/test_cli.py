"""Tests for the CLI entry point."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "fig5"])
        assert args.experiment == "fig5"
        assert args.scale == "fast"
        assert args.output is None

    def test_run_with_options(self, tmp_path):
        out = tmp_path / "res.txt"
        args = build_parser().parse_args(
            ["run", "table2", "--scale", "smoke", "--output", str(out)]
        )
        assert args.scale == "smoke"
        assert args.output == out

    def test_fit_workers_flag_over_default(self):
        assert build_parser().parse_args(["run", "fig5"]).fit_workers == 1
        args = build_parser().parse_args(["run", "fig5", "--fit-workers", "3"])
        assert args.fit_workers == 3

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig5", "--scale", "huge"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list_prints_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "table5" in out

    def test_run_table4_smoke(self, capsys):
        assert main(["run", "table4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Default settings" in out

    def test_run_writes_output_file(self, tmp_path, capsys):
        out_file = tmp_path / "table2.txt"
        assert main(
            ["run", "table2", "--scale", "smoke", "--output", str(out_file)]
        ) == 0
        assert "Statistics" in out_file.read_text()

    @pytest.mark.parametrize("fit_workers", ["0", "257"])
    def test_out_of_range_fit_workers_is_a_usage_error(self, capsys, fit_workers):
        with pytest.raises(SystemExit) as exc:
            main(["run", "table4", "--scale", "smoke", "--fit-workers", fit_workers])
        assert exc.value.code == 2
        assert "fit_workers must be in [1, 256]" in capsys.readouterr().err

    def test_run_unknown_experiment_raises(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "fig99", "--scale", "smoke"])

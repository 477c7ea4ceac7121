"""System knobs: defaults, ranges, precedence and logged provenance.

Each serve/cluster knob's default and range live in the class that
reads it (see ``knob_cases``). Here, for every knob of both
subsystems: its consumer accepts its default and an alternative value
and rejects one out of range; a given flag beats the default
(``(cli)``) and an unset one falls through to it (``(default)``); and
the startup line :func:`~repro.serving.cli.startup_knobs` prints names
every knob with its source.
"""

from __future__ import annotations

import math

import pytest

from knob_cases import build_consumer, consumer_default, flag

from repro.exceptions import ServingError
from repro.serving.cli import (
    KNOB_ARGS,
    build_parser,
    service_config,
    startup_knobs,
)

SUBSYSTEMS = {"serving": "serve", "cluster": "cluster"}

ALL_KNOBS = [
    (subsystem, name) for subsystem in SUBSYSTEMS for name in sorted(KNOB_ARGS)
]

#: A valid value of each knob other than its default.
ALTERNATIVES = {
    "check_interval": 4,
    "max_inflight_rows": 512,
    "capacity": 16,
    "online": "isgd",
    "online_lr": 0.1,
    "online_batch": 8,
}


def resolved_knobs(capsys, subsystem: str, argv: list) -> dict:
    """``{knob: "value(source)"}`` from the startup line of ``argv``."""
    args = build_parser().parse_args([SUBSYSTEMS[subsystem], *argv])
    startup_knobs(args, subsystem)
    prefix = f"resolved {subsystem} knobs: "
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith(prefix)
    return dict(entry.split("=", 1) for entry in line[len(prefix):].split())


class TestRegistry:
    def test_cluster_knobs_equal_serving_knobs(self, capsys) -> None:
        # Every shard runs the single-node scoring loop.
        serving = resolved_knobs(capsys, "serving", [])
        cluster = resolved_knobs(capsys, "cluster", [])
        assert serving == cluster
        assert set(serving) == set(KNOB_ARGS)
        assert len(serving) == 6

    def test_defaults_validate(self) -> None:
        for name in KNOB_ARGS:
            build_consumer(name, consumer_default(name))

    def test_alternative_is_valid_and_differs(self) -> None:
        assert set(ALTERNATIVES) == set(KNOB_ARGS)
        for name, alternative in ALTERNATIVES.items():
            assert alternative != consumer_default(name)
            build_consumer(name, alternative)

    def test_out_of_range_rejected(self) -> None:
        for name, value in [
            ("check_interval", 0),
            ("online_lr", 0.0),
            ("online_lr", math.nan),
            ("online", "warp"),
            ("capacity", -1),
        ]:
            with pytest.raises(ServingError, match=f"^{name} must be"):
                build_consumer(name, value)


class TestPrecedence:
    @pytest.mark.parametrize(("subsystem", "name"), ALL_KNOBS)
    def test_cli_over_default_per_knob(
        self, capsys, subsystem: str, name: str
    ) -> None:
        default = consumer_default(name)
        # Default layer: nothing set.
        entries = resolved_knobs(capsys, subsystem, [])
        assert entries[name] == f"{default}(default)"
        # The flag beats the default, and only for the knob it names.
        value = ALTERNATIVES[name]
        entries = resolved_knobs(capsys, subsystem, [flag(name), str(value)])
        assert entries.pop(name) == f"{value}(cli)"
        for other, entry in entries.items():
            assert entry == f"{consumer_default(other)}(default)"
        # A flag that repeats the default still counts as the CLI's.
        entries = resolved_knobs(capsys, subsystem, [flag(name), str(default)])
        assert entries[name] == f"{default}(cli)"

    def test_none_cli_entry_falls_through(self, capsys) -> None:
        args = build_parser().parse_args(["serve"])
        args.check_interval = None
        config, _ = startup_knobs(args, "serving")
        assert config.check_interval == 16
        assert service_config(args).check_interval == 16
        assert "check_interval=16(default)" in capsys.readouterr().out

    def test_unknown_layer_knob_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--bogus", "1"])
        assert "--bogus" in capsys.readouterr().err

    def test_bad_layer_value_rejected(self) -> None:
        args = build_parser().parse_args(["serve", "--check-interval", "-5"])
        with pytest.raises(ServingError, match="check_interval"):
            startup_knobs(args, "serving")

    def test_describe_names_every_knob_with_source(self, capsys) -> None:
        entries = resolved_knobs(capsys, "serving", ["--check-interval", "4"])
        assert entries.pop("check_interval") == "4(cli)"
        assert set(entries) == set(KNOB_ARGS) - {"check_interval"}
        for entry in entries.values():
            assert entry.endswith("(default)")

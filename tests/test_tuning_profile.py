"""The knob registry: ranges, precedence and logged provenance.

Covers the startup contract of every serving/cluster/training knob:

* the registry rejects out-of-range / wrongly-typed knob values with a
  typed :class:`~repro.exceptions.TuningError` naming the offender;
* precedence is CLI > built-in default **for every registered knob of
  every subsystem**, exercised knob-by-knob;
* the provenance line names every knob with its source.
"""

from __future__ import annotations

import pytest

from repro.exceptions import TuningError
from repro.tuning.defaults import (
    KNOBS,
    SUBSYSTEMS,
    Knob,
    defaults_for,
    describe,
    knob,
    knobs_for,
    resolve,
    values_of,
)

ALL_KNOBS = [
    (subsystem, name)
    for subsystem in SUBSYSTEMS
    for name in sorted(KNOBS[subsystem])
]


def _alternative(entry: Knob) -> object:
    """A value of ``entry``'s type and range other than its default."""
    if entry.choices is not None:
        return next(value for value in entry.choices if value != entry.default)
    if entry.kind is int:
        up, down = int(entry.default) + 1, int(entry.default) - 1
    else:
        up, down = float(entry.default) + 1.0, float(entry.default) / 2.0
    return up if entry.hi is None or up <= entry.hi else down


class TestRegistry:
    def test_every_subsystem_has_knobs(self) -> None:
        for subsystem in SUBSYSTEMS:
            assert knobs_for(subsystem)

    def test_cluster_knobs_equal_serving_knobs(self) -> None:
        # Every shard runs the single-node scoring loop.
        assert set(knobs_for("cluster")) == set(knobs_for("serving"))
        assert len(knobs_for("serving")) == 6

    def test_defaults_validate(self) -> None:
        for subsystem, name in ALL_KNOBS:
            entry = knob(subsystem, name)
            assert entry.validate(entry.default) == entry.default

    def test_alternative_is_valid_and_differs(self) -> None:
        for subsystem, name in ALL_KNOBS:
            entry = knob(subsystem, name)
            alternative = _alternative(entry)
            assert alternative != entry.default
            assert entry.validate(alternative) == alternative

    def test_out_of_range_rejected(self) -> None:
        with pytest.raises(TuningError, match="check_interval"):
            knob("serving", "check_interval").validate(0)
        with pytest.raises(TuningError, match="online_lr"):
            knob("serving", "online_lr").validate(0.0)
        with pytest.raises(TuningError, match="online"):
            knob("serving", "online").validate("warp")
        with pytest.raises(TuningError, match="expects int"):
            knob("serving", "check_interval").validate(2.5)
        with pytest.raises(TuningError, match="expects int"):
            knob("serving", "check_interval").validate(True)

    def test_unknown_names_rejected(self) -> None:
        with pytest.raises(TuningError, match="unknown subsystem"):
            knobs_for("networking")
        with pytest.raises(TuningError, match="unknown knob"):
            knob("serving", "turbo")


class TestPrecedence:
    @pytest.mark.parametrize(("subsystem", "name"), ALL_KNOBS)
    def test_cli_over_default_per_knob(self, subsystem: str, name: str) -> None:
        entry = knob(subsystem, name)
        # Default layer: nothing set.
        resolved = resolve(subsystem)
        assert resolved[name].value == entry.default
        assert resolved[name].source == "default"
        # CLI layer beats the default, and only for the knob it names.
        cli_value = _alternative(entry)
        resolved = resolve(subsystem, cli={name: cli_value})
        assert resolved[name].value == cli_value
        assert resolved[name].source == "cli"
        for other, other_knob in resolved.items():
            if other != name:
                assert other_knob.source == "default"
        # A flag that repeats the default still counts as the CLI's.
        resolved = resolve(subsystem, cli={name: entry.default})
        assert resolved[name].value == entry.default
        assert resolved[name].source == "cli"

    def test_none_cli_entry_falls_through(self) -> None:
        resolved = resolve("serving", cli={"check_interval": None})
        assert resolved["check_interval"].value == 16
        assert resolved["check_interval"].source == "default"

    def test_unknown_layer_knob_rejected(self) -> None:
        with pytest.raises(TuningError, match="cli"):
            resolve("serving", cli={"bogus": 1})

    def test_bad_layer_value_rejected(self) -> None:
        with pytest.raises(TuningError, match="check_interval"):
            resolve("serving", cli={"check_interval": -5})

    def test_describe_names_every_knob_with_source(self) -> None:
        resolved = resolve("serving", cli={"check_interval": 4})
        line = describe(resolved)
        assert "check_interval=4(cli)" in line
        for name in knobs_for("serving"):
            assert f"{name}=" in line

    def test_values_of_flattens(self) -> None:
        values = values_of(resolve("training"))
        assert values == defaults_for("training")

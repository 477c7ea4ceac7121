"""Machine profiles: knob registry, precedence, and the checksummed file.

Covers the startup contract of profile-guided autotuning:

* the registry rejects out-of-range / wrongly-typed knob values with a
  typed :class:`~repro.exceptions.TuningError` naming the offender;
* precedence is CLI > profile > built-in default **for every registered
  knob of every subsystem**, exercised knob-by-knob;
* ``profile.json`` write → load is lossless (a Hypothesis property over
  random valid knob selections), atomic, and checksummed — malformed
  files, stale schema versions, unknown knobs, out-of-range values, and
  hand-edited (checksum-torn) files all raise ``TuningError`` at load
  time rather than misconfiguring a server.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TuningError
from repro.store import STORE_KINDS
from repro.tuning.defaults import (
    KNOBS,
    STORE_CHOICES,
    SUBSYSTEMS,
    defaults_for,
    describe,
    knob,
    knobs_for,
    resolve,
    values_of,
)
from repro.tuning.profile import PROFILE_VERSION, MachineProfile, load_profile_knobs

ALL_KNOBS = [
    (subsystem, name)
    for subsystem in SUBSYSTEMS
    for name in sorted(KNOBS[subsystem])
]


class TestRegistry:
    def test_every_subsystem_has_knobs(self) -> None:
        for subsystem in SUBSYSTEMS:
            assert knobs_for(subsystem)

    def test_store_choices_match_store_kinds(self) -> None:
        # defaults.py deliberately avoids importing repro.store (it must
        # stay import-light); this guard keeps the duplicate in sync.
        assert STORE_CHOICES == STORE_KINDS

    def test_cluster_knobs_equal_serving_knobs(self) -> None:
        # Every shard runs the single-node scoring loop.
        assert set(knobs_for("cluster")) == set(knobs_for("serving"))
        assert len(knobs_for("serving")) == 8

    def test_defaults_validate(self) -> None:
        for subsystem, name in ALL_KNOBS:
            entry = knob(subsystem, name)
            assert entry.validate(entry.default) == entry.default

    def test_search_values_validate(self) -> None:
        for subsystem, name in ALL_KNOBS:
            entry = knob(subsystem, name)
            for value in entry.search:
                assert entry.validate(value) == value

    def test_alternative_is_valid_and_differs(self) -> None:
        for subsystem, name in ALL_KNOBS:
            entry = knob(subsystem, name)
            alternative = entry.alternative()
            assert alternative != entry.default
            assert entry.validate(alternative) == alternative

    def test_out_of_range_rejected(self) -> None:
        with pytest.raises(TuningError, match="check_interval"):
            knob("serving", "check_interval").validate(0)
        with pytest.raises(TuningError, match="admission_wait_ms"):
            knob("serving", "admission_wait_ms").validate(-1.0)
        with pytest.raises(TuningError, match="store"):
            knob("serving", "store").validate("warp")
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
    def test_cli_over_profile_over_default_per_knob(
        self, subsystem: str, name: str
    ) -> None:
        entry = knob(subsystem, name)
        profile_value = entry.alternative()
        # Default layer: nothing set.
        resolved = resolve(subsystem)
        assert resolved[name].value == entry.default
        assert resolved[name].source == "default"
        # Profile layer beats the default.
        resolved = resolve(subsystem, profile={name: profile_value})
        assert resolved[name].value == profile_value
        assert resolved[name].source == "profile"
        # CLI layer beats the profile.
        resolved = resolve(
            subsystem,
            cli={name: entry.default},
            profile={name: profile_value},
        )
        assert resolved[name].value == entry.default
        assert resolved[name].source == "cli"

    def test_none_cli_entry_falls_through(self) -> None:
        resolved = resolve(
            "serving",
            cli={"check_interval": None},
            profile={"check_interval": 64},
        )
        assert resolved["check_interval"].value == 64
        assert resolved["check_interval"].source == "profile"

    def test_unknown_layer_knob_rejected(self) -> None:
        with pytest.raises(TuningError, match="cli"):
            resolve("serving", cli={"bogus": 1})
        with pytest.raises(TuningError, match="profile"):
            resolve("serving", profile={"bogus": 1})

    def test_bad_layer_value_rejected(self) -> None:
        with pytest.raises(TuningError, match="check_interval"):
            resolve("serving", profile={"check_interval": -5})

    def test_describe_names_every_knob_with_source(self) -> None:
        resolved = resolve("serving", cli={"check_interval": 4})
        line = describe(resolved)
        assert "check_interval=4(cli)" in line
        for name in knobs_for("serving"):
            assert f"{name}=" in line

    def test_values_of_flattens(self) -> None:
        values = values_of(resolve("training"))
        assert values == defaults_for("training")


def _knob_selections(subsystem: str):
    """Strategy: a random valid knob dict for one subsystem."""
    registry = knobs_for(subsystem)
    per_knob = {}
    for name, entry in registry.items():
        if entry.choices is not None:
            per_knob[name] = st.sampled_from(list(entry.choices))
        elif entry.kind is int:
            per_knob[name] = st.integers(
                min_value=int(entry.lo), max_value=min(int(entry.hi), 1 << 20)
            )
        else:
            per_knob[name] = st.floats(
                min_value=float(entry.lo),
                max_value=float(entry.hi),
                allow_nan=False,
                allow_infinity=False,
            )
    return st.fixed_dictionaries(per_knob)


class TestProfileFile:
    @settings(max_examples=25, deadline=None)
    @given(
        serving=_knob_selections("serving"),
        training=_knob_selections("training"),
    )
    def test_write_load_round_trip_lossless(
        self, tmp_path_factory, serving, training
    ) -> None:
        tmp_path = tmp_path_factory.mktemp("profile")
        profile = MachineProfile(
            machine={"cpu_count": 4}, created="2026-08-08T00:00:00Z"
        )
        profile.set_subsystem(
            "serving", serving, validation={"p99_ms": 1.25}
        )
        profile.set_subsystem("training", training)
        path = tmp_path / "profile.json"
        profile.save(path)
        loaded = MachineProfile.load(path)
        assert loaded.machine == profile.machine
        assert loaded.created == profile.created
        assert loaded.subsystems == profile.subsystems
        assert loaded.checksum() == profile.checksum()
        # Saving the loaded profile reproduces the bytes exactly.
        second = tmp_path / "again.json"
        loaded.save(second)
        assert second.read_bytes() == path.read_bytes()

    def test_missing_file_raises(self, tmp_path) -> None:
        with pytest.raises(TuningError, match="not found"):
            MachineProfile.load(tmp_path / "nope.json")

    def test_malformed_json_raises(self, tmp_path) -> None:
        path = tmp_path / "profile.json"
        path.write_text("{not json")
        with pytest.raises(TuningError, match="malformed"):
            MachineProfile.load(path)

    def test_non_object_raises(self, tmp_path) -> None:
        path = tmp_path / "profile.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(TuningError, match="expected a JSON object"):
            MachineProfile.load(path)

    def test_stale_version_raises(self, tmp_path) -> None:
        profile = MachineProfile()
        profile.set_subsystem("serving", defaults_for("serving"))
        path = tmp_path / "profile.json"
        profile.save(path)
        payload = json.loads(path.read_text())
        payload["profile_version"] = PROFILE_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(TuningError, match="stale"):
            MachineProfile.load(path)

    def test_unknown_subsystem_raises(self, tmp_path) -> None:
        path = tmp_path / "profile.json"
        payload = {
            "profile_version": PROFILE_VERSION,
            "created": "",
            "machine": {},
            "subsystems": {"networking": {"knobs": {}}},
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(TuningError, match="unknown subsystem"):
            MachineProfile.load(path)

    def test_out_of_range_knob_raises(self, tmp_path) -> None:
        profile = MachineProfile()
        profile.set_subsystem("serving", defaults_for("serving"))
        path = tmp_path / "profile.json"
        profile.save(path)
        payload = json.loads(path.read_text())
        payload["subsystems"]["serving"]["knobs"]["check_interval"] = 0
        path.write_text(json.dumps(payload))
        with pytest.raises(TuningError, match="check_interval"):
            MachineProfile.load(path)

    def test_hand_edit_fails_checksum(self, tmp_path) -> None:
        profile = MachineProfile()
        profile.set_subsystem("serving", defaults_for("serving"))
        path = tmp_path / "profile.json"
        profile.save(path)
        payload = json.loads(path.read_text())
        payload["subsystems"]["serving"]["knobs"]["check_interval"] = 32
        path.write_text(json.dumps(payload))
        with pytest.raises(TuningError, match="checksum"):
            MachineProfile.load(path)

    def test_set_subsystem_validates(self) -> None:
        profile = MachineProfile()
        with pytest.raises(TuningError, match="unknown knob"):
            profile.set_subsystem("serving", {"bogus": 1})
        with pytest.raises(TuningError, match="check_interval"):
            profile.set_subsystem("serving", {"check_interval": 0})

    def test_missing_subsystem_block_message(self, tmp_path) -> None:
        profile = MachineProfile()
        profile.set_subsystem("serving", defaults_for("serving"))
        with pytest.raises(TuningError, match="tune cluster"):
            profile.knobs_for("cluster")
        assert profile.knobs_for("cluster", required=False) == {}

    def test_load_profile_knobs_helper(self, tmp_path) -> None:
        assert load_profile_knobs(None, "serving") == {}
        profile = MachineProfile()
        profile.set_subsystem("serving", defaults_for("serving"))
        path = tmp_path / "profile.json"
        profile.save(path)
        assert load_profile_knobs(path, "serving") == defaults_for("serving")
        assert (
            load_profile_knobs(profile, "serving") == defaults_for("serving")
        )

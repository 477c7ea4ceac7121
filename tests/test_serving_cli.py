"""The serving CLI: parser wiring, knob flags, replay end-to-end.

``serve`` blocks on a socket, so its end-to-end path is exercised via
the server tests; here we verify the ``repro-serve`` argument surface,
the system-knob flags — precedence, ranges and the startup provenance
line — and run ``replay`` for real against a log produced by a live
service.
"""

from __future__ import annotations

import argparse

import pytest

from knob_cases import build_consumer, consumer_default, flag

import repro.cli as experiments_cli
import repro.serving.cli as serving_cli
from repro.exceptions import ServingError
from repro.models.recency import RecencyRecommender
from repro.serving.cli import (
    DATASET_CHOICES,
    MODEL_CHOICES,
    KNOB_ARGS,
    build_model,
    build_parser,
    build_split,
    main,
    service_config,
)
from repro.serving.events import EventLog
from repro.serving.service import ServiceConfig, service_for_split
from repro.serving.state import DEFAULT_CAPACITY

#: Every serve/cluster knob's inclusive bounds, pinned here so that a
#: consumer which stops enforcing one fails a test.
KNOB_BOUNDS = {
    "check_interval": (1, 4096),
    "max_inflight_rows": (1, 1 << 22),
    "capacity": (1, 1 << 24),
    "online_lr": (1e-6, 1.0),
    "online_batch": (1, 4096),
}

#: Just outside each bound: every one must be rejected.
OUT_OF_RANGE = [
    ("check_interval", 0),
    ("check_interval", 4097),
    ("max_inflight_rows", 0),
    ("max_inflight_rows", (1 << 22) + 1),
    ("capacity", 0),
    ("capacity", (1 << 24) + 1),
    ("online_lr", 5e-7),
    ("online_lr", 1.5),
    ("online_batch", 0),
    ("online_batch", 4097),
]


class TestParser:
    def test_serve_defaults(self) -> None:
        # Knob flags parse to None sentinels ("not explicitly set"), so
        # the consumers' own defaults apply.
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.model == "recency"
        assert args.dataset == "gowalla"
        assert args.port == 8423
        for name in KNOB_ARGS:
            assert getattr(args, name) is None
        assert args.event_log is None
        assert args.deadline_ms is None
        config = service_config(args)
        assert config == ServiceConfig()
        assert DEFAULT_CAPACITY == 1024
        assert config.check_interval == 16
        assert config.max_inflight_rows == 32768
        assert (config.online, config.online_lr, config.online_batch) == (
            "off", 0.05, 256,
        )
        assert args.store_dir is None

    def test_serve_overrides(self, tmp_path) -> None:
        args = build_parser().parse_args(
            [
                "--log-level", "debug",
                "serve",
                "--model", "tsppr",
                "--dataset", "lastfm",
                "--port", "0",
                "--event-log", str(tmp_path / "e.log"),
                "--check-interval", "4",
                "--max-inflight-rows", "512",
                "--deadline-ms", "25",
                "--capacity", "16",
                "--max-epochs", "100",
                "--seed", "11",
            ]
        )
        assert args.log_level == "debug"
        assert args.model == "tsppr"
        assert args.dataset == "lastfm"
        assert args.check_interval == 4
        assert args.max_inflight_rows == 512
        assert args.deadline_ms == 25.0
        config = service_config(args)
        assert (config.check_interval, config.max_inflight_rows) == (4, 512)
        assert config.default_deadline_ms == 25.0

    def test_non_integer_check_interval_rejected(self, capsys) -> None:
        for value in ("2.5", "four"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["serve", "--check-interval", value])
            assert exc.value.code == 2
            assert "--check-interval: invalid int value" in capsys.readouterr().err

    def test_unknown_online_mode_rejected(self, capsys) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--online", "warp"])
        assert "invalid choice" in capsys.readouterr().err

    def test_replay_requires_event_log(self, capsys) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay"])
        assert "--event-log" in capsys.readouterr().err

    def test_rejects_unknown_model(self, capsys) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--model", "svd"])
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_log_level_errors(self, tmp_path, capsys) -> None:
        with pytest.raises(SystemExit):
            main(
                ["--log-level", "shouty", "replay", "--event-log",
                 str(tmp_path / "none.log")]
            )

    def test_choices_cover_bundled_models(self) -> None:
        assert set(MODEL_CHOICES) == {"recency", "pop", "tsppr", "ppr", "fpmc"}
        assert set(DATASET_CHOICES) == {"gowalla", "lastfm"}


def _subcommands(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.items()


class TestHelp:
    """argparse formats help lazily: a bad help string fails only here."""

    @pytest.mark.parametrize(
        "build, expected",
        [
            (experiments_cli.build_parser, {"list", "run"}),
            (build_parser, {"serve", "cluster", "replay"}),
        ],
        ids=["repro-experiments", "repro-serve"],
    )
    def test_every_subcommand_help_renders(self, build, expected) -> None:
        parser = build()
        assert "usage:" in parser.format_help()
        subcommands = dict(_subcommands(parser))
        assert set(subcommands) == expected
        for name, subparser in subcommands.items():
            text = " ".join(subparser.format_help().split())
            assert text.startswith("usage:"), name
            if name in ("serve", "cluster"):
                for knob in KNOB_ARGS:
                    assert flag(knob) in text, (name, knob)
                    assert f"(default: {consumer_default(knob)})" in text, (
                        name, knob,
                    )


class _StopAfterKnobs(Exception):
    """Raised in place of the dataset build: startup got past the knobs."""


def _stop(*args, **kwargs):
    raise _StopAfterKnobs


def _startup_knob_line(monkeypatch, capsys, argv, subsystem) -> str:
    """The ``resolved <subsystem> knobs: ...`` line a subcommand prints."""
    monkeypatch.setattr(serving_cli, "build_split", _stop)
    with pytest.raises(_StopAfterKnobs):
        main(["--log-level", "critical", *argv])
    prefix = f"resolved {subsystem} knobs: "
    lines = [
        line[len(prefix):]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith(prefix)
    ]
    assert len(lines) == 1
    return lines[0]


def _startup_entries(monkeypatch, capsys, argv, subsystem) -> dict:
    line = _startup_knob_line(monkeypatch, capsys, argv, subsystem)
    return dict(entry.split("=", 1) for entry in line.split())


class TestStartupKnobLine:
    """Every knob is printed at startup with where its value came from."""

    def test_flags_cover_every_registered_knob(self) -> None:
        assert set(KNOB_ARGS) == set(KNOB_BOUNDS) | {"online"}
        parser = build_parser()
        for command in ("serve", "cluster"):
            args = parser.parse_args([command])
            for name in KNOB_ARGS:
                assert getattr(args, name) is None, (command, name)
        args = parser.parse_args(["replay", "--event-log", "e.log"])
        for name in ("online", "online_lr", "online_batch"):
            assert getattr(args, name) is None

    @pytest.mark.parametrize(("name", "value"), OUT_OF_RANGE)
    @pytest.mark.parametrize("command", ["serve", "cluster"])
    def test_out_of_range_flag_fails_before_the_build(
        self, monkeypatch, capsys, command, name, value
    ) -> None:
        monkeypatch.setattr(serving_cli, "build_split", _stop)
        code = main(["--log-level", "critical", command, flag(name), str(value)])
        assert code == 1
        assert f"error: {name} must be in" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("name", "value"),
        [pair for pair in OUT_OF_RANGE if pair[0].startswith("online")],
    )
    def test_replay_online_flag_fails_before_the_build(
        self, monkeypatch, capsys, tmp_path, name, value
    ) -> None:
        log_path = tmp_path / "events.log"
        log_path.touch()
        monkeypatch.setattr(serving_cli, "build_split", _stop)
        code = main(
            ["--log-level", "critical", "replay", "--event-log",
             str(log_path), "--online", "isgd", flag(name), str(value)]
        )
        assert code == 1
        assert f"error: {name} must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("subsystem", ["serving", "cluster"])
    def test_line_names_every_knob_with_provenance(
        self, monkeypatch, capsys, subsystem
    ) -> None:
        command = "serve" if subsystem == "serving" else "cluster"
        line = _startup_knob_line(
            monkeypatch,
            capsys,
            [command, "--check-interval", "4", "--online", "isgd"],
            subsystem,
        )
        entries = dict(entry.split("=", 1) for entry in line.split())
        assert list(entries) == sorted(KNOB_ARGS)
        assert entries.pop("check_interval") == "4(cli)"
        assert entries.pop("online") == "isgd(cli)"
        for name, entry in entries.items():
            assert entry == f"{consumer_default(name)}(default)"


class TestKnobRanges:
    """Each knob's consumer enforces its range, both bounds included."""

    @pytest.mark.parametrize("name", sorted(KNOB_BOUNDS))
    def test_consumer_accepts_its_bounds_and_default(self, name) -> None:
        low, high = KNOB_BOUNDS[name]
        for value in (low, high, consumer_default(name)):
            build_consumer(name, value)

    @pytest.mark.parametrize(("name", "value"), OUT_OF_RANGE)
    def test_consumer_rejects_out_of_range(self, name, value) -> None:
        with pytest.raises(ServingError, match=f"^{name} must be in"):
            build_consumer(name, value)


class TestBuilders:
    def test_build_split_is_seeded(self) -> None:
        one = build_split("gowalla", seed=3)
        two = build_split("gowalla", seed=3)
        assert one.n_users == two.n_users
        assert one.n_items == two.n_items

    def test_build_model_baselines(self) -> None:
        split = build_split("gowalla", seed=3)
        assert build_model("recency", split, max_epochs=10, seed=1).is_fitted
        assert build_model("pop", split, max_epochs=10, seed=1).is_fitted


class TestReplayEndToEnd:
    def test_replay_reports_fingerprints(self, tmp_path, capsys) -> None:
        """replay prints exactly what a recovering server rebuilds."""
        seed = 7
        split = build_split("gowalla", seed)
        model = RecencyRecommender().fit(split)
        log = EventLog.open(tmp_path / "events.log")
        config = ServiceConfig(n_items=split.n_items)
        with service_for_split(
            model, split, event_log=log, config=config
        ) as service:
            for user in (0, 1):
                boundary = split.train_boundary(user)
                for item in split.full_sequence(user).items[
                    boundary:boundary + 10
                ].tolist():
                    service.ingest(user, item)
            expected = {u: service.state_fingerprint(u) for u in (0, 1)}
        code = main(
            ["--log-level", "warning", "replay",
             "--event-log", str(tmp_path / "events.log"), "--seed", str(seed)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "20 committed event(s), 2 user(s)" in out
        for user, fingerprint in expected.items():
            assert f"user {user}: replayed 10 event(s)" in out
            assert fingerprint in out

    def test_replay_single_user_filter(self, tmp_path, capsys) -> None:
        split = build_split("gowalla", 7)
        model = RecencyRecommender().fit(split)
        log = EventLog.open(tmp_path / "events.log")
        with service_for_split(
            model, split, event_log=log,
            config=ServiceConfig(n_items=split.n_items),
        ) as service:
            service.ingest(0, 1)
            service.ingest(1, 2)
        code = main(
            ["--log-level", "warning", "replay",
             "--event-log", str(tmp_path / "events.log"), "--user", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "user 1:" in out
        assert "user 0:" not in out

    def test_replay_missing_log_fails(self, tmp_path, capsys) -> None:
        code = main(
            ["--log-level", "warning", "replay",
             "--event-log", str(tmp_path / "missing.log")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_replay_does_not_mutate_log(self, tmp_path) -> None:
        """Inspection is read-only: same bytes before and after."""
        split = build_split("gowalla", 7)
        model = RecencyRecommender().fit(split)
        log_path = tmp_path / "events.log"
        log = EventLog.open(log_path)
        with service_for_split(
            model, split, event_log=log,
            config=ServiceConfig(n_items=split.n_items),
        ) as service:
            service.ingest(0, 1)
        before = log_path.read_bytes()
        main(["--log-level", "warning", "replay", "--event-log", str(log_path)])
        assert log_path.read_bytes() == before

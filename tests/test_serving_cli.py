"""The serving CLI: parser wiring, replay end-to-end, mount points.

``serve`` blocks on a socket, so its end-to-end path is exercised via
the server tests; here we verify the argument surface (both the
standalone ``repro-serve`` parser and the subcommands mounted on
``repro-experiments``) and run ``replay`` for real against a log
produced by a live service.
"""

from __future__ import annotations

import pytest

import repro.cli as experiments_cli
import repro.serving.cli as serving_cli
from repro.config import WindowConfig
from repro.models.recency import RecencyRecommender
from repro.serving.cli import (
    DATASET_CHOICES,
    MODEL_CHOICES,
    KNOB_ARGS,
    build_model,
    build_parser,
    build_split,
    main,
    resolve_knob_args,
)
from repro.serving.events import EventLog
from repro.serving.service import ServiceConfig, service_for_split
from repro.tuning.defaults import knobs_for, values_of


class TestParser:
    def test_serve_defaults(self) -> None:
        # Knob flags parse to None sentinels ("not explicitly set");
        # resolution then fills in the registry defaults.
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.model == "recency"
        assert args.dataset == "gowalla"
        assert args.port == 8423
        for name in KNOB_ARGS:
            assert getattr(args, name) is None
        assert args.event_log is None
        assert args.deadline_ms is None
        resolved = resolve_knob_args(args, "serving", KNOB_ARGS)
        values = values_of(resolved)
        assert set(values) == set(KNOB_ARGS)
        assert values["capacity"] == 1024
        assert values["check_interval"] == 16
        assert values["max_inflight_rows"] == 32768
        assert args.store_dir is None
        assert all(entry.source == "default" for entry in resolved.values())

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

    def test_mounted_on_experiments_cli(self, tmp_path) -> None:
        """repro-experiments gained the same serve/replay subcommands."""
        parser = experiments_cli.build_parser()
        args = parser.parse_args(["serve", "--model", "pop", "--port", "0"])
        assert args.command == "serve"
        assert args.model == "pop"
        args = parser.parse_args(
            ["replay", "--event-log", str(tmp_path / "e.log")]
        )
        assert args.command == "replay"

    def test_choices_cover_bundled_models(self) -> None:
        assert set(MODEL_CHOICES) == {"recency", "pop", "tsppr", "ppr", "fpmc"}
        assert set(DATASET_CHOICES) == {"gowalla", "lastfm"}


class _StopAfterKnobs(Exception):
    """Raised in place of the dataset build: startup got past the knobs."""


def _startup_knob_line(monkeypatch, capsys, argv, subsystem) -> str:
    """The ``resolved <subsystem> knobs: ...`` line a subcommand prints."""

    def stop(*args, **kwargs):
        raise _StopAfterKnobs

    monkeypatch.setattr(serving_cli, "build_split", stop)
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


class TestStartupKnobLine:
    """Every kept knob is logged at startup with where its value came from."""

    def test_flags_cover_every_registered_knob(self) -> None:
        assert set(KNOB_ARGS) == set(knobs_for("serving"))
        assert set(KNOB_ARGS) == set(knobs_for("cluster"))

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
        assert set(entries) == set(knobs_for(subsystem))
        assert entries.pop("check_interval") == "4(cli)"
        assert entries.pop("online") == "isgd(cli)"
        for name, entry in entries.items():
            default = knobs_for(subsystem)[name].default
            assert entry == f"{default}(default)"


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

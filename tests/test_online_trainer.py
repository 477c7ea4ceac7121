"""The online learning subsystem's core invariant, tier-1.

A model updated live, event by event, must be **bit-identical** —
:func:`~repro.online.trainer.fingerprint_params` digests — to one
rebuilt by replaying the WAL from scratch or from a mid-stream
checkpoint, for every supported model family, at any flush batch
window. Plus the guard rails: strict WAL-sequence ordering, fitted-model
requirements, config validation, and the serving wiring
(``ServiceConfig(online="isgd")`` through :func:`service_for_split`).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from conftest import SMALL_WINDOW

from repro.config import TSPPRConfig
from repro.data.split import SplitDataset
from repro.exceptions import OnlineError, ServingError
from repro.models.fpmc import FPMCRecommender
from repro.models.ppr import PPRRecommender
from repro.models.recency import RecencyRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.online.adapters import adapter_for
from repro.online.trainer import OnlineTrainer, fingerprint_params
from repro.resilience.checkpoint import CheckpointManager
from repro.serving.events import EventLog
from repro.serving.service import (
    RecommendService,
    ServiceConfig,
    service_for_split,
)
from repro.serving.state import SessionStore

QUICK = TSPPRConfig(max_epochs=2000, seed=3)
QUICK_SHARED = TSPPRConfig(max_epochs=2000, seed=3, share_mapping=True)

#: Model families under test; fits are deterministic, so building the
#: same entry twice yields bit-identical starting factors.
MODEL_BUILDERS = {
    "tsppr": lambda split: TSPPRRecommender(QUICK).fit(split, SMALL_WINDOW),
    "tsppr-shared": lambda split: TSPPRRecommender(QUICK_SHARED).fit(
        split, SMALL_WINDOW
    ),
    "ppr": lambda split: PPRRecommender(QUICK).fit(split, SMALL_WINDOW),
    "fpmc": lambda split: FPMCRecommender(QUICK).fit(split, SMALL_WINDOW),
}

MODEL_KINDS = tuple(MODEL_BUILDERS)


def held_out_stream(split: SplitDataset, n_users: int = 6) -> List[Tuple[int, int]]:
    """Each user's held-out suffix, user-by-user (any order works)."""
    stream = []
    for user in range(min(n_users, split.n_users)):
        items = split.full_sequence(user).items[
            split.train_boundary(user):
        ].tolist()
        stream.extend((user, item) for item in items)
    return stream


def fresh_store(split: SplitDataset) -> SessionStore:
    """A lossless replay store over the split's training prefixes."""
    return SessionStore(
        SMALL_WINDOW.window_size,
        SMALL_WINDOW.min_gap,
        capacity=max(split.n_users, 1),
        history_provider=split.history_store(base="train"),
    )


def online_config(**overrides) -> ServiceConfig:
    defaults = dict(window=SMALL_WINDOW, online="isgd", online_batch=7)
    defaults.update(overrides)
    return ServiceConfig(**defaults)


def drive_live(
    split: SplitDataset, kind: str, log_path, **config_overrides
) -> str:
    """Serve the stream with live ISGD on; returns the model fingerprint."""
    model = MODEL_BUILDERS[kind](split)
    log = EventLog.open(log_path)
    config = online_config(n_items=split.n_items, **config_overrides)
    with service_for_split(
        model, split, event_log=log, config=config
    ) as service:
        for user, item in held_out_stream(split):
            service.step(user, item, k=5)
        return service.online_trainer.model_fingerprint()


def rebuild_by_replay(
    split: SplitDataset, kind: str, log_path, batch_window: int = 7
) -> str:
    """Refit + replay the whole WAL; returns the rebuilt fingerprint."""
    model = MODEL_BUILDERS[kind](split)
    trainer = OnlineTrainer(model, batch_window=batch_window)
    log = EventLog.open(log_path, readonly=True)
    trainer.replay(log.iter_events(), fresh_store(split))
    return trainer.model_fingerprint()


class TestReplayBitIdentity:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_live_equals_full_replay(
        self, gowalla_split: SplitDataset, tmp_path, kind: str
    ) -> None:
        log_path = tmp_path / "wal.log"
        live = drive_live(gowalla_split, kind, log_path)
        rebuilt = rebuild_by_replay(gowalla_split, kind, log_path)
        assert rebuilt == live

    def test_callable_provider_replay_matches_arena(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """A per-user fetch callable replays to the arena's digest.

        The store is built the way the benchmark host rebuilds a shard's
        online model after a run: a lambda over ``train_sequence`` that
        answers ``None`` outside the split.
        """
        split = gowalla_split
        log_path = tmp_path / "wal.log"
        live = drive_live(split, "tsppr", log_path)
        trainer = OnlineTrainer(MODEL_BUILDERS["tsppr"](split), batch_window=7)
        store = SessionStore(
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            capacity=max(split.n_users, 1),
            history_provider=lambda user: (
                split.train_sequence(user)
                if 0 <= user < split.n_users
                else None
            ),
        )
        log = EventLog.open(log_path, readonly=True)
        trainer.replay(log.iter_events(), store)
        arena = rebuild_by_replay(split, "tsppr", log_path)
        assert trainer.model_fingerprint() == arena == live

    def test_batch_window_never_changes_parameters(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """Flush cadence is pure throughput: 1 == 7 == 64 == live."""
        log_path = tmp_path / "wal.log"
        live = drive_live(gowalla_split, "tsppr", log_path)
        fingerprints = {
            batch_window: rebuild_by_replay(
                gowalla_split, "tsppr", log_path, batch_window=batch_window
            )
            for batch_window in (1, 7, 64)
        }
        assert set(fingerprints.values()) == {live}

    @pytest.mark.parametrize("kind", ("tsppr", "fpmc"))
    def test_checkpoint_plus_wal_suffix(
        self, gowalla_split: SplitDataset, tmp_path, kind: str
    ) -> None:
        """Mid-stream checkpoint + remaining WAL == live, bit for bit."""
        split = gowalla_split
        stream = held_out_stream(split)
        cut = len(stream) // 2
        model = MODEL_BUILDERS[kind](split)
        manager = CheckpointManager(tmp_path / "ckpt")
        trainer = OnlineTrainer(
            model, batch_window=5, checkpoint_manager=manager
        )
        log = EventLog.open(tmp_path / "wal.log")
        config = online_config(n_items=split.n_items)
        with RecommendService(
            model,
            fresh_store(split),
            event_log=log,
            config=config,
            online_trainer=trainer,
        ) as service:
            for index, (user, item) in enumerate(stream):
                if index == cut:
                    trainer.checkpoint()
                service.step(user, item, k=5)
            live = trainer.model_fingerprint()

        # Restart path: fresh fit, restore the checkpoint, replay the log.
        model2 = MODEL_BUILDERS[kind](split)
        trainer2 = OnlineTrainer(
            model2,
            batch_window=64,  # different cadence on purpose
            checkpoint_manager=CheckpointManager(tmp_path / "ckpt"),
        )
        resumed_at = trainer2.load_latest()
        assert resumed_at > 0
        log2 = EventLog.open(tmp_path / "wal.log", readonly=True)
        trainer2.replay(log2.iter_events(), fresh_store(split))
        assert trainer2.model_fingerprint() == live

    def test_service_for_split_catchup_matches_live(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """A restarted service's catch-up replay lands on the live digest."""
        split = gowalla_split
        log_path = tmp_path / "wal.log"
        live = drive_live(split, "ppr", log_path)
        model = MODEL_BUILDERS["ppr"](split)
        log = EventLog.open(log_path)
        with service_for_split(
            model,
            split,
            event_log=log,
            config=online_config(n_items=split.n_items),
        ) as service:
            assert service.online_trainer.model_fingerprint() == live


class TestTrainerGuards:
    def test_wal_sequence_gap_raises(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = MODEL_BUILDERS["ppr"](gowalla_split)
        trainer = OnlineTrainer(model)
        store = fresh_store(gowalla_split)
        session = store.get(0)
        with pytest.raises(OnlineError, match="diverged"):
            trainer.observe(3, 0, 0, session)

    def test_unfitted_model_rejected(self) -> None:
        with pytest.raises(OnlineError, match="fitted"):
            OnlineTrainer(PPRRecommender(QUICK))

    def test_unsupported_model_rejected(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        with pytest.raises(OnlineError, match="no online update policy"):
            adapter_for(model, 0.05)

    def test_bad_hyperparameters_rejected(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = MODEL_BUILDERS["ppr"](gowalla_split)
        with pytest.raises(OnlineError, match="learning_rate"):
            OnlineTrainer(model, learning_rate=0.0)
        with pytest.raises(OnlineError, match="batch_window"):
            OnlineTrainer(model, batch_window=0)

    def test_load_latest_only_before_events(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        model = MODEL_BUILDERS["ppr"](gowalla_split)
        manager = CheckpointManager(tmp_path / "ckpt")
        trainer = OnlineTrainer(model, checkpoint_manager=manager)
        store = fresh_store(gowalla_split)
        session = store.get(0)
        trainer.observe(0, 0, int(session.sequence().items[0]), session)
        with pytest.raises(OnlineError, match="before any event"):
            trainer.load_latest()

    def test_checkpoint_requires_manager(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = MODEL_BUILDERS["ppr"](gowalla_split)
        with pytest.raises(OnlineError, match="checkpoint manager"):
            OnlineTrainer(model).checkpoint()

    def test_fingerprint_sensitivity(self) -> None:
        """Different bytes, dtypes, or names must change the digest."""
        base = {"a": np.zeros(4), "b": np.ones(3)}
        assert fingerprint_params(base) == fingerprint_params(
            {name: arr.copy() for name, arr in base.items()}
        )
        tweaked = {"a": np.zeros(4), "b": np.ones(3)}
        tweaked["b"][1] = np.nextafter(tweaked["b"][1], 2.0)
        assert fingerprint_params(tweaked) != fingerprint_params(base)
        assert fingerprint_params(
            {"a": np.zeros(4, dtype=np.float32), "b": np.ones(3)}
        ) != fingerprint_params(base)


class TestServiceWiring:
    def test_config_validation(self) -> None:
        with pytest.raises(ServingError, match="online"):
            ServiceConfig(online="nope")
        with pytest.raises(ServingError, match="online_lr"):
            ServiceConfig(online_lr=0.0)
        with pytest.raises(ServingError, match="online_batch"):
            ServiceConfig(online_batch=0)

    def test_isgd_requires_trainer(
        self, gowalla_split: SplitDataset
    ) -> None:
        model = MODEL_BUILDERS["ppr"](gowalla_split)
        with pytest.raises(ServingError, match="online_trainer"):
            RecommendService(
                model,
                fresh_store(gowalla_split),
                config=online_config(n_items=gowalla_split.n_items),
            )

    def test_trainer_must_wrap_served_model(
        self, gowalla_split: SplitDataset
    ) -> None:
        served = MODEL_BUILDERS["ppr"](gowalla_split)
        other = MODEL_BUILDERS["ppr"](gowalla_split)
        with pytest.raises(ServingError, match="own model"):
            RecommendService(
                served,
                fresh_store(gowalla_split),
                config=online_config(n_items=gowalla_split.n_items),
                online_trainer=OnlineTrainer(other),
            )

    def test_online_metrics_surface_in_snapshot(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        split = gowalla_split
        model = MODEL_BUILDERS["ppr"](split)
        log = EventLog.open(tmp_path / "wal.log")
        with service_for_split(
            model,
            split,
            event_log=log,
            config=online_config(n_items=split.n_items, online_batch=4),
        ) as service:
            for user, item in held_out_stream(split, n_users=3):
                service.step(user, item, k=5)
            snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["online_events"] > 0
        assert 0 < counters["online_updates"] <= counters["online_events"]
        gauges = snapshot["gauges"]
        assert gauges["online_buffered_updates"]["count"] > 0
        assert "online_flush_latency" in snapshot["latency"]

    def test_online_updates_change_the_served_model(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """With updates on, factors actually move off the frozen fit."""
        split = gowalla_split
        frozen = MODEL_BUILDERS["tsppr"](split)
        frozen_digest = fingerprint_params(
            adapter_for(frozen, 0.05).params()
        )
        live = drive_live(split, "tsppr", tmp_path / "wal.log")
        assert live != frozen_digest


class TestFastCaptureIdentity:
    """The capture fast path == the generic feature matrix, bitwise.

    TS-PPR capture prices its two feature rows through the engine's
    vectorized column fillers when every extractor has one. The
    replay-identity invariant only needs both sides to run the same
    code, but the *values* must still be the paper's features — so
    pin the fast rows to the generic
    :meth:`BehavioralFeatureModel.matrix` ones exactly, over a real
    walked serving session.
    """

    def test_fast_rows_match_generic_matrix(
        self, gowalla_split: SplitDataset
    ) -> None:
        from repro.windows.window import window_before

        model = MODEL_BUILDERS["tsppr"](gowalla_split)
        adapter = adapter_for(model, 0.05)
        assert adapter._fillers is not None, (
            "paper-default feature model should take the fast path"
        )
        store = fresh_store(gowalla_split)
        window_size = model.window_config.window_size
        checked = 0
        for user, item in held_out_stream(gowalla_split):
            session = store.get(user)
            if session.is_next_target(item):
                others = [c for c in session.candidates() if c != item]
                if others:
                    negative = int(others[0])
                    fast = adapter._feature_rows(session, int(item), negative)
                    sequence = session.sequence()
                    window = window_before(sequence, session.t, window_size)
                    slow = model.feature_model.matrix(
                        sequence, [int(item), negative], session.t, window
                    )
                    assert fast.tobytes() == slow.tobytes()
                    checked += 1
            session.append(item)
        assert checked > 20

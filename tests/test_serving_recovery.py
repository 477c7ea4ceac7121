"""Crash recovery: kill the service mid-stream, restart, replay, compare.

The acceptance bar: a server killed at an arbitrary point of the event
stream (via :class:`~repro.resilience.faults.FaultInjector` on the event
log's write path) and restarted over the same log must reach
**bit-identical** session state (shared ``state_fingerprint`` digest)
and produce **identical recommendations** for the rest of the stream,
compared to an uninterrupted run. Torn trailing bytes — the crash cut a
record short — must be absorbed silently.

Tier 1 covers single deterministic crash points; the multi-point sweep
across the whole stream is ``tier2``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import pytest

from conftest import SMALL_WINDOW

from repro.config import WindowConfig
from repro.data.split import SplitDataset
from repro.models.recency import RecencyRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.resilience.faults import FaultInjected, FaultInjector
from repro.serving.events import EventLog
from repro.serving.service import ServiceConfig, service_for_split
from repro.serving.state import LiveSession, SessionStore

from test_serving_service import QUICK

K = 10


def stream_for(split: SplitDataset, users) -> List[Tuple[int, int]]:
    """The interleaved held-out event stream of several users."""
    per_user = {
        user: split.full_sequence(user).items[
            split.train_boundary(user):
        ].tolist()
        for user in users
    }
    stream: List[Tuple[int, int]] = []
    longest = max(len(items) for items in per_user.values())
    for step in range(longest):
        for user in users:
            if step < len(per_user[user]):
                stream.append((user, per_user[user][step]))
    return stream


def config_for(split: SplitDataset) -> ServiceConfig:
    return ServiceConfig(window=SMALL_WINDOW, n_items=split.n_items)


def run_stream(service, stream, start=0) -> List[Optional[List[int]]]:
    """step() the stream; one entry per position (None where no target)."""
    out: List[Optional[List[int]]] = []
    for user, item in stream[start:]:
        result = service.step(user, item, k=K)
        out.append(result.items if result is not None else None)
    return out


def uninterrupted_run(model, split, users, stream, tmp_path):
    """Reference: the full stream through one never-crashing service."""
    log = EventLog.open(tmp_path / "reference.log")
    with service_for_split(
        model, split, event_log=log, config=config_for(split)
    ) as service:
        recs = run_stream(service, stream)
        fingerprints = {u: service.state_fingerprint(u) for u in users}
    return recs, fingerprints


def crash_and_recover(model, split, users, stream, tmp_path, crash_on_write):
    """Run until the injected crash, restart over the log, finish.

    Returns (position the crash interrupted, post-crash recommendations,
    final fingerprints).
    """
    log_path = tmp_path / f"crash{crash_on_write}.log"
    injector = FaultInjector(crash_on_write=crash_on_write)
    log = EventLog.open(log_path, fault_injector=injector)
    service = service_for_split(
        model, split, event_log=log, config=config_for(split)
    )
    crashed_at = None
    for index, (user, item) in enumerate(stream):
        try:
            service.step(user, item, k=K)
        except FaultInjected:
            crashed_at = index
            break
    assert crashed_at is not None, "injector never fired"
    # Simulated hard kill: no close(), no seal — the log is whatever
    # bytes made it to disk.
    recovered_log = EventLog.open(log_path)
    recovered = service_for_split(
        model, split, event_log=recovered_log, config=config_for(split)
    )
    with recovered:
        # The crashed event never committed (the fault fires before the
        # write): the stream resumes from the interrupted position.
        assert len(recovered_log) == crashed_at
        recs = run_stream(recovered, stream, start=crashed_at)
        fingerprints = {u: recovered.state_fingerprint(u) for u in users}
    return crashed_at, recs, fingerprints


class TestCrashRecovery:
    def test_recency_recovers_bit_identical(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        users = [0, 1, 2, 3]
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        stream = stream_for(gowalla_split, users)
        reference, ref_fps = uninterrupted_run(
            model, gowalla_split, users, stream, tmp_path
        )
        crashed_at, recs, fps = crash_and_recover(
            model, gowalla_split, users, stream, tmp_path, crash_on_write=37
        )
        assert fps == ref_fps
        assert recs == reference[crashed_at:]

    def test_tsppr_recovers_bit_identical(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        users = [0, 1]
        model = TSPPRRecommender(QUICK).fit(gowalla_split, SMALL_WINDOW)
        stream = stream_for(gowalla_split, users)
        reference, ref_fps = uninterrupted_run(
            model, gowalla_split, users, stream, tmp_path
        )
        crashed_at, recs, fps = crash_and_recover(
            model, gowalla_split, users, stream, tmp_path, crash_on_write=20
        )
        assert fps == ref_fps
        assert recs == reference[crashed_at:]

    def test_torn_write_absorbed(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """Crash tears the record mid-bytes: recovery discards the tail."""
        users = [0, 1]
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        stream = stream_for(gowalla_split, users)
        log_path = tmp_path / "torn.log"
        log = EventLog.open(log_path)
        service = service_for_split(
            model, gowalla_split, event_log=log, config=config_for(gowalla_split)
        )
        interrupted = 25
        for user, item in stream[:interrupted]:
            service.step(user, item, k=K)
        # Tear the next record by hand: half its bytes reach the disk.
        from repro.serving.events import Event

        next_user, next_item = stream[interrupted]
        line = Event(seq=len(log), user=next_user, item=next_item).to_line()
        with log_path.open("a", encoding="utf-8") as handle:
            handle.write(line[: len(line) // 2])
        recovered_log = EventLog.open(log_path)
        assert recovered_log.n_discarded_tail == 1
        assert len(recovered_log) == interrupted
        with service_for_split(
            model,
            gowalla_split,
            event_log=recovered_log,
            config=config_for(gowalla_split),
        ) as recovered:
            # The torn event replays cleanly and the stream continues.
            run_stream(recovered, stream, start=interrupted)

    def test_recovery_with_tight_capacity(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """Eviction during recovery must not change the outcome."""
        users = [0, 1, 2, 3]
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        stream = stream_for(gowalla_split, users)
        reference, ref_fps = uninterrupted_run(
            model, gowalla_split, users, stream, tmp_path
        )
        log_path = tmp_path / "tight.log"
        injector = FaultInjector(crash_on_write=30)
        log = EventLog.open(log_path, fault_injector=injector)
        service = service_for_split(
            model,
            gowalla_split,
            event_log=log,
            config=config_for(gowalla_split),
            capacity=2,  # half the users fit: constant eviction churn
        )
        crashed_at = None
        for index, (user, item) in enumerate(stream):
            try:
                service.step(user, item, k=K)
            except FaultInjected:
                crashed_at = index
                break
        assert crashed_at is not None
        recovered_log = EventLog.open(log_path)
        with service_for_split(
            model,
            gowalla_split,
            event_log=recovered_log,
            config=config_for(gowalla_split),
            capacity=2,
        ) as recovered:
            recs = run_stream(recovered, stream, start=crashed_at)
            fps = {u: recovered.state_fingerprint(u) for u in users}
        assert fps == ref_fps
        assert recs == reference[crashed_at:]
        assert recovered_log._by_user  # the log really was exercised


def concurrent_crash(
    model, split, tmp_path, crash_on_write, tag
) -> Tuple[Dict[int, List[int]], EventLog]:
    """Two writer threads share one WAL until an injected kill lands.

    Each thread streams its own users through ``service.ingest`` (the
    write-ahead path), recording which appends were *acknowledged*. The
    injected fault kills one append mid-stream; afterwards torn trailing
    bytes are planted to simulate the record the kill cut short.
    Returns the per-user acknowledged streams and the recovered log,
    which is open for appends: the caller closes it.
    """
    log_path = tmp_path / f"concurrent{tag}.log"
    injector = FaultInjector(crash_on_write=crash_on_write)
    log = EventLog.open(log_path, fault_injector=injector)
    service = service_for_split(
        model, split, event_log=log, config=config_for(split)
    )
    acked: Dict[int, List[int]] = {}
    stop = threading.Event()

    def writer(users: List[int]) -> None:
        for user, item in stream_for(split, users):
            if stop.is_set():
                return
            try:
                service.ingest(user, item)
            except FaultInjected:
                stop.set()
                return
            acked.setdefault(user, []).append(item)

    threads = [
        threading.Thread(target=writer, args=([0, 2],)),
        threading.Thread(target=writer, args=([1, 3],)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert stop.is_set(), "injected kill never landed"
    # Simulated hard kill: no close(), no seal — and the record the
    # crash interrupted left half its bytes behind.
    with log_path.open("a", encoding="utf-8") as handle:
        handle.write('{"seq":999999,"user":0,"it')
    recovered = EventLog.open(log_path)
    assert recovered.n_discarded_tail == 1
    return acked, recovered


def assert_replay_matches_acknowledged(
    split: SplitDataset, acked: Dict[int, List[int]], recovered: EventLog
) -> None:
    """Replay == exactly the acknowledged pre-kill prefix, bit-identical.

    Durability: every acknowledged append is in the replayed log, in
    order, and nothing else. Bit-identity: rehydrating through the
    SessionStore (base history + ``event_source`` replay — the recovery
    path) fingerprints identically to building a fresh
    :class:`LiveSession` and applying the acknowledged events directly
    (the live path) — two independent code paths, one digest.
    """
    for user, items in acked.items():
        assert recovered.events_for(user) == items
    assert sorted(recovered.users()) == sorted(
        user for user, items in acked.items() if items
    )
    store = SessionStore(
        SMALL_WINDOW.window_size,
        SMALL_WINDOW.min_gap,
        capacity=8,
        history_provider=split.train_sequence,
        event_source=recovered.events_for,
    )
    for user, items in acked.items():
        direct = LiveSession(
            user,
            SMALL_WINDOW.window_size,
            SMALL_WINDOW.min_gap,
            history=split.train_sequence(user),
        )
        for item in items:
            direct.append(item)
        assert (
            store.get(user).state_fingerprint()
            == direct.state_fingerprint()
        ), f"user {user} state diverged after concurrent crash"


class TestConcurrentTornTail:
    def test_two_writers_killed_mid_record(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        acked, recovered = concurrent_crash(
            model, gowalla_split, tmp_path, crash_on_write=41, tag="t1"
        )
        with recovered:
            assert_replay_matches_acknowledged(gowalla_split, acked, recovered)

    @pytest.mark.tier2
    def test_sweep_kill_points(
        self, gowalla_split: SplitDataset, tmp_path
    ) -> None:
        """The kill lands at many different writes; every one recovers."""
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        for crash_on_write in range(1, 80, 6):
            acked, recovered = concurrent_crash(
                model,
                gowalla_split,
                tmp_path,
                crash_on_write=crash_on_write,
                tag=crash_on_write,
            )
            with recovered:
                assert_replay_matches_acknowledged(
                    gowalla_split, acked, recovered
                )


@pytest.mark.tier2
class TestCrashSweep:
    """Every 7th write of the stream as a crash point (slow, tier2)."""

    def test_sweep_recency(self, gowalla_split: SplitDataset, tmp_path) -> None:
        users = [0, 1, 2]
        model = RecencyRecommender().fit(gowalla_split, SMALL_WINDOW)
        stream = stream_for(gowalla_split, users)
        reference, ref_fps = uninterrupted_run(
            model, gowalla_split, users, stream, tmp_path
        )
        n_writes = len(stream)
        for crash_on_write in range(1, n_writes, 7):
            crashed_at, recs, fps = crash_and_recover(
                model,
                gowalla_split,
                users,
                stream,
                tmp_path,
                crash_on_write=crash_on_write,
            )
            assert fps == ref_fps, f"fingerprints diverge at {crash_on_write}"
            assert recs == reference[crashed_at:], (
                f"recommendations diverge at crash point {crash_on_write}"
            )

"""Bench: session-memory footprint and rehydration latency by store.

Two guards over a serving-scale population with long histories:

* **Resident bytes per active user** — the same training prefixes are
  held by the dict/list reference store
  (:class:`~repro.store.DictHistoryStore`) and by the columnar arena;
  deterministic ``deep_sizeof`` accounting (allocator- and RSS-noise
  free) must show the arena **>= 4x** smaller per active user. The
  mmap-backed arena's heap residency is recorded alongside for scale —
  its columns live in file pages, not on the heap.
* **Rehydration latency** — an LRU ``SessionStore`` with capacity 1 is
  churned so every ``get`` rebuilds an evicted session over the arena,
  seeding from an O(window) suffix gather. The comparand is the
  full-copy rebuild serving used before the arena: fetch the user's
  base history and build a list-carrying ``LiveSession`` over it. The
  guard requires the arena rehydration p99 at or below the full copy's,
  with bit-identical fingerprints.

Both are recorded to ``BENCH_memory.json`` via the session-scoped
``bench_record`` fixture, next to the serving/cluster trajectories.
"""

from __future__ import annotations

import time
from typing import Dict, List

import pytest

from repro.config import WindowConfig
from repro.data.split import temporal_split
from repro.serving.state import LiveSession, SessionStore
from repro.store import DictHistoryStore, store_memory_profile
from repro.synth.base import SyntheticConfig, generate_dataset

pytestmark = pytest.mark.bench

#: Long histories over a vocabulary well past the small-int cache: the
#: regime where pointer-per-event representations pay full price.
MEM_SYNTH = SyntheticConfig(
    name="memory-bench",
    n_users=96,
    n_items=4000,
    sequence_length_range=(400, 600),
    catalog_size_range=(120, 200),
    zipf_exponent=0.7,
    p_explore_range=(0.2, 0.3),
    memory_span=120,
    frequency_exponent=0.05,
    recency_exponent=0.05,
    explore_weight_exponent=0.0,
)

WINDOW = WindowConfig()
CHURN_USERS = 24
CHURN_ROUNDS = 30


@pytest.fixture(scope="module")
def mem_split():
    return temporal_split(generate_dataset(MEM_SYNTH, 77))


def test_resident_bytes_per_user(bench_record, mem_split, tmp_path):
    users = range(mem_split.n_users)
    stores = {
        "dict": DictHistoryStore.from_histories(
            mem_split.train_sequence(user).items for user in users
        ),
        "arena": mem_split.history_store(base="train"),
        "arena-mmap": mem_split.history_store(
            base="train", directory=str(tmp_path / "arena")
        ),
    }
    profiles = {
        kind: store_memory_profile(store, users)
        for kind, store in stores.items()
    }
    ratio = (
        profiles["dict"]["bytes_per_user"]
        / profiles["arena"]["bytes_per_user"]
    )
    bench_record(
        "memory",
        "resident_bytes",
        dict_bytes_per_user=round(profiles["dict"]["bytes_per_user"], 1),
        arena_bytes_per_user=round(profiles["arena"]["bytes_per_user"], 1),
        arena_mmap_heap_bytes_per_user=round(
            profiles["arena-mmap"]["bytes_per_user"], 1
        ),
        active_users=int(profiles["arena"]["active_users"]),
        dict_over_arena=round(ratio, 2),
    )
    print(
        f"\nresident bytes/user: dict {profiles['dict']['bytes_per_user']:.0f}"
        f", arena {profiles['arena']['bytes_per_user']:.0f}"
        f" ({ratio:.1f}x), arena-mmap heap "
        f"{profiles['arena-mmap']['bytes_per_user']:.0f}"
    )
    assert ratio >= 4.0, (
        f"arena is only {ratio:.2f}x smaller per user than the dict store"
    )


def _interleaved_latencies(builds, users) -> Dict[str, List[float]]:
    """Time each build per (round, user), alternating between builds so
    a change in host speed hits every build alike."""
    latencies: Dict[str, List[float]] = {name: [] for name in builds}
    for _ in range(CHURN_ROUNDS):
        for user in users:
            for name, build in builds.items():
                start = time.perf_counter()
                build(user)
                latencies[name].append(time.perf_counter() - start)
    return latencies


def test_rehydration_latency(bench_record, loadgen, mem_split):
    users = list(range(CHURN_USERS))
    store = SessionStore(
        WINDOW.window_size,
        WINDOW.min_gap,
        capacity=1,
        history_provider=mem_split.history_store(base="train"),
    )

    def full_copy(user: int) -> LiveSession:
        return LiveSession(
            user,
            WINDOW.window_size,
            WINDOW.min_gap,
            history=mem_split.train_sequence(user),
        )

    # The two rebuilds must be indistinguishable before they are
    # comparable: same digests for every churned user.
    for user in users:
        assert store.state_fingerprint(user) == (
            full_copy(user).state_fingerprint()
        )
    builds = {"full_copy": full_copy, "arena": store.get}
    tails = {
        name: loadgen.percentiles_ms(latencies)
        for name, latencies in _interleaved_latencies(builds, users).items()
    }
    bench_record(
        "memory",
        "rehydration_latency",
        full_copy_p50_ms=tails["full_copy"]["p50_ms"],
        full_copy_p99_ms=tails["full_copy"]["p99_ms"],
        arena_p50_ms=tails["arena"]["p50_ms"],
        arena_p99_ms=tails["arena"]["p99_ms"],
        churn_gets=CHURN_USERS * CHURN_ROUNDS,
    )
    print(
        f"\nrehydration p99: full copy {tails['full_copy']['p99_ms']:.3f}ms, "
        f"arena {tails['arena']['p99_ms']:.3f}ms"
    )
    assert tails["arena"]["p99_ms"] <= tails["full_copy"]["p99_ms"], (
        "arena rehydration is slower than the full-copy rebuild"
    )

"""Bench: serving throughput and bursty-arrival tail latency.

Two guards over the same heavy-window TS-PPR workload (|W| = 250, dense
targets, large candidate sets — the engine bench's regime where the
session walk dominates):

* **Flood throughput** — the held-out stream is submitted
  asynchronously (ingest + submit without waiting) so the queue backs
  up, and two services race: **naive** (``check_interval=1``: one
  query per model call, so every request pays its own session walk)
  and **in-flight** (the default loop, up to 16 queries of one user
  per call). The in-flight loop must reach **>= 3x naive
  throughput**, and both must return answers identical to the offline
  protocol's — batching is a latency decision, never an accuracy one.
* **Bursty tail** — a seeded bursty arrival schedule (calm Poisson
  singles punctuated by simultaneous bursts, from the shared
  ``loadgen`` fixture) is replayed against the default service; its
  answers must match the offline protocol's, and its p50/p95/p99
  (including queue time) are recorded.

Throughput, percentiles, and the speedup are recorded to
``BENCH_serving.json`` via the session-scoped ``bench_record`` fixture;
CI's bench-smoke job diffs the bursty p99 against the committed
baseline.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.config import TSPPRConfig, WindowConfig
from repro.data.split import temporal_split
from repro.evaluation.protocol import collect_queries
from repro.models.tsppr import TSPPRRecommender
from repro.serving.service import ServiceConfig, service_for_split
from repro.synth.base import SyntheticConfig, generate_dataset

pytestmark = pytest.mark.bench

#: Heavy-window serving regime — matches the engine bench.
BENCH_WINDOW = WindowConfig(window_size=250, min_gap=10)

#: Dense-target generator — the engine bench's recipe: long sequences
#: make the per-request session walk the dominant cost that batching
#: amortizes away.
BENCH_SYNTH = SyntheticConfig(
    name="serving-bench",
    n_users=4,
    n_items=4000,
    sequence_length_range=(1400, 1800),
    catalog_size_range=(300, 400),
    zipf_exponent=0.7,
    p_explore_range=(0.2, 0.3),
    memory_span=240,
    frequency_exponent=0.05,
    recency_exponent=0.05,
    explore_weight_exponent=0.0,
)

TOP_N = 10
REPS = 2
TAIL_REPS = 4

#: Bursty-schedule shape: calm Poisson singles at 400 Hz, a 16-request
#: burst after every 32 calm arrivals. Calm singles each start a busy
#: period of their own and measure admission plus one short kernel (the
#: p50); a burst drains behind its own kernel boundaries (the tail).
BURSTY = dict(calm_rate_hz=400.0, burst_size=16, calm_between=32)
BURSTY_EVENTS = 840


@pytest.fixture(scope="module")
def bench_split():
    return temporal_split(generate_dataset(BENCH_SYNTH, 101))


@pytest.fixture(scope="module")
def bench_model(bench_split):
    model = TSPPRRecommender(TSPPRConfig(max_epochs=1000, seed=3))
    model.fit(bench_split, BENCH_WINDOW)
    return model


def _interleaved_stream(split) -> List[Tuple[int, int]]:
    """Round-robin the users' held-out suffixes, like live traffic."""
    per_user = {
        user: split.full_sequence(user).items[
            split.train_boundary(user):
        ].tolist()
        for user in range(split.n_users)
    }
    stream: List[Tuple[int, int]] = []
    longest = max(len(items) for items in per_user.values())
    for step in range(longest):
        for user in range(split.n_users):
            if step < len(per_user[user]):
                stream.append((user, per_user[user][step]))
    return stream


def _service_config(split, **overrides) -> ServiceConfig:
    return ServiceConfig(
        window=BENCH_WINDOW,
        default_k=TOP_N,
        n_items=split.n_items,
        **overrides,
    )


def _drive(model, split, stream, arrival_times=None, **config_overrides):
    """Replay ``stream`` through one service; optionally paced.

    Without ``arrival_times`` this is the flood driver: submit-without-
    waiting + ingest as fast as the loop runs, then drain — the maximum-
    throughput shape. With ``arrival_times`` (one offset per event, from
    the shared load generator) each event waits for its scheduled
    arrival, so every rep sees the identical arrival process.

    Returns (elapsed seconds, per-user answer lists, per-request
    latencies in seconds).
    """
    config = _service_config(split, **config_overrides)
    answers: Dict[int, List[List[int]]] = {u: [] for u in range(split.n_users)}
    pending = []
    with service_for_split(model, split, config=config) as service:
        store = service.store
        start = time.perf_counter()
        for index, (user, item) in enumerate(stream):
            if arrival_times is not None:
                delay = arrival_times[index] - (time.perf_counter() - start)
                if delay > 0:
                    time.sleep(delay)
            with store.lock:
                session = store.get(user)
                is_target = session.is_next_target(item) and bool(
                    session.candidates()
                )
            if is_target:
                pending.append((user, service.submit(user, k=TOP_N)))
            service.ingest(user, item)
        for user, handle in pending:
            answers[user].append(handle.result(timeout=600.0).items)
        elapsed = time.perf_counter() - start
        latencies = [handle.result().latency_s for _, handle in pending]
    return elapsed, answers, latencies


def _offline_reference(model, split) -> Dict[int, List[List[int]]]:
    """The offline protocol's answers for the same target positions."""
    reference: Dict[int, List[List[int]]] = {}
    for user in range(split.n_users):
        sequence = split.full_sequence(user)
        queries = collect_queries(
            sequence,
            split.train_boundary(user),
            BENCH_WINDOW.window_size,
            BENCH_WINDOW.min_gap,
            user=user,
        )
        reference[user] = (
            model.recommend_batch(sequence, queries, TOP_N) if queries else []
        )
    return reference


def _best_drive(model, split, stream, arrival_times=None, **overrides):
    """Best of ``REPS`` by elapsed time — the flood-throughput metric."""
    best = (float("inf"), None, None)
    for _ in range(REPS):
        run = _drive(model, split, stream, arrival_times, **overrides)
        if run[0] < best[0]:
            best = run
    return best


def _best_tail_drive(model, split, stream, arrival_times):
    """Best of ``TAIL_REPS`` by p99 — the paced-tail metric.

    Paced runs all take the same wall-clock (the schedule dictates it),
    so selecting by elapsed time would pick a random rep; selecting by
    the guarded percentile suppresses scheduler noise — a single GC or
    OS stall inside one burst elevates ~20 request latencies and owns
    that rep's p99. Answers must agree across reps.

    Returns ``(elapsed, answers, latencies)``.
    """
    best = None
    for _ in range(TAIL_REPS):
        elapsed, answers, latencies = _drive(
            model, split, stream, arrival_times
        )
        p99 = np.percentile(np.asarray(latencies, dtype=np.float64), 99)
        if best is not None:
            assert answers == best[1], "answers changed between reps"
        if best is None or p99 < best[3]:
            best = (elapsed, answers, latencies, p99)
    return best[:3]


def test_bench_serving_speedup(bench_split, bench_model, bench_record, loadgen):
    stream = _interleaved_stream(bench_split)

    naive_s, naive_answers, naive_lat = _best_drive(
        bench_model, bench_split, stream, check_interval=1,
    )
    inflight_s, inflight_answers, inflight_lat = _best_drive(
        bench_model, bench_split, stream,
    )

    # Accuracy first: batching must never change a single answer.
    reference = _offline_reference(bench_model, bench_split)
    assert naive_answers == reference
    assert inflight_answers == reference

    n_requests = len(naive_lat)
    assert n_requests == len(inflight_lat) > 0
    inflight_speedup = naive_s / inflight_s
    report = (
        f"serving: {n_requests} requests over {len(stream)} events; "
        f"naive {naive_s:.3f}s ({n_requests / naive_s:.1f} req/s), "
        f"in-flight {inflight_s:.3f}s "
        f"({n_requests / inflight_s:.1f} req/s, {inflight_speedup:.2f}x)"
    )
    print()
    print(report)

    for name, elapsed, latencies in (
        ("naive", naive_s, naive_lat),
        ("inflight", inflight_s, inflight_lat),
    ):
        bench_record(
            "serving",
            f"tsppr_{name}",
            elapsed_s=round(elapsed, 3),
            requests=n_requests,
            events=len(stream),
            requests_per_s=round(n_requests / elapsed, 1),
            **loadgen.percentiles_ms(latencies),
        )
    bench_record(
        "serving",
        "tsppr_speedup",
        inflight=round(inflight_speedup, 3),
        window_size=BENCH_WINDOW.window_size,
        min_gap=BENCH_WINDOW.min_gap,
        naive_check_interval=1,
    )

    # The headline guard: coalescing a user's queries into one
    # recommend_batch call must amortize the session walk by a wide
    # margin over one query per call.
    assert inflight_speedup >= 3.0, report


def test_bench_serving_bursty_tail(
    bench_split, bench_model, bench_record, loadgen
):
    """Latency percentiles under bursty Poisson arrivals."""
    stream = _interleaved_stream(bench_split)[:BURSTY_EVENTS]
    arrivals = loadgen.bursty_times(len(stream), seed=808, **BURSTY)

    elapsed, answers, latencies = _best_tail_drive(
        bench_model, bench_split, stream, arrivals
    )

    # The paced prefix answers each user's first targets: a prefix of
    # the offline protocol's answer list.
    reference = _offline_reference(bench_model, bench_split)
    for user, lists in answers.items():
        assert lists == reference[user][: len(lists)]
    n_requests = len(latencies)
    assert n_requests > 50

    inflight = loadgen.percentiles_ms(latencies)
    inflight_rps = n_requests / elapsed
    report = (
        f"bursty tail: {n_requests} requests over {len(stream)} paced "
        f"events; in-flight p50 {inflight['p50_ms']}ms / "
        f"p99 {inflight['p99_ms']}ms at {inflight_rps:.1f} req/s"
    )
    print()
    print(report)

    bench_record(
        "serving",
        "tsppr_bursty_inflight",
        elapsed_s=round(elapsed, 3),
        requests=n_requests,
        requests_per_s=round(inflight_rps, 1),
        **inflight,
    )
    bench_record(
        "serving",
        "tsppr_bursty_schedule",
        events=len(stream),
        seed=808,
        **BURSTY,
    )

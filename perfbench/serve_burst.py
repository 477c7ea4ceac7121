"""Workload ``serve_burst``: in-process scoring under bursty arrivals.

The serving bench's dense-target regime: 8 users with 1,400-1,800
events each, |W| = 250, 300-400 candidates per query. TS-PPR is served
in-process by ``service_for_split`` with the registry defaults
(in-flight batching); there is no WAL and online updates are off.

One generator thread replays the interleaved held-out stream. First as
an open loop on the seeded ``LoadGenerator.bursty_times`` schedule
(200 Hz calm arrivals, a 16-request burst after every 32 calm ones),
sending a recommend before every RRC target and an ingest for every
event; latency runs from each request's due time to its answer. Then,
on a fresh service with the same knobs but no background loop
(``manual_pump``), as a flood: every request is submitted and every
event ingested without waiting, then ``pump()`` drains the queue, for
throughput. Draining on the caller's thread keeps the flood's batching
the same from run to run; the paced phase covers the background loop.
Since the whole flood runs on one thread, it is timed on the process's
CPU clock, which leaves out time the host gives to other tenants.
"""

from __future__ import annotations

import gc
import itertools
import time
from typing import Dict, List, Tuple

import numpy as np

import common
import layers
from common import Outcome
from tracing import Tracer

from repro.config import TSPPRConfig, WindowConfig
from repro.data.split import temporal_split
from repro.evaluation.protocol import collect_queries
from repro.models.tsppr import TSPPRRecommender
from repro.serving.service import ServiceConfig, service_for_split
from repro.synth.base import SyntheticConfig, generate_dataset
from repro.tuning.load import LoadGenerator

WINDOW = WindowConfig(window_size=250, min_gap=10)
TOP_N = 10
#: Calm arrivals at 200 Hz, a 16-request burst after every 32 of them.
#: Half the serving bench's calm rate: at 400 Hz the scoring thread is
#: busy enough that a slower machine moves the tail several-fold (queues
#: carry over from one burst to the next); at 200 Hz p99 stays the drain
#: time of one burst.
BURSTY = dict(calm_rate_hz=200.0, burst_size=16, calm_between=32)
#: Share of each round's time given to the paced phase. The rest
#: alternates floods with fits of the serving model, at least
#: ``MIN_FLOODS`` of each; throughput and ``fit_s`` come from the best
#: of their CPU times over the run.
PACED_SHARE = 0.6
MIN_FLOODS = 2

SYNTH = SyntheticConfig(
    name="serving-bench",
    n_users=8,
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

#: ``time.monotonic`` (the service's clock) minus ``time.perf_counter``
#: (the benchmark's); both read CLOCK_MONOTONIC on Linux, so ~0.
_CLOCK_OFFSET = time.monotonic() - time.perf_counter()


def interleaved_stream(split, seed: int) -> List[Tuple[int, int, int]]:
    """Round-robin the held-out suffixes, users in a seeded order.

    Returns (user, item, position) triples.
    """
    per_user = {}
    for user in range(split.n_users):
        boundary = split.train_boundary(user)
        items = split.full_sequence(user).items[boundary:].tolist()
        per_user[user] = [(user, item, boundary + step) for step, item in enumerate(items)]
    longest = max(len(events) for events in per_user.values())
    order = np.random.default_rng(seed).permutation(split.n_users).tolist()
    return [
        per_user[user][step]
        for step in range(longest)
        for user in order
        if step < len(per_user[user])
    ]


def _fit(split):
    return TSPPRRecommender(TSPPRConfig(max_epochs=1000, seed=3)).fit(split, WINDOW)


def _service(model, split, manual_pump: bool = False):
    config = ServiceConfig(
        window=WINDOW, default_k=TOP_N, n_items=split.n_items, manual_pump=manual_pump
    )
    return service_for_split(model, split, config=config)


def _answer(handle) -> Tuple[float, object]:
    """(answer time on the perf_counter clock, result)."""
    result = handle.result(timeout=120.0)
    return handle.submitted + result.latency_s - _CLOCK_OFFSET, result


def _paced(service, stream, targets, schedule, budget: float):
    """Open loop on the bursty schedule until it ends or ``budget`` passes."""
    sent = []
    start = time.perf_counter()
    for index, (user, item, position) in enumerate(stream):
        due = start + schedule[index]
        if schedule[index] > budget:
            break
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        issued = time.perf_counter()
        if position in targets[user]:
            sent.append((user, position, due, issued, service.submit(user, k=TOP_N)))
        service.ingest(user, item)
    return [
        (user, position, due, issued) + _answer(handle)
        for user, position, due, issued, handle in sent
    ]


def _flood(service, stream, targets):
    """Submit everything, then drain with ``pump()``.

    Returns (wall seconds, CPU seconds, answers).
    """
    pending = []
    start, cpu = time.perf_counter(), time.process_time()
    for user, item, position in stream:
        if position in targets[user]:
            pending.append((user, position, service.submit(user, k=TOP_N)))
        service.ingest(user, item)
    service.pump()
    elapsed, cpu = time.perf_counter() - start, time.process_time() - cpu
    return elapsed, cpu, [(user, position) + _answer(handle) for user, position, handle in pending]


def run(seed: int, seconds: int, trace: int, delay, work) -> Outcome:
    out = Outcome()
    plan = common.round_plan(trace)
    budget = seconds / common.ROUNDS
    setups: List[float] = []
    fit_times: List[float] = []
    references: List[float] = []
    latencies: List[List[float]] = []
    lates: List[float] = []
    floods: Dict[bool, List[float]] = {False: [], True: []}
    flood_cpu: List[float] = []
    traced_paced: List[tuple] = []
    spans: List[tuple] = []
    flood_windows: List[Tuple[float, float]] = []
    store_deltas = []
    answers: Dict[Tuple[int, int], List[int]] = {}
    failed_answers = 0
    flood_answers = []
    for traced in plan:
        start = time.perf_counter()
        split = temporal_split(generate_dataset(SYNTH, common.DATA_SEED))
        model = _fit(split)
        stream = interleaved_stream(split, seed)
        queries = {
            user: {
                q.t: q
                for q in collect_queries(
                    split.full_sequence(user), split.train_boundary(user),
                    WINDOW.window_size, WINDOW.min_gap, user=user,
                )
            }
            for user in range(split.n_users)
        }
        schedule = LoadGenerator.bursty_times(len(stream), seed=seed, **BURSTY)
        service = _service(model, split)
        for user in range(split.n_users):  # warm-up: reads only
            service.recommend(user, k=TOP_N)
        setups.append(time.perf_counter() - start)
        gc.collect()

        tracer = Tracer()
        layers.install_delay(tracer, delay)
        if traced:
            layers.install_scoring(tracer)
        round_start = time.perf_counter()
        try:
            counters = service.store.counters
            before = (counters.hits, counters.misses)
            with service:
                paced = _paced(service, stream, queries, schedule, PACED_SHARE * budget)
            after = (counters.hits, counters.misses)
            for count in itertools.count(1):
                with _service(model, split, manual_pump=True) as flood_service:
                    flood_start = time.perf_counter()
                    elapsed, cpu, flooded = _flood(flood_service, stream, queries)
                floods[traced].append(elapsed)
                flood_windows.append((flood_start, flood_start + elapsed))
                flood_answers.append(flooded)
                if not traced:  # fits stay out of the traced spans
                    flood_cpu.append(cpu)
                    fit_times.extend(common.cpu_repeats(lambda: _fit(split), 1, references))
                if count >= MIN_FLOODS and time.perf_counter() - round_start >= budget:
                    break
        finally:
            tracer.restore()

        if not traced:
            latencies.append([])
        for user, position, due, issued, done, result in paced:
            out.attempted += 1
            if result.degraded or result.t != position:
                failed_answers += 1
            answers.setdefault((user, position), result.items)
            if traced:
                traced_paced.append((user, position, due, issued, done))
            else:
                latencies[-1].append(done - due)
                lates.append(issued - due)
        if traced:
            spans.extend(tracer.spans)
            store_deltas.append((after[0] - before[0], after[1] - before[1]))

    reference = {}
    for user, by_t in queries.items():
        ordered = sorted(by_t)
        lists = model.recommend_batch(split.full_sequence(user), [by_t[t] for t in ordered], TOP_N)
        reference.update({(user, t): ranked for t, ranked in zip(ordered, lists)})
    for flooded in flood_answers:
        out.check(
            len(flooded) == len(reference),
            f"flood answered {len(flooded)} of {len(reference)} targets",
        )
        for user, position, _, result in flooded:
            out.attempted += 1
            if result.degraded:
                failed_answers += 1
            out.check(
                result.items == reference[(user, position)],
                f"flood answer for user {user} t={position} differs from offline",
            )
    hits = sum(
        queries[user][position].truth in result.items[:TOP_N]
        for user, position, _, result in flood_answers[-1]
    )
    for (user, position), items in answers.items():
        out.check(
            items == reference[(user, position)],
            f"paced answer for user {user} t={position} differs from offline",
        )
    out.failed = failed_answers
    out.check(
        min(map(len, latencies)) >= common.MIN_LATENCY_SAMPLES,
        f"a round has {min(map(len, latencies))} latency samples; need {common.MIN_LATENCY_SAMPLES}",
    )
    speed = common.host_speed(references)
    out.end_to_end = {
        "setup_s": common.median(setups) * speed,
        "latency_p50_ms": common.round_percentile_ms(latencies, 50),
        "latency_p90_ms": common.round_percentile_ms(latencies, 90),
        "throughput_rps": len(reference) / (common.best(flood_cpu) * speed),
        "success_ratio": 1.0 - out.failed / out.attempted,
        "fit_s": common.best(fit_times) * speed,
        "maap10": hits / len(reference),
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    out.details = {
        "latency_samples": [len(round_) for round_ in latencies],
        "latency_p99_ms": common.round_percentile_ms(latencies, 99),
        "late_p99_ms": common.percentile_ms(lates, 99),
        "stream_events": len(stream),
        "targets": len(reference),
        "flood_seconds": floods,
        "flood_cpu_seconds": flood_cpu,
        "fit_seconds": fit_times,
        "host_speed": speed,
        "reference_seconds": references,
    }
    if trace:
        paced_spans = [s for s in spans if not any(a <= s[2] <= b for a, b in flood_windows)]
        flood_spans = [s for s in spans if any(a <= s[2] <= b for a, b in flood_windows)]
        out.layers, out.details["latency_shares"] = burst_layers(
            paced_spans, traced_paced, store_deltas, floods
        )
        flood_layers, _ = layers.scoring_layers(flood_spans, len(floods[True]))
        out.details["flood_layers"] = flood_layers
    return out


def burst_layers(spans, requests, store_deltas, floods):
    """Per-layer metrics of the traced paced phases.

    Also returns each stage's share of the summed paced latency.
    """
    rounds = len(store_deltas)
    values, matched = layers.scoring_layers(spans, rounds)
    hits = sum(delta[0] for delta in store_deltas)
    gets = hits + sum(delta[1] for delta in store_deltas)
    values["store.gets"] = gets / rounds
    values["store.hit_ratio"] = hits / gets if gets else 0.0
    ingests = [s[3] - s[2] for s in spans if s[1] == "service.ingest"]
    values["service.ingest_ms_p50"] = layers.pct_ms(ingests, 50)
    values["service.ingest_ms_p99"] = layers.pct_ms(ingests, 99)
    values["trace.overhead_ratio"] = common.overhead_ratio(floods[True], floods[False])

    submits = {
        (span[5][1], span[6]["t"]): span
        for span in spans
        if span[1] == "service.submit" and span[6]
    }
    total = 0.0
    shares = {"loadgen.late": 0.0, "service.submit": 0.0, "service.queue_wait": 0.0,
              "service.kernel": 0.0, "unattributed": 0.0}
    for user, position, due, issued, done in requests:
        latency = done - due
        total += latency
        submit = submits.get((user, position))
        if submit is None or submit[0] not in matched:
            shares["unattributed"] += latency
            continue
        wait, kernel = matched[submit[0]]
        parts = {
            "loadgen.late": issued - due,
            "service.submit": submit[3] - submit[2],
            "service.queue_wait": wait,
            "service.kernel": kernel[3] - kernel[2],
        }
        parts["unattributed"] = latency - sum(parts.values())
        for name, seconds in parts.items():
            shares[name] += seconds
    values["trace.unattributed_ratio"] = shares["unattributed"] / total if total else 0.0
    return values, {name: seconds / total for name, seconds in shares.items()}

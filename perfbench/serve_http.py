"""Workload ``serve_http``: HTTP writes and reads through a 2-shard cluster.

The serving side (``cluster_host.py``) runs in its own process: a
Gowalla-like split (60 users, |W| = 100, Ω = 10), TS-PPR fitted at
set-up, ``ShardSupervisor`` with 2 shards behind ``ClusterRouter``,
online ISGD updates on, WALs with ``fsync_policy="always"`` and a
per-shard session capacity below the shard's user count, so the LRU
evicts and rehydrates.

This process is the load generator: a closed loop of 2 threads, each
with its own ``ServingClient`` and one request in flight. Each thread
owns half the users (a seeded split) and replays their held-out suffixes round-robin:
``/recommend`` before every RRC target, ``/events`` for every event.

The serving path is CPU work in four processes on few cores, so each
round's set-up time, latencies, throughput and fits are scaled by that
round's host speed (``common.host_speed``), from reference jobs timed
on both sides of its serving window: here just before it, and in the
host process next to its fits just after it. The wall-clock figures
stay in the record.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

import common
import layers
from common import Outcome
from tracing import Tracer, child_time, load_spans

from repro.config import TSPPRConfig, WindowConfig
from repro.data.split import temporal_split
from repro.evaluation.protocol import collect_queries
from repro.exceptions import ServingError
from repro.models.tsppr import TSPPRRecommender
from repro.serving.client import ServingClient
from repro.serving.state import LiveSession
from repro.synth.gowalla import generate_gowalla

WINDOW = WindowConfig(window_size=100, min_gap=10)
TOP_N = 10
SHARDS = 2
THREADS = 2
#: Reference jobs timed just before each serving window; the host times
#: ``common.FITS_PER_ROUND`` more just after it, next to its fits.
REFERENCES_BEFORE = 5
#: Sessions each shard keeps resident; every shard owns more users.
CAPACITY = 20
#: Online updates buffered per flush; below the registry default so
#: each shard flushes several times within one measured round.
ONLINE_BATCH = 32
#: Share of each round's time the clients send for; the host's fits of
#: the serving model and its WAL replays take about the rest.
SERVE_SHARE = 0.75
HOST = Path(__file__).resolve().with_name("cluster_host.py")
READY_TIMEOUT_S = 120.0


def build_split():
    return temporal_split(generate_gowalla(random_state=common.DATA_SEED))


def fit_model(split):
    return TSPPRRecommender(TSPPRConfig(max_epochs=20_000, seed=8)).fit(split, WINDOW)


class Request:
    """One request the load generator sent, and what came back."""

    __slots__ = ("kind", "user", "position", "start", "end", "reply", "error")

    def __init__(self, kind, user, position, start, end, reply, error):
        self.kind, self.user, self.position = kind, user, position
        self.start, self.end, self.reply, self.error = start, end, reply, error


def _drive(url: str, workload, users: List[int], deadline: float, sink: List[Request]) -> None:
    """One closed-loop client thread over ``users`` until ``deadline``."""
    client = ServingClient(url, timeout=30.0, retries=0)
    active = list(users)
    step = 0
    while active and time.perf_counter() < deadline:
        for user in list(active):
            boundary, items, targets = workload[user]
            if step >= len(items) or time.perf_counter() >= deadline:
                active.remove(user)
                continue
            position = boundary + step
            calls = []
            if position in targets:
                calls.append(("r", lambda: client.recommend(user, k=TOP_N)))
            calls.append(("e", lambda: client.ingest(user, items[step], seq=step)))
            for kind, call in calls:
                start = time.perf_counter()
                reply, error = None, None
                try:
                    reply = call()
                except ServingError as exc:  # includes unavailability
                    error = str(exc)
                sink.append(Request(kind, user, position, start, time.perf_counter(), reply, error))
                if error is not None and kind == "e":
                    active.remove(user)  # later seqs would skip ahead
        step += 1


def _wait_ready(path: Path, process: subprocess.Popen) -> str:
    deadline = time.monotonic() + READY_TIMEOUT_S
    while time.monotonic() < deadline:
        if path.exists():
            return json.loads(path.read_text())["url"]
        if process.poll() is not None:
            raise RuntimeError(f"cluster host exited early with code {process.returncode}")
        time.sleep(0.01)
    raise RuntimeError("cluster host did not become ready")


def _stop(process: subprocess.Popen) -> None:
    """Close the host's stdin (graceful stop); kill its group if it hangs."""
    try:
        process.stdin.close()
        process.wait(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait(timeout=30)


def run(seed: int, seconds: int, trace: int, delay, work: Path) -> Outcome:
    out = Outcome()
    plan = common.round_plan(trace)
    budget = SERVE_SHARE * seconds / common.ROUNDS
    split = build_split()
    workload = {}
    for user in range(split.n_users):
        boundary = split.train_boundary(user)
        queries = collect_queries(
            split.full_sequence(user), boundary, WINDOW.window_size, WINDOW.min_gap, user=user
        )
        items = split.full_sequence(user).items[boundary:].tolist()
        workload[user] = (boundary, items, {q.t: q for q in queries})
    # The seed orders the users: who each thread owns, and in which order.
    users = np.random.default_rng(seed).permutation(split.n_users).tolist()
    owners = [users[i::THREADS] for i in range(THREADS)]

    setups, rss, fits, references, speeds = [], [], [], [], []
    latencies: Dict[bool, List[List[float]]] = {False: [], True: []}
    completed, elapsed, scaled_elapsed = 0, 0.0, 0.0
    hits = answered = 0
    traced_rounds = []
    for index, traced in enumerate(plan):
        round_dir = work / f"round-{index}"
        round_dir.mkdir(parents=True)
        command = [sys.executable, str(HOST), "--run-dir", str(round_dir), "--trace", str(int(traced))]
        if delay:
            command += ["--delay", delay]
        start = time.perf_counter()
        with open(round_dir / "host.log", "wb") as log:
            process = subprocess.Popen(
                command, stdin=subprocess.PIPE, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        requests: List[Request] = []
        try:
            url = _wait_ready(round_dir / "ready.json", process)
            client = ServingClient(url, timeout=30.0, retries=0)
            for user in range(split.n_users):  # warm-up: reads only
                client.recommend(user, k=TOP_N)
            setups.append(time.perf_counter() - start)
            round_references = [
                common.cpu_time(common.reference_work) for _ in range(REFERENCES_BEFORE)
            ]

            before = client.metrics()["session_cache"]
            tracer = Tracer()
            if traced:
                layers.install_client(tracer)
            sinks: List[List[Request]] = [[] for _ in range(THREADS)]
            window_start = time.perf_counter()
            threads = [
                threading.Thread(
                    target=_drive, args=(url, workload, owners[i], window_start + budget, sinks[i])
                )
                for i in range(THREADS)
            ]
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                tracer.restore()
            window_end = time.perf_counter()
            out.check(not any(t.is_alive() for t in threads), "load generator thread hung")
            requests = [r for sink in sinks for r in sink]
            after = client.metrics()["session_cache"]
            _check_states(out, client, split, workload, requests)
        finally:
            _stop(process)

        host_spans, host = load_spans(round_dir / "host.json")
        shard_spans, shard_rss = [], []
        for name, shard in host["shards"].items():
            spans, final = load_spans(round_dir / f"{name}.spans.json")
            shard_spans.extend(spans)
            shard_rss.append(final["rss_mb"])
            out.check(
                final.get("fingerprint") == shard["rebuilt"],
                f"{name}: live online model {final.get('fingerprint')} != WAL replay {shard['rebuilt']}",
            )
        rss.append(host["rss_mb"] + sum(shard_rss))
        round_references += host["references"]
        speeds.append(common.host_speed(round_references))
        references.append(round_references)
        fits.append(host["fits"])

        latencies[traced].append([])
        for request in requests:
            out.attempted += 1
            if request.error is not None:
                out.failed += 1
            elif request.kind == "r":
                if request.reply.get("degraded"):
                    out.failed += 1
                    continue
                query = workload[request.user][2][request.position]
                _check_answer(out, request, query)
                answered += 1
                hits += query.truth in request.reply["items"]
            if request.error is None:
                latencies[traced][-1].append(request.end - request.start)
        if not traced:
            completed += sum(r.error is None for r in requests)
            elapsed += window_end - window_start
            scaled_elapsed += (window_end - window_start) * speeds[-1]
        else:
            traced_rounds.append((tracer.spans, host_spans, shard_spans, requests,
                                  (window_start, window_end), (before, after)))
        out.details.setdefault("requests_per_round", []).append(len(requests))

    fewest = min(map(len, latencies[False]))
    out.check(
        fewest >= common.MIN_LATENCY_SAMPLES,
        f"a round has {fewest} latency samples; need {common.MIN_LATENCY_SAMPLES}",
    )
    untraced = [speed for speed, traced in zip(speeds, plan) if not traced]
    out.end_to_end = {
        "setup_s": common.median([setup * speed for setup, speed in zip(setups, speeds)]),
        "latency_p50_ms": common.round_percentile_ms(latencies[False], 50, untraced),
        "latency_p90_ms": common.round_percentile_ms(latencies[False], 90, untraced),
        "throughput_rps": completed / scaled_elapsed,
        "success_ratio": 1.0 - out.failed / out.attempted,
        "fit_s": min(common.best(times) * speed for times, speed in zip(fits, speeds)),
        "maap10": hits / answered if answered else 0.0,
        "peak_rss_mb": max(rss),
    }
    out.details["latency_samples"] = [len(round_) for round_ in latencies[False]]
    out.details["latency_p99_ms"] = common.round_percentile_ms(latencies[False], 99)
    out.details["recommends_answered"] = answered
    out.details["fit_seconds"] = fits
    out.details["host_speed"] = speeds
    out.details["wall_latency_p50_ms"] = common.round_percentile_ms(latencies[False], 50)
    out.details["wall_throughput_rps"] = completed / elapsed
    out.details["reference_seconds"] = references
    if trace:
        out.layers, out.details["latency_shares"] = http_layers(traced_rounds, latencies)
    return out


def _check_answer(out: Outcome, request: Request, query) -> None:
    items = request.reply["items"]
    out.check(
        request.reply["t"] == request.position,
        f"user {request.user}: answer for t={request.reply['t']}, expected t={request.position}",
    )
    out.check(len(items) <= TOP_N, f"user {request.user} t={request.position}: {len(items)} items")
    out.check(len(set(items)) == len(items), f"user {request.user} t={request.position}: repeated items")
    out.check(
        set(items) <= set(query.candidates),
        f"user {request.user} t={request.position}: items outside the Ω-filtered candidates",
    )


def _check_states(out: Outcome, client: ServingClient, split, workload, requests) -> None:
    """Every user's served state equals an offline replay of what was sent."""
    acknowledged: Dict[int, int] = {}
    for request in requests:
        if request.kind == "e" and request.error is None:
            acknowledged[request.user] = acknowledged.get(request.user, 0) + 1
    for user in range(split.n_users):
        boundary, items, _ = workload[user]
        session = LiveSession(user, WINDOW.window_size, WINDOW.min_gap, history=split.train_sequence(user))
        for item in items[: acknowledged.get(user, 0)]:
            session.append(item)
        served = client.state(user)["fingerprint"]
        out.check(
            served == session.state_fingerprint(),
            f"user {user}: served session fingerprint differs from offline replay",
        )


def http_layers(rounds, latencies):
    """Per-layer metrics of the traced rounds, joined across processes.

    Also returns each layer's share of the summed client latency.
    """
    n = len(rounds)
    client_all, router_all, shard_all = [], [], []
    hops, overheads = [], []
    router_errors = 0
    hits = gets = 0
    total = 0.0
    shares: Dict[str, float] = defaultdict(float)
    for client_spans, host_spans, shard_spans, requests, (start, end), (before, after) in rounds:
        shard_spans = layers.in_window(shard_spans, start, end)
        host_spans = layers.in_window(host_spans, start, end)
        client_all.extend(client_spans)
        router_all.extend(host_spans)
        shard_all.extend(shard_spans)
        hits += after["hits"] - before["hits"]
        gets += after["hits"] + after["misses"] - before["hits"] - before["misses"]
        router_errors += sum(1 for s in host_spans if s[6])
        clients = {s[0]: s for s in client_spans}
        routers = {s[0]: s for s in host_spans}
        services = {s[0]: s for s in shard_spans if s[1] in ("service.ingest", "service.recommend")}
        router_of = {
            client[0]: routers[router_id]
            for router_id, client in layers.contained(client_spans, host_spans).items()
        }
        service_of = {
            router[0]: services[service_id]
            for service_id, router in layers.contained(host_spans, list(services.values())).items()
        }
        for client_id, router in router_of.items():
            client = clients[client_id]
            overheads.append((client[3] - client[2]) - (router[3] - router[2]))
        for router_id, service in service_of.items():
            router = routers[router_id]
            hops.append((router[3] - router[2]) - (service[3] - service[2]))

        _, matched = layers.scoring_layers(shard_spans, 1)
        children: Dict[int, List[tuple]] = {}
        for span in shard_spans:
            children.setdefault(span[4], []).append(span)
        as_spans = [(i, "request", r.start, r.end, 0, [r.kind, r.user], None)
                    for i, r in enumerate(requests) if r.error is None]
        client_of_request = {
            request[0]: clients[client_id]
            for client_id, request in layers.contained(as_spans, client_spans).items()
        }
        for span in as_spans:
            latency = span[3] - span[2]
            total += latency
            client = client_of_request.get(span[0])
            router = router_of.get(client[0]) if client else None
            service = service_of.get(router[0]) if router else None
            if service is None:
                shares["unattributed"] += latency
                continue
            parts = _request_parts(client, router, service, children, matched)
            parts["unattributed"] = latency - sum(parts.values())
            for name, seconds in parts.items():
                shares[name] += seconds

    scoring, _ = layers.scoring_layers(shard_all, n)
    groups = layers.by_name(shard_all)
    own_wal_online = child_time(shard_all, ("wal.append", "online.observe"))
    ingests = [s[3] - s[2] - own_wal_online.get(s[0], 0.0) for s in groups.get("service.ingest", [])]
    wal = [s[3] - s[2] for s in groups.get("wal.append", [])]
    observes = groups.get("online.observe", [])
    flushes = [s[3] - s[2] for s in groups.get("online.flush", [])]
    forwards = [s[3] - s[2] for s in router_all]
    result = dict(scoring)
    result.update({
        "http.overhead_ms_p50": layers.pct_ms(overheads, 50),
        "http.overhead_ms_p99": layers.pct_ms(overheads, 99),
        "router.forward_ms_p50": layers.pct_ms(forwards, 50),
        "router.forward_ms_p99": layers.pct_ms(forwards, 99),
        "router.hop_ms_p50": layers.pct_ms(hops, 50),
        "router.errors": float(router_errors),
        "service.ingest_ms_p50": layers.pct_ms(ingests, 50),
        "service.ingest_ms_p99": layers.pct_ms(ingests, 99),
        "store.gets": gets / n,
        "store.hit_ratio": hits / gets if gets else 0.0,
        "wal.appends": len(wal) / n,
        "wal.append_ms_p50": layers.pct_ms(wal, 50),
        "wal.append_ms_p99": layers.pct_ms(wal, 99),
        "online.observe_ms_p50": layers.pct_ms([s[3] - s[2] for s in observes], 50),
        "online.observe_ms_p99": layers.pct_ms([s[3] - s[2] for s in observes], 99),
        "online.flushes": len(flushes) / n,
        "online.flush_ms_p99": layers.pct_ms(flushes, 99),
        "online.updates_per_event": (
            sum(s[6]["update"] for s in observes if s[6]) / len(observes) if observes else 0.0
        ),
        "trace.overhead_ratio": common.round_percentile_ms(latencies[True], 50)
        / common.round_percentile_ms(latencies[False], 50) - 1.0,
        "trace.unattributed_ratio": shares["unattributed"] / total if total else 0.0,
    })
    return result, {name: seconds / total for name, seconds in shares.items()}


def _dur(span: tuple) -> float:
    return span[3] - span[2]


def _request_parts(client, router, service, children, matched) -> Dict[str, float]:
    """Split one request's time over the layers its spans cover."""
    parts = {"http": _dur(client) - _dur(router), "router.hop": _dur(router) - _dur(service)}
    kids = children.get(service[0], [])
    if service[1] == "service.ingest":
        parts["service.ingest"] = _dur(service)
        for kid in kids:
            parts[kid[1]] = parts.get(kid[1], 0.0) + _dur(kid)
            parts["service.ingest"] -= _dur(kid)
        return parts
    for kid in kids:
        if kid[1] == "service.submit":
            parts["service.submit"] = _dur(kid)
            if kid[0] in matched:
                wait, kernel = matched[kid[0]]
                parts["service.queue_wait"] = wait
                parts["service.kernel"] = _dur(kernel)
    return parts

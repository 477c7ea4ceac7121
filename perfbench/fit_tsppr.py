"""Workload ``fit_tsppr``: raw event log -> fitted TS-PPR.

Set-up generates the training-bench synthetic dataset (400 users) and
writes it as a time-ordered event log; the seed decides how the users'
events interleave in it, and so the user and item numbering the loader
assigns. The timed part is
``load_event_log`` -> ``temporal_split`` -> ``TSPPRRecommender.fit``
(vectorized engine, one fit worker) over a fixed budget of SGD
updates: the convergence tolerance is set too small to stop early, so
every fit does the same work. The fitted model is then evaluated
untimed: each user's held-out queries are scored with one
``recommend_batch`` call after every fit, which gives MaAP@10 and the
per-user scoring latency.

Fits and scoring calls are single-threaded and timed on the process's
CPU clock, which leaves out time the host gives to other tenants.
``fit_s`` is the best of the run's fits, and a user's scoring latency
the best of its scoring passes: other tenants of the host only ever
add time. Each fit follows one run of the reference work, and every
CPU-bound figure is scaled by the run's host speed
(``common.host_speed``).
"""

from __future__ import annotations

import gc
import json
import shutil
import time
from pathlib import Path
from typing import List

import numpy as np

import common
import layers
from common import Outcome
from tracing import Tracer, self_times

import repro.data.loaders as loaders
import repro.data.split as split_module
from repro.config import EvaluationConfig, TSPPRConfig, WindowConfig
from repro.evaluation.metrics import aggregate_accuracy
from repro.evaluation.protocol import collect_queries, evaluate_queries, evaluate_recommender
from repro.models.tsppr import TSPPRRecommender
from repro.synth.base import SyntheticConfig, generate_dataset

WINDOW = WindowConfig(window_size=100, min_gap=10)
TOP_N = 10
#: SGD updates per fit: about as many per quadruple as the paper's
#: stopping rule takes on the 800-user training bench, at a size that
#: lets a run hold a few dozen fits to take the best of.
UPDATES = 100_000

#: The training-bench regime at half its users: many short sequences
#: keep SGD batches large; S = 4 negatives.
SYNTH = SyntheticConfig(
    name="training-bench",
    n_users=400,
    n_items=5000,
    sequence_length_range=(120, 180),
    catalog_size_range=(80, 120),
    zipf_exponent=0.5,
    p_explore_range=(0.3, 0.4),
    memory_span=100,
    frequency_exponent=0.6,
    recency_exponent=0.6,
    explore_weight_exponent=0.1,
)


def _config() -> TSPPRConfig:
    return TSPPRConfig(
        max_epochs=UPDATES, convergence_tol=1e-12, seed=3, n_negative_samples=4
    )


def write_log(dataset, path: Path, seed: int) -> int:
    """Write ``dataset`` as one time-ordered log with seeded user interleaving.

    Each user's events keep their order; which user's next event comes
    next in the log is drawn from the seed.
    """
    sequences = list(dataset)
    owners = np.repeat(np.arange(len(sequences)), [len(s) for s in sequences])
    np.random.default_rng(seed).shuffle(owners)
    cursors = [0] * len(sequences)

    def events():
        for clock, index in enumerate(owners.tolist()):
            sequence = sequences[index]
            item = int(sequence[cursors[index]])
            cursors[index] += 1
            yield loaders.EventRecord(
                user=str(dataset.user_vocab.id_of(sequence.user)),
                item=str(dataset.item_vocab.id_of(item)),
                timestamp=float(clock),
            )

    return loaders.write_events(path, events())


def _fit(log_path: Path):
    """The timed path; returns (split, model, wall seconds, CPU seconds)."""
    start, cpu = time.perf_counter(), time.process_time()
    split = split_module.temporal_split(loaders.load_event_log(log_path))
    model = TSPPRRecommender(_config()).fit(split, WINDOW, fit_workers=1)
    return split, model, time.perf_counter() - start, time.process_time() - cpu


def _evaluate(model, split):
    """Per-user batched scoring: (MaAP@10, per-user CPU seconds, queries)."""
    per_user, latencies, n_queries = [], [], 0
    for user in range(split.n_users):
        sequence = split.full_sequence(user)
        queries = collect_queries(
            sequence, split.train_boundary(user), WINDOW.window_size, WINDOW.min_gap, user=user
        )
        start = time.process_time()
        per_user.append(evaluate_queries(model, sequence, queries, (TOP_N,)))
        latencies.append(time.process_time() - start)
        n_queries += len(queries)
    return aggregate_accuracy(per_user, (TOP_N,)).maap[TOP_N], latencies, n_queries


def _recorded() -> float:
    """MaAP@10 recorded for these data and this fit configuration."""
    path = Path(__file__).with_name("expected.json")
    return json.loads(path.read_text(encoding="utf-8"))["fit_tsppr"]["maap10"]


def run(seed: int, seconds: int, trace: int, delay, work: Path) -> Outcome:
    out = Outcome()
    plan = common.round_plan(trace)
    budget = seconds / common.ROUNDS
    setups: List[float] = []
    fits = {False: [], True: []}
    fit_cpu: List[float] = []
    references: List[float] = []
    passes: List[List[float]] = []
    maaps: List[float] = []
    spans: List[tuple] = []
    last = None
    for index, traced in enumerate(plan):
        round_dir = work / f"round-{index}"
        round_dir.mkdir(parents=True)
        start = time.perf_counter()
        log_path = round_dir / "events.tsv"
        write_log(generate_dataset(SYNTH, common.DATA_SEED), log_path, seed)
        setups.append(time.perf_counter() - start)
        gc.collect()
        tracer = Tracer()
        layers.install_delay(tracer, delay)
        if traced:
            layers.install_fit(tracer)
        def score(split, model):
            maap, user_latencies, queries = _evaluate(model, split)
            maaps.append(maap)
            passes.append(user_latencies)
            return queries

        round_start = time.perf_counter()
        try:
            while True:
                out.attempted += 1
                if not traced:
                    references.append(common.cpu_time(common.reference_work))
                split, model, elapsed, cpu = _fit(log_path)
                fits[traced].append(elapsed)
                if not traced:
                    fit_cpu.append(cpu)
                    # A scoring pass after every fit spreads the passes
                    # over the whole run.
                    n_queries = score(split, model)
                if time.perf_counter() - round_start + elapsed > budget:
                    break
        finally:
            tracer.restore()
        spans.extend(tracer.spans)
        if traced:
            n_queries = score(split, model)
        last = (split, model)
        shutil.rmtree(round_dir)

    split, model = last
    out.check(len(set(maaps)) == 1, f"MaAP@10 differs between rounds: {maaps}")
    protocol = evaluate_recommender(model, split, EvaluationConfig(top_ns=(TOP_N,), window=WINDOW))
    out.check(
        protocol.maap[TOP_N] == maaps[-1],
        f"per-user MaAP@10 {maaps[-1]} != evaluate_recommender {protocol.maap[TOP_N]}",
    )
    recorded = _recorded()
    out.check(maaps[0] == recorded, f"MaAP@10 {maaps[0]!r} != recorded {recorded!r}")
    # One latency per user: the best of its passes. Other tenants only
    # ever add time, and the passes are spread over the whole run.
    speed = common.host_speed(references)
    latencies = (np.min(np.asarray(passes), axis=0) * speed).tolist()
    out.check(
        len(latencies) >= 100,
        f"only {len(latencies)} users scored; p90 needs ten of them beyond it",
    )

    out.end_to_end = {
        "setup_s": common.median(setups) * speed,
        "latency_p50_ms": common.percentile_ms(latencies, 50),
        "latency_p90_ms": common.percentile_ms(latencies, 90),
        "throughput_rps": n_queries / sum(latencies),
        "success_ratio": 1.0 - out.failed / out.attempted,
        "fit_s": common.best(fit_cpu) * speed,
        "maap10": maaps[0],
        "peak_rss_mb": common.self_peak_rss_mb(),
    }
    out.details = {
        "fits": len(fits[False]) + len(fits[True]),
        "fit_seconds": fits[False],
        "fit_cpu_seconds": fit_cpu,
        "host_speed": speed,
        "reference_seconds": references,
        "latency_samples": len(latencies) * len(passes),
        "scoring_passes": len(passes),
        "latency_p99_ms": common.percentile_ms(latencies, 99),
        "recorded_maap10": recorded,
        "quadruples": model.n_quadruples_,
        "sgd_updates": model.sgd_result_.n_updates,
    }
    if trace:
        out.layers, out.details["fit_shares"] = fit_layers(spans, fits)
    return out


def fit_layers(spans: List[tuple], fits):
    """Per-layer self times of the traced fits, averaged per fit.

    Also returns each span name's share of the traced fit time.
    """
    n = max(len(fits[True]), 1)
    own = self_times(spans)
    groups = layers.by_name(spans)

    def total(name: str) -> float:
        return sum(own[s[0]] for s in groups.get(name, [])) / n

    fills = groups.get("engine.fill", [])
    blocks = groups.get("optim.block", [])
    sgd = groups.get("optim.sgd", [])
    updates = sum(s[6]["updates"] for s in sgd if s[6])
    values = {
        "data.load_s": total("data.load"),
        "data.split_s": total("data.split"),
        "features.model_fit_s": total("features.model_fit"),
        "features.cache_build_s": total("features.cache_build"),
        "engine.fill_s": total("engine.fill"),
        "engine.fill_rows": sum(s[6]["rows"] for s in fills if s[6]) / n,
        "sampling.sample_s": total("sampling.sample"),
        "sampling.quadruples": sum(s[6]["n"] for s in groups.get("sampling.sample", []) if s[6]) / n,
        "optim.sgd_s": total("optim.sgd"),
        "optim.draw_s": total("optim.draw"),
        "optim.block_s": total("optim.block"),
        "optim.dependency_s": total("optim.dependency"),
        "optim.check_s": total("optim.check"),
        "optim.blocks": len(blocks) / n,
        "optim.checks": len(groups.get("optim.check", [])) / n,
        "optim.updates": updates / n,
        "optim.updates_per_block": updates / len(blocks) if blocks else 0.0,
    }
    attributed = sum(own.values()) / n
    e2e = sum(fits[True]) / n
    values["trace.overhead_ratio"] = common.overhead_ratio(fits[True], fits[False])
    values["trace.unattributed_ratio"] = (e2e - attributed) / e2e
    shares = {name: sum(own[s[0]] for s in group) / n / e2e for name, group in groups.items()}
    return values, shares

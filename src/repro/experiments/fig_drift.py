"""fig_drift — frozen vs ISGD-online TS-PPR under taste drift.

Not a paper artifact: the motivating experiment for :mod:`repro.online`.
A Gowalla-like stream is generated with periodic taste drift
(``drift_interval`` / ``drift_fraction``), so user catalogs keep
rotating after the training boundary. Two copies of the *same* fitted
TS-PPR then walk the interleaved global test stream under the serving
protocol: one frozen, one receiving per-event ISGD updates through
:class:`~repro.online.trainer.OnlineTrainer`. Both answer every RRC
query *before* the event is applied (test-then-learn), so the
comparison is honest prequential evaluation.

The report is sliding-window MaAP@10 by stream position: the frozen
model decays as drift compounds while the online model tracks it, and
the overall online MaAP must come out at least equal — the acceptance
gate ``benchmarks/test_bench_online.py`` records in
``BENCH_online.json``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.data.split import SplitDataset, temporal_split
from repro.engine.query import Query
from repro.experiments.common import ExperimentScale, default_config
from repro.experiments.registry import ExperimentResult, register_experiment
from repro.models.base import Recommender
from repro.models.tsppr import TSPPRRecommender
from repro.online.trainer import OnlineTrainer
from repro.rng import derive_seed
from repro.serving.state import SessionStore
from repro.synth.base import generate_dataset
from repro.synth.gowalla import GOWALLA_PRESET

#: Recommendation list size (the paper's N).
TOP_N = 10

#: Sliding-window buckets over the global target stream.
N_BUCKETS = 5

#: Events between taste-drift episodes, before length scaling.
DRIFT_INTERVAL = 70

#: Fraction of a user's catalog replaced per episode.
DRIFT_FRACTION = 0.6

#: Online step size; hotter than the offline schedule on purpose —
#: per-event updates must chase a moving target, not polish a fixed one.
ONLINE_LR = 0.05

#: Flush window for the online arm. Staleness is the variable under
#: study, so keep update lag to a few events rather than inheriting the
#: serving default, which is tuned for tail latency, not freshness.
ONLINE_BATCH = 8


def drifting_split(scale: ExperimentScale) -> SplitDataset:
    """A Gowalla-like 70/30 split whose tastes rotate mid-stream."""
    config = replace(
        GOWALLA_PRESET.scaled(scale.user_factor, scale.length_factor),
        name="gowalla-drift",
        drift_interval=max(
            10, int(round(DRIFT_INTERVAL * scale.length_factor))
        ),
        drift_fraction=DRIFT_FRACTION,
    )
    dataset = generate_dataset(config, random_state=derive_seed(scale.seed, 31))
    return temporal_split(dataset)


def interleaved_test_stream(split: SplitDataset) -> List[Tuple[int, int]]:
    """The global test stream: users round-robin, position by position.

    Synthetic sequences carry no wall-clock timestamps, so position-wise
    round-robin is the canonical interleaving — every user advances at
    the same rate, which is exactly the regime where one shared model
    must serve all drifting users at once.
    """
    suffixes = [
        split.full_sequence(user).items[split.train_boundary(user):].tolist()
        for user in range(split.n_users)
    ]
    stream: List[Tuple[int, int]] = []
    depth = 0
    emitted = True
    while emitted:
        emitted = False
        for user, suffix in enumerate(suffixes):
            if depth < len(suffix):
                stream.append((user, suffix[depth]))
                emitted = True
        depth += 1
    return stream


def prequential_walk(
    model: Recommender,
    split: SplitDataset,
    stream: List[Tuple[int, int]],
    trainer: Optional[OnlineTrainer] = None,
) -> List[bool]:
    """Test-then-learn over the stream; returns per-target hit flags.

    Every RRC target is answered from the pre-event session state
    (candidates sorted, same tie-breaking as the offline protocol); with
    a ``trainer`` the event then becomes an ISGD update before the next
    arrives. Without one, only session state advances — the frozen arm.
    """
    window = model.window_config
    store = SessionStore(
        window.window_size,
        window.min_gap,
        capacity=max(split.n_users, 1),
        history_provider=split.history_store(base="train"),
    )
    hits: List[bool] = []
    for user, item in stream:
        session = store.get(user)
        if session.is_next_target(item):
            candidates = session.candidates()
            query = Query(
                t=session.t, candidates=tuple(candidates), truth=item
            )
            top = model.recommend_batch(session.sequence(), [query], TOP_N)[0]
            hits.append(item in top[:TOP_N])
        if trainer is not None:
            trainer.observe_next(user, item, session)
        session.append(item)
    if trainer is not None:
        trainer.flush()
    return hits


def bucketed_maap(hits: List[bool], n_buckets: int = N_BUCKETS):
    """MaAP@10 per stream-position bucket: hits/targets within each."""
    points = []
    for bucket in range(n_buckets):
        lo = bucket * len(hits) // n_buckets
        hi = (bucket + 1) * len(hits) // n_buckets
        chunk = hits[lo:hi]
        if chunk:
            points.append(
                ((bucket + 1) / n_buckets, sum(chunk) / len(chunk))
            )
    return points


@register_experiment(
    "fig_drift", "Taste drift: frozen vs ISGD-online TS-PPR (MaAP@10)"
)
def run(scale: ExperimentScale) -> ExperimentResult:
    split = drifting_split(scale)
    stream = interleaved_test_stream(split)
    config = default_config("gowalla", scale)

    frozen = TSPPRRecommender(config).fit(split)
    frozen_hits = prequential_walk(frozen, split, stream)

    # The online arm starts from a bit-identical fit (same config, same
    # seed, deterministic trainer) and diverges only through updates.
    online_model = TSPPRRecommender(config).fit(split)
    trainer = OnlineTrainer(
        online_model, learning_rate=ONLINE_LR, batch_window=ONLINE_BATCH
    )
    online_hits = prequential_walk(
        online_model, split, stream, trainer=trainer
    )

    if len(frozen_hits) != len(online_hits):
        raise AssertionError(
            "frozen and online walks answered different target sets: "
            f"{len(frozen_hits)} vs {len(online_hits)}"
        )
    frozen_overall = sum(frozen_hits) / max(len(frozen_hits), 1)
    online_overall = sum(online_hits) / max(len(online_hits), 1)

    series: Dict[str, Tuple[Tuple[object, float], ...]] = {
        "frozen TS-PPR / MaAP@10 vs stream fraction": tuple(
            bucketed_maap(frozen_hits)
        ),
        "online TS-PPR (isgd) / MaAP@10 vs stream fraction": tuple(
            bucketed_maap(online_hits)
        ),
    }
    rows = (
        {
            "method": "TS-PPR frozen",
            f"MaAP@{TOP_N}": round(frozen_overall, 4),
            "targets": len(frozen_hits),
        },
        {
            "method": "TS-PPR online (isgd)",
            f"MaAP@{TOP_N}": round(online_overall, 4),
            "targets": len(online_hits),
        },
    )
    notes = (
        f"drifting stream: {split.n_users} users, {len(stream)} test "
        f"event(s), {len(frozen_hits)} RRC target(s), "
        f"{trainer.cursor} event(s) observed online",
        f"overall MaAP@{TOP_N}: frozen {frozen_overall:.4f} vs online "
        f"{online_overall:.4f} "
        f"({'online >= frozen' if online_overall >= frozen_overall else 'REGRESSION: online < frozen'})",
    )
    return ExperimentResult(
        experiment_id="fig_drift",
        title="Taste drift: frozen vs ISGD-online TS-PPR (MaAP@10)",
        rows=rows,
        series=series,
        notes=notes,
    )

"""The ``repro-serve`` command line: run and inspect the online service.

Three subcommands::

    repro-serve serve   --dataset gowalla --model recency --port 8423 \
                        --event-log runs/events.log
    repro-serve replay  --event-log runs/events.log --dataset gowalla
    repro-serve cluster --dataset gowalla --model recency --shards 4 \
                        --run-dir runs/cluster --port 8430

``serve`` builds a synthetic dataset, fits the chosen model on its
training prefixes, and serves recommendations over HTTP; with an event
log, a restarted server replays it and resumes with bit-identical
session state. ``replay`` opens a log read-only and prints what a
restarted server would rebuild — per-user replayed event counts and
state fingerprints — which is how operators verify recovery.
``cluster`` runs the fault-tolerant sharded deployment: N supervised
worker processes behind one router address, with heartbeat monitoring,
WAL-replay restarts, and graceful degradation (see
:mod:`repro.cluster`).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.config import TSPPRConfig, WindowConfig
from repro.data.split import SplitDataset, temporal_split
from repro.exceptions import ReproError
from repro.logging_utils import enable_console_logging, get_logger
from repro.models.base import Recommender
from repro.models.fpmc import FPMCRecommender
from repro.models.pop import PopRecommender
from repro.models.ppr import PPRRecommender
from repro.models.recency import RecencyRecommender
from repro.models.tsppr import TSPPRRecommender
from repro.serving.events import EventLog, scan_events
from repro.serving.server import RecommendServer
from repro.serving.service import ONLINE_MODES, ServiceConfig, service_for_split
from repro.serving.state import DEFAULT_CAPACITY, SessionStore, check_capacity
from repro.synth.gowalla import generate_gowalla
from repro.synth.lastfm import generate_lastfm

logger = get_logger("serving.cli")

#: Model names accepted by ``--model``.
MODEL_CHOICES = ("recency", "pop", "tsppr", "ppr", "fpmc")

#: Dataset names accepted by ``--dataset``.
DATASET_CHOICES = ("gowalla", "lastfm")

#: :class:`ServiceConfig` fields exposed as flags (argparse dest ==
#: field name); ``replay`` has only the ``online*`` ones.
SERVICE_KNOBS = (
    "check_interval",
    "max_inflight_rows",
    "online",
    "online_lr",
    "online_batch",
)

#: Every system knob ``serve`` and ``cluster`` expose as a flag: the
#: :class:`ServiceConfig` fields plus the session store's ``capacity``.
#: Each flag defaults to ``None`` ("not given"), so the consumer's own
#: default applies and the startup line can tell the two apart.
KNOB_ARGS = SERVICE_KNOBS + ("capacity",)


def build_split(dataset: str, seed: int) -> SplitDataset:
    """The serving dataset: a laptop-scale synthetic split."""
    if dataset == "gowalla":
        data = generate_gowalla(
            random_state=seed, user_factor=0.12, length_factor=0.6
        )
    else:
        data = generate_lastfm(
            random_state=seed, user_factor=0.12, length_factor=0.6
        )
    return temporal_split(data)


def build_model(
    name: str, split: SplitDataset, max_epochs: int, seed: int
) -> Recommender:
    """Fit the requested recommender on the split's training prefixes."""
    if name == "recency":
        return RecencyRecommender().fit(split)
    if name == "pop":
        return PopRecommender().fit(split)
    config = TSPPRConfig(max_epochs=max_epochs, seed=seed)
    model = {
        "tsppr": TSPPRRecommender,
        "ppr": PPRRecommender,
        "fpmc": FPMCRecommender,
    }[name](config)
    logger.info("fitting %s (max_epochs=%d, seed=%d)", name, max_epochs, seed)
    return model.fit(split)


def add_store_arguments(parser: argparse.ArgumentParser) -> None:
    """The history-backing option shared by serve, cluster, and replay."""
    parser.add_argument(
        "--store-dir",
        type=Path,
        default=None,
        help="save the packed base-history arena here and memory-map it "
        "(reused if it already holds the same histories; default: "
        "heap arena)",
    )


def add_online_arguments(
    parser: argparse.ArgumentParser, include_checkpoint_dir: bool = False
) -> None:
    """Online-learning options shared by serve, cluster, and replay."""
    parser.add_argument(
        "--online",
        default=None,
        choices=ONLINE_MODES,
        help="incremental model updates per ingested event: off (frozen "
        "factors) or isgd per-event SGD; the live model stays "
        "bit-identical to a checkpoint+WAL-replay rebuild either way "
        f"(default: {ServiceConfig.online})",
    )
    parser.add_argument(
        "--online-lr",
        type=float,
        default=None,
        help="online mode: ISGD learning rate applied per event, "
        "independent of the offline fit's schedule "
        f"(default: {ServiceConfig.online_lr})",
    )
    parser.add_argument(
        "--online-batch",
        type=int,
        default=None,
        help="online mode: events buffered before one batched kernel "
        "flush; final parameters are bit-identical at any window, so it "
        "only trades update lag against how often kernel work lands on "
        f"the serving tail (default: {ServiceConfig.online_batch})",
    )
    if include_checkpoint_dir:
        parser.add_argument(
            "--online-checkpoint-dir",
            type=Path,
            default=None,
            help="directory for atomic checksummed online checkpoints; a "
            "restart resumes from the newest one and replays only the "
            "WAL suffix behind it",
        )


def add_scoring_arguments(parser: argparse.ArgumentParser) -> None:
    """Scoring-loop options shared by ``serve`` and ``cluster``."""
    parser.add_argument(
        "--check-interval",
        type=int,
        default=None,
        help="max queries scored per model call: the kernel boundary at "
        "which requests admit and retire "
        f"(default: {ServiceConfig.check_interval})",
    )
    parser.add_argument(
        "--max-inflight-rows",
        type=int,
        default=None,
        help="admission-control bound on the candidate rows of admitted "
        "requests; requests beyond it wait in the overflow queue "
        f"(default: {ServiceConfig.max_inflight_rows})",
    )


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """``serve`` options, shared by repro-serve and repro-experiments."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8423, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--dataset",
        default="gowalla",
        choices=DATASET_CHOICES,
        help="synthetic dataset providing the base histories",
    )
    parser.add_argument(
        "--model",
        default="recency",
        choices=MODEL_CHOICES,
        help="recommender to serve (learned models are fitted at startup)",
    )
    parser.add_argument(
        "--event-log",
        type=Path,
        default=None,
        help="write-ahead event log path (enables crash recovery by replay)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="max resident live sessions before LRU eviction "
        f"(default: {DEFAULT_CAPACITY})",
    )
    add_store_arguments(parser)
    add_scoring_arguments(parser)
    add_online_arguments(parser, include_checkpoint_dir=True)
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline; missed deadlines fall back "
        "to the Recency baseline",
    )
    parser.add_argument(
        "--max-epochs",
        type=int,
        default=3000,
        help="training budget for learned models (tsppr/ppr/fpmc)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="dataset/model seed"
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        help="dump a metrics snapshot to this JSON file on shutdown",
    )


def add_cluster_arguments(parser: argparse.ArgumentParser) -> None:
    """``cluster`` options, shared by repro-serve and repro-experiments."""
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port",
        type=int,
        default=8430,
        help="router bind port (0 = ephemeral); workers always bind "
        "ephemeral ports and publish them to the run directory",
    )
    parser.add_argument(
        "--shards", type=int, default=2, help="number of worker processes"
    )
    parser.add_argument(
        "--run-dir",
        type=Path,
        default=Path("runs/cluster"),
        help="directory for per-shard event logs and endpoint files",
    )
    parser.add_argument(
        "--dataset",
        default="gowalla",
        choices=DATASET_CHOICES,
        help="synthetic dataset providing the base histories",
    )
    parser.add_argument(
        "--model",
        default="recency",
        choices=MODEL_CHOICES,
        help="recommender to serve (fitted once, inherited by every shard)",
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=None,
        help="per-shard max resident live sessions before LRU eviction "
        f"(default: {DEFAULT_CAPACITY})",
    )
    # The supervisor packs once into --store-dir before forking, and
    # every shard maps those columns.
    add_store_arguments(parser)
    parser.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="consistent-hash ring points per shard",
    )
    parser.add_argument(
        "--fsync-policy",
        default="always",
        choices=("always", "interval", "never"),
        help="durability policy of every shard WAL",
    )
    add_scoring_arguments(parser)
    # Shards are checkpoint-less: a restarted worker catches its model
    # up by replaying its shard WAL, which recovery already guarantees
    # rebuilds session state — and now factors — bit-identically.
    add_online_arguments(parser)
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.25,
        help="seconds between supervisor health probes",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline on every shard",
    )
    parser.add_argument(
        "--max-epochs",
        type=int,
        default=3000,
        help="training budget for learned models (tsppr/ppr/fpmc)",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="dataset/model seed"
    )


def add_replay_arguments(parser: argparse.ArgumentParser) -> None:
    """``replay`` options, shared by repro-serve and repro-experiments."""
    parser.add_argument(
        "--event-log",
        type=Path,
        required=True,
        help="event log to inspect (opened read-only)",
    )
    parser.add_argument(
        "--dataset",
        default="gowalla",
        choices=DATASET_CHOICES,
        help="dataset providing the base histories replayed under the log",
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="dataset seed (must match serve)"
    )
    add_store_arguments(parser)
    add_online_arguments(parser)
    parser.add_argument(
        "--model",
        default="tsppr",
        choices=MODEL_CHOICES,
        help="model to rebuild when --online isgd (must match serve)",
    )
    parser.add_argument(
        "--max-epochs",
        type=int,
        default=3000,
        help="training budget for the --online isgd model rebuild",
    )
    parser.add_argument(
        "--user",
        type=int,
        default=None,
        help="only report this user (default: every user in the log)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Online repeat-consumption recommendation service.",
    )
    parser.add_argument(
        "--log-level",
        default="info",
        help="console log level (debug, info, warning, error)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    serve_parser = subparsers.add_parser(
        "serve", help="fit a model and serve recommendations over HTTP"
    )
    add_serve_arguments(serve_parser)
    replay_parser = subparsers.add_parser(
        "replay", help="rebuild session state from an event log and report it"
    )
    add_replay_arguments(replay_parser)
    cluster_parser = subparsers.add_parser(
        "cluster",
        help="run the fault-tolerant sharded cluster behind one router",
    )
    add_cluster_arguments(cluster_parser)
    return parser


def service_config(args: argparse.Namespace) -> ServiceConfig:
    """The :class:`ServiceConfig` a subcommand's flags name.

    A knob flag left unset keeps the field default; an out-of-range
    value raises :class:`~repro.exceptions.ServingError` naming it.
    """
    given = {
        name: getattr(args, name)
        for name in SERVICE_KNOBS
        if getattr(args, name, None) is not None
    }
    return ServiceConfig(
        default_deadline_ms=getattr(args, "deadline_ms", None), **given
    )


def startup_knobs(
    args: argparse.Namespace, subsystem: str
) -> Tuple[ServiceConfig, int]:
    """Check the ``serve``/``cluster`` knob flags and print their line.

    Returns the :class:`ServiceConfig` and session-store capacity the
    flags name. Called before the dataset is built, so a bad flag fails
    before any fit. The printed ``resolved <subsystem> knobs: ...`` line
    names every knob with its value and source: ``(cli)`` when its flag
    was given, ``(default)`` otherwise.
    """
    config = service_config(args)
    capacity = check_capacity(
        DEFAULT_CAPACITY if args.capacity is None else args.capacity
    )
    values = {name: getattr(config, name) for name in SERVICE_KNOBS}
    values["capacity"] = capacity
    line = " ".join(
        f"{name}={values[name]}"
        f"({'default' if getattr(args, name) is None else 'cli'})"
        for name in sorted(values)
    )
    print(f"resolved {subsystem} knobs: {line}")
    return config, capacity


def run_serve(args: argparse.Namespace) -> int:
    """Build split + model + service and serve until interrupted."""
    config, capacity = startup_knobs(args, "serving")
    split = build_split(args.dataset, args.seed)
    model = build_model(args.model, split, args.max_epochs, args.seed)
    event_log = (
        EventLog.open(args.event_log) if args.event_log is not None else None
    )
    service = service_for_split(
        model,
        split,
        event_log=event_log,
        config=dataclasses.replace(config, n_items=split.n_items),
        capacity=capacity,
        store_dir=(
            str(args.store_dir) if args.store_dir is not None else None
        ),
        online_checkpoint_dir=(
            str(args.online_checkpoint_dir)
            if args.online_checkpoint_dir is not None
            else None
        ),
    )
    if event_log is not None and len(event_log):
        logger.info(
            "recovered %d event(s) across %d user(s) from %s",
            len(event_log), len(event_log.users()), args.event_log,
        )
    server = RecommendServer(service, host=args.host, port=args.port)
    print(f"serving {args.model} on {server.url} (dataset {args.dataset})")
    try:
        server.serve_forever()
    finally:
        if args.metrics_out is not None:
            service.metrics.dump(
                args.metrics_out, service.store.counters.as_dict()
            )
            logger.info("metrics written to %s", args.metrics_out)
    return 0


def run_cluster(args: argparse.Namespace) -> int:
    """Spin up supervisor + workers + router and serve until interrupted."""
    # Imported here so the plain serve/replay paths never pay for (or
    # depend on) the cluster machinery.
    from repro.cluster.router import ClusterRouter
    from repro.cluster.supervisor import ShardSupervisor

    config, capacity = startup_knobs(args, "cluster")
    split = build_split(args.dataset, args.seed)
    model = build_model(args.model, split, args.max_epochs, args.seed)
    supervisor = ShardSupervisor(
        split,
        model,
        dataclasses.replace(config, n_items=split.n_items),
        n_shards=args.shards,
        run_dir=args.run_dir,
        capacity=capacity,
        host=args.host,
        vnodes=args.vnodes,
        heartbeat_interval_s=args.heartbeat_interval,
        fsync_policy=args.fsync_policy,
        store_dir=args.store_dir,
    )
    supervisor.start()
    router = ClusterRouter(supervisor, host=args.host, port=args.port)
    print(
        f"cluster: {args.shards} shard(s) of {args.model} behind "
        f"{router.url} (dataset {args.dataset}, run dir {args.run_dir})"
    )
    try:
        router.serve_forever()
    finally:
        supervisor.close()
    return 0


def run_replay_online(args: argparse.Namespace, config: ServiceConfig) -> int:
    """Rebuild the online-updated *model* from the log, streaming.

    Refits the frozen model exactly as ``serve`` did, then streams the
    log's committed events — via :func:`scan_events`, one record at a
    time, never loading a segment into memory — through an
    :class:`~repro.online.trainer.OnlineTrainer`. The printed
    fingerprint must equal the crashed server's live one: the
    operator-facing form of the replay-identity invariant.
    """
    from repro.online.trainer import OnlineTrainer

    split = build_split(args.dataset, args.seed)
    model = build_model(args.model, split, args.max_epochs, args.seed)
    trainer = OnlineTrainer(
        model,
        learning_rate=config.online_lr,
        batch_window=config.online_batch,
    )

    window = WindowConfig()
    store = SessionStore(
        window.window_size,
        window.min_gap,
        capacity=max(split.n_users, 1),
        history_provider=split.history_store(base="train"),
    )
    ts_seen = []

    def stream():
        for event in scan_events(args.event_log):
            if event.ts is not None:
                if not ts_seen:
                    ts_seen.append(event.ts)
                    ts_seen.append(event.ts)
                ts_seen[1] = event.ts
            yield event

    n_events = trainer.replay(stream(), store)
    span = (
        f", event ts {ts_seen[0]:.3f} .. {ts_seen[1]:.3f} "
        f"({ts_seen[1] - ts_seen[0]:.1f}s span)"
        if ts_seen
        else ""
    )
    print(
        f"online rebuild ({args.model}): replayed {n_events} event(s)"
        f"{span}"
    )
    print(f"model fingerprint={trainer.model_fingerprint()}")
    return 0


def run_replay(args: argparse.Namespace) -> int:
    """Rebuild per-user state from the log and print fingerprints."""
    if not args.event_log.exists():
        print(f"event log not found: {args.event_log}", file=sys.stderr)
        return 1
    config = service_config(args)
    if config.online != "off":
        return run_replay_online(args, config)
    log = EventLog.open(args.event_log, readonly=True)
    split = build_split(args.dataset, args.seed)
    provider = split.history_store(
        base="train",
        directory=(
            str(args.store_dir) if args.store_dir is not None else None
        ),
    )
    window = WindowConfig()
    store = SessionStore(
        window.window_size,
        window.min_gap,
        capacity=max(len(log.users()), 1),
        history_provider=provider,
        event_source=log.events_for,
    )
    users = [args.user] if args.user is not None else log.users()
    print(
        f"event log {args.event_log}: {len(log)} committed event(s), "
        f"{len(log.users())} user(s)"
        + (
            f", {log.n_discarded_tail} torn record discarded"
            if log.n_discarded_tail
            else ""
        )
    )
    for user in users:
        session = store.get(user)
        print(
            f"user {user}: replayed {session.n_live_events} event(s), "
            f"t={session.t}, fingerprint={session.state_fingerprint()}"
        )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        enable_console_logging(args.log_level)
    except ValueError as exc:
        parser.error(str(exc))
    try:
        if args.command == "serve":
            return run_serve(args)
        if args.command == "cluster":
            return run_cluster(args)
        return run_replay(args)
    except ReproError as exc:
        logger.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

"""The serving side of ``serve_http``, run as its own process.

Generates the Gowalla-like split, fits TS-PPR, installs
the requested wrappers, then starts a ``ShardSupervisor`` (2 shard
processes, forked from this one so they inherit the wrappers) behind a
``ClusterRouter``. It writes ``ready.json`` with the router URL and
serves until its standard input closes. On shutdown every shard dumps
its spans, store counters, peak memory and live online-model
fingerprint; this process then rebuilds each shard's online model from
the shard's WAL with ``OnlineTrainer.replay``, times a few more fits of
the serving model, and writes both to ``host.json``.

Usage: ``python3 perfbench/cluster_host.py --run-dir DIR [--trace 0|1]
[--delay LAYER:MS]``
"""

from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import common  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
from tracing import Tracer, dump_spans  # noqa: E402

import repro.cluster.supervisor as supervisor_module  # noqa: E402
import repro.cluster.worker as worker_module  # noqa: E402
from repro.cluster import ClusterRouter, ShardSupervisor  # noqa: E402
from repro.online.trainer import OnlineTrainer  # noqa: E402
from repro.serving.events import EventLog  # noqa: E402
from repro.serving.service import ServiceConfig  # noqa: E402
from repro.serving.state import SessionStore  # noqa: E402

from serve_http import CAPACITY, ONLINE_BATCH, SHARDS, TOP_N, WINDOW, build_split, fit_model  # noqa: E402


def _capture_service(holder: dict):
    """Wrap ``service_for_split`` so the shard keeps its service handle."""

    def make(service_for_split):
        def wrapped(*args, **kwargs):
            holder["service"] = service_for_split(*args, **kwargs)
            return holder["service"]

        return wrapped

    return make


def _shard_main(tracer: Tracer, holder: dict, run_dir: Path):
    """Wrap ``run_worker``: dump the shard's findings once it stops."""

    def make(run_worker):
        def wrapped(spec, *args, **kwargs):
            tracer.spans.clear()  # inherited from the parent at fork
            tracing.reset_span_ids(os.getpid() << 32)
            try:
                run_worker(spec, *args, **kwargs)
            finally:
                service = holder.get("service")
                extra = {"rss_mb": common.self_peak_rss_mb()}
                if service is not None:
                    extra["fingerprint"] = service.online_trainer.model_fingerprint()
                dump_spans(tracer.spans, run_dir / f"{spec.name}.spans.json", extra)

        return wrapped

    return make


def rebuilt_fingerprint(model, config: ServiceConfig, split, log_path: Path) -> str:
    """The online model a replay of ``log_path`` over the fitted model gives."""
    trainer = OnlineTrainer(
        copy.deepcopy(model),
        learning_rate=config.online_lr,
        batch_window=config.online_batch,
    )
    store = SessionStore(
        WINDOW.window_size,
        WINDOW.min_gap,
        capacity=max(split.n_users, 1),
        history_provider=lambda user: split.train_sequence(user) if 0 <= user < split.n_users else None,
    )
    trainer.replay(EventLog.open(log_path, readonly=True).iter_events(), store)
    return trainer.model_fingerprint()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", default=None)
    args = parser.parse_args()
    run_dir = Path(args.run_dir)

    split = build_split()
    model = fit_model(split)
    config = ServiceConfig(
        window=WINDOW, default_k=TOP_N, n_items=split.n_items,
        online="isgd", online_batch=ONLINE_BATCH,
    )

    tracer = Tracer()
    layers.install_delay(tracer, args.delay)
    if args.trace:
        layers.install_router(tracer)
        layers.install_scoring(tracer)
        layers.install_write_path(tracer)
    holder: dict = {}
    tracer.around(worker_module, "service_for_split", _capture_service(holder))
    tracer.around(supervisor_module, "run_worker", _shard_main(tracer, holder, run_dir))

    supervisor = ShardSupervisor(
        split, model, config, n_shards=SHARDS, run_dir=run_dir,
        capacity=CAPACITY, fsync_policy="always",
    )
    try:
        supervisor.start()
        router = ClusterRouter(supervisor).start()
        gc.collect()
        try:
            (run_dir / "ready.json.tmp").write_text(json.dumps({"url": router.url}))
            (run_dir / "ready.json.tmp").replace(run_dir / "ready.json")
            sys.stdin.read()  # serve until the load generator closes the pipe
        finally:
            router.close()
    finally:
        supervisor.close()
        tracer.restore()

    shards = {}
    for name in supervisor.shard_names():
        shards[name] = {
            "rebuilt": rebuilt_fingerprint(model, config, split, run_dir / f"{name}.log"),
        }
    # Timed here rather than in the load generator: each round's host is a
    # fresh process, so the fits sample as many processes as rounds.
    references: list = []
    fits = common.cpu_repeats(lambda: fit_model(split), common.FITS_PER_ROUND, references)
    dump_spans(
        tracer.spans, run_dir / "host.json",
        {"rss_mb": common.self_peak_rss_mb(), "shards": shards, "fits": fits,
         "references": references},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point for the experiment harness.

Usage::

    repro-experiments list
    repro-experiments run fig5 --scale fast
    repro-experiments run all --scale full --output results.txt
    repro-experiments run all --journal runs/journal.json --retries 2
    repro-experiments run all --journal runs/journal.json --resume
    repro-experiments serve --model recency --event-log runs/events.log
    repro-experiments replay --event-log runs/events.log

``run all`` executes every registered table/figure in id order and
concatenates the rendered outputs — the full EXPERIMENTS.md evidence run.

Crash safety: with ``--journal`` the CLI records each experiment's
status (``pending/running/done/failed``) in an atomically-rewritten
journal file, retries failures (``--retries`` with exponential
``--retry-backoff``), keeps going past a failed experiment instead of
aborting the whole evidence run, prints a one-line summary on exit,
and returns a nonzero exit code iff anything remains failed.
``--resume`` skips experiments the journal already marks ``done`` —
rerun the same command after a crash and only unfinished work repeats.

``serve`` and ``replay`` mount the online serving layer
(:mod:`repro.serving.cli`, also installed standalone as ``repro-serve``):
``serve`` fits a model and answers live recommendation requests over
HTTP; ``replay`` rebuilds session state from an event log and prints the
per-user fingerprints a recovering server would reach.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from repro.experiments.common import scale_by_name
from repro.experiments.registry import (
    ExperimentResult,
    available_experiments,
    run_experiment,
)
from repro.logging_utils import enable_console_logging, get_logger
from repro.resilience.journal import RunJournal
from repro.serving.cli import (
    add_cluster_arguments,
    add_replay_arguments,
    add_serve_arguments,
    run_cluster,
    run_replay,
    run_serve,
)

logger = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'Recommendation for "
            "Repeat Consumption from User Implicit Feedback' (ICDE 2017)."
        ),
    )
    parser.add_argument(
        "--log-level",
        default=None,
        help="console log level (debug, info, warning, error); implies "
        "logging to stderr",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiment ids")

    serve_parser = subparsers.add_parser(
        "serve", help="serve live recommendations over HTTP"
    )
    add_serve_arguments(serve_parser)
    replay_parser = subparsers.add_parser(
        "replay", help="rebuild serving state from an event log"
    )
    add_replay_arguments(replay_parser)
    cluster_parser = subparsers.add_parser(
        "cluster", help="run the sharded serving cluster behind one router"
    )
    add_cluster_arguments(cluster_parser)

    run_parser = subparsers.add_parser("run", help="run one experiment (or 'all')")
    run_parser.add_argument(
        "experiment",
        help="experiment id (e.g. fig5, table3) or 'all'",
    )
    run_parser.add_argument(
        "--scale",
        default="fast",
        choices=("smoke", "fast", "full"),
        help="run profile (default: fast)",
    )
    run_parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the rendered output to this file",
    )
    run_parser.add_argument(
        "--json-dir",
        type=Path,
        default=None,
        help="also archive each result as <id>.json under this directory",
    )
    run_parser.add_argument(
        "--journal",
        type=Path,
        default=None,
        help=(
            "track per-experiment status in this journal file; failures "
            "no longer abort the run and the exit code reflects them"
        ),
    )
    run_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip experiments the journal already marks done (requires --journal)",
    )
    run_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry a failed experiment up to N extra times (requires --journal)",
    )
    run_parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.0,
        help="base seconds to sleep between retries (doubles per attempt)",
    )
    run_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "evaluation worker processes (default: 1); accuracy results "
            "are bit-identical at any worker count"
        ),
    )
    run_parser.add_argument(
        "--verbose", action="store_true", help="log progress to stderr"
    )
    return parser


def _run_with_retries(
    experiment_id: str,
    scale,
    journal: RunJournal,
    retries: int,
    retry_backoff: float,
) -> Optional[ExperimentResult]:
    """One experiment under the journal: retry on failure, never raise.

    Returns ``None`` when every attempt failed (the journal keeps the
    last error and the attempt count).
    """
    for attempt in range(retries + 1):
        journal.mark(experiment_id, "running")
        try:
            result = run_experiment(experiment_id, scale)
        except Exception as exc:  # noqa: BLE001 - journaled + retried
            journal.mark(
                experiment_id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
            logger.warning(
                "experiment %s failed (attempt %d/%d): %s",
                experiment_id, attempt + 1, retries + 1, exc,
            )
            if attempt < retries and retry_backoff > 0:
                time.sleep(retry_backoff * (2 ** attempt))
        else:
            journal.mark(experiment_id, "done")
            return result
    return None


def _run(
    experiment_ids: List[str],
    scale_name: str,
    output: Optional[Path],
    json_dir: Optional[Path] = None,
    journal: Optional[RunJournal] = None,
    resume: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.0,
    workers: int = 1,
) -> Tuple[str, int]:
    """Run experiments; returns (rendered text, skipped count).

    Without a journal this keeps the historical contract: the first
    failure propagates. With one, failures are recorded/retried and the
    remaining experiments still run.
    """
    import dataclasses

    from repro.experiments.storage import save_result

    scale = scale_by_name(scale_name)
    if workers != 1:
        scale = dataclasses.replace(scale, workers=workers)
    blocks: List[str] = []
    n_skipped = 0
    total_elapsed = 0.0
    n_timed = 0
    for experiment_id in experiment_ids:
        if (
            journal is not None
            and resume
            and journal.status_of(experiment_id) == "done"
        ):
            n_skipped += 1
            logger.info("skipping %s (journal: done)", experiment_id)
            continue
        start = time.perf_counter()
        if journal is None:
            result = run_experiment(experiment_id, scale)
        else:
            result = _run_with_retries(
                experiment_id, scale, journal, retries, retry_backoff
            )
            if result is None:
                continue
        elapsed = time.perf_counter() - start
        total_elapsed += elapsed
        n_timed += 1
        blocks.append(result.render())
        blocks.append(f"[{experiment_id} completed in {elapsed:.1f}s at scale {scale.name}]")
        if json_dir is not None:
            save_result(result, json_dir)
    if n_timed:
        blocks.append(
            f"[timing: {n_timed} experiment(s) in {total_elapsed:.1f}s "
            f"(scale {scale.name}, workers {scale.workers})]"
        )
    text = "\n\n".join(blocks)
    if output is not None:
        output.write_text(text + "\n")
    return text, n_skipped


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level is not None:
        try:
            enable_console_logging(args.log_level)
        except ValueError as exc:
            parser.error(str(exc))
    if args.command == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0
    if args.command == "serve":
        return run_serve(args)
    if args.command == "replay":
        return run_replay(args)
    if args.command == "cluster":
        return run_cluster(args)

    if args.resume and args.journal is None:
        parser.error("--resume requires --journal")
    if args.retries and args.journal is None:
        parser.error("--retries requires --journal")
    if args.retries < 0:
        parser.error(f"--retries must be >= 0, got {args.retries}")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.verbose:
        enable_console_logging()
    experiment_ids = (
        available_experiments() if args.experiment == "all" else [args.experiment]
    )
    journal = (
        RunJournal.load(args.journal) if args.journal is not None else None
    )
    text, n_skipped = _run(
        experiment_ids,
        args.scale,
        args.output,
        args.json_dir,
        journal=journal,
        resume=args.resume,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
        workers=args.workers,
    )
    print(text)
    if journal is not None:
        counts = journal.counts()
        print(
            f"journal: {counts['done']} done, {counts['failed']} failed, "
            f"{n_skipped} skipped"
        )
        if counts["failed"]:
            for experiment_id in journal.failed_ids():
                entry = journal.entry(experiment_id)
                print(
                    f"  failed: {experiment_id} after {entry.attempts} "
                    f"attempt(s): {entry.error}",
                    file=sys.stderr,
                )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())

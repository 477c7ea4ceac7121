"""Run one benchmark workload, check its outputs, print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve_http --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers
installed; ``--trace 1`` adds traced rounds and prints the per-layer
metrics instead. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a run whose
checks fail prints ``correct: false`` with no metrics and exits 1. The
run context and all figures are also written to
``.perfbench/records/<workload>-seed<seed>-trace<trace>.json`` (with a
``-delay-...`` suffix for self-test runs).

``--delay LAYER:MS`` (self-test only) adds a fixed delay before every
call into one layer: ``wal`` (``EventLog.append``) or ``fill``
(``SessionFeatureMatrix.matrix``).
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: ``serve_burst`` is a study workload: runnable and checked like the
#: others, but not listed in BENCHMARK.json (see README.md).
WORKLOADS = ("serve_http", "serve_burst", "fit_tsppr")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--delay", default=None, help="LAYER:MS fixed delay (self-test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import importlib

    import common
    import layers
    from context import run_context

    context = run_context(ROOT, args.workload, args.seed, args.seconds, args.trace)
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        workload = importlib.import_module(args.workload)
        outcome = workload.run(args.seed, args.seconds, args.trace, args.delay, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    context["wall_s"] = time.perf_counter() - started

    if outcome.correct:
        units = {name: unit for name, unit, _ in common.END_TO_END}
        end_to_end = {
            name: {"value": float(outcome.end_to_end[name]), "unit": units[name]}
            for name, _, _ in common.END_TO_END
        }
        per_layer = layers.layer_report(outcome.layers) if args.trace else {}
        metrics = per_layer if args.trace else end_to_end
    else:
        for error in outcome.errors:
            print(f"check failed: {error}", file=sys.stderr)
        end_to_end = per_layer = metrics = {}

    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record = {
        "context": context,
        "correct": outcome.correct,
        "errors": outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "details": outcome.details,
    }
    delayed = f"-delay-{args.delay.replace(':', '-')}" if args.delay else ""
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{delayed}.json"
    (records / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print("context " + json.dumps(context, sort_keys=True))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())

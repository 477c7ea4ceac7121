"""Self-test: a deliberately slowed layer must show up where it works.

For each case, a fixed delay is added before every call into one layer
(with the same wrapper mechanism the tracing uses) and the benchmark is
run with and without it, the two runs back to back:

* ``wal`` — 2 ms before ``EventLog.append``. The traced ``serve_http``
  run must attribute the delay to ``wal.append_ms_p50``; untraced,
  ``serve_http``'s ``latency_p50_ms`` must worsen by more than its bound,
  while ``fit_tsppr`` (no WAL) stays within every bound.
* ``fill`` — 0.5 ms before ``SessionFeatureMatrix.matrix``. The traced
  ``serve_burst`` study run (one fill per scored query) must attribute
  it to ``engine.fill_s``; untraced, ``fit_tsppr``'s ``latency_p50_ms``
  (batch scoring fills every query's candidates) must worsen by more
  than its bound, while ``serve_http`` (little scoring) stays within
  every bound.

Usage, from the repository root::

    python3 perfbench/selftest.py [--seed 1] [--seconds 21]

Prints one line per assertion and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in BENCHMARK["end_to_end"]}

#: Metrics compared on the workload where the delayed layer does little
#: work. Set-up time is left out: the delay is not applied in set-up.
UNMOVED = [name for name in BOUNDS if name != "setup_s"]

WAL_MS = 2.0
FILL_MS = 0.5


def run(workload: str, seed: int, seconds: int, trace: int, delay=None) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if delay:
        command += ["--delay", delay]
    done = subprocess.run(command, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def worsening(name: str, base: float, slowed: float) -> float:
    """Relative change of ``name`` in its bad direction (positive = worse)."""
    _, better = BOUNDS[name]
    change = (slowed - base) / base
    return change if better == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    args = parser.parse_args()
    seed, seconds = args.seed, args.seconds
    failures = 0

    def expect(ok: bool, message: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {message}")

    def untraced_pair(workload: str, delay: str):
        """Base and slowed untraced runs, back to back so machine drift cancels."""
        return run(workload, seed, seconds, 0), run(workload, seed, seconds, 0, delay)

    def attribution(workload: str, delay: str, metric: str, added, unit: str) -> None:
        """The traced layer metric rises by at least 80% of the delay added."""
        base, slow = run(workload, seed, seconds, 1), run(workload, seed, seconds, 1, delay)
        moved = slow[metric] - base[metric]
        floor = 0.8 * added(slow)
        expect(
            moved >= floor,
            f"{delay} on {workload}: {metric} rose {moved:.3f} {unit} "
            f"({base[metric]:.3f} -> {slow[metric]:.3f}; at least {floor:.3f} expected)",
        )

    def moves(workload: str, delay: str, metric: str) -> None:
        base, slow = untraced_pair(workload, delay)
        change = worsening(metric, base[metric], slow[metric])
        expect(
            change > BOUNDS[metric][0],
            f"{delay} on {workload}: {metric} worse by {change:+.1%} "
            f"(bound {BOUNDS[metric][0]:.0%})",
        )

    def holds(workload: str, delay: str) -> None:
        base, slow = untraced_pair(workload, delay)
        for name in UNMOVED:
            change = worsening(name, base[name], slow[name])
            expect(
                change <= BOUNDS[name][0],
                f"{delay} on {workload}: {name} worse by {change:+.1%} "
                f"(bound {BOUNDS[name][0]:.0%})",
            )

    wal = f"wal:{WAL_MS}"
    attribution("serve_http", wal, "wal.append_ms_p50", lambda m: WAL_MS, "ms")
    moves("serve_http", wal, "latency_p50_ms")
    holds("fit_tsppr", wal)

    fill = f"fill:{FILL_MS}"
    # One fill per scored query, so the delay adds FILL_MS per query.
    attribution("serve_burst", fill, "engine.fill_s", lambda m: FILL_MS / 1e3 * m["model.queries"], "s")
    moves("fit_tsppr", fill, "latency_p50_ms")
    holds("serve_http", fill)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

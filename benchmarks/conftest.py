"""Benchmark-suite configuration.

Every benchmark regenerates one paper artifact at the *fast* scale (the
shapes of the full-scale run are preserved; wall-clock stays in minutes)
and prints the resulting rows/series so a benchmark run doubles as an
evidence run. ``benchmark.pedantic(rounds=1, iterations=1)`` is used
throughout: these are end-to-end experiment timings, not microbenchmarks,
and one round is what the paper's grid costs.

The experiment-level caches in :mod:`repro.experiments.common` are
process-wide, so fig5/fig6/table3 share a single training run when the
suite runs in one pytest session.

Perf trajectory: speed-guard benchmarks record their measurements
through the :func:`bench_record` fixture; at session end each group is
written as machine-readable JSON next to this file (``BENCH_<group>.json``,
e.g. ``BENCH_engine.json`` for the scoring engine) so the numbers can be
compared across changes. Fit time is measured by perfbench's
``fit_tsppr`` workload (``fit_s``), not here.
"""

import json
import platform
import sys
from pathlib import Path

import pytest

from repro.experiments.common import FAST_SCALE
from repro.experiments.registry import run_experiment
# The arrival-process toolbox lives in the library (perfbench's
# serve_burst paces with it too); the name is re-exported here because
# the benches (and their history) use it.
from repro.tuning.load import LoadGenerator

__all__ = ["LoadGenerator"]

# The seed's per-query kernels are test oracles under tests/; the engine
# bench times them as its baseline. pytest puts tests/ on sys.path only
# for a run that collects tests/conftest.py, so do it here too.
_TESTS_DIR = str(Path(__file__).resolve().parents[1] / "tests")
if _TESTS_DIR not in sys.path:
    sys.path.append(_TESTS_DIR)

#: Measurements grouped by output file stem, e.g. ``{"training": {...}}``.
_BENCH_RESULTS = {}


@pytest.fixture(scope="session")
def loadgen():
    """The shared arrival-process/latency-summary toolbox."""
    return LoadGenerator


@pytest.fixture(scope="session")
def fast_scale():
    return FAST_SCALE


@pytest.fixture(scope="session")
def run_artifact():
    """Run a registered experiment at fast scale and print its output."""

    def _run(experiment_id):
        result = run_experiment(experiment_id, FAST_SCALE)
        print()
        print(result.render())
        return result

    return _run


@pytest.fixture(scope="session")
def bench_record():
    """Record one benchmark measurement for the JSON trajectory files.

    ``bench_record(group, name, **fields)`` files ``fields`` under
    ``BENCH_<group>.json`` at key ``name``. Values must be
    JSON-serializable (numbers/strings/lists/dicts).
    """

    def _record(group, name, **fields):
        _BENCH_RESULTS.setdefault(group, {})[name] = fields

    return _record


def pytest_sessionfinish(session, exitstatus):
    """Write each recorded group as ``benchmarks/BENCH_<group>.json``."""
    if not _BENCH_RESULTS:
        return
    out_dir = Path(__file__).resolve().parent
    for group, results in sorted(_BENCH_RESULTS.items()):
        payload = {
            "group": group,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "results": results,
        }
        path = out_dir / f"BENCH_{group}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _BENCH_RESULTS.clear()

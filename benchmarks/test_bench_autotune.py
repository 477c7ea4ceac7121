"""Bench: the autotuner's chosen config must beat the corners it avoided.

One full ``AutoTuner`` run over the serving knob spaces, on the same
TS-PPR heavy-window regime as the serving bench (dense targets, |W| =
250) with the same seeded bursty arrival schedule, then three guards:

* **Never-regress** — the tuned config's measured p99 is <= 1.0x the
  built-in default's measured p99 under the identical schedule. This is
  the autotuner's core promise (the default is always in the validated
  set, so the argmin cannot lose to it), re-proven here by measurement
  on a real workload rather than by construction.
* **Separation** — the *worst* predicted in-range candidate (the cost
  model's bottom pick, typically the growth-gated admission wait on
  with the largest row bound), measured under the same schedule,
  must be >= 1.5x the tuned p99. A tuner that cannot separate from the worst corner of its own
  search space is ranking noise.
* **Model agreement** — the measured-best candidate is one the cost
  model put in its top-k. The analytic model exists to spend the
  measurement budget where it matters; this guard fails if ranking and
  reality disagree about the winner.

The chosen knobs, the three measured p99s, and the separation ratios
are recorded to ``BENCH_autotune.json``.
"""

from __future__ import annotations

import pytest

from repro.config import TSPPRConfig, WindowConfig
from repro.data.split import temporal_split
from repro.models.tsppr import TSPPRRecommender
from repro.synth.base import SyntheticConfig, generate_dataset
from repro.tuning.autotune import AutoTuner, candidate_key
from repro.tuning.defaults import defaults_for
from repro.tuning.measure import ServingWorkload
from repro.tuning.probe import probe_machine

pytestmark = pytest.mark.bench

#: Heavy-window regime shared with the serving/engine benches.
BENCH_WINDOW = WindowConfig(window_size=250, min_gap=10)

#: Dense-target generator (the serving bench's recipe at 3/4 length):
#: long sequences make the per-request session walk the dominant cost,
#: which is the regime where the scoring-loop knobs actually matter.
BENCH_SYNTH = SyntheticConfig(
    name="autotune-bench",
    n_users=4,
    n_items=4000,
    sequence_length_range=(1000, 1300),
    catalog_size_range=(300, 400),
    zipf_exponent=0.7,
    p_explore_range=(0.2, 0.3),
    memory_span=240,
    frequency_exponent=0.05,
    recency_exponent=0.05,
    explore_weight_exponent=0.0,
)

#: The serving bench's calm-heavy bursty schedule: calm Poisson singles
#: at 400 Hz punctuated by 16-request bursts: calm singles price the
#: admission wait, bursts price the kernel-boundary granularity.
BURSTY = dict(calm_rate_hz=400.0, burst_size=16, calm_between=32)
N_EVENTS = 560
SCHEDULE_SEED = 808
TOP_K = 5
REPS = 2


@pytest.fixture(scope="module")
def bench_workload():
    split = temporal_split(generate_dataset(BENCH_SYNTH, 101))
    model = TSPPRRecommender(TSPPRConfig(max_epochs=1000, seed=3))
    model.fit(split, BENCH_WINDOW)
    from repro.tuning.load import LoadGenerator
    from repro.tuning.measure import _interleaved_stream

    events = _interleaved_stream(split)[:N_EVENTS]
    arrivals = LoadGenerator.bursty_times(
        len(events), seed=SCHEDULE_SEED, **BURSTY
    )
    return ServingWorkload.from_parts(
        split, model, events, arrivals, BENCH_WINDOW, **BURSTY
    )


@pytest.fixture(scope="module")
def tuned(bench_workload, tmp_path_factory):
    journal = tmp_path_factory.mktemp("tune") / "journal.json"
    tuner = AutoTuner(
        "serving",
        workload=bench_workload,
        probe=probe_machine(),
        budget_s=600.0,
        top_k=TOP_K,
        journal_path=journal,
        reps=REPS,
    )
    profile = tuner.run()
    return tuner, profile


def test_bench_autotune_serving(tuned, bench_workload, bench_record):
    tuner, profile = tuned
    chosen = profile.knobs_for("serving")
    chosen_key = candidate_key(chosen)
    validated = {result.key: result for result in tuner.results}

    # The default was validated under the same schedule; fish it out.
    default = defaults_for("serving")
    default_key = candidate_key(default)
    assert default_key in validated, "default config must always be measured"
    default_p99 = float(validated[default_key].measured["p99_ms"])
    tuned_p99 = float(profile.validation_for("serving")["p99_ms"])

    # The cost model's worst in-range corner, measured for real.
    worst = tuner.worst_candidate()
    worst_stats = bench_workload.measure(worst, reps=REPS)
    worst_p99 = float(worst_stats["p99_ms"])

    # Where did the measured winner sit in the model's ranking?
    ranked_keys = [
        candidate_key(c)
        for c in sorted(
            tuner.enumerate_candidates(),
            key=lambda c: tuner.predictions[candidate_key(c)].rank_key(
                candidate_key(c)
            ),
        )
    ]
    model_rank = ranked_keys.index(chosen_key) + 1

    separation = worst_p99 / tuned_p99
    report = (
        f"autotune serving: {tuner.n_candidates} candidates, "
        f"{len(tuner.results)} measured; tuned p99 {tuned_p99:.3f}ms "
        f"(model rank {model_rank}/{len(ranked_keys)}) vs default "
        f"{default_p99:.3f}ms vs worst-in-range {worst_p99:.3f}ms "
        f"({separation:.2f}x separation); chosen {chosen}"
    )
    print()
    print(report)

    bench_record(
        "autotune",
        "serving_tuned",
        p99_ms=round(tuned_p99, 3),
        model_rank=model_rank,
        knobs=dict(chosen),
        candidates=tuner.n_candidates,
        measured=len(tuner.results),
        top_k=TOP_K,
        reps=REPS,
        events=N_EVENTS,
        seed=SCHEDULE_SEED,
        **BURSTY,
    )
    bench_record(
        "autotune",
        "serving_reference_points",
        default_p99_ms=round(default_p99, 3),
        worst_p99_ms=round(worst_p99, 3),
        worst_knobs=dict(worst),
        vs_default=round(tuned_p99 / default_p99, 3),
        separation=round(separation, 3),
    )

    # Guard 1: tuning can never regress the hand-picked default.
    assert tuned_p99 <= 1.0 * default_p99, report
    # Guard 2: the tuned config separates from the worst in-range corner.
    assert separation >= 1.5, report
    # Guard 3: the measured winner was in the cost model's top-k (or is
    # the always-measured default itself).
    assert chosen_key in set(ranked_keys[:TOP_K]) | {default_key}, report


def test_bench_autotune_profile_round_trips(tuned, tmp_path):
    """The emitted profile loads back bit-exactly (checksum verified)."""
    from repro.tuning.profile import MachineProfile

    _, profile = tuned
    path = tmp_path / "profile.json"
    profile.save(path)
    loaded = MachineProfile.load(path)
    assert loaded.subsystems == profile.subsystems
    assert loaded.checksum() == profile.checksum()

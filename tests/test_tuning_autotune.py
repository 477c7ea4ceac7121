"""The autotuner: enumeration, cost model, journal, and resume identity.

The measured-validation layer is substituted with a deterministic fake
workload (measurements derived from the candidate's canonical key), so
these tests cover the *search machinery* — candidate canonicalization,
cost-model ranking, default-first validation, budget handling, and the
kill/resume contract — without paying for real paced replays (the real
measurement path is exercised by ``benchmarks/test_bench_autotune.py``
and the tune-smoke CI job).
"""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from repro.exceptions import TuningError
from repro.tuning.autotune import (
    TUNE_JOURNAL_VERSION,
    AutoTuner,
    TuneJournal,
    candidate_key,
)
from repro.tuning.cost import CostModel, WorkloadShape
from repro.tuning.defaults import defaults_for
from repro.tuning.probe import MachineProbe

PROBE = MachineProbe(
    cpu_count=4,
    kernel_overhead_us=50.0,
    kernel_us_per_row=0.5,
    probe_batch_sizes=(1, 4, 16, 64),
    probe_kernel_us=(80.0, 170.0, 560.0, 2100.0),
    probe_candidate_width=64.0,
    bytes_per_user={"dict": 2048.0, "arena": 400.0, "arena-mmap": 8.0},
    fork_startup_ms=8.0,
    mem_available_bytes=8e9,
    probe_s=0.5,
)

SHAPE = WorkloadShape(
    calm_rate_hz=400.0,
    burst_size=16,
    calm_between=32,
    candidates_per_request=64.0,
    requests=200,
    active_users=4,
)


class FakeWorkload:
    """Deterministic stand-in: measurement is a pure hash of the knobs."""

    shape = SHAPE

    def __init__(self, fail_after: int | None = None, sleep_s: float = 0.0):
        self.calls: list[dict] = []
        self.fail_after = fail_after
        self.sleep_s = sleep_s

    def measure(self, knobs, reps: int = 1):
        if self.fail_after is not None and len(self.calls) >= self.fail_after:
            raise RuntimeError("simulated kill")
        self.calls.append(dict(knobs))
        if self.sleep_s:
            time.sleep(self.sleep_s)
        digest = hashlib.sha256(candidate_key(knobs).encode()).hexdigest()
        return {
            "p99_ms": 1.0 + int(digest[:8], 16) / 0xFFFFFFFF,
            "p50_ms": 0.5,
        }


class TestEnumeration:
    def test_deterministic_and_canonical(self, tmp_path) -> None:
        first = AutoTuner(subsystem="serving").enumerate_candidates()
        second = AutoTuner(subsystem="serving").enumerate_candidates()
        assert first == second
        keys = [candidate_key(c) for c in first]
        assert len(keys) == len(set(keys))
        defaults = defaults_for("serving")
        for candidate in first:
            # Every candidate names exactly the registered knobs, and
            # unsearched knobs stay at their defaults.
            assert set(candidate) == set(defaults)
            assert candidate["online"] == defaults["online"]

    def test_default_config_is_a_candidate(self) -> None:
        candidates = AutoTuner(subsystem="serving").enumerate_candidates()
        assert defaults_for("serving") in candidates

    def test_serving_and_cluster_enumerate_one_product(self) -> None:
        # check_interval (3) x max_inflight_rows (3) x admission_wait_ms
        # (2) x capacity (1) x store (2): one product, as for training.
        serving = AutoTuner(subsystem="serving").enumerate_candidates()
        cluster = AutoTuner(subsystem="cluster").enumerate_candidates()
        assert len(serving) == len(cluster) == 36
        assert serving == cluster

    def test_training_workers_capped_to_cores(self) -> None:
        tuner = AutoTuner(subsystem="training", probe=PROBE)
        for candidate in tuner.enumerate_candidates():
            assert candidate["fit_workers"] <= PROBE.cpu_count

    def test_unknown_subsystem_rejected(self) -> None:
        with pytest.raises(TuningError, match="unknown subsystem"):
            AutoTuner(subsystem="networking")


class TestCostModel:
    def test_longer_wait_predicts_worse_tail(self) -> None:
        model = CostModel(PROBE)
        base = defaults_for("serving")
        fast = model.predict_serving({**base, "admission_wait_ms": 0.0}, SHAPE)
        slow = model.predict_serving({**base, "admission_wait_ms": 1.0}, SHAPE)
        assert slow.p50_ms > fast.p50_ms
        assert slow.p99_ms > fast.p99_ms

    def test_tiny_check_interval_repays_overhead(self) -> None:
        model = CostModel(PROBE)
        base = defaults_for("serving")
        chunky = model.predict_serving({**base, "check_interval": 4}, SHAPE)
        whole = model.predict_serving({**base, "check_interval": 64}, SHAPE)
        assert chunky.p99_ms > whole.p99_ms

    def test_dict_store_predicts_more_memory(self) -> None:
        model = CostModel(PROBE)
        base = defaults_for("serving")
        arena = model.predict_serving({**base, "store": "arena"}, SHAPE)
        dictionary = model.predict_serving({**base, "store": "dict"}, SHAPE)
        assert dictionary.mem_bytes > arena.mem_bytes

    def test_training_fork_startup_charged(self) -> None:
        model = CostModel(PROBE)
        base = defaults_for("training")
        big = dict(n_quadruples=1_000_000)
        solo = model.predict_training({**base, "fit_workers": 1}, **big)
        team = model.predict_training({**base, "fit_workers": 4}, **big)
        # On a build big enough to amortize startup, parallel wins...
        assert team.p99_ms < solo.p99_ms
        # ...but oversubscribing beyond the cores only adds startup.
        over = model.predict_training({**base, "fit_workers": 8}, **big)
        assert over.p99_ms > team.p99_ms
        # On a tiny build the charged startup makes workers a net loss —
        # which is exactly why the tuner measures rather than assumes.
        tiny_solo = model.predict_training(
            {**base, "fit_workers": 1}, n_quadruples=50_000
        )
        tiny_team = model.predict_training(
            {**base, "fit_workers": 4}, n_quadruples=50_000
        )
        assert tiny_team.p99_ms > tiny_solo.p99_ms


class TestJournal:
    def test_round_trip(self, tmp_path) -> None:
        path = tmp_path / "tune.journal.json"
        journal = TuneJournal(path, "serving")
        journal.set_probe(PROBE.as_dict())
        journal.record("k1", {"check_interval": 16}, {"p99_ms": 1.5})
        loaded = TuneJournal.load(path, "serving")
        assert loaded.created == journal.created
        assert loaded.probe == PROBE.as_dict()
        assert loaded.measurement_of("k1") == {"p99_ms": 1.5}
        assert loaded.measurement_of("k2") is None

    def test_subsystem_mismatch_rejected(self, tmp_path) -> None:
        path = tmp_path / "tune.journal.json"
        TuneJournal(path, "serving").save()
        with pytest.raises(TuningError, match="cannot resume"):
            TuneJournal.load(path, "training")

    def test_corrupt_journal_rejected(self, tmp_path) -> None:
        path = tmp_path / "tune.journal.json"
        path.write_text("{broken")
        with pytest.raises(TuningError, match="corrupt"):
            TuneJournal.load(path, "serving")

    def test_version_mismatch_rejected(self, tmp_path) -> None:
        path = tmp_path / "tune.journal.json"
        journal = TuneJournal(path, "serving")
        journal.save()
        payload = json.loads(path.read_text())
        payload["journal_version"] = TUNE_JOURNAL_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(TuningError, match="version"):
            TuneJournal.load(path, "serving")


class TestAutoTuner:
    def _tuner(self, tmp_path, workload, **kwargs):
        return AutoTuner(
            subsystem="serving",
            workload=workload,
            probe=PROBE,
            journal_path=tmp_path / "tune.journal.json",
            **kwargs,
        )

    def test_default_config_always_validated_first(self, tmp_path) -> None:
        workload = FakeWorkload()
        tuner = self._tuner(tmp_path, workload, top_k=3)
        tuner.run()
        assert workload.calls[0] == defaults_for("serving")
        assert len(tuner.results) <= 1 + 3

    def test_winner_is_measured_argmin(self, tmp_path) -> None:
        workload = FakeWorkload()
        tuner = self._tuner(tmp_path, workload, top_k=4)
        profile = tuner.run()
        best = min(tuner.results, key=lambda r: r.measured["p99_ms"])
        assert profile.knobs_for("serving") == best.knobs
        assert (
            profile.validation_for("serving")["p99_ms"]
            == best.measured["p99_ms"]
        )

    def test_budget_always_measures_default(self, tmp_path) -> None:
        workload = FakeWorkload(sleep_s=0.02)
        tuner = self._tuner(tmp_path, workload, top_k=5, budget_s=0.01)
        tuner.run()
        assert len(workload.calls) >= 1
        assert len(workload.calls) < 6
        assert workload.calls[0] == defaults_for("serving")

    def test_resume_reuses_all_measurements(self, tmp_path) -> None:
        first = FakeWorkload()
        tuner = self._tuner(tmp_path, first, top_k=3)
        profile_a = tuner.run()
        path_a = tmp_path / "a.json"
        profile_a.save(path_a)

        second = FakeWorkload()
        resumed = self._tuner(tmp_path, second, top_k=3, resume=True)
        profile_b = resumed.run()
        path_b = tmp_path / "b.json"
        profile_b.save(path_b)

        assert second.calls == []  # nothing re-measured
        assert resumed.n_reused == len(tuner.results)
        assert path_b.read_bytes() == path_a.read_bytes()

    def test_kill_then_resume_completes_identically(self, tmp_path) -> None:
        # Run A: the reference uninterrupted tune (its own journal).
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        reference = self._tuner(ref_dir, FakeWorkload(), top_k=3)
        profile_ref = reference.run()

        # Run B: killed after two measurements, then resumed.
        killed = FakeWorkload(fail_after=2)
        tuner = self._tuner(tmp_path, killed, top_k=3)
        with pytest.raises(RuntimeError, match="simulated kill"):
            tuner.run()
        assert len(killed.calls) == 2

        survivor = FakeWorkload()
        resumed = self._tuner(tmp_path, survivor, top_k=3, resume=True)
        profile = resumed.run()
        assert resumed.n_reused == 2
        # Only the remaining candidates were measured after the kill.
        assert len(survivor.calls) == len(resumed.results) - 2
        # Identical choice + measurements as the uninterrupted run
        # (created timestamps differ across journals, knobs must not).
        assert profile.knobs_for("serving") == profile_ref.knobs_for("serving")
        assert (
            profile.validation_for("serving")
            == profile_ref.validation_for("serving")
        )
        assert profile.machine == profile_ref.machine

    def test_resume_requires_journal(self) -> None:
        with pytest.raises(TuningError, match="journal"):
            AutoTuner(subsystem="serving", resume=True)

    def test_worst_candidate_is_worst_predicted(self, tmp_path) -> None:
        tuner = self._tuner(tmp_path, FakeWorkload(), top_k=2)
        tuner.run()
        worst = tuner.worst_candidate()
        worst_key = candidate_key(worst)
        worst_p99 = tuner.predictions[worst_key].p99_ms
        assert worst_p99 == max(p.p99_ms for p in tuner.predictions.values())

    def test_predicted_ranking_prefers_inflight_defaults(self, tmp_path) -> None:
        # Sanity: with this probe the model must rank the defaults above
        # the small-chunk, gated corner (most kernels per burst, plus a
        # poll on every calm single).
        tuner = self._tuner(tmp_path, FakeWorkload(), top_k=3)
        tuner.run()
        worst = tuner.worst_candidate()
        assert worst["check_interval"] == 4
        assert worst["admission_wait_ms"] == 1.0
        default_key = candidate_key(defaults_for("serving"))
        assert (
            tuner.predictions[default_key].p99_ms
            < tuner.predictions[candidate_key(worst)].p99_ms
        )

"""Cost-model-driven configuration search producing a machine profile.

The pipeline (``repro-experiments tune {serving,cluster,training}``):

1. **Probe** the machine once (:func:`~repro.tuning.probe.probe_machine`)
   — kernel µs/row at several batch sizes, bytes/user per store kind,
   fork startup cost, cores, memory. Seconds, not minutes.
2. **Enumerate** every candidate configuration: the cross product of
   the knob registry's search spaces (:mod:`repro.tuning.defaults`).
3. **Predict** each candidate's latency/memory with the analytic cost
   model (:mod:`repro.tuning.cost`) and rank — candidates whose
   predicted memory exceeds the machine's budget sink to the bottom.
4. **Validate** only the top-k by real measurement
   (:mod:`repro.tuning.measure`, seeded bursty pacing shared with the
   benches). The built-in default configuration is *always* measured
   first, so the chosen config can never regress the hand-picked
   baseline on the machine it was tuned on.
5. **Emit** an atomic, checksummed machine profile
   (:mod:`repro.tuning.profile`) holding the probe, the winning knobs,
   and their measured validation numbers.

Every measurement (and the probe itself) is journaled through atomic
rewrites, so a killed tune resumes with ``--resume``: already-measured
candidates are skipped and the final profile is bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Union

from repro.exceptions import TuningError
from repro.logging_utils import get_logger
from repro.resilience.atomic import atomic_write_json
from repro.tuning.cost import (
    CostModel,
    Prediction,
    WorkloadShape,
    predictions_as_dict,
)
from repro.tuning.defaults import SUBSYSTEMS, defaults_for, knobs_for
from repro.tuning.probe import MachineProbe, probe_machine
from repro.tuning.profile import MachineProfile

logger = get_logger("tuning.autotune")

#: Tune-journal schema version; bump on breaking layout changes.
TUNE_JOURNAL_VERSION = 1


def candidate_key(knobs: Mapping[str, object]) -> str:
    """Canonical stable identity of one candidate configuration."""
    return json.dumps(
        {name: knobs[name] for name in sorted(knobs)}, sort_keys=True
    )


@dataclass(frozen=True)
class CandidateResult:
    """One candidate after prediction (and, for the validated, measurement)."""

    knobs: Dict[str, object]
    predicted: Prediction
    measured: Optional[Dict[str, float]] = None

    @property
    def key(self) -> str:
        return candidate_key(self.knobs)


class TuneJournal:
    """Atomic, crash-safe book of a tune run's probe and measurements.

    Modeled on :class:`~repro.resilience.journal.RunJournal` but storing
    *values* (the probe dict and each candidate's measurement), because
    resume must reproduce the exact final profile, not merely skip work.
    """

    def __init__(self, path: Union[str, Path], subsystem: str) -> None:
        if subsystem not in SUBSYSTEMS:
            raise TuningError(
                f"unknown subsystem {subsystem!r}; expected one of "
                f"{SUBSYSTEMS}"
            )
        self.path = Path(path)
        self.subsystem = subsystem
        self.created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        self.probe: Optional[Dict[str, object]] = None
        self._measurements: Dict[str, Dict[str, object]] = {}

    @classmethod
    def load(cls, path: Union[str, Path], subsystem: str) -> "TuneJournal":
        """Read a journal, or start an empty one if the file is absent."""
        journal = cls(path, subsystem)
        if not journal.path.exists():
            return journal
        try:
            payload = json.loads(journal.path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TuningError(
                f"corrupt tune journal at {journal.path}: {exc}"
            ) from exc
        if payload.get("journal_version") != TUNE_JOURNAL_VERSION:
            raise TuningError(
                f"unsupported tune-journal version "
                f"{payload.get('journal_version')!r} in {journal.path}"
            )
        recorded = payload.get("subsystem")
        if recorded != subsystem:
            raise TuningError(
                f"tune journal at {journal.path} records a {recorded!r} "
                f"run; cannot resume it as {subsystem!r}"
            )
        journal.created = str(payload.get("created", journal.created))
        journal.probe = payload.get("probe")
        for key, entry in payload.get("candidates", {}).items():
            if not isinstance(entry, dict) or "measurement" not in entry:
                raise TuningError(
                    f"malformed candidate entry in {journal.path}"
                )
            journal._measurements[key] = entry
        return journal

    def set_probe(self, probe: Dict[str, object]) -> None:
        self.probe = probe
        self.save()

    def record(
        self,
        key: str,
        knobs: Mapping[str, object],
        measurement: Mapping[str, float],
    ) -> None:
        """Persist one candidate's measurement atomically."""
        self._measurements[key] = {
            "knobs": dict(knobs),
            "measurement": dict(measurement),
        }
        self.save()

    def measurement_of(self, key: str) -> Optional[Dict[str, float]]:
        entry = self._measurements.get(key)
        if entry is None:
            return None
        return dict(entry["measurement"])  # type: ignore[arg-type]

    def __len__(self) -> int:
        return len(self._measurements)

    def save(self) -> Path:
        payload = {
            "journal_version": TUNE_JOURNAL_VERSION,
            "subsystem": self.subsystem,
            "created": self.created,
            "probe": self.probe,
            "candidates": {
                key: self._measurements[key]
                for key in sorted(self._measurements)
            },
        }
        return atomic_write_json(self.path, payload)


@dataclass
class AutoTuner:
    """One cost-model search over a subsystem's knob spaces.

    Parameters
    ----------
    subsystem:
        ``"serving"``, ``"cluster"``, or ``"training"``.
    workload:
        A :class:`~repro.tuning.measure.ServingWorkload` /
        :class:`~repro.tuning.measure.TrainingWorkload`; defaults to the
        subsystem's seconds-scale quick workload.
    probe:
        A pre-measured :class:`MachineProbe`; measured fresh when absent
        (and journaled either way, so resume re-uses it).
    budget_s:
        Wall-clock budget of the measured-validation loop. The default
        configuration is always measured even on a tiny budget; further
        candidates stop once the budget is spent.
    top_k:
        Candidates validated by real measurement (beyond the always-
        measured default).
    journal_path:
        Where the resumable measurement journal lives; required when
        ``resume`` is set.
    resume:
        Reuse journaled probe/measurements instead of re-measuring —
        a killed tune continues where it stopped and produces an
        identical profile.
    reps:
        Measurement repetitions per candidate (best rep by p99).
    """

    subsystem: str
    workload: Optional[object] = None
    probe: Optional[MachineProbe] = None
    budget_s: float = 60.0
    top_k: int = 5
    journal_path: Optional[Union[str, Path]] = None
    resume: bool = False
    reps: int = 1
    #: Populated by :meth:`run`.
    results: List[CandidateResult] = field(default_factory=list, init=False)
    predictions: Dict[str, Prediction] = field(default_factory=dict, init=False)
    n_candidates: int = field(default=0, init=False)
    n_reused: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.subsystem not in SUBSYSTEMS:
            raise TuningError(
                f"unknown subsystem {self.subsystem!r}; expected one of "
                f"{SUBSYSTEMS}"
            )
        if self.top_k < 1:
            raise TuningError(f"top_k must be >= 1, got {self.top_k}")
        if self.budget_s <= 0:
            raise TuningError(f"budget_s must be positive, got {self.budget_s}")
        if self.resume and self.journal_path is None:
            raise TuningError("resume requires a journal_path")

    # ------------------------------------------------------------------
    # Candidate enumeration
    # ------------------------------------------------------------------
    def enumerate_candidates(self) -> List[Dict[str, object]]:
        """Every canonical candidate config, deterministically ordered.

        Every subsystem enumerates the cross product of its knobs'
        search spaces (unsearched knobs stay at their defaults).
        ``fit_workers`` values beyond the probed core count are dropped
        — they cannot help and waste validation budget.
        """
        registry = knobs_for(self.subsystem)
        base = defaults_for(self.subsystem)
        names = sorted(name for name in registry if registry[name].search)
        spaces = [registry[name].search for name in names]
        candidates = [
            {**base, **dict(zip(names, values))}
            for values in itertools.product(*spaces)
        ]
        if self.probe is not None and "fit_workers" in registry:
            cores = max(self.probe.cpu_count, 1)
            candidates = [
                c for c in candidates if int(c["fit_workers"]) <= cores
            ]
        return candidates

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _workload(self):
        if self.workload is not None:
            return self.workload
        from repro.tuning.measure import ServingWorkload, TrainingWorkload

        if self.subsystem == "training":
            return TrainingWorkload.quick()
        return ServingWorkload.quick()

    def _shape(self, workload) -> WorkloadShape:
        return getattr(workload, "shape", WorkloadShape())

    def _ranked(
        self, candidates: List[Dict[str, object]], model: CostModel, shape
    ) -> List[Dict[str, object]]:
        budget = model.memory_budget_bytes()
        self.predictions = {
            candidate_key(c): model.predict(self.subsystem, c, shape)
            for c in candidates
        }

        def sort_key(candidate: Dict[str, object]):
            key = candidate_key(candidate)
            prediction = self.predictions[key]
            over_budget = bool(budget and prediction.mem_bytes > budget)
            return (over_budget,) + prediction.rank_key(key)

        return sorted(candidates, key=sort_key)

    def run(self) -> MachineProfile:
        """Probe → enumerate → predict → validate top-k → build profile."""
        journal = (
            TuneJournal.load(self.journal_path, self.subsystem)
            if self.resume
            else TuneJournal(
                self.journal_path
                or Path(f"tune-{self.subsystem}.journal.json"),
                self.subsystem,
            )
        )
        if self.probe is None:
            if journal.probe is not None:
                self.probe = MachineProbe.from_dict(journal.probe)
                logger.info("reusing journaled machine probe")
            else:
                self.probe = probe_machine()
        if journal.probe is None:
            journal.set_probe(self.probe.as_dict())
        workload = self._workload()
        shape = self._shape(workload)
        model = CostModel(self.probe)
        candidates = self.enumerate_candidates()
        self.n_candidates = len(candidates)
        ranked = self._ranked(candidates, model, shape)
        logger.info(
            "tune %s: %d candidate(s) enumerated, validating top %d by "
            "measurement (budget %.0fs)",
            self.subsystem, len(candidates), self.top_k, self.budget_s,
        )

        # The default config is always validated first: the tuned choice
        # is the measured argmin over a set containing the hand-picked
        # baseline, so it can never regress it on this machine.
        validation: List[Dict[str, object]] = []
        seen = set()
        for candidate in [defaults_for(self.subsystem)] + ranked[: self.top_k]:
            key = candidate_key(candidate)
            if key not in seen:
                seen.add(key)
                validation.append(candidate)

        start = time.monotonic()
        self.results = []
        self.n_reused = 0
        for index, candidate in enumerate(validation):
            key = candidate_key(candidate)
            measurement = journal.measurement_of(key)
            if measurement is not None:
                self.n_reused += 1
                logger.info(
                    "candidate %d/%d journaled, reusing: %s",
                    index + 1, len(validation), key,
                )
            else:
                spent = time.monotonic() - start
                if self.results and spent >= self.budget_s:
                    logger.info(
                        "budget spent (%.1fs); skipping %d unmeasured "
                        "candidate(s)",
                        spent, len(validation) - index,
                    )
                    break
                logger.info(
                    "measuring candidate %d/%d: %s",
                    index + 1, len(validation), key,
                )
                measurement = workload.measure(candidate, reps=self.reps)
                journal.record(key, candidate, measurement)
            self.results.append(
                CandidateResult(
                    knobs=dict(candidate),
                    predicted=self.predictions[key],
                    measured=dict(measurement),
                )
            )
        if not self.results:
            raise TuningError("tune run validated no candidates")
        best = min(
            self.results,
            key=lambda r: (float(r.measured["p99_ms"]), r.key),
        )
        logger.info(
            "tune %s winner: %s (measured p99 %.3fms over %d validated)",
            self.subsystem, best.key, float(best.measured["p99_ms"]),
            len(self.results),
        )
        profile = MachineProfile(
            machine=self.probe.as_dict(), created=journal.created
        )
        profile.set_subsystem(
            self.subsystem,
            best.knobs,
            validation=best.measured,
            predicted=predictions_as_dict(best.predicted),
        )
        return profile

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def worst_candidate(self) -> Dict[str, object]:
        """The enumerated candidate with the worst predicted cost.

        The benchmark measures this deliberately bad-in-range config to
        prove the tuned choice separates from it; requires
        :meth:`run` (or at least prediction) to have happened.
        """
        if not self.predictions:
            candidates = self.enumerate_candidates()
            probe = self.probe or probe_machine()
            model = CostModel(probe)
            shape = self._shape(self._workload())
            self.predictions = {
                candidate_key(c): model.predict(self.subsystem, c, shape)
                for c in candidates
            }
            ranked = self._ranked(candidates, model, shape)
        else:
            ranked = sorted(
                self.enumerate_candidates(),
                key=lambda c: self.predictions[candidate_key(c)].rank_key(
                    candidate_key(c)
                ),
            )
        return dict(ranked[-1])


__all__ = [
    "AutoTuner",
    "CandidateResult",
    "TUNE_JOURNAL_VERSION",
    "TuneJournal",
    "candidate_key",
]

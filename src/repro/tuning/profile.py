"""The machine-profile file: probed facts + chosen knobs, checksummed.

A profile is the durable output of one tune run and the startup input of
every profile-aware entry point (``repro-serve serve --profile``,
``repro-serve cluster --profile``, ``Recommender.fit(profile=...)``).
One JSON document holds:

* ``machine`` — the probed hardware facts
  (:class:`~repro.tuning.probe.MachineProbe`), recording *why* the
  knobs were chosen;
* ``subsystems`` — per subsystem (``serving`` / ``cluster`` /
  ``training``): the chosen knob values, the measured validation
  numbers they earned, and the cost model's prediction for them;
* ``profile_version`` + ``checksum`` — a schema version gate and a
  sha256 over the canonical body, so a stale, hand-edited, or torn
  profile raises a typed :class:`~repro.exceptions.TuningError` at
  load time instead of silently misconfiguring a server.

Writes go through the atomic temp+fsync+rename layer
(:mod:`repro.resilience.atomic`); loads re-validate every knob against
the registry (:mod:`repro.tuning.defaults`), so an out-of-range value —
whatever wrote it — can never reach a ``ServiceConfig``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, Optional, Union

from repro.exceptions import TuningError
from repro.resilience.atomic import atomic_write_text, sha256_bytes
from repro.tuning.defaults import SUBSYSTEMS, knobs_for

#: Profile schema version; bump on breaking layout changes.
PROFILE_VERSION = 1

PathLike = Union[str, Path]


def _canonical_json(payload: object) -> str:
    """Deterministic rendering the checksum is computed over."""
    return json.dumps(payload, indent=2, sort_keys=True)


@dataclass
class MachineProfile:
    """One machine's probed facts and tuned knob choices.

    ``subsystems`` maps a subsystem name to a block shaped as::

        {"knobs": {...}, "validation": {...}, "predicted": {...}}

    ``validation``/``predicted`` are optional measurement metadata;
    ``knobs`` is what consumers load.
    """

    machine: Dict[str, object] = field(default_factory=dict)
    subsystems: Dict[str, Dict[str, object]] = field(default_factory=dict)
    created: str = ""
    profile_version: int = PROFILE_VERSION

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def set_subsystem(
        self,
        subsystem: str,
        knobs: Mapping[str, object],
        validation: Optional[Mapping[str, object]] = None,
        predicted: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Record one subsystem's chosen knobs (validated immediately)."""
        registry = knobs_for(subsystem)
        validated = {}
        for name in sorted(knobs):
            if name not in registry:
                raise TuningError(
                    f"unknown knob {name!r} for subsystem {subsystem!r}"
                )
            validated[name] = registry[name].validate(knobs[name])
        block: Dict[str, object] = {"knobs": validated}
        if validation is not None:
            block["validation"] = dict(validation)
        if predicted is not None:
            block["predicted"] = dict(predicted)
        self.subsystems[subsystem] = block

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def knobs_for(
        self, subsystem: str, required: bool = True
    ) -> Dict[str, object]:
        """The chosen knob values of one subsystem.

        ``required=False`` returns ``{}`` when the profile has no block
        for the subsystem (e.g. a serving-only profile consulted by a
        training run).
        """
        block = self.subsystems.get(subsystem)
        if block is None:
            if required:
                raise TuningError(
                    f"profile has no {subsystem!r} block; tuned subsystems: "
                    f"{sorted(self.subsystems) or 'none'} — run "
                    f"'repro-experiments tune {subsystem}' first"
                )
            return {}
        return dict(block.get("knobs", {}))  # type: ignore[union-attr]

    def validation_for(self, subsystem: str) -> Dict[str, object]:
        """Measured validation numbers recorded for one subsystem."""
        block = self.subsystems.get(subsystem, {})
        return dict(block.get("validation", {}))  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def body(self) -> Dict[str, object]:
        """The checksummed document body (everything but the checksum)."""
        return {
            "profile_version": self.profile_version,
            "created": self.created,
            "machine": self.machine,
            "subsystems": self.subsystems,
        }

    def checksum(self) -> str:
        """sha256 over the canonical JSON body."""
        return sha256_bytes(_canonical_json(self.body()).encode("utf-8"))

    def save(self, path: PathLike) -> Path:
        """Atomically write the profile (body + checksum) to ``path``."""
        payload = self.body()
        payload["checksum"] = self.checksum()
        return atomic_write_text(path, _canonical_json(payload) + "\n")

    @classmethod
    def load(cls, path: PathLike) -> "MachineProfile":
        """Read and fully validate a profile file.

        Raises
        ------
        TuningError
            When the file is missing, not JSON, not an object, carries
            an unsupported ``profile_version``, fails its checksum, or
            names an unknown subsystem / unknown knob / out-of-range
            knob value. A knob the registry no longer declares (a
            profile tuned by an older build) is reported as stale,
            naming the file and the knobs, with the re-tune command.
        """
        path = Path(path)
        if not path.exists():
            raise TuningError(f"machine profile not found: {path}")
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise TuningError(
                f"malformed machine profile at {path}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise TuningError(
                f"malformed machine profile at {path}: expected a JSON "
                f"object, got {type(payload).__name__}"
            )
        version = payload.get("profile_version")
        if version != PROFILE_VERSION:
            raise TuningError(
                f"stale machine profile at {path}: version {version!r}, "
                f"this build reads version {PROFILE_VERSION} — re-run "
                f"'repro-experiments tune'"
            )
        subsystems = payload.get("subsystems", {})
        if not isinstance(subsystems, dict):
            raise TuningError(
                f"malformed machine profile at {path}: 'subsystems' must "
                f"be an object"
            )
        profile = cls(
            machine=dict(payload.get("machine", {})),
            subsystems={},
            created=str(payload.get("created", "")),
            profile_version=PROFILE_VERSION,
        )
        for subsystem, block in subsystems.items():
            if subsystem not in SUBSYSTEMS:
                raise TuningError(
                    f"machine profile at {path} names unknown subsystem "
                    f"{subsystem!r}; expected one of {SUBSYSTEMS}"
                )
            if not isinstance(block, dict) or not isinstance(
                block.get("knobs", {}), dict
            ):
                raise TuningError(
                    f"malformed machine profile at {path}: subsystem "
                    f"{subsystem!r} block must be an object with a "
                    f"'knobs' object"
                )
            registered = knobs_for(subsystem)
            unknown = sorted(set(block.get("knobs", {})) - set(registered))
            if unknown:
                raise TuningError(
                    f"stale machine profile at {path}: subsystem "
                    f"{subsystem!r} names unregistered knob(s) "
                    f"{', '.join(unknown)} — re-run 'repro-experiments tune'"
                )
            profile.set_subsystem(
                subsystem,
                block.get("knobs", {}),
                validation=block.get("validation"),
                predicted=block.get("predicted"),
            )
        recorded = payload.get("checksum")
        expected = profile.checksum()
        if recorded != expected:
            raise TuningError(
                f"machine profile at {path} fails its checksum "
                f"(recorded {str(recorded)[:12]}…, computed "
                f"{expected[:12]}…) — the file was edited or torn; "
                f"re-run 'repro-experiments tune'"
            )
        return profile


def load_profile_knobs(
    profile: Optional[Union[PathLike, MachineProfile]],
    subsystem: str,
    required: bool = True,
) -> Dict[str, object]:
    """Convenience: ``None`` → ``{}``, path → load, profile → query.

    The one helper every profile-aware entry point funnels through.
    """
    if profile is None:
        return {}
    if not isinstance(profile, MachineProfile):
        profile = MachineProfile.load(profile)
    return profile.knobs_for(subsystem, required=required)


__all__ = [
    "MachineProfile",
    "PROFILE_VERSION",
    "load_profile_knobs",
]

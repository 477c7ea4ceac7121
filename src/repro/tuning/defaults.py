"""The knob registry: every serving/cluster/training system knob.

Every hot-path knob — ``check_interval``, ``max_inflight_rows``, LRU
``capacity``, the online-learning settings and ``fit_workers`` — is
declared **once** here: its type, valid range (or choice set), built-in
default, and which subsystem consumes it.
Everything else derives from the registry:

* :class:`~repro.serving.service.ServiceConfig` field defaults,
* ``repro-serve`` / ``repro-experiments`` argparse defaults and help,
* the DESIGN.md knob table.

:func:`resolve` implements the startup precedence contract —
**CLI > built-in default** — returning, for every knob, both the value
and where it came from, so servers can log the provenance of each
resolved knob.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.exceptions import TuningError

#: Subsystems the registry partitions knobs into.
SUBSYSTEMS = ("serving", "cluster", "training")

#: Where a resolved knob value came from, in precedence order.
SOURCES = ("cli", "default")


@dataclass(frozen=True)
class Knob:
    """One registered knob: type, range, default, consumer.

    Attributes
    ----------
    name / subsystem:
        Identity; ``(subsystem, name)`` is unique.
    default:
        The built-in value used when the CLI does not name one.
    kind:
        ``int``, ``float``, or ``str``.
    lo / hi:
        Inclusive numeric bounds (numeric kinds only).
    choices:
        Allowed values (string kinds only).
    consumer:
        Dotted path of the class/function that reads the value — kept
        accurate so DESIGN.md's knob table never drifts from the code.
    help:
        One-line description (also used as argparse help).
    """

    name: str
    subsystem: str
    default: object
    kind: type = int
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: Optional[Tuple[str, ...]] = None
    consumer: str = ""
    help: str = ""

    def validate(self, value: object) -> object:
        """Coerce ``value`` to the knob's type and check its range.

        Raises :class:`TuningError` with the offending knob named, so a
        bad flag value fails loudly at startup.
        """
        try:
            if self.kind is int:
                if isinstance(value, bool) or (
                    isinstance(value, float) and not float(value).is_integer()
                ):
                    raise ValueError(f"not an integer: {value!r}")
                coerced: object = int(value)  # type: ignore[arg-type]
            elif self.kind is float:
                coerced = float(value)  # type: ignore[arg-type]
            else:
                if not isinstance(value, str):
                    raise ValueError(f"not a string: {value!r}")
                coerced = value
        except (TypeError, ValueError) as exc:
            raise TuningError(
                f"knob {self.subsystem}.{self.name} expects {self.kind.__name__}, "
                f"got {value!r}"
            ) from exc
        if self.choices is not None and coerced not in self.choices:
            raise TuningError(
                f"knob {self.subsystem}.{self.name} must be one of "
                f"{self.choices}, got {coerced!r}"
            )
        if self.lo is not None and coerced < self.lo:  # type: ignore[operator]
            raise TuningError(
                f"knob {self.subsystem}.{self.name} must be >= {self.lo}, "
                f"got {coerced!r}"
            )
        if self.hi is not None and coerced > self.hi:  # type: ignore[operator]
            raise TuningError(
                f"knob {self.subsystem}.{self.name} must be <= {self.hi}, "
                f"got {coerced!r}"
            )
        return coerced


def _build_registry() -> Dict[str, Dict[str, Knob]]:
    scoring = [
        Knob(
            "check_interval", "serving", 16, int, lo=1, hi=4096,
            consumer="repro.serving.service.ServiceConfig",
            help="max queries scored per model call — the kernel-boundary "
            "granularity at which requests admit and retire",
        ),
        Knob(
            "max_inflight_rows", "serving", 32768, int, lo=1, hi=1 << 22,
            consumer="repro.serving.service.ServiceConfig",
            help="admission-control bound on the candidate rows of "
            "admitted requests; requests beyond it wait in the overflow "
            "queue",
        ),
        Knob(
            "capacity", "serving", 1024, int, lo=1, hi=1 << 24,
            consumer="repro.serving.state.SessionStore",
            help="max resident live sessions before LRU eviction",
        ),
        Knob(
            "online", "serving", "off", str, choices=("off", "isgd"),
            consumer="repro.online.trainer.OnlineTrainer",
            help="incremental model updates per ingested event: off "
            "(frozen factors, the default) or isgd per-event SGD; the "
            "live model stays bit-identical to a checkpoint+WAL-replay "
            "rebuild either way",
        ),
        Knob(
            "online_lr", "serving", 0.05, float, lo=1e-6, hi=1.0,
            consumer="repro.online.trainer.OnlineTrainer",
            help="online mode: ISGD learning rate applied per event "
            "(independent of the offline fit's schedule)",
        ),
        Knob(
            "online_batch", "serving", 256, int, lo=1, hi=4096,
            consumer="repro.online.trainer.OnlineTrainer",
            help="online mode: events buffered before one batched kernel "
            "flush; final parameters are bit-identical at any window "
            "(conflict order is preserved), so the window only trades "
            "update lag against how often kernel work can land on the "
            "serving tail",
        ),
    ]
    # The cluster shards run the same scoring loop per worker, so the
    # cluster subsystem registers the same knobs (capacity applies per
    # shard).
    cluster = [replace(knob, subsystem="cluster") for knob in scoring]
    training = [
        Knob(
            "fit_workers", "training", 1, int, lo=1, hi=256,
            consumer="repro.models.base.Recommender.fit",
            help="worker processes for the parallel feature-cache build; "
            "learned parameters are bit-identical at any worker count",
        ),
    ]
    registry: Dict[str, Dict[str, Knob]] = {name: {} for name in SUBSYSTEMS}
    for knob in scoring + cluster + training:
        registry[knob.subsystem][knob.name] = knob
    return registry


#: ``subsystem -> name -> Knob``; the one declaration of every knob.
KNOBS: Dict[str, Dict[str, Knob]] = _build_registry()


def knobs_for(subsystem: str) -> Dict[str, Knob]:
    """Every registered knob of one subsystem (name-keyed)."""
    if subsystem not in KNOBS:
        raise TuningError(
            f"unknown subsystem {subsystem!r}; expected one of {SUBSYSTEMS}"
        )
    return dict(KNOBS[subsystem])


def knob(subsystem: str, name: str) -> Knob:
    """Look one knob up, or raise :class:`TuningError`."""
    registry = knobs_for(subsystem)
    if name not in registry:
        raise TuningError(
            f"unknown knob {name!r} for subsystem {subsystem!r}; "
            f"registered: {sorted(registry)}"
        )
    return registry[name]


def default_of(subsystem: str, name: str) -> object:
    """The built-in default of one knob."""
    return knob(subsystem, name).default


def defaults_for(subsystem: str) -> Dict[str, object]:
    """``name -> built-in default`` for one subsystem."""
    return {name: k.default for name, k in knobs_for(subsystem).items()}


@dataclass(frozen=True)
class ResolvedKnob:
    """One knob after precedence resolution: the value and its source."""

    name: str
    value: object
    source: str  # one of SOURCES


def resolve(
    subsystem: str, cli: Optional[Mapping[str, object]] = None
) -> Dict[str, ResolvedKnob]:
    """Resolve every knob of ``subsystem`` with CLI > built-in default.

    ``cli`` holds only the knobs the user *explicitly* set (absent or
    ``None`` entries fall through to the default). Every value is
    validated against the registry — an unknown knob name or an
    out-of-range value raises :class:`TuningError` naming the offender.
    """
    registry = knobs_for(subsystem)
    for name in cli or ():
        if name not in registry:
            raise TuningError(
                f"unknown knob {name!r} in cli overrides for subsystem "
                f"{subsystem!r}; registered: {sorted(registry)}"
            )
    resolved: Dict[str, ResolvedKnob] = {}
    for name, entry in sorted(registry.items()):
        if cli is not None and cli.get(name) is not None:
            value, source = cli[name], "cli"
        else:
            value, source = entry.default, "default"
        resolved[name] = ResolvedKnob(name, entry.validate(value), source)
    return resolved


def values_of(resolved: Mapping[str, ResolvedKnob]) -> Dict[str, object]:
    """Flatten a resolution to ``name -> value``."""
    return {name: knob.value for name, knob in resolved.items()}


def describe(resolved: Mapping[str, ResolvedKnob]) -> str:
    """One log line naming every resolved knob and its provenance."""
    return " ".join(
        f"{name}={entry.value}({entry.source})"
        for name, entry in sorted(resolved.items())
    )


__all__ = [
    "KNOBS",
    "Knob",
    "ResolvedKnob",
    "SOURCES",
    "SUBSYSTEMS",
    "default_of",
    "defaults_for",
    "describe",
    "knob",
    "knobs_for",
    "resolve",
    "values_of",
]

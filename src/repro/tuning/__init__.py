"""Tuning: the paper's hyper-parameter grid search and the knob registry.

* **Model hyper-parameters** — :class:`~repro.tuning.grid.GridSearch`
  generalizes the paper's Section 5.5 one-axis-at-a-time sweeps over
  λ, γ, K, S, Ω into a reusable utility.
* **System knobs** — :mod:`~repro.tuning.defaults` declares every
  serving/cluster/training knob once (type, range, default, consumer)
  and resolves each with CLI > built-in default, logging where each
  value came from.
* **Load** — :class:`~repro.tuning.load.LoadGenerator`, the seeded
  arrival schedules the serving benchmarks pace their requests with.

Attribute access is lazy (PEP 562) so importing :mod:`repro.tuning` —
which :mod:`repro.serving.service` does at class-definition time for
registry defaults — never drags in the model/serving stacks.
"""

from typing import TYPE_CHECKING

_EXPORTS = {
    "GridPointResult": "repro.tuning.grid",
    "GridSearch": "repro.tuning.grid",
    "expand_grid": "repro.tuning.grid",
    "Knob": "repro.tuning.defaults",
    "KNOBS": "repro.tuning.defaults",
    "ResolvedKnob": "repro.tuning.defaults",
    "SUBSYSTEMS": "repro.tuning.defaults",
    "default_of": "repro.tuning.defaults",
    "defaults_for": "repro.tuning.defaults",
    "describe": "repro.tuning.defaults",
    "knobs_for": "repro.tuning.defaults",
    "resolve": "repro.tuning.defaults",
    "values_of": "repro.tuning.defaults",
    "LoadGenerator": "repro.tuning.load",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - typing aid only
    from repro.tuning.defaults import (
        KNOBS,
        SUBSYSTEMS,
        Knob,
        ResolvedKnob,
        default_of,
        defaults_for,
        describe,
        knobs_for,
        resolve,
        values_of,
    )
    from repro.tuning.grid import GridPointResult, GridSearch, expand_grid
    from repro.tuning.load import LoadGenerator


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.tuning' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)

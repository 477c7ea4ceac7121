"""Tuning: the paper's hyper-parameter grid search and load schedules.

* **Model hyper-parameters** — :class:`~repro.tuning.grid.GridSearch`
  generalizes the paper's Section 5.5 one-axis-at-a-time sweeps over
  λ, γ, K, S, Ω into a reusable utility.
* **Load** — :class:`~repro.tuning.load.LoadGenerator`, the seeded
  arrival schedules the serving benchmarks pace their requests with.

System knobs (``check_interval``, ``capacity``, ``fit_workers``, …) are
not declared here: each one's default and range live in the class that
reads it (see DESIGN.md §13).
"""

from repro.tuning.grid import GridPointResult, GridSearch, expand_grid
from repro.tuning.load import LoadGenerator

__all__ = ["GridPointResult", "GridSearch", "LoadGenerator", "expand_grid"]

"""Tuning: the seeded load schedules the serving benchmarks run.

:class:`~repro.tuning.load.LoadGenerator` builds the arrival schedules
the serving benchmarks pace their requests with. The paper's Section 5.5
hyper-parameter sweeps are the experiments ``fig8``–``fig11``.

System knobs (``check_interval``, ``capacity``, …) are
not declared here: each one's default and range live in the class that
reads it (see DESIGN.md §13).
"""

from repro.tuning.load import LoadGenerator

__all__ = ["LoadGenerator"]

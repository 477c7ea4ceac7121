"""Training-quadruple pre-sampling (Section 4.2.2, Fig 3).

The training set ``D`` holds quadruples ``(u, v_i, v_j, t)``: at position
``t`` user ``u`` reconsumed ``v_i`` while ``v_j`` — another reconsumable
candidate from the same window — was not chosen. For each positive, ``S``
negatives are pre-sampled so their time-sensitive features can be
extracted before training begins.
"""

from repro.sampling.quadruples import QuadrupleSet, sample_quadruples
from repro.sampling.schedule import UserUniformSchedule, small_batch_indices

__all__ = [
    "QuadrupleSet",
    "UserUniformSchedule",
    "sample_quadruples",
    "small_batch_indices",
]

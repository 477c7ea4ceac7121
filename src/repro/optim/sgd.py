"""Generic SGD driver shared by the pairwise-ranking models.

The driver owns the *schedule*: every ``check_interval`` updates it
pre-draws the interval's training indices in one stream-exact call,
hands them to the model's vectorized update kernel, and evaluates the
mean margin on a fixed small batch, delegating the stop decision to a
:class:`~repro.optim.convergence.ConvergenceMonitor`. Models supply the
callables and stay in charge of their own parameters. The seed's
one-update-at-a-time loop survives only as the test oracle the kernels
are checked against (``tests/training_oracles.py``).

Crash safety: when a :class:`~repro.resilience.checkpoint.CheckpointManager`
is supplied (together with ``get_state``/``set_state`` callables and the
schedule ``rng``), the driver snapshots the full training state at
convergence-check boundaries and transparently resumes a partial run —
the continued run applies exactly the updates the uninterrupted run
would have, so final parameters and the margin history are
bit-identical. A :class:`~repro.resilience.faults.FaultInjector` can be
threaded in by tests to kill the loop at an arbitrary update.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import CheckpointError
from repro.optim.convergence import ConvergenceMonitor
from repro.resilience.checkpoint import CheckpointManager, TrainingState
from repro.resilience.faults import FaultInjector


@dataclass(frozen=True)
class SGDResult:
    """Outcome of an SGD run.

    Attributes
    ----------
    n_updates:
        Total single-quadruple updates applied ("epochs" in the paper's
        Algorithm 1 wording).
    converged:
        Whether the ``Δr̃`` criterion fired before the update budget ran
        out.
    margin_history:
        ``(n_updates, r̃)`` checkpoints — the Fig 12 curve.
    """

    n_updates: int
    converged: bool
    margin_history: Tuple[Tuple[int, float], ...]

    @property
    def final_margin(self) -> float:
        """``r̃`` at the last convergence check.

        :func:`run_sgd` always records the initial check (0 updates)
        before entering the loop, so results it produces are never
        empty; the guard protects hand-built instances.
        """
        if not self.margin_history:
            raise ValueError("SGD run recorded no convergence checks")
        return self.margin_history[-1][1]


def run_sgd(
    draw_block: Callable[[int], np.ndarray],
    apply_block: Callable[[np.ndarray], None],
    batch_margin: Callable[[], float],
    max_updates: int,
    check_interval: int,
    tol: float = 1e-3,
    patience: int = 1,
    *,
    checkpoint: Optional[CheckpointManager] = None,
    get_state: Optional[Callable[[], Dict[str, np.ndarray]]] = None,
    set_state: Optional[Callable[[Dict[str, np.ndarray]], None]] = None,
    rng: Optional[np.random.Generator] = None,
    fault_injector: Optional[FaultInjector] = None,
) -> SGDResult:
    """Run SGD until the margin stabilizes or the budget is exhausted.

    Parameters
    ----------
    draw_block:
        ``draw_block(k)`` pre-draws the next ``k`` training indices
        (the schedule) *stream-exactly*: it consumes the rng in the same
        call sequence as ``k`` scalar draws would.
    apply_block:
        Applies the drawn updates in order with a vectorized kernel,
        bit-identical to applying them one at a time. Each check
        interval is one ``draw_block`` and one ``apply_block`` call;
        blocks never cross a convergence-check boundary.
    batch_margin:
        Returns the current mean margin ``r̃`` on the fixed small batch.
    max_updates:
        Hard budget of updates.
    check_interval:
        Updates between convergence checks (the paper's ``m = |D|/10``).
    tol, patience:
        Forwarded to :class:`ConvergenceMonitor`.
    checkpoint:
        Optional manager: snapshot the run at check boundaries and, if
        the manager's directory already holds a valid snapshot, resume
        from it instead of starting over. Requires ``get_state`` and
        ``set_state``.
    get_state / set_state:
        Capture / restore the model's parameter arrays by name. The
        restore must write *in place* wherever ``apply_block`` closes
        over array aliases.
    rng:
        The generator driving ``draw_block``; its bit-generator state is
        checkpointed and restored so a resumed schedule replays
        bit-identically.
    fault_injector:
        Test hook so crash-safety tests can kill the run at an exact
        update count: it is consulted for each of a block's updates
        *before* the block kernel runs. Recovery replays from the last
        check-boundary checkpoint, so a resumed run is bit-identical to
        an uninterrupted one wherever the fault fires.
    """
    if max_updates <= 0:
        raise ValueError(f"max_updates must be positive, got {max_updates}")
    if check_interval <= 0:
        raise ValueError(f"check_interval must be positive, got {check_interval}")
    if checkpoint is not None and (get_state is None or set_state is None):
        raise ValueError(
            "checkpointing requires both get_state and set_state callables"
        )

    monitor = ConvergenceMonitor(tol=tol, patience=patience)
    n_updates = 0
    converged = False

    def _snapshot() -> TrainingState:
        assert get_state is not None
        return TrainingState(
            n_updates=n_updates,
            converged=converged,
            history=monitor.history,
            streak=monitor.streak,
            params=get_state(),
            rng_state=(rng.bit_generator.state if rng is not None else None),
        )

    resumed = False
    if checkpoint is not None:
        state = checkpoint.load_latest()
        if state is not None:
            assert set_state is not None
            try:
                set_state(state.params)
            except (KeyError, ValueError, TypeError) as exc:
                raise CheckpointError(
                    f"checkpoint incompatible with current model: {exc}"
                ) from exc
            if rng is not None and state.rng_state is not None:
                rng.bit_generator.state = state.rng_state
            monitor.restore(state.history, state.streak)
            n_updates = state.n_updates
            converged = state.converged
            resumed = True

    if not resumed:
        # The initial check is always recorded (and checkpointed), so
        # every run — however tiny its budget — has a margin history.
        converged = monitor.record(0, batch_margin())
        if checkpoint is not None:
            checkpoint.maybe_save(_snapshot)

    while n_updates < max_updates and not converged:
        block = min(check_interval, max_updates - n_updates)
        if fault_injector is not None:
            for _ in range(block):
                fault_injector.on_update()
        apply_block(draw_block(block))
        n_updates += block
        converged = monitor.record(n_updates, batch_margin())
        if checkpoint is not None:
            checkpoint.maybe_save(_snapshot)

    return SGDResult(
        n_updates=n_updates,
        converged=converged,
        margin_history=tuple(monitor.history),
    )

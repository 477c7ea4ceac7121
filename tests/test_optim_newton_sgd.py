"""Tests for repro.optim.newton, repro.optim.sgd, repro.optim.convergence."""

import numpy as np
import pytest

from repro.exceptions import ConvergenceError
from repro.optim.convergence import ConvergenceMonitor
from repro.optim.newton import newton_minimize
from repro.optim.sgd import run_sgd


class TestNewtonMinimize:
    def test_quadratic_solves_in_one_step(self):
        A = np.array([[3.0, 1.0], [1.0, 2.0]])
        b = np.array([1.0, -1.0])

        def objective(x):
            value = 0.5 * x @ A @ x - b @ x
            return value, A @ x - b, A

        result = newton_minimize(objective, np.zeros(2))
        assert result.converged
        assert np.allclose(result.x, np.linalg.solve(A, b))
        assert result.n_iter <= 2

    def test_nonquadratic_convex(self):
        # f(x) = log(1 + e^x) - 0.3 x has root sigmoid(x) = 0.3.
        def objective(x):
            z = float(x[0])
            sig = 1.0 / (1.0 + np.exp(-z))
            value = np.logaddexp(0.0, z) - 0.3 * z
            grad = np.array([sig - 0.3])
            hess = np.array([[sig * (1 - sig)]])
            return value, grad, hess

        result = newton_minimize(objective, np.array([5.0]))
        assert result.converged
        assert result.x[0] == pytest.approx(np.log(0.3 / 0.7), abs=1e-6)

    def test_singular_hessian_gets_ridged(self):
        def objective(x):
            value = float((x[0] - 2.0) ** 2)
            grad = np.array([2 * (x[0] - 2.0), 0.0])
            hess = np.array([[2.0, 0.0], [0.0, 0.0]])  # singular
            return value, grad, hess

        result = newton_minimize(objective, np.zeros(2), max_iter=200)
        assert result.x[0] == pytest.approx(2.0, abs=1e-5)

    def test_budget_exhaustion_raises_by_default(self):
        def objective(x):
            # Gradient never below tol with max_iter=1 from far away.
            return float(x[0] ** 4), np.array([4 * x[0] ** 3]), np.array([[12 * x[0] ** 2]])

        with pytest.raises(ConvergenceError):
            newton_minimize(objective, np.array([50.0]), max_iter=1, tol=1e-14)

    def test_budget_exhaustion_soft_mode(self):
        def objective(x):
            return float(x[0] ** 4), np.array([4 * x[0] ** 3]), np.array([[12 * x[0] ** 2]])

        result = newton_minimize(
            objective, np.array([50.0]), max_iter=1, tol=1e-14,
            raise_on_failure=False,
        )
        assert not result.converged


class TestConvergenceMonitor:
    def test_first_check_never_converges(self):
        monitor = ConvergenceMonitor(tol=1.0)
        assert monitor.record(0, 0.0) is False

    def test_converges_on_small_delta(self):
        monitor = ConvergenceMonitor(tol=1e-3)
        monitor.record(0, 0.5)
        assert monitor.record(10, 0.5005) is True

    def test_does_not_converge_on_large_delta(self):
        monitor = ConvergenceMonitor(tol=1e-3)
        monitor.record(0, 0.5)
        assert monitor.record(10, 0.6) is False

    def test_patience(self):
        monitor = ConvergenceMonitor(tol=1e-3, patience=2)
        monitor.record(0, 0.5)
        assert monitor.record(1, 0.5001) is False
        assert monitor.record(2, 0.5002) is True

    def test_streak_resets(self):
        monitor = ConvergenceMonitor(tol=1e-3, patience=2)
        monitor.record(0, 0.5)
        monitor.record(1, 0.5001)
        monitor.record(2, 0.8)        # breaks the streak
        assert monitor.record(3, 0.8001) is False
        assert monitor.record(4, 0.8002) is True

    def test_history_records_everything(self):
        monitor = ConvergenceMonitor()
        monitor.record(0, 1.0)
        monitor.record(5, 2.0)
        assert monitor.history == [(0, 1.0), (5, 2.0)]
        assert monitor.last_margin == 2.0

    def test_reset(self):
        monitor = ConvergenceMonitor()
        monitor.record(0, 1.0)
        monitor.reset()
        assert monitor.history == []
        with pytest.raises(ValueError):
            monitor.last_margin

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvergenceMonitor(tol=0)
        with pytest.raises(ValueError):
            ConvergenceMonitor(patience=0)


def _zeros(k):
    """A schedule that always draws index 0."""
    return np.zeros(k, dtype=np.int64)


def _each(update):
    """Apply ``update`` to every drawn index, in order."""

    def apply_block(indices):
        for index in indices.tolist():
            update(index)

    return apply_block


class TestRunSGD:
    def test_stops_on_convergence(self):
        state = {"x": 0.0}

        def update(_index):
            state["x"] += (1.0 - state["x"]) * 0.5

        result = run_sgd(
            draw_block=_zeros,
            apply_block=_each(update),
            batch_margin=lambda: state["x"],
            max_updates=10_000,
            check_interval=10,
            tol=1e-4,
        )
        assert result.converged
        assert result.n_updates < 10_000
        assert result.final_margin == pytest.approx(1.0, abs=1e-2)

    def test_respects_budget(self):
        counter = {"n": 0}

        def update(_index):
            counter["n"] += 1

        result = run_sgd(
            draw_block=_zeros,
            apply_block=_each(update),
            batch_margin=lambda: float(counter["n"]),  # never stabilizes
            max_updates=55,
            check_interval=10,
            tol=1e-9,
        )
        assert not result.converged
        assert result.n_updates == 55
        assert counter["n"] == 55

    def test_margin_history_checkpoints(self):
        result = run_sgd(
            draw_block=_zeros,
            apply_block=lambda indices: None,
            batch_margin=lambda: 1.0,
            max_updates=100,
            check_interval=25,
            tol=1e-6,
        )
        # Initial check at 0 updates plus the first interval check.
        assert result.margin_history[0] == (0, 1.0)
        assert result.margin_history[1][0] == 25

    def test_validation(self):
        with pytest.raises(ValueError):
            run_sgd(_zeros, lambda indices: None, lambda: 0.0, 0, 1)
        with pytest.raises(ValueError):
            run_sgd(_zeros, lambda indices: None, lambda: 0.0, 10, 0)

    def test_budget_smaller_than_check_interval(self):
        """Regression: max_updates < check_interval must still record a
        final check and produce a usable final_margin."""
        counter = {"n": 0}

        def update(_index):
            counter["n"] += 1

        result = run_sgd(
            draw_block=_zeros,
            apply_block=_each(update),
            batch_margin=lambda: float(counter["n"]),
            max_updates=3,
            check_interval=100,
            tol=1e-9,
        )
        assert counter["n"] == 3
        assert result.n_updates == 3
        assert result.margin_history == ((0, 0.0), (3, 3.0))
        assert result.final_margin == 3.0

    def test_non_finite_initial_margin_raises(self):
        applied = []
        with pytest.raises(ConvergenceError, match="nan after 0 updates"):
            run_sgd(
                draw_block=_zeros,
                apply_block=applied.append,
                batch_margin=lambda: float("nan"),
                max_updates=100,
                check_interval=10,
            )
        assert applied == []

    def test_first_non_finite_check_raises(self):
        counter = {"n": 0}

        def update(_index):
            counter["n"] += 1

        with pytest.raises(ConvergenceError, match="inf after 30 updates"):
            run_sgd(
                draw_block=_zeros,
                apply_block=_each(update),
                batch_margin=lambda: (
                    float("inf") if counter["n"] >= 30 else -float(counter["n"])
                ),
                max_updates=100,
                check_interval=10,
                tol=1e-9,
            )
        assert counter["n"] == 30

    def test_final_margin_empty_history_raises(self):
        from repro.optim.sgd import SGDResult

        hand_built = SGDResult(n_updates=0, converged=False, margin_history=())
        with pytest.raises(ValueError, match="no convergence checks"):
            hand_built.final_margin


class TestRunSGDBlockMode:
    def _problem(self, seed=0):
        """A tiny SGD problem drawn from a seeded generator.

        The "parameters" are a counter vector; updates add their index,
        so any reordering or double-application changes the result.
        """
        rng = np.random.default_rng(seed)
        state = {"x": np.zeros(8), "drawn": []}

        def draw_index():
            return int(rng.integers(8))

        def draw_block(k):
            return np.array([draw_index() for _ in range(k)])

        def apply_update(index):
            state["drawn"].append(index)
            state["x"][index] += 1.0 + 0.01 * index

        def batch_margin():
            return float(state["x"].sum())

        return state, draw_index, draw_block, apply_update, batch_margin

    def test_block_mode_matches_scalar_mode(self):
        # The seed's one-update-at-a-time loop, written out: draw, apply,
        # and check the margin after every full interval and at the end.
        state_s, draw, _, update, margin_s = self._problem(seed=7)
        history = [(0, margin_s())]
        for n in range(1, 96):
            update(draw())
            if n % 20 == 0 or n == 95:
                history.append((n, margin_s()))

        state_b, _, draw_block, update_b, margin_b = self._problem(seed=7)
        block = run_sgd(
            draw_block=draw_block,
            apply_block=_each(update_b),
            batch_margin=margin_b,
            max_updates=95,
            check_interval=20,
            tol=1e-12,
        )
        assert block.n_updates == 95 and not block.converged
        assert block.margin_history == tuple(history)
        assert np.array_equal(state_s["x"], state_b["x"])
        assert state_s["drawn"] == state_b["drawn"]

    def test_blocks_never_cross_check_boundaries(self):
        sizes = []
        _, _, draw_block, update, _ = self._problem()

        def logging_draw(k):
            sizes.append(k)
            return draw_block(k)

        run_sgd(
            draw_block=logging_draw,
            apply_block=_each(update),
            batch_margin=lambda: float(len(sizes)),  # never stabilizes
            max_updates=55,
            check_interval=20,
            tol=1e-12,
        )
        # Whole check intervals, then the budget remainder.
        assert sizes == [20, 20, 15]

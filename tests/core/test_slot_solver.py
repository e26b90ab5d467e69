"""Byte-parity of the certified closed-form slot solver with the EMA DP.

:func:`repro.core.slot_solver.certified_slot_solve` may answer a slot
only when its Lagrangian certificate proves the DP would return the
same allocation.  These tests hammer it with randomized instances
shaped like ``EMAScheduler``'s kernel inputs and with adversarial ones
(ties, exact break-evens, pure no-transmit users, extreme budgets) and
check three things: every certified allocation is byte-equal to both
DP backends, it attains the reference optimum of
:func:`repro.core.knapsack.exact_slot_minimum`, and tie instances go
to the fallback.
"""

import numpy as np
import pytest

from repro.core.knapsack import exact_slot_minimum
from repro.core.slot_solver import (
    CERTIFIED,
    CLOSED,
    certificate_tolerance,
    certified_slot_solve,
)
from repro.kernels.ema_dp import FSCRATCH_PER_STATE, ema_dp_loops, ema_dp_numpy

RNG_TRIALS = 400


def run_dp(kernel, n_users, active_idx, w_eff, slope, const, idle, budget):
    n_states = budget + 1
    phi = np.zeros(n_users, dtype=np.int64)
    kernel(
        phi,
        active_idx,
        w_eff,
        w_eff - w_eff // 2 - 1,
        slope,
        const,
        idle,
        np.empty((active_idx.size, n_states)),
        np.arange(n_states, dtype=float),
        np.empty(FSCRATCH_PER_STATE * n_states),
        np.empty(n_states, dtype=np.int64),
    )
    return phi


def cost_tables(w_eff, slope, const, idle, budget):
    tables = []
    for k in range(w_eff.size):
        w = int(min(w_eff[k], budget))
        phis = np.arange(1, w + 1, dtype=float)
        tables.append(np.concatenate(([idle[k]], const[k] + slope[k] * phis)))
    return tables


def check_instance(n_users, active_idx, w_eff, slope, const, idle, budget):
    """Solve once; assert byte-parity with both DPs.  Returns the path."""
    phi = np.zeros(n_users, dtype=np.int64)
    path = certified_slot_solve(phi, active_idx, w_eff, slope, const, idle, budget)
    if path is None:
        assert not phi.any(), "a refused call must leave phi untouched"
        return None
    args = (n_users, active_idx, w_eff, slope, const, idle, budget)
    ref = run_dp(ema_dp_numpy, *args)
    assert phi.tobytes() == ref.tobytes()
    assert phi.tobytes() == run_dp(ema_dp_loops, *args).tobytes()
    assert int(phi.sum()) <= budget
    tables = cost_tables(w_eff, slope, const, idle, budget)
    opt, _ = exact_slot_minimum(tables, budget)
    got = sum(float(t[int(phi[i])]) for t, i in zip(tables, active_idx))
    assert got == pytest.approx(opt, rel=1e-12, abs=1e-9)
    return path


def random_instance(rng):
    """Kernel inputs shaped like EMAScheduler's (idle = const + V * tail)."""
    n_users = int(rng.integers(1, 16))
    n_active = int(rng.integers(1, n_users + 1))
    budget = int(rng.integers(1, 80))
    active_idx = np.sort(rng.choice(n_users, size=n_active, replace=False))
    w_eff = rng.integers(0, budget + 2, size=n_active).astype(np.int64)
    slope = rng.normal(-5.0, 10.0, size=n_active)
    const = rng.uniform(-50.0, 500.0, size=n_active)
    tail = np.where(rng.random(n_active) < 0.5, 0.0, rng.uniform(0.0, 800.0, n_active))
    idle = const + tail
    return n_users, active_idx.astype(np.int64), w_eff, slope, const, idle, budget


class TestRandomizedParity:
    def test_certified_allocations_match_the_dp(self):
        rng = np.random.default_rng(29)
        paths = {CLOSED: 0, CERTIFIED: 0, None: 0}
        for _ in range(RNG_TRIALS):
            paths[check_instance(*random_instance(rng))] += 1
        # The draw must exercise both certified shapes, not just refuse.
        assert paths[CLOSED] > 20 and paths[CERTIFIED] > 20, paths

    def test_integer_coefficients_hit_break_evens(self):
        # Small integers make exact ties and segment-end breaks common.
        rng = np.random.default_rng(31)
        refused = 0
        for _ in range(RNG_TRIALS):
            n_users, idx, w, _s, _c, _i, budget = random_instance(rng)
            slope = rng.integers(-6, 3, size=idx.size).astype(float)
            const = rng.integers(0, 10, size=idx.size).astype(float)
            idle = const + rng.integers(0, 8, size=idx.size)
            refused += check_instance(n_users, idx, w, slope, const, idle, budget) is None
        assert refused > 0


class TestAdversarial:
    def test_shared_slope_break_takes_the_fallback(self):
        # Slot 0: seeded queues give every user at one power one slope,
        # so the budget splits across a tie group.
        n = 12
        idx = np.arange(n, dtype=np.int64)
        w = np.full(n, 10, dtype=np.int64)
        slope = np.repeat([-3.0, -2.0, -1.0], 4)
        const = np.full(n, 5.0)
        idle = const.copy()
        phi = np.zeros(n, dtype=np.int64)
        assert certified_slot_solve(phi, idx, w, slope, const, idle, 25) is None
        assert not phi.any()

    def test_shared_slope_without_split_is_certified(self):
        # The budget fills the steeper tie group whole and stops short
        # of the next one: the optimum is unique.
        n = 8
        idx = np.arange(n, dtype=np.int64)
        w = np.full(n, 5, dtype=np.int64)
        slope = np.repeat([-4.0, -1.0], 4)
        const = np.full(n, 2.0)
        idle = const + 0.5
        assert check_instance(n, idx, w, slope, const, idle, 20) == CERTIFIED

    def test_zero_slope_transmitter_takes_the_fallback(self):
        idx = np.arange(2, dtype=np.int64)
        w = np.array([4, 3], dtype=np.int64)
        slope = np.array([0.0, -1.0])
        const = np.array([1.0, 1.0])
        idle = np.array([3.0, 1.0])
        phi = np.zeros(2, dtype=np.int64)
        assert certified_slot_solve(phi, idx, w, slope, const, idle, 50) is None

    def test_zero_slope_idler_is_certified(self):
        idx = np.arange(2, dtype=np.int64)
        w = np.array([4, 3], dtype=np.int64)
        slope = np.array([0.0, -1.0])
        const = np.array([3.0, 1.0])
        idle = np.array([1.0, 1.0])
        assert check_instance(2, idx, w, slope, const, idle, 50) == CLOSED

    @pytest.mark.parametrize("slope0, idle0", [(2.0, 12.0), (-2.0, 4.0)])
    def test_idle_equal_to_transmit_cost_takes_the_fallback(self, slope0, idle0):
        # idle == const + slope * phi exactly at the best end of [1, w]:
        # phi = 1 for the rising cost, phi = w = 3 for the falling one.
        idx = np.arange(2, dtype=np.int64)
        w = np.array([3, 2], dtype=np.int64)
        slope = np.array([slope0, 1.0])
        const = np.array([10.0, 0.0])
        idle = np.array([idle0, 4.0])
        phi = np.zeros(2, dtype=np.int64)
        assert certified_slot_solve(phi, idx, w, slope, const, idle, 40) is None

    def test_pure_no_transmit_users_are_ignored(self):
        # w = 0 marks zero windows and non-finite power; their slope is
        # never read, whatever it holds.
        n_users = 6
        idx = np.array([0, 1, 2, 4, 5], dtype=np.int64)
        w = np.array([0, 7, 0, 9, 4], dtype=np.int64)
        slope = np.array([np.nan, -3.0, np.inf, -1.5, 2.0])
        const = np.array([4.0, 5.0, 6.0, 7.0, 8.0])
        idle = const + np.array([1.0, 2.0, 0.0, 3.0, 0.5])
        for budget in (1, 5, 12, 40):
            assert check_instance(n_users, idx, w, slope, const, idle, budget) in (
                CLOSED,
                CERTIFIED,
            )

    def test_non_finite_live_coefficients_take_the_fallback(self):
        idx = np.arange(2, dtype=np.int64)
        w = np.array([3, 3], dtype=np.int64)
        for bad in ("slope", "const", "idle"):
            coeffs = {
                "slope": np.array([-1.0, -2.0]),
                "const": np.array([1.0, 1.0]),
                "idle": np.array([2.0, 2.0]),
            }
            coeffs[bad][1] = np.inf
            phi = np.zeros(2, dtype=np.int64)
            assert (
                certified_slot_solve(
                    phi, idx, w, coeffs["slope"], coeffs["const"], coeffs["idle"], 4
                )
                is None
            ), bad

    def test_budget_covering_every_window_is_closed(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n_users, idx, w, slope, const, idle, _ = random_instance(rng)
            budget = int(w.sum()) + int(rng.integers(0, 5))
            if budget < 1:
                continue
            assert check_instance(n_users, idx, w, slope, const, idle, budget) in (
                CLOSED,
                None,
            )

    def test_budget_of_one_unit(self):
        rng = np.random.default_rng(41)
        certified = 0
        for _ in range(100):
            n_users, idx, _w, slope, const, idle, _ = random_instance(rng)
            w = np.minimum(rng.integers(0, 4, size=idx.size), 2).astype(np.int64)
            certified += check_instance(n_users, idx, w, slope, const, idle, 1) is not None
        assert certified > 0

    def test_windows_capped_at_budget_plus_one(self):
        # EMAScheduler caps w at n_states = budget + 1: one unit more
        # than any feasible allocation can give a single user.
        rng = np.random.default_rng(43)
        for _ in range(100):
            n_users, idx, _w, slope, const, idle, budget = random_instance(rng)
            w = np.full(idx.size, budget + 1, dtype=np.int64)
            check_instance(n_users, idx, w, slope, const, idle, budget)

    def test_fixed_charge_split_takes_the_fallback(self):
        # const > idle: the LP splits the user's 0->w chord, but five
        # units cost 16 - 15 = 1 more than idling, so the LP's residual
        # allocation is wrong here and only the DP may answer.
        idx = np.array([0], dtype=np.int64)
        w = np.array([10], dtype=np.int64)
        args = (1, idx, w, np.array([-3.0]), np.array([16.0]), np.array([0.0]), 5)
        assert run_dp(ema_dp_numpy, *args).tolist() == [0]
        assert check_instance(*args) is None

    def test_single_user_filling_the_budget(self):
        idx = np.array([0], dtype=np.int64)
        w = np.array([11], dtype=np.int64)
        args = (1, idx, w, np.array([-2.0]), np.array([3.0]), np.array([3.0]), 10)
        assert check_instance(*args) == CERTIFIED


class TestTolerance:
    def test_tolerance_scales_with_size_and_magnitude(self):
        const = np.array([1.0, -2.0])
        idle = np.array([3.0, 0.5])
        slope = np.array([-4.0, 1.0])
        tol = certificate_tolerance(2, 10, const, idle, slope)
        eps = np.finfo(float).eps
        assert tol == pytest.approx(16 * 3 * eps * (3.0 + 2.0 + 40.0) + 1e-12)
        assert certificate_tolerance(4, 10, const, idle, slope) > tol
        assert certificate_tolerance(2, 10, const * 1e6, idle * 1e6, slope) > tol

    def test_margin_below_tolerance_takes_the_fallback(self):
        # Two users whose costs differ by far less than tol.
        idx = np.arange(2, dtype=np.int64)
        w = np.array([5, 5], dtype=np.int64)
        slope = np.array([-1.0, -1.0 - 1e-13])
        const = np.array([1e3, 1e3])
        idle = const.copy()
        phi = np.zeros(2, dtype=np.int64)
        assert certified_slot_solve(phi, idx, w, slope, const, idle, 7) is None

    def test_gap_under_the_dp_threshold_takes_the_fallback(self):
        # User 1 fills the budget 3 * 2**-42 (< 1e-12) cheaper than
        # user 0: the DP's backtrack keeps the later user idle on a win
        # that small, so only the fallback reproduces its answer.
        idx = np.arange(2, dtype=np.int64)
        w = np.array([3, 3], dtype=np.int64)
        slope = np.array([-1.0, -1.0 - 2.0**-42])
        zeros = np.zeros(2)
        args = (2, idx, w, slope, zeros, zeros, 3)
        assert run_dp(ema_dp_numpy, *args).tolist() == [3, 0]
        phi = np.zeros(2, dtype=np.int64)
        assert certified_slot_solve(phi, idx, w, slope, zeros, zeros, 3) is None

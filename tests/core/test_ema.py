"""Tests for EMA (Algorithm 2): DP exactness, queue dynamics, behaviour."""

import numpy as np
import pytest

from repro.core.allocation import check_constraints
from repro.core.ema import EMAScheduler, trailing_window_min
from repro.core.knapsack import exact_slot_minimum
from repro.errors import ConfigurationError
from repro.kernels import use_backend

from tests.conftest import make_obs


class TestTrailingWindowMin:
    def test_empty_window_at_zero(self):
        out = trailing_window_min(np.array([5.0, 1.0, 3.0]), 2)
        assert np.isinf(out[0])

    def test_matches_naive(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 60))
            w = int(rng.integers(1, 15))
            v = rng.normal(size=n) * 10
            out = trailing_window_min(v, w)
            ref = np.array(
                [v[max(0, m - w) : m].min() if m > 0 else np.inf for m in range(n)]
            )
            np.testing.assert_allclose(out, ref)

    def test_window_larger_than_array(self):
        v = np.array([3.0, 1.0, 2.0])
        out = trailing_window_min(v, 100)
        np.testing.assert_allclose(out, [np.inf, 3.0, 1.0])

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            trailing_window_min(np.array([1.0]), 0)

    def test_empty_input_gives_empty_output(self):
        out = trailing_window_min(np.array([]), 3)
        assert out.shape == (0,)

    @pytest.mark.parametrize("window", [1, 2, 3, 10])
    def test_nan_input_raises(self, window):
        # A NaN's effect on a minimum depends on where it sits in the
        # window, so it is rejected rather than given an arbitrary answer.
        with pytest.raises(ConfigurationError):
            trailing_window_min(np.array([np.nan, 1.0, 2.0]), window)
        with pytest.raises(ConfigurationError):
            trailing_window_min(np.array([1.0, 2.0, np.nan]), window)


def ema_cost_tables(ema, obs, pc):
    """Rebuild the f(i, phi) tables the DP should be minimising."""
    tables, idx = [], []
    for i in range(obs.n_users):
        if not obs.active[i]:
            continue
        w = int(min(obs.link_units[i], np.ceil(obs.remaining_kb[i] / obs.delta_kb)))
        if not np.isfinite(obs.p_mj_per_kb[i]):
            w = 0
        f = np.empty(w + 1)
        f[0] = pc[i] * obs.tau_s + ema.v_param * obs.idle_tail_cost_mj[i]
        for phi in range(1, w + 1):
            e_trans = ema.v_param * obs.p_mj_per_kb[i] * phi * obs.delta_kb
            t = phi * obs.delta_kb / obs.rate_kbps[i]
            f[phi] = e_trans + pc[i] * (obs.tau_s - t)
        tables.append(f)
        idx.append(i)
    return tables, idx


class TestDPExactness:
    def test_matches_reference_dp(self, rng):
        for trial in range(120):
            n = int(rng.integers(1, 6))
            budget = int(rng.integers(1, 15))
            obs = make_obs(
                n_users=n,
                unit_budget=budget,
                link_units=rng.integers(0, 7, n),
                rate_kbps=rng.uniform(300, 600, n),
                p_mj_per_kb=rng.uniform(0.2, 4.0, n),
                active=rng.random(n) < 0.85,
                remaining_kb=rng.uniform(50, 1e6, n),
                idle_tail_cost_mj=rng.uniform(0, 800, n),
            )
            ema = EMAScheduler(n, v_param=float(rng.uniform(0.01, 2.0)), queue_init=0.0)
            ema.allocate(obs)  # trigger lazy queue seeding first
            pc = rng.normal(0, 40, n)
            ema.queues.values = pc.copy()
            phi = ema.allocate(obs)
            check_constraints(phi, obs)
            tables, idx = ema_cost_tables(ema, obs, pc)
            if not tables:
                assert phi.sum() == 0
                continue
            opt_val, _ = exact_slot_minimum(tables, budget)
            my_val = sum(tables[k][int(phi[i])] for k, i in enumerate(idx))
            assert my_val == pytest.approx(opt_val, abs=1e-8)

    def test_infinite_power_user_excluded(self):
        obs = make_obs(
            n_users=2, p_mj_per_kb=[np.inf, 0.5], link_units=[10, 10], unit_budget=50
        )
        ema = EMAScheduler(2, v_param=0.1)
        ema.queues.values = np.array([100.0, 100.0])
        ema._initialized[:] = True
        phi = ema.allocate(obs)
        assert phi[0] == 0
        assert phi[1] > 0


    @pytest.mark.parametrize("pc_zero_rate", [100.0, 0.0], ids=["slope-inf", "slope-nan"])
    def test_non_finite_slope_user_excluded_on_every_backend(self, pc_zero_rate):
        # A zero rate makes user 1's slope pc / 0: -inf, or nan when its
        # queue is empty.  Users 0 and 2 tie and split the budget, so the
        # DP runs; both kernels must skip user 1 and agree.
        results = []
        for backend in ("numpy", "python"):
            with use_backend(backend):
                obs = make_obs(
                    n_users=3,
                    rate_kbps=[450.0, 0.0, 450.0],
                    link_units=[2, 2, 2],
                    unit_budget=3,
                )
                ema = EMAScheduler(3, v_param=0.1)
                ema.queues.values = np.array([100.0, pc_zero_rate, 100.0])
                ema._initialized[:] = True
                phi = ema.allocate(obs)
                assert ema.solver_counts["fallback"] == 1
                results.append(phi.tolist())
        assert results[0] == results[1]
        assert results[0][1] == 0
        assert sum(results[0]) == 3


class TestQueueDynamics:
    def test_notify_applies_eq16(self):
        ema = EMAScheduler(2, v_param=0.1, queue_init=0.0)
        obs = make_obs(n_users=2, rate_kbps=[400.0, 400.0])
        ema.allocate(obs)  # seeds queues (at zero)
        phi = np.array([2, 0])
        delivered = np.array([80.0, 0.0])  # t = 0.2 s and 0 s
        ema.notify(obs, phi, delivered)
        assert ema.queues.values[0] == pytest.approx(1.0 - 0.2)
        assert ema.queues.values[1] == pytest.approx(1.0)

    def test_inactive_queues_frozen(self):
        ema = EMAScheduler(2, v_param=0.1, queue_init=0.0)
        obs = make_obs(n_users=2, active=[True, False])
        ema.allocate(obs)
        ema.notify(obs, np.zeros(2, dtype=np.int64), np.zeros(2))
        assert ema.queues.values[1] == 0.0

    def test_queue_floor_clamps(self):
        ema = EMAScheduler(1, v_param=0.1, queue_floor_s=-5.0, queue_init=0.0)
        obs = make_obs(n_users=1, rate_kbps=[400.0])
        ema.allocate(obs)
        # Deliver a huge shard: raw queue would go far negative.
        ema.notify(obs, np.array([100]), np.array([4000.0]))
        assert ema.queues.values[0] == -5.0

    def test_auto_seed_scales_with_v_and_rate(self):
        ema = EMAScheduler(2, v_param=0.5, typical_p_mj_per_kb=1.0)
        obs = make_obs(n_users=2, rate_kbps=[300.0, 600.0])
        ema.allocate(obs)
        np.testing.assert_allclose(ema.queues.values, [150.0, 300.0])

    def test_reset_clears_state(self):
        ema = EMAScheduler(1, v_param=0.1)
        obs = make_obs(n_users=1)
        ema.allocate(obs)
        ema.reset()
        assert ema.queues.values[0] == 0.0
        assert not ema._initialized.any()


class TestBehaviour:
    def test_positive_queue_pressure_transmits(self):
        ema = EMAScheduler(1, v_param=0.01, queue_init=0.0)
        obs = make_obs(n_users=1, unit_budget=100)
        ema.allocate(obs)
        ema.queues.values = np.array([50.0])  # heavy rebuffering pressure
        phi = ema.allocate(obs)
        assert phi[0] > 0

    def test_deep_negative_queue_idles(self):
        ema = EMAScheduler(1, v_param=0.01, queue_init=0.0)
        obs = make_obs(n_users=1, unit_budget=100, idle_tail_cost_mj=[0.0])
        ema.allocate(obs)
        ema.queues.values = np.array([-500.0])  # huge prefetched credit
        phi = ema.allocate(obs)
        assert phi[0] == 0

    def test_tail_cost_induces_batching(self):
        # Idle-cost pricing: a user in DCH tail keeps transmitting even
        # with mildly negative queue, because idling costs V * tail.
        ema = EMAScheduler(1, v_param=1.0, queue_init=0.0)
        obs = make_obs(
            n_users=1, unit_budget=100, idle_tail_cost_mj=[732.0],
            p_mj_per_kb=[0.2], rate_kbps=[400.0],
        )
        ema.allocate(obs)
        ema.queues.values = np.array([-1.0])
        phi_with_tail = ema.allocate(obs)
        ema.queues.values = np.array([-1.0])
        obs_no_tail = make_obs(
            n_users=1, unit_budget=100, idle_tail_cost_mj=[0.0],
            p_mj_per_kb=[0.2], rate_kbps=[400.0],
        )
        phi_no_tail = ema.allocate(obs_no_tail)
        assert phi_with_tail[0] > 0
        assert phi_no_tail[0] == 0

    def test_larger_v_transmits_less_under_pressure(self):
        obs = make_obs(n_users=1, unit_budget=100, p_mj_per_kb=[2.0])
        allocations = []
        for v in (0.001, 10.0):
            ema = EMAScheduler(1, v_param=v, queue_init=0.0)
            ema.allocate(obs)
            ema.queues.values = np.array([5.0])
            allocations.append(int(ema.allocate(obs)[0]))
        assert allocations[0] > allocations[1]

    def test_user_count_mismatch_raises(self):
        ema = EMAScheduler(3)
        with pytest.raises(ConfigurationError):
            ema.allocate(make_obs(n_users=2))

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, v_param=0.0)
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, queue_floor_s=1.0)
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, queue_init="bogus")
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, queue_init=-1.0)
        with pytest.raises(ConfigurationError):
            EMAScheduler(1, typical_p_mj_per_kb=0.0)

"""Bit-identity of the loop (numba-source) kernels vs the numpy kernels.

Every registered kernel has a vectorised numpy implementation and a
loop implementation (the numba source, run interpreted here).  The
backend contract is *bit-identity* — same output bytes for the same
inputs — which is what lets ``SimConfig.kernel_backend`` switch
backends without perturbing any result.  These tests hammer each pair
with randomized instances shaped like the production call sites.

On machines with Numba the same checks run against the JIT-compiled
kernels too (the compiled function executes the loop source).
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kernels import SlotArena, available_backends, registry
from repro.kernels.ema_dp import FSCRATCH_PER_STATE

RNG_TRIALS = 200

#: Backends to pit against the numpy reference.
ALT_BACKENDS = [b for b in available_backends() if b != "numpy"]


def resolve_pair(name, alt):
    return registry.resolve(name, "numpy"), registry.resolve(name, alt)


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestEmaDpParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("ema_dp", alt)
        rng = np.random.default_rng(7)
        for _ in range(RNG_TRIALS):
            n_users = int(rng.integers(1, 8))
            n_active = int(rng.integers(1, n_users + 1))
            n_states = int(rng.integers(1, 40))
            active_idx = np.sort(
                rng.choice(n_users, size=n_active, replace=False)
            ).astype(np.int64)
            w_eff = rng.integers(0, n_states + 1, size=n_active).astype(np.int64)
            origin = w_eff - w_eff // 2 - 1
            slope = rng.normal(0.0, 5.0, size=n_active)
            const = rng.uniform(0.0, 10.0, size=n_active)
            idle = rng.uniform(0.0, 5.0, size=n_active)
            m_idx = np.arange(n_states, dtype=float)

            outs = []
            for kern in (k_np, k_alt):
                phi = np.zeros(n_users, dtype=np.int64)
                rows = np.empty((n_active, n_states), dtype=float)
                fscratch = np.empty(FSCRATCH_PER_STATE * n_states, dtype=float)
                iscratch = np.empty(n_states, dtype=np.int64)
                m_star = kern(
                    phi,
                    active_idx,
                    w_eff,
                    origin,
                    slope,
                    const,
                    idle,
                    rows,
                    m_idx,
                    fscratch,
                    iscratch,
                )
                outs.append((int(m_star), phi.tobytes(), rows.tobytes()))
            assert outs[0] == outs[1]

    def test_randomized_wide(self, alt):
        # Up to ~300 states with windows up to n_states: the doubling
        # minimum's deep passes and its +inf padding at full width.
        k_np, k_alt = resolve_pair("ema_dp", alt)
        rng = np.random.default_rng(17)
        for _ in range(RNG_TRIALS):
            n_users = int(rng.integers(1, 8))
            n_active = int(rng.integers(1, n_users + 1))
            n_states = int(rng.integers(1, 301))
            active_idx = np.sort(
                rng.choice(n_users, size=n_active, replace=False)
            ).astype(np.int64)
            w_eff = rng.integers(0, n_states + 1, size=n_active).astype(np.int64)
            w_eff[rng.random(n_active) < 0.3] = n_states
            coeffs = (
                rng.normal(0.0, 5.0, size=n_active),
                rng.uniform(0.0, 10.0, size=n_active),
                rng.uniform(0.0, 5.0, size=n_active),
            )
            outs = [
                run_ema_dp(kern, n_users, active_idx, w_eff, *coeffs, n_states)
                for kern in (k_np, k_alt)
            ]
            assert outs[0] == outs[1]

    def test_non_finite_slope_lanes(self, alt):
        # The schedulers give a lane with a non-finite slope w_eff = 0;
        # both kernels must then skip it alike, whatever the slope holds.
        k_np, k_alt = resolve_pair("ema_dp", alt)
        rng = np.random.default_rng(19)
        for _ in range(RNG_TRIALS):
            n_active = int(rng.integers(1, 8))
            n_states = int(rng.integers(1, 60))
            active_idx = np.arange(n_active, dtype=np.int64)
            w_eff = rng.integers(1, n_states + 1, size=n_active).astype(np.int64)
            slope = rng.normal(0.0, 5.0, size=n_active)
            bad = rng.random(n_active) < 0.4
            slope[bad] = rng.choice([np.nan, np.inf, -np.inf], size=int(bad.sum()))
            w_eff[bad] = 0
            const = rng.uniform(0.0, 10.0, size=n_active)
            idle = rng.uniform(0.0, 5.0, size=n_active)
            outs = [
                run_ema_dp(kern, n_active, active_idx, w_eff, slope, const, idle, n_states)
                for kern in (k_np, k_alt)
            ]
            assert outs[0] == outs[1]
        # The three-user case the schedulers used to send with w = 2.
        w_eff = np.array([2, 0, 2], dtype=np.int64)
        for mid in (np.nan, np.inf, -np.inf):
            slope = np.array([-1.0, mid, -2.0])
            outs = [
                run_ema_dp(kern, 3, np.arange(3), w_eff, slope, np.zeros(3), np.ones(3), 6)
                for kern in (k_np, k_alt)
            ]
            assert outs[0] == outs[1]
            assert outs[0][0] == 4


def run_ema_dp(kern, n_users, active_idx, w_eff, slope, const, idle, n_states):
    """One ``ema_dp`` call on fresh buffers: ``(m*, phi bytes, rows bytes)``."""
    n_active = active_idx.size
    phi = np.zeros(n_users, dtype=np.int64)
    rows = np.empty((n_active, n_states), dtype=float)
    m_star = kern(
        phi,
        active_idx.astype(np.int64),
        w_eff,
        w_eff - w_eff // 2 - 1,
        slope,
        const,
        idle,
        rows,
        np.arange(n_states, dtype=float),
        np.empty(FSCRATCH_PER_STATE * n_states, dtype=float),
        np.empty(n_states, dtype=np.int64),
    )
    return int(m_star), phi.tobytes(), rows.tobytes()


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestRtmaRoundsParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("rtma_rounds", alt)
        rng = np.random.default_rng(11)
        for _ in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            eligible = rng.random(n) < 0.7
            need = rng.integers(1, 10, size=n).astype(np.int64)
            cap = rng.integers(0, 20, size=n).astype(np.int64)
            order = np.argsort(rng.uniform(0, 1, size=n), kind="stable")
            budget = int(rng.integers(0, 60))

            outs = []
            for kern in (k_np, k_alt):
                phi = np.zeros(n, dtype=np.int64)
                left = kern(phi, eligible, need, cap, order, budget)
                outs.append((int(left), phi.tobytes()))
            assert outs[0] == outs[1]

    def test_rounds_one_by_one(self, alt, monkeypatch):
        # Instances past the closed form's grid size run the rounds one
        # at a time; both numpy paths must match the sequential scan.
        from repro.kernels import rtma_rounds

        k_np, k_alt = resolve_pair("rtma_rounds", alt)
        rng = np.random.default_rng(29)
        for cells in (0, rtma_rounds._GRID_CELLS):
            monkeypatch.setattr(rtma_rounds, "_GRID_CELLS", cells)
            for _ in range(RNG_TRIALS):
                n = int(rng.integers(1, 12))
                eligible = rng.random(n) < 0.7
                need = rng.integers(-2, 10, size=n).astype(np.int64)
                cap = rng.integers(-3, 20, size=n).astype(np.int64)
                phi0 = rng.integers(0, 4, size=n).astype(np.int64)
                order = np.argsort(rng.uniform(0, 1, size=n), kind="stable")
                budget = int(rng.integers(-2, 60))
                outs = []
                for kern in (k_np, k_alt):
                    phi = phi0.copy()
                    left = kern(phi, eligible, need, cap, order, budget)
                    outs.append((int(left), phi.tobytes()))
                assert outs[0] == outs[1]


def _fleet_state(rng, n):
    size = rng.uniform(100.0, 5000.0, size=n)
    delivered = np.minimum(rng.uniform(0.0, 6000.0, size=n), size)
    # A fraction of users are exactly fully delivered.
    exact = rng.random(n) < 0.3
    delivered[exact] = size[exact]
    dplay = rng.uniform(0.0, 50.0, size=n)
    elapsed = np.minimum(rng.uniform(0.0, 60.0, size=n), dplay)
    done = rng.random(n) < 0.3
    elapsed[done] = dplay[done]
    return size, delivered, dplay, elapsed


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestFleetBeginSlotParity:
    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("fleet_begin_slot", alt)
        rng = np.random.default_rng(13)
        for trial in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            slot = int(rng.integers(0, 30))
            tau = float(rng.uniform(0.5, 2.0))
            cap = np.inf if trial % 3 == 0 else float(rng.uniform(5.0, 60.0))
            arrival = rng.integers(0, 25, size=n).astype(np.int64)
            size, delivered, dplay, elapsed = _fleet_state(rng, n)
            rates = rng.uniform(50.0, 700.0, size=n)
            occ = rng.uniform(0.0, 40.0, size=n)
            carried = np.maximum(occ - tau, 0.0)
            dp = np.stack([dplay, rng.uniform(0.0, 5.0, size=n)])
            ea = np.stack([elapsed, rng.uniform(0.0, 20.0, size=n)])

            outs = []
            for kern in (k_np, k_alt):
                f1 = [np.empty(n) for _ in range(2)]  # carried, occ
                f2 = [np.empty((2, n)) for _ in range(3)]  # dp, ea, pr
                # arrived, active, complete
                b = [np.empty(n, dtype=bool) for _ in range(3)]
                remaining = np.empty(n)
                # The fleet keeps the uncapped receiver window at +inf.
                receivable = np.full(n, np.inf)
                fs, bs = np.empty(2 * n), np.empty(3 * n, dtype=bool)
                kern(
                    slot, tau, cap, arrival, size, size - 1e-9, delivered, rates,
                    carried, occ, dp, ea,
                    f1[0], f1[1], f2[0], f2[1], f2[2], b[0], b[1], b[2],
                    remaining, receivable, fs, bs,
                )
                outs.append(
                    b"".join(a.tobytes() for a in f1 + f2 + b)
                    + remaining.tobytes()
                    + receivable.tobytes()
                )
            assert outs[0] == outs[1]


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestFleetDeliverParity:
    @staticmethod
    def _run(kern, cap, offer, rates, check, remaining, receivable, delivered, dp):
        n = offer.shape[0]
        delivered_out, accepted = np.empty(n), np.empty(n)
        dp_out = np.empty((2, n))
        fs, bs = np.empty(2 * n), np.empty(4 * n, dtype=bool)
        err = kern(
            cap, offer, rates, check, remaining, receivable, delivered, dp,
            delivered_out, dp_out, accepted, fs, bs,
        )
        return int(err), delivered_out.tobytes() + dp_out.tobytes() + accepted.tobytes()

    def test_randomized(self, alt):
        k_np, k_alt = resolve_pair("fleet_deliver", alt)
        rng = np.random.default_rng(17)
        for trial in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            cap = np.inf if trial % 3 == 0 else float(rng.uniform(5.0, 60.0))
            offer = rng.uniform(0.0, 800.0, size=n)
            rates = rng.uniform(50.0, 700.0, size=n)
            size, delivered, dplay, _ = _fleet_state(rng, n)
            remaining = np.maximum(size - delivered, 0.0)
            receivable = rng.uniform(0.0, 900.0, size=n)
            receivable[rng.random(n) < 0.3] = 0.0
            dp = np.stack([dplay, rng.uniform(0.0, 5.0, size=n)])
            args = (cap, offer, rates, bool(trial % 2), remaining, receivable, delivered, dp)
            assert self._run(k_np, *args) == self._run(k_alt, *args)

    def test_error_code_on_nonpositive_rate(self, alt):
        k_np, k_alt = resolve_pair("fleet_deliver", alt)
        args = (
            np.inf,
            np.array([10.0, 10.0]),
            np.array([0.0, 300.0]),
            True,
            np.array([100.0, 100.0]),
            np.full(2, np.inf),
            np.zeros(2),
            np.zeros((2, 2)),
        )
        for kern in (k_np, k_alt):
            assert self._run(kern, *args)[0] == 1


@pytest.mark.parametrize("alt", ALT_BACKENDS)
class TestRrcParity:
    def test_step_randomized(self, alt):
        k_np, k_alt = resolve_pair("rrc_step", alt)
        rng = np.random.default_rng(19)
        for _ in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            tx = rng.random(n) < 0.4
            k = rng.integers(0, 20, size=n).astype(np.int64)
            never = rng.random(n) < 0.3
            table = rng.uniform(0.0, 900.0, size=21)
            table[0] = 0.0

            outs = []
            for kern in (k_np, k_alt):
                k_out = np.empty(n, dtype=np.int64)
                never_out = np.empty(n, dtype=bool)
                tail_out = np.empty(n)
                kern(tx, table, k, never, k_out, never_out, tail_out)
                outs.append(k_out.tobytes() + never_out.tobytes() + tail_out.tobytes())
            assert outs[0] == outs[1]

    def test_idle_cost_randomized(self, alt):
        k_np, k_alt = resolve_pair("rrc_idle_cost", alt)
        rng = np.random.default_rng(23)
        for _ in range(RNG_TRIALS):
            n = int(rng.integers(1, 12))
            costs = rng.uniform(0.0, 900.0, size=int(rng.integers(1, 30)))
            k = rng.integers(0, costs.size, size=n).astype(np.int64)
            never = rng.random(n) < 0.3

            outs = []
            for kern in (k_np, k_alt):
                out = np.empty(n)
                kern(costs, k, never, out)
                outs.append(out.tobytes())
            assert outs[0] == outs[1]


def test_idle_cost_table_matches_tail_differences():
    # Each entry is the per-device Eq. (4) increment, bit for bit.
    from repro.kernels.rrc_step import idle_cost_table
    from repro.radio.rrc import RRCParams

    rng = np.random.default_rng(31)
    for _ in range(RNG_TRIALS):
        p = RRCParams(*rng.uniform(0.0, 1200.0, 2), *rng.uniform(0.0, 8.0, 2))
        dt = float(rng.uniform(0.1, 2.0))
        ages = [0.0]
        for _ in range(40):
            ages.append(ages[-1] + dt)
        table = idle_cost_table(ages, p.pd_mw, p.pf_mw, p.t1_s, p.t2_s)
        assert table[0].tobytes() == np.float64(0.0).tobytes()
        for k in (0, 1, 7, 39):
            want = p.tail_energy_mj(ages[k + 1]) - p.tail_energy_mj(ages[k])
            assert table[k + 1].tobytes() == np.float64(want).tobytes()


class TestSlotArena:
    def test_buffer_shapes_and_dtypes(self):
        arena = SlotArena(7)
        assert arena.n_users == 7
        for name in ("tx_mask", "done", "b1_tmp", "stall"):
            buf = getattr(arena, name)
            assert buf.shape == (7,) and buf.dtype == bool
        for name in (
            "idle_tail_cost_mj",
            "want_kb",
            "offer_kb",
            "accepted_kb",
            "drained_kb",
        ):
            buf = getattr(arena, name)
            assert buf.shape == (7,) and buf.dtype == np.float64

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            SlotArena(0)

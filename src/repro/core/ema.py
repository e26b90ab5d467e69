"""EMA — Energy Minimization Algorithm (paper Section V, Algorithm 2).

EMA minimizes average energy subject to an average rebuffering bound by
the Lyapunov drift-plus-penalty method: each slot it solves

    min  sum_i f(i, phi_i)            (Eq. 22)
    s.t. constraints (1) and (2)

where, with virtual queue ``PC_i`` (Eq. 16) and ``t_i = delta*phi_i/p_i``,

    f(i, phi) = V * E_i(phi) + PC_i * (tau - t_i)
    E_i(phi)  = P(sig_i) * phi * delta     (phi >= 1, Eq. 3)
    E_i(0)    = this slot's incremental tail energy (Eqs. 4-5).

The per-slot problem is a fixed-charge linear knapsack (a
multiple-choice knapsack in the paper's terms), solved exactly in two
stages: a certified closed form, and Algorithm 2's dynamic program over
the total unit count ``M`` as its fallback.

Implementation note — certified closed form, DP fallback
--------------------------------------------------------
For ``phi >= 1`` the cost is *affine* in ``phi``:
``f(i, phi) = PC_i*tau + slope_i*phi`` with
``slope_i = delta * (V*P_i - PC_i/p_i)``, and ``f(i, 0)`` is the idle
cost.  :func:`repro.core.slot_solver.certified_slot_solve` first solves
the slot by Lagrangian duality in O(N log N): each user alone takes its
best of ``{0, 1, w_i}`` when that fits the budget, and otherwise the
greedy LP relaxation over each user's cost hull yields a multiplier
``lam`` under which every user but at most one (the break user, who
takes the residual units) has a unique reduced-cost choice.  It accepts
the allocation only when every other feasible allocation costs more by
``Delta > tol = 16 * (N + 1) * eps * B + 1e-12``, with
``B = sum_i max(|f(i,0)|, |PC_i*tau|) + max_i |slope_i| * M``: a gap
that exceeds the DP's worst-case rounding, so the DP would return the
same allocation bit for bit.

Calls it cannot certify (ties — the seeded slot-0 queues give every user
at the same power one slope — or margins under ``tol``) run the fused DP
kernel :mod:`repro.kernels.ema_dp`.  Its transition

    a[i][M] = min(a[i-1][M] + f(i,0),
                  min_{1<=phi<=w_i} a[i-1][M-phi] + f(i,phi))

becomes, for the transmit branch,

    PC_i*tau + slope_i*M + min_{M-w_i <= k <= M-1} (a[i-1][k] - slope_i*k)

— a trailing-window minimum, instead of the naive O(M * w_i) scan.  The
numpy kernel takes it as ``ceil(log2 w_i)`` doubling passes of
``np.minimum`` (:func:`repro.kernels.ema_dp.window_min`, which also
backs :func:`trailing_window_min`); the loop kernel keeps a monotonic
deque, O(M) per user.  Neither imports scipy.

Both stages are *exact*: ``tests/core/test_ema.py`` cross-checks the
scheduler against the brute-force reference in :mod:`repro.core.knapsack`,
and ``tests/core/test_slot_solver.py`` pins the closed form byte-equal
to the DP.
"""

from __future__ import annotations

import numpy as np

from repro import constants
from repro.core.lyapunov import VirtualQueues
from repro.core.scheduler import Scheduler
from repro.core.slot_solver import CERTIFIED, CLOSED, certified_slot_solve
from repro.errors import ConfigurationError
from repro.kernels import registry as kernel_registry
from repro.kernels.ema_dp import FSCRATCH_PER_STATE, window_min
from repro.net.gateway import SlotObservation

__all__ = ["EMAScheduler", "FALLBACK", "publish_queue_gauges", "trailing_window_min"]

#: Path name of a slot the closed form could not certify (the DP ran).
FALLBACK = "fallback"


def _new_solver_counts() -> dict[str, int]:
    """Zeroed per-run solver path tallies (see ``EMAScheduler.solver_counts``)."""
    return {CLOSED: 0, CERTIFIED: 0, FALLBACK: 0, "fallback_cells": 0}


def publish_queue_gauges(metrics, pc: np.ndarray) -> None:
    """Set the ``ema.virtual_queues*`` gauges from the queue vector ``pc``."""
    metrics.gauge("ema.virtual_queues").set(pc.copy())
    metrics.gauge("ema.virtual_queue_max_s").set(float(pc.max()))


def trailing_window_min(values: np.ndarray, window: int) -> np.ndarray:
    """``out[M] = min(values[max(0, M-window) : M])`` (empty -> +inf).

    The trailing window *excludes* index ``M`` itself — exactly the
    ``k = M - phi`` range for ``phi in [1, window]``.  NaN has no place
    in a minimum, so NaN input raises :class:`ConfigurationError`.
    """
    if window <= 0:
        raise ConfigurationError("window must be positive")
    v = np.asarray(values, dtype=float)
    if np.isnan(v).any():
        raise ConfigurationError("trailing_window_min input contains NaN")
    w = min(window, v.size)
    # The DP kernel's doubling minimum over the input shifted one slot
    # right (+inf first), so the window ending at M covers v[M-w : M].
    pad = w // 2
    end = pad + v.size
    buf = np.full(2 * end, np.inf)
    buf[pad + 1 : end] = v[:-1]
    return window_min(buf[:end], buf[end:], pad, end, w)


class _EmaScratch:
    """Preallocated buffers for the per-slot DP kernel call.

    The per-user coefficient vectors are sized once for the fleet; the
    state-dimension buffers (value-table rows, DP scratch, the float
    ``arange``) grow monotonically with the largest ``n_states`` seen,
    so the steady-state slot loop performs no allocations.
    """

    def __init__(self, n_users: int):
        self.p = np.empty(n_users, dtype=float)
        self.rate = np.empty(n_users, dtype=float)
        self.pc = np.empty(n_users, dtype=float)
        self.tmp = np.empty(n_users, dtype=float)
        self.f1 = np.empty(n_users, dtype=float)
        self.f2 = np.empty(n_users, dtype=float)
        self.slope = np.empty(n_users, dtype=float)
        self.const = np.empty(n_users, dtype=float)
        self.idle = np.empty(n_users, dtype=float)
        self.useful = np.empty(n_users, dtype=np.int64)
        self.w_eff = np.empty(n_users, dtype=np.int64)
        self.origin = np.empty(n_users, dtype=np.int64)
        self.mask = np.empty(n_users, dtype=bool)
        self._rows_flat = np.empty(0, dtype=float)
        self._fscratch = np.empty(0, dtype=float)
        self._iscratch = np.empty(0, dtype=np.int64)
        self._m_idx = np.empty(0, dtype=float)

    def dp_buffers(self, n_active: int, n_states: int):
        """(rows, m_idx, fscratch, iscratch) views sized for this slot."""
        if self._rows_flat.size < n_active * n_states:
            self._rows_flat = np.empty(n_active * n_states, dtype=float)
        n_float = FSCRATCH_PER_STATE * n_states
        if self._fscratch.size < n_float:
            self._fscratch = np.empty(n_float, dtype=float)
        if self._iscratch.size < n_states:
            self._iscratch = np.empty(n_states, dtype=np.int64)
        if self._m_idx.size < n_states:
            self._m_idx = np.arange(n_states, dtype=float)
        rows = self._rows_flat[: n_active * n_states].reshape(n_active, n_states)
        return (
            rows,
            self._m_idx[:n_states],
            self._fscratch[:n_float],
            self._iscratch[:n_states],
        )


class EMAScheduler(Scheduler):
    """Algorithm 2: Lyapunov drift-plus-penalty with exact per-slot DP.

    Parameters
    ----------
    n_users:
        Number of users (fixes the virtual-queue dimension).
    v_param:
        The Lyapunov trade-off weight ``V``: larger values privilege
        energy over rebuffering (Theorem 1: energy gap O(1/V),
        rebuffering O(V)).
    tau_s:
        Slot length, seconds.
    queue_floor_s:
        Optional lower clamp on ``PC_i``.  ``None`` reproduces the
        paper (unbounded negative queues = unlimited prefetch credit);
        a finite floor, e.g. ``-60``, bounds how far ahead EMA will
        push media, mimicking a client buffer cap.
    queue_init:
        Initial virtual-queue value.  Drift-plus-penalty transmits only
        once ``PC_i`` climbs past ``~V * P * p_i``, so zero-initialised
        queues (the literal Eq. 16 reading) stall every user for
        ``O(V)`` seconds *at session start* — an artifact the
        infinite-horizon Theorem 1 averages away but finite sessions
        feel keenly.  The standard remedy is a place-holder backlog:
        ``"auto"`` (default) seeds ``PC_i(0) = V * P_typ * p_i`` so
        users begin ~one duty cycle ahead and batching happens around a
        prefetched buffer instead of around recurring stalls.  Pass a
        float for an explicit seed (seconds), or ``0.0`` for the
        literal paper initialisation.  The ``bench_ablation_ema_init``
        benchmark quantifies the difference.
    typical_p_mj_per_kb:
        The ``P_typ`` used by ``queue_init="auto"``; 1.0 mJ/KB is the
        mean of the paper's Eq. (24) fit over its signal range.
    """

    name = "ema"

    def __init__(
        self,
        n_users: int,
        v_param: float = 1.0,
        tau_s: float = constants.DEFAULT_TAU_S,
        queue_floor_s: float | None = None,
        queue_init: str | float = "auto",
        typical_p_mj_per_kb: float = 1.0,
    ):
        if v_param <= 0:
            raise ConfigurationError("v_param must be positive")
        if queue_floor_s is not None and queue_floor_s > 0:
            raise ConfigurationError("queue_floor_s must be <= 0 when given")
        if isinstance(queue_init, str):
            if queue_init != "auto":
                raise ConfigurationError("queue_init must be 'auto' or a float")
        elif queue_init < 0:
            raise ConfigurationError("queue_init seconds must be >= 0")
        if typical_p_mj_per_kb <= 0:
            raise ConfigurationError("typical_p_mj_per_kb must be positive")
        self.n_users = int(n_users)
        self.v_param = float(v_param)
        self.tau_s = float(tau_s)
        self.queue_floor_s = queue_floor_s
        self.queue_init = queue_init
        self.typical_p_mj_per_kb = float(typical_p_mj_per_kb)
        self.queues = VirtualQueues(self.n_users, self.tau_s)
        self._initialized = np.zeros(self.n_users, dtype=bool)
        self._scratch = _EmaScratch(self.n_users)
        self._kernel = None
        #: Slots solved per path since :meth:`reset` (``closed``,
        #: ``certified``, ``fallback``) and the fallback DP's table cells.
        self.solver_counts = _new_solver_counts()

    # -- scheduling -----------------------------------------------------------

    def allocate(self, obs: SlotObservation) -> np.ndarray:
        if obs.n_users != self.n_users:
            raise ConfigurationError(
                f"observation has {obs.n_users} users, scheduler built for {self.n_users}"
            )
        phi = self._zeros(obs)
        self._seed_queues(obs)
        active_idx = np.flatnonzero(obs.active)
        if active_idx.size == 0 or obs.unit_budget <= 0:
            return phi

        budget = int(obs.unit_budget)
        pc = self.queues.values
        v = self.v_param
        tau = self.tau_s
        delta = obs.delta_kb
        n_active = int(active_idx.size)
        n_states = budget + 1
        s = self._scratch

        # Affine transmit cost f(i, phi) = const_i + slope_i * phi and
        # idle cost f(i, 0) = const_i + V * tail_i, with const_i = PC_i * tau.
        # The per-user coefficients are gathered into preallocated
        # scratch in one vectorised pass with the element-wise operation
        # order of the original expressions, so the coefficients — and
        # hence the allocations — are bit-identical (guarded by
        # tests/core/test_ema.py's brute-force cross-check).
        p_act = np.take(obs.p_mj_per_kb, active_idx, out=s.p[:n_active])
        rate_act = np.take(obs.rate_kbps, active_idx, out=s.rate[:n_active])
        pc_act = np.take(pc, active_idx, out=s.pc[:n_active])
        const_act = s.const[:n_active]
        np.multiply(pc_act, tau, out=const_act)
        idle_act = s.idle[:n_active]
        np.take(obs.idle_tail_cost_mj, active_idx, out=idle_act)
        np.multiply(idle_act, v, out=idle_act)
        np.add(const_act, idle_act, out=idle_act)
        slope_act = s.slope[:n_active]
        tmp = s.tmp[:n_active]
        with np.errstate(invalid="ignore", divide="ignore"):
            # Lanes with non-finite P, zero rate or an infinite queue
            # produce inf/nan slopes here; they are masked to no-tx
            # below, so neither solver reads the slope.
            np.multiply(p_act, v, out=slope_act)
            np.divide(pc_act, rate_act, out=tmp)
            np.subtract(slope_act, tmp, out=slope_act)
            np.multiply(slope_act, delta, out=slope_act)

        # Per-user transmit cap: link constraint (1), remaining bytes,
        # and the client's receiver window.  w_eff = 0 marks the pure
        # no-tx users: zero window or a non-finite slope (non-finite P
        # gives one); the DP backends would treat a NaN slope apart.
        sendable = np.take(obs.remaining_kb, active_idx, out=s.f1[:n_active])
        recv = np.take(obs.receivable_kb, active_idx, out=s.f2[:n_active])
        np.minimum(sendable, recv, out=sendable)
        np.divide(sendable, delta, out=sendable)
        np.ceil(sendable, out=sendable)
        useful = s.useful[:n_active]
        np.copyto(useful, sendable, casting="unsafe")
        w_eff = s.w_eff[:n_active]
        np.take(obs.link_units, active_idx, out=w_eff)
        np.minimum(w_eff, useful, out=w_eff)
        np.minimum(w_eff, n_states, out=w_eff)
        mask = s.mask[:n_active]
        np.isfinite(slope_act, out=mask)
        np.logical_not(mask, out=mask)
        np.copyto(w_eff, 0, where=mask)

        path = certified_slot_solve(
            phi, active_idx, w_eff, slope_act, const_act, idle_act, budget
        )
        if path is not None:
            self._count_path(path)
            return phi

        # Fallback: one fused kernel call, DP forward pass + trailing-
        # window min + backtrack (Steps 6-15 of Algorithm 2).  The DP
        # uses "total units *at most* M" semantics (the level-0
        # predecessor is identically zero), so leftover capacity after
        # the backtrack is simply unused budget.
        origin_act = s.origin[:n_active]
        np.floor_divide(w_eff, 2, out=origin_act)
        np.subtract(w_eff, origin_act, out=origin_act)
        np.subtract(origin_act, 1, out=origin_act)
        rows, m_idx, fscratch, iscratch = s.dp_buffers(n_active, n_states)
        if self._kernel is None:
            self._kernel = kernel_registry.resolve("ema_dp")
        self._kernel(
            phi,
            active_idx,
            w_eff,
            origin_act,
            slope_act,
            const_act,
            idle_act,
            rows,
            m_idx,
            fscratch,
            iscratch,
        )
        self._count_path(FALLBACK, n_active * n_states)
        return phi

    def tally_path(self, path: str, dp_cells: int = 0) -> None:
        """Count one solved slot (and its DP cells) in ``solver_counts``."""
        counts = self.solver_counts
        counts[path] += 1
        counts["fallback_cells"] += dp_cells

    def publish_solver_counts(self, metrics) -> None:
        """Add this run's tallies to ``metrics`` as ``ema.solver.*`` counters.

        Only paths taken get a counter, as in :meth:`_count_path`; the
        run-stacked batch uses this to report each run's share.
        """
        for key, count in self.solver_counts.items():
            if count:
                metrics.counter("ema.solver." + key).inc(count)

    def _count_path(self, path: str, dp_cells: int = 0) -> None:
        """Tally one solved slot; mirror it into ``ema.solver.*`` counters.

        The counters exist only in instrumented runs, created on first
        use, so uninstrumented runs leave no trace of them.
        """
        self.tally_path(path, dp_cells)
        instr = self.instrumentation
        if instr is not None:
            instr.metrics.counter("ema.solver." + path).inc()
            if dp_cells:
                instr.metrics.counter("ema.solver.fallback_cells").inc(dp_cells)

    def _seed_queues(self, obs: SlotObservation) -> None:
        """Apply the place-holder backlog at each user's first active slot."""
        fresh = obs.active & ~self._initialized
        if not np.any(fresh):
            return
        if self.queue_init == "auto":
            seed = self.v_param * self.typical_p_mj_per_kb * obs.rate_kbps
        else:
            seed = np.full(obs.n_users, float(self.queue_init))
        self.queues.values = np.where(fresh, seed, self.queues.values)
        self._initialized |= fresh

    # -- feedback -------------------------------------------------------------

    def notify(
        self, obs: SlotObservation, phi: np.ndarray, delivered_kb: np.ndarray
    ) -> None:
        """Update the virtual queues with the *delivered* media (Eq. 16)."""
        t = np.asarray(delivered_kb, dtype=float) / obs.rate_kbps
        self.queues.update(t, obs.active)
        if self.queue_floor_s is not None:
            np.maximum(self.queues.values, self.queue_floor_s, out=self.queues.values)
        instr = self.instrumentation
        if instr is not None:
            # Lyapunov policies are diagnosed through their virtual-queue
            # trajectories: publish PC_i(n) after every update.
            pc = self.queues.values
            publish_queue_gauges(instr.metrics, pc)
            if instr.tracer.enabled:
                instr.tracer.emit(
                    "ema.queues", slot=int(obs.slot), v=self.v_param, pc_s=pc.copy()
                )

    def reset(self) -> None:
        self.queues.reset()
        self._initialized = np.zeros(self.n_users, dtype=bool)
        self.solver_counts = _new_solver_counts()
        # Re-resolve on next allocate so an ambient use_backend() block
        # entered after construction (the engine's cfg.kernel_backend)
        # governs the kernel choice.
        self._kernel = None

    # -- dynamic session lifecycle --------------------------------------------

    def grow_users(self, n_users: int) -> None:
        """Resize the virtual-queue dimension to the fleet's row count.

        Existing rows keep their ``PC_i`` and seeding flag bit-for-bit;
        new rows come up zeroed/unseeded like a fresh run (they seed at
        their first active slot via :meth:`_seed_queues`).  A churn run
        may also shrink it once at run start — before any state has
        accrued — to match the engine's small initial capacity.
        """
        n = int(n_users)
        if n <= 0:
            raise ConfigurationError("n_users must be positive")
        if n == self.n_users:
            return
        keep = min(self.n_users, n)
        values = np.zeros(n, dtype=float)
        values[:keep] = self.queues.values[:keep]
        initialized = np.zeros(n, dtype=bool)
        initialized[:keep] = self._initialized[:keep]
        self.queues = VirtualQueues(n, self.tau_s)
        self.queues.values = values
        self._initialized = initialized
        self._scratch = _EmaScratch(n)
        self.n_users = n

    def release_users(self, rows) -> None:
        """Clear queue state of vacated rows so recycling starts fresh."""
        self.queues.values[rows] = 0.0
        self._initialized[rows] = False

"""Radio Resource Control (RRC) state machine and per-slot tail accounting.

The paper models 3G RRC with three states — CELL_DCH (high power),
CELL_FACH (medium power), CELL_IDLE — and two demotion timers ``T1``
(DCH -> FACH) and ``T2`` (FACH -> IDLE).  LTE collapses to two states
(RRC_CONNECTED / RRC_IDLE), which this machine expresses as ``T2 = 0``
or ``Pf = 0`` parameterisations (see :mod:`repro.radio.profiles`).

Per the paper's Eq. (5), a slot's energy is *either* transmission
energy (when data units are allocated) *or* tail energy (when idle);
:class:`RRCStateMachine` tracks the idle age between transmissions and
emits the per-slot *incremental* tail energy, whose cumulative sum over
any idle gap matches the closed form of Eq. (4) exactly
(property-tested in ``tests/radio/test_rrc.py``).

:class:`RRCFleet` is the vectorised multi-user variant used by the
simulation engine.  It keeps each device's state as the integer count
of slots since its last transmission: idle ages are sums of equal slot
lengths, so the per-slot increment is a lookup in a table of Eq. (4)
differences — the idle-cost preview (which EMA prices) and the slot's
tail alike, so one slot of RRC accounting costs a handful of array
operations however the timers are set.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro import constants
from repro.arrays import as_array
from repro.errors import ConfigurationError
from repro.kernels import registry as kernel_registry
from repro.kernels.rrc_step import idle_cost_table
from repro.radio.tail import max_tail_energy_mj, tail_energy_mj

_BOOL = np.dtype(bool)

__all__ = [
    "RRCState",
    "RRCParams",
    "RRCStateMachine",
    "RRCFleet",
    "fleet_occupancy_from_tx",
    "fleet_state_grid_from_tx",
    "tail_split_from_tx",
]


class RRCState(enum.Enum):
    """Radio states, mapped onto 3G names (LTE uses DCH/IDLE only)."""

    DCH = "CELL_DCH"
    FACH = "CELL_FACH"
    IDLE = "CELL_IDLE"


@dataclass(frozen=True)
class RRCParams:
    """RRC power/timer parameters.

    Attributes
    ----------
    pd_mw, pf_mw:
        Instantaneous power in the high (DCH / RRC_CONNECTED) and
        medium (FACH) states, mW.
    t1_s, t2_s:
        Demotion timers: high -> medium after ``t1_s`` idle seconds,
        medium -> idle after a further ``t2_s``.
    """

    pd_mw: float = constants.POWER_DCH_MW
    pf_mw: float = constants.POWER_FACH_MW
    t1_s: float = constants.TIMER_T1_S
    t2_s: float = constants.TIMER_T2_S

    def __post_init__(self) -> None:
        if self.pd_mw < 0 or self.pf_mw < 0:
            raise ConfigurationError("state powers must be non-negative")
        if self.t1_s < 0 or self.t2_s < 0:
            raise ConfigurationError("timers must be non-negative")

    @property
    def max_tail_mj(self) -> float:
        """Full cost of one complete tail, ``Pd*T1 + Pf*T2``."""
        return max_tail_energy_mj(self.pd_mw, self.pf_mw, self.t1_s, self.t2_s)

    def tail_energy_mj(self, gap_s):
        """Closed-form Eq. (4) with these parameters."""
        return tail_energy_mj(gap_s, self.pd_mw, self.pf_mw, self.t1_s, self.t2_s)


class RRCStateMachine:
    """Single-device RRC machine with incremental tail-energy accounting.

    Usage: call :meth:`step` once per slot with whether the device
    received data during that slot; the return value is the tail energy
    accrued *during that slot* (zero for transmitting slots — their
    energy is the separately-computed transmission energy, Eq. 5).

    A freshly-created machine is IDLE with no pending tail.
    """

    def __init__(self, params: RRCParams | None = None):
        self.params = params if params is not None else RRCParams()
        self.idle_age_s: float = self.params.t1_s + self.params.t2_s
        self._ever_transmitted = False

    @property
    def state(self) -> RRCState:
        """Current radio state derived from the idle age."""
        if self.idle_age_s <= 0.0:
            return RRCState.DCH
        if not self._ever_transmitted:
            return RRCState.IDLE
        if self.idle_age_s < self.params.t1_s:
            return RRCState.DCH
        if self.idle_age_s < self.params.t1_s + self.params.t2_s:
            return RRCState.FACH
        return RRCState.IDLE

    def step(self, transmitting: bool, dt_s: float) -> float:
        """Advance one slot; return the slot's tail energy in mJ."""
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        if transmitting:
            self.idle_age_s = 0.0
            self._ever_transmitted = True
            return 0.0
        if not self._ever_transmitted:
            # Never promoted: no tail to pay.
            return 0.0
        before = self.params.tail_energy_mj(self.idle_age_s)
        self.idle_age_s += dt_s
        after = self.params.tail_energy_mj(self.idle_age_s)
        return float(after - before)

    def expected_idle_cost_mj(self, dt_s: float) -> float:
        """Tail energy this device *would* pay if idle for the next slot.

        Used by energy-aware schedulers (EMA) to price the
        ``phi_i(n) = 0`` branch of Eq. (5) without mutating state.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        if not self._ever_transmitted:
            return 0.0
        return float(
            self.params.tail_energy_mj(self.idle_age_s + dt_s)
            - self.params.tail_energy_mj(self.idle_age_s)
        )


class RRCFleet:
    """Vectorised RRC machines for ``n_users`` devices.

    Semantically identical to ``n_users`` independent
    :class:`RRCStateMachine` instances (property-tested), but steps the
    whole fleet with a handful of NumPy operations per slot.

    The state is integral: per device, the slots ``k`` since its last
    transmission (or since it was created or reset) and whether it has
    never transmitted.  A device's idle age is then one of two
    sequences built by repeated addition of the slot length — ``0.0,
    dt, dt + dt, ...`` once promoted, ``T1 + T2, T1 + T2 + dt, ...``
    before — so :attr:`idle_age_s` is exactly the age a scalar machine
    accumulates, and the slot's tail increment is a lookup in a table
    of Eq. (4) differences along the first sequence (see
    :mod:`repro.kernels.rrc_step`).  The tables are built for one slot
    length, fixed by the first call.
    """

    def __init__(self, n_users: int, params: RRCParams | None = None):
        if n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        self.params = params if params is not None else RRCParams()
        self._step_kernel = None
        self._idle_kernel = None
        #: Slot length the tables below are built for (first call).
        self._dt: float | None = None
        #: Idle ages along the promoted and the never-promoted sequence.
        self._promoted_ages = [0.0]
        self._fresh_ages = [self.params.t1_s + self.params.t2_s]
        #: ``table[k]``: Eq. (4) increment of the slot that leaves a
        #: promoted device ``k`` slots idle (``table[0] = 0``), and
        #: ``costs = table[1:]`` the preview's view of it.
        self._table = np.zeros(1)
        self._costs = self._table[1:]
        #: Upper bound of every device's ``k`` (one more per step).
        self._k_max = 0
        self._allocate(int(n_users))

    def _allocate(self, n: int) -> None:
        self.n_users = n
        # Double buffers for the step kernel: it reads the current
        # bindings and writes the alternates; bindings swap on return.
        self._k = np.zeros(n, dtype=np.int64)
        self._never = np.ones(n, dtype=bool)
        self._k_alt = np.empty(n, dtype=np.int64)
        self._never_alt = np.empty(n, dtype=bool)
        self._tail = np.empty(n, dtype=float)

    @property
    def idle_age_s(self) -> np.ndarray:
        """Seconds since each device's last transmission (fresh copy)."""
        k_top = int(self._k.max(initial=0))
        promoted = np.array(self._promoted_ages[: k_top + 1])
        fresh = np.array(self._fresh_ages[: k_top + 1])
        return np.where(self._never, fresh[self._k], promoted[self._k])

    @property
    def ever_transmitted(self) -> np.ndarray:
        """Devices that have transmitted since creation or reset (fresh copy)."""
        return ~self._never

    def _extend(self, dt_s: float) -> None:
        """Bind the slot length and cover every reachable ``k``."""
        if self._dt is None:
            self._dt = dt_s
        elif dt_s != self._dt:
            raise ConfigurationError(
                f"RRC fleet steps in slots of {self._dt} s, not {dt_s} s"
            )
        if self._k_max < self._costs.shape[0]:
            return
        size = 2 * (self._k_max + 1)
        for ages in (self._promoted_ages, self._fresh_ages):
            while len(ages) <= size:
                ages.append(ages[-1] + dt_s)
        p = self.params
        self._table = idle_cost_table(
            self._promoted_ages[: size + 1], p.pd_mw, p.pf_mw, p.t1_s, p.t2_s
        )
        self._costs = self._table[1:]

    def grow(self, new_n_users: int) -> None:
        """Resize to ``new_n_users`` devices, preserving existing state.

        Existing devices keep their idle age and promotion flag
        bit-for-bit; new devices come up IDLE with no pending tail —
        exactly like a freshly-created machine.
        """
        old = self.n_users
        if new_n_users <= old:
            raise ConfigurationError("grow requires new_n_users > current n_users")
        k, never = self._k, self._never
        self._allocate(int(new_n_users))
        self._k[:old] = k
        self._never[:old] = never

    def reset_rows(self, rows) -> None:
        """Return devices to the fresh IDLE state (session departed).

        Clearing the promotion ends any pending tail: a vacated row
        accrues no further tail energy until its next occupant
        transmits.
        """
        self._k[rows] = 0
        self._never[rows] = True

    def step(
        self,
        transmitting: np.ndarray,
        dt_s: float,
        instrumentation=None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Advance all devices one slot.

        Parameters
        ----------
        transmitting:
            Boolean mask, shape ``(n_users,)``.
        dt_s:
            Slot length in seconds (the same on every call).
        instrumentation:
            Optional :class:`~repro.obs.instrument.Instrumentation`;
            when given, the per-state occupancy (user-slots in
            DCH/FACH/IDLE after this step) and the slot's aggregate
            tail accrual are added to its metrics registry.

        Returns
        -------
        Tail energy accrued this slot per device, mJ (zero where
        transmitting) — a fresh array, or ``out`` filled in place.
        """
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        tx = as_array(transmitting, _BOOL)
        if tx.shape != (self.n_users,):
            raise ConfigurationError(
                f"transmitting mask must have shape ({self.n_users},), got {tx.shape}"
            )
        self._extend(dt_s)
        if self._step_kernel is None:
            self._step_kernel = kernel_registry.resolve("rrc_step")
        tail = out if out is not None else self._tail
        self._step_kernel(
            tx, self._table, self._k, self._never, self._k_alt, self._never_alt, tail
        )
        self._k, self._k_alt = self._k_alt, self._k
        self._never, self._never_alt = self._never_alt, self._never
        self._k_max += 1
        if instrumentation is not None:
            metrics = instrumentation.metrics
            counts = self.state_counts()
            metrics.counter("rrc.occupancy.dch").inc(counts["dch"])
            metrics.counter("rrc.occupancy.fach").inc(counts["fach"])
            metrics.counter("rrc.occupancy.idle").inc(counts["idle"])
            metrics.counter("rrc.tail_mj").inc(float(tail.sum()))
        if out is not None:
            return out
        return tail.copy()

    def state_counts(self) -> dict[str, int]:
        """Vectorised per-state device counts ``{"dch", "fach", "idle"}``.

        Matches :meth:`states` element-for-element (tested) but runs in
        a handful of NumPy ops — cheap enough to call every slot from
        the instrumented engine.
        """
        t1, t2 = self.params.t1_s, self.params.t2_s
        age = self.idle_age_s
        dch = (age <= 0.0) | (self.ever_transmitted & (age < t1))
        fach = ~dch & self.ever_transmitted & (age < t1 + t2)
        n_dch = int(dch.sum())
        n_fach = int(fach.sum())
        return {"dch": n_dch, "fach": n_fach, "idle": self.n_users - n_dch - n_fach}

    def expected_idle_cost_mj(
        self, dt_s: float, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Vectorised :meth:`RRCStateMachine.expected_idle_cost_mj`:
        a fresh array, or ``out`` filled in place."""
        if dt_s <= 0:
            raise ConfigurationError("dt_s must be positive")
        self._extend(dt_s)
        if self._idle_kernel is None:
            self._idle_kernel = kernel_registry.resolve("rrc_idle_cost")
        cost = out if out is not None else np.empty(self.n_users)
        self._idle_kernel(self._costs, self._k, self._never, cost)
        return cost

    def occupancy_from_tx(self, tx: np.ndarray, dt_s: float) -> dict[str, int]:
        """Batch :meth:`state_counts` totals for a whole run, see
        :func:`fleet_occupancy_from_tx`."""
        return fleet_occupancy_from_tx(tx, dt_s, self.params)

    def states(self) -> list[RRCState]:
        """Current per-device states (for inspection/plotting)."""
        out: list[RRCState] = []
        t1, t2 = self.params.t1_s, self.params.t2_s
        for age, ever in zip(self.idle_age_s, self.ever_transmitted):
            if age <= 0.0:
                out.append(RRCState.DCH)
            elif not ever:
                out.append(RRCState.IDLE)
            elif age < t1:
                out.append(RRCState.DCH)
            elif age < t1 + t2:
                out.append(RRCState.FACH)
            else:
                out.append(RRCState.IDLE)
        return out


def fleet_occupancy_from_tx(
    tx: np.ndarray, dt_s: float, params: RRCParams | None = None
) -> dict[str, int]:
    """Total user-slots spent in each RRC state over a whole run.

    ``tx`` is the ``(n_slots, n_users)`` boolean transmission history of
    a *freshly created* :class:`RRCFleet` stepped once per row.  The
    returned ``{"dch", "fach", "idle"}`` totals equal the sum of
    :meth:`RRCFleet.state_counts` taken after every step (tested) — but
    computed in one vectorised pass, which is how the instrumented
    engine accounts occupancy without paying per-slot numpy dispatch in
    the hot loop.
    """
    if dt_s <= 0:
        raise ConfigurationError("dt_s must be positive")
    params = params if params is not None else RRCParams()
    tx = np.asarray(tx, dtype=bool)
    if tx.ndim != 2:
        raise ConfigurationError("tx history must be 2-D (n_slots, n_users)")
    if tx.size == 0:
        return {"dch": 0, "fach": 0, "idle": 0}
    n_slots = tx.shape[0]
    slots = np.arange(n_slots)[:, None]
    # Slot index of each device's most recent transmission (-1: never).
    last = np.maximum.accumulate(np.where(tx, slots, -1), axis=0)
    ever = last >= 0
    age_s = (slots - last) * dt_s
    dch = ever & ((age_s <= 0.0) | (age_s < params.t1_s))
    fach = ever & ~dch & (age_s < params.t1_s + params.t2_s)
    n_dch = int(np.count_nonzero(dch))
    n_fach = int(np.count_nonzero(fach))
    return {"dch": n_dch, "fach": n_fach, "idle": int(tx.size) - n_dch - n_fach}


def fleet_state_grid_from_tx(
    tx: np.ndarray, dt_s: float, params: RRCParams | None = None
) -> np.ndarray:
    """Per-(slot, user) RRC state codes reconstructed from a tx history.

    ``tx`` is the ``(n_slots, n_users)`` boolean transmission history of
    a freshly-created :class:`RRCFleet` stepped once per row.  Returns
    an ``int8`` grid with ``0 = DCH``, ``1 = FACH``, ``2 = IDLE`` —
    the state *after* each slot's step, matching
    :meth:`RRCFleet.state_counts` taken after every step.  Summing the
    grid's state counts reproduces :func:`fleet_occupancy_from_tx`
    (tested), but the grid keeps the per-user residency that trace
    analysis and run reports need.
    """
    if dt_s <= 0:
        raise ConfigurationError("dt_s must be positive")
    params = params if params is not None else RRCParams()
    tx = np.asarray(tx, dtype=bool)
    if tx.ndim != 2:
        raise ConfigurationError("tx history must be 2-D (n_slots, n_users)")
    if tx.size == 0:
        return np.zeros(tx.shape, dtype=np.int8)
    n_slots = tx.shape[0]
    slots = np.arange(n_slots)[:, None]
    last = np.maximum.accumulate(np.where(tx, slots, -1), axis=0)
    ever = last >= 0
    age_s = (slots - last) * dt_s
    dch = ever & ((age_s <= 0.0) | (age_s < params.t1_s))
    fach = ever & ~dch & (age_s < params.t1_s + params.t2_s)
    grid = np.full(tx.shape, 2, dtype=np.int8)
    grid[fach] = 1
    grid[dch] = 0
    return grid


def tail_split_from_tx(
    tx: np.ndarray, dt_s: float, params: RRCParams | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Split per-slot tail energy into its DCH and FACH components.

    Returns ``(dch_mj, fach_mj)`` grids of shape ``(n_slots, n_users)``
    whose sum equals the engine's recorded incremental tail energy
    exactly (tested): a non-transmitting slot at idle age ``a`` accrues
    ``Pd * |[a, a+dt] ∩ [0, T1]| + Pf * |[a, a+dt] ∩ [T1, T1+T2]|``,
    which is the increment of the Eq. (4) closed form.  Transmitting
    slots and never-promoted devices accrue nothing in either bucket.
    """
    if dt_s <= 0:
        raise ConfigurationError("dt_s must be positive")
    params = params if params is not None else RRCParams()
    tx = np.asarray(tx, dtype=bool)
    if tx.ndim != 2:
        raise ConfigurationError("tx history must be 2-D (n_slots, n_users)")
    zeros = np.zeros(tx.shape, dtype=float)
    if tx.size == 0:
        return zeros, zeros.copy()
    n_slots = tx.shape[0]
    slots = np.arange(n_slots)[:, None]
    last = np.maximum.accumulate(np.where(tx, slots, -1), axis=0)
    accruing = ~tx & (last >= 0)
    # Idle age spanned during slot s: [a0, a1] with a1 = (s - last) * dt
    # (the fleet resets the age to 0 on a transmitting slot, so the
    # first idle slot after a transmission spans [0, dt]).
    a1 = (slots - last) * dt_s
    a0 = a1 - dt_s
    t1, t2 = params.t1_s, params.t2_s
    dch = params.pd_mw * (np.minimum(a1, t1) - np.minimum(a0, t1))
    fach = params.pf_mw * (np.clip(a1 - t1, 0.0, t2) - np.clip(a0 - t1, 0.0, t2))
    return np.where(accruing, dch, 0.0), np.where(accruing, fach, 0.0)

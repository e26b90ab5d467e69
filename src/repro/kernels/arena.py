"""Engine-owned scratch arena for the allocation-free slot pipeline.

One :class:`SlotArena` per run preallocates the per-user buffers the
steady-state slot loop needs beyond the fleets' own state and slot view
(:meth:`repro.media.fleet.ClientFleet.slot_view`): the RRC idle-cost
preview, the transmit path's offer and accepted vectors, and — on
churn runs — the row-space result rows.  Outside lifecycle events
(and the link table's block refills) the slot loop allocates no
array.

Lifetime contract: every buffer is valid only within the slot that
filled it — the next slot overwrites it.  The engine
copies whatever outlives the slot (result grids, trace payloads) before
the next iteration, and schedulers consume their observation within the
same slot by construction.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["SlotArena"]


class SlotArena:
    """Reused per-user buffers for one simulation run.

    Attributes back the observation's ``idle_tail_cost_mj``, the
    transmit path (``want_kb``, ``offer_kb``, ``accepted_kb``,
    ``drained_kb``, ``b1_tmp``) and the engine's per-slot masks
    (``tx_mask``, ``done``).

    When rows and sessions do not coincide (churn runs), the engine
    additionally gathers the slot's fault stalls into row space
    (``stall``) and keeps three row-space result rows (``rebuf_s``,
    ``trans_mj``, ``tail_mj``); it can :meth:`grow` the arena in
    lockstep with the fleet so kernels stay allocation-free once the
    population stops growing.
    """

    def __init__(self, n_users: int):
        if n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        self.n_users = int(n_users)
        self._allocate(self.n_users)

    def _allocate(self, n: int) -> None:
        self.idle_tail_cost_mj = np.empty(n, dtype=float)
        self.want_kb = np.empty(n, dtype=float)
        self.offer_kb = np.empty(n, dtype=float)
        self.accepted_kb = np.empty(n, dtype=float)
        self.drained_kb = np.empty(n, dtype=float)
        self.tx_mask = np.empty(n, dtype=bool)
        self.done = np.empty(n, dtype=bool)
        self.b1_tmp = np.empty(n, dtype=bool)
        self.stall = np.empty(n, dtype=bool)
        self.rebuf_s = np.empty(n, dtype=float)
        self.trans_mj = np.empty(n, dtype=float)
        self.tail_mj = np.empty(n, dtype=float)

    def grow(self, new_n_users: int) -> None:
        """Resize every buffer to ``new_n_users`` rows.

        Arena buffers hold no cross-slot state (each is valid only
        within the slot that filled it), so growth is a plain
        reallocation — callers must grow between slots.
        """
        if new_n_users <= self.n_users:
            raise ConfigurationError("grow requires new_n_users > current n_users")
        self.n_users = int(new_n_users)
        self._allocate(self.n_users)

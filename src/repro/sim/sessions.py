"""Session lifecycle bookkeeping for the engine's slot loop.

:class:`SessionManager` separates two index spaces:

* **session space** — the workload's ``n_users`` offered sessions,
  immutable and seed-determined.  Result grids, trace payloads, and
  summaries stay keyed by session so analysis code is population-blind.
* **row space** — the growable SoA capacity shared by
  :class:`~repro.media.fleet.ClientFleet`,
  :class:`~repro.radio.rrc.RRCFleet`,
  :class:`~repro.kernels.arena.SlotArena`, the gateway's
  :class:`~repro.net.gateway.DataReceiver`, and the scheduler's
  per-user state.  Rows are recycled lowest-index-first (a heap), so
  the mapping — and therefore the whole run — is deterministic.

The paper's fixed population is the special case where every session
is due at slot 0 in session order (``all_at_start=True``): session
``i`` takes row ``i`` and the map is the identity for the whole run
(:attr:`SessionManager.identity`), which lets the engine write its
grids straight from the row-space vectors.

The manager owns the ``session <-> row`` maps, the free-row heap, the
pending-arrival queue (sorted by ``(arrival_slot, user_id)``), and the
``joined_mask`` / ``departed_mask`` row masks the gateway observes.
Each slot's admissions and retirements are applied in one batch (one
vectorised fleet load or clear, one RRC/receiver reset, one rate-table
rebuild), and the occupied-row map is cached between them, so slots
where nobody arrives or leaves cost no lifecycle work.  Capacity
doubles on demand; every structure above grows in lockstep so kernel
backends stay allocation-free once the population stops growing.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from repro.arrays import read_only
from repro.core.admission import AcceptAllPolicy, AdmissionContext
from repro.media.fleet import _VacantRowFlow, _placeholder_video

__all__ = ["SessionManager"]

#: Rows a churn run starts with; doubles on demand.
INITIAL_CAPACITY = 4


class SessionManager:
    """Coordinate admissions, retirements, and capacity growth.

    Parameters
    ----------
    flows:
        The workload's session-space flow list (fixes ``n_sessions``).
    fleet, rrc, arena, receiver, scheduler:
        The row-space structures grown/recycled in lockstep.
    all_at_start:
        Admit every session at slot 0 in session order (the fixed
        population) instead of at its arrival slot in
        ``(arrival_slot, user_id)`` order.  The fleet still masks a
        session until its own ``arrival_slot``.
    """

    def __init__(
        self, flows, fleet, rrc, arena, receiver, scheduler, all_at_start=False
    ):
        self.flows = flows
        self.n_sessions = len(flows)
        self.fleet = fleet
        self.rrc = rrc
        self.arena = arena
        self.receiver = receiver
        self.scheduler = scheduler

        cap = fleet.n_users
        self.capacity = cap
        self.row_session = np.full(cap, -1, dtype=np.int64)
        self.session_row = np.full(self.n_sessions, -1, dtype=np.int64)
        self._free = list(range(cap))
        self.admitted = np.zeros(self.n_sessions, dtype=bool)
        self.rejected = np.zeros(self.n_sessions, dtype=bool)
        self.completed = np.zeros(self.n_sessions, dtype=bool)
        #: Rows bound to a session whose playback has not completed yet.
        self.live = np.zeros(cap, dtype=bool)
        #: Flow-shaped row views handed to the gateway (one shared
        #: placeholder on vacant rows; DPI never draws error factors for
        #: them on the paper's zero-error setting).
        self._vacant = _VacantRowFlow(user_id=-1, video=_placeholder_video())
        self.row_flows = [self._vacant] * cap
        self._joined = np.zeros(cap, dtype=bool)
        self._departed = np.zeros(cap, dtype=bool)
        self._bind_masks()
        self._masks_dirty = False
        self._departed_next: list[int] = []
        if all_at_start:
            self._due_slot = [0] * self.n_sessions
            self._pending = deque(range(self.n_sessions))
        else:
            self._due_slot = [int(f.arrival_slot) for f in flows]
            self._pending = deque(
                sorted(
                    range(self.n_sessions),
                    key=lambda s: (flows[s].arrival_slot, flows[s].user_id),
                )
            )
        self._remap()

    def _bind_masks(self) -> None:
        # Observations carry the masks; only the manager writes them.
        self.joined_mask = read_only(self._joined)
        self.departed_mask = read_only(self._departed)

    # -- per-slot protocol ----------------------------------------------------

    @property
    def active_count(self) -> int:
        """Sessions currently resident in the cell."""
        return self.capacity - len(self._free)

    def begin_slot(self, slot: int) -> list[int]:
        """Roll the join/depart masks over to ``slot``; return the
        sessions whose arrival has come, in deterministic order."""
        if self._masks_dirty:
            self._joined[:] = False
            self._departed[:] = False
            self._masks_dirty = False
        if self._departed_next:
            self._departed[self._departed_next] = True
            self._departed_next.clear()
            self._masks_dirty = True
        pending = self._pending
        if not pending or self._due_slot[pending[0]] > slot:
            return []
        if self._due_slot[pending[-1]] <= slot:
            due = list(pending)
            pending.clear()
            return due
        due = []
        while pending and self._due_slot[pending[0]] <= slot:
            due.append(pending.popleft())
        return due

    def _remap(self) -> None:
        """Refresh the cached occupied-row map after a lifecycle change."""
        occ = np.flatnonzero(self.row_session >= 0)
        #: Occupied rows (ascending) and the session bound to each.
        self.occupied = occ
        self.occupied_sessions = self.row_session[occ]
        #: Column of each row in a session-keyed table with one extra
        #: last column for vacant rows (``n_sessions``).  Replaced, never
        #: mutated, so readers may cache gathers by its identity.
        self.row_col = np.where(self.row_session >= 0, self.row_session, self.n_sessions)
        #: Row ``i`` holds session ``i`` on every row.
        self.identity = (
            occ.size == self.capacity == self.n_sessions
            and bool((self.occupied_sessions == occ).all())
        )

    def _capacity_for(self, resident: int) -> int:
        """Capacity one-at-a-time doubling reaches with ``resident`` rows."""
        cap = self.capacity
        while cap < resident:
            cap *= 2
        return cap

    # -- lifecycle transitions ------------------------------------------------

    def admit_due(self, slot: int, due, policy, unit_budget: int) -> list[int]:
        """Run ``policy`` over ``due`` and admit the accepted sessions.

        Each decision sees the resident count and row capacity that
        admitting the earlier accepted sessions one at a time would have
        left; the accepted ones then load in one :meth:`admit` batch.
        Returns each due session's row, ``-1`` for a rejection.
        """
        if isinstance(policy, AcceptAllPolicy):
            # Stateless and always true: no per-session context needed.
            self.admit(due)
            return self.session_row[due].tolist()
        accepted: list[int] = []
        for sess in due:
            resident = self.active_count + len(accepted)
            ctx = AdmissionContext(
                slot=slot,
                active_sessions=resident,
                capacity_rows=self._capacity_for(resident),
                unit_budget=unit_budget,
                flow=self.flows[sess],
            )
            if policy.admit(ctx):
                accepted.append(sess)
            else:
                self.rejected[sess] = True
        self.admit(accepted)
        return self.session_row[due].tolist()

    def admit(self, sessions) -> np.ndarray:
        """Grant each session a row, lowest free rows first, growing
        capacity (once) if needed."""
        k = len(sessions)
        if not k:
            return np.empty(0, dtype=np.intp)
        need = self.active_count + k
        if need > self.capacity:
            self.grow(self._capacity_for(need))
        free = self._free
        if k == len(free):
            rows = np.array(sorted(free), dtype=np.intp)
            free.clear()
        else:
            rows = np.array([heapq.heappop(free) for _ in range(k)], dtype=np.intp)
        sess = np.asarray(sessions, dtype=np.intp)
        flows = [self.flows[s] for s in sessions]
        self.fleet.load_rows(rows, flows)
        self.rrc.reset_rows(rows)
        self.receiver.reset_rows(rows)
        for row, flow in zip(rows.tolist(), flows):
            self.row_flows[row] = flow
        self.row_session[rows] = sess
        self.session_row[sess] = rows
        self.admitted[sess] = True
        self.live[rows] = True
        self._joined[rows] = True
        self._masks_dirty = True
        self._remap()
        return rows

    def retire(self, rows: np.ndarray) -> np.ndarray:
        """Free completed sessions' rows (ends their RRC tails); returns
        the sessions.

        The vacated rows are reported in the *next* slot's
        ``departed_mask`` (retirement happens at the end of the
        completion slot, after that slot's accounting).
        """
        sess = self.row_session[rows]
        self.fleet.clear_rows(rows)
        self.rrc.reset_rows(rows)
        self.receiver.reset_rows(rows)
        self.scheduler.release_users(rows)
        for row in rows.tolist():
            self.row_flows[row] = self._vacant
            heapq.heappush(self._free, row)
            self._departed_next.append(row)
        self.row_session[rows] = -1
        self.session_row[sess] = -1
        self.completed[sess] = True
        self.live[rows] = False
        self._remap()
        return sess

    def grow(self, new_capacity: int) -> None:
        """Double (or otherwise raise) the row capacity in lockstep."""
        old = self.capacity
        if new_capacity <= old:
            raise ValueError("grow requires new_capacity > current capacity")
        self.fleet.grow(new_capacity)
        self.rrc.grow(new_capacity)
        self.arena.grow(new_capacity)
        self.receiver.grow(new_capacity)
        self.scheduler.grow_users(new_capacity)

        def _resized(arr: np.ndarray, fill) -> np.ndarray:
            out = np.full(new_capacity, fill, dtype=arr.dtype)
            out[:old] = arr
            return out

        self.row_session = _resized(self.row_session, -1)
        self.live = _resized(self.live, False)
        self._joined = _resized(self._joined, False)
        self._departed = _resized(self._departed, False)
        self._bind_masks()
        self.row_flows.extend([self._vacant] * (new_capacity - old))
        for row in range(old, new_capacity):
            heapq.heappush(self._free, row)
        self.capacity = new_capacity
        self._remap()

"""The gateway framework of the paper's Fig. 1.

Four components sit between the Internet and the base station:

* :class:`DataReceiver` — buffers downlink video bytes fetched from the
  origin servers (per-user queues, optional fetch-ahead limit);
* :class:`InformationCollector` — assembles the cross-layer
  :class:`SlotObservation` (signal strength via the RAN, required rates
  via DPI, BS capacity via the slicer, client feedback);
* the pluggable *Scheduler* (see :mod:`repro.core.scheduler`) — decides
  the per-user data-unit allocation ``phi_i(n)``;
* :class:`DataTransmitter` — pushes the allocated shards to clients,
  truncating to what the receiver queues actually hold.

Client state is always a :class:`~repro.media.fleet.ClientFleet`
(one row per resident session).

:class:`Gateway` wires them together; the simulation engine drives one
:meth:`Gateway.step` per slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.arrays import as_array
from repro.errors import ConfigurationError, SimulationError
from repro.net.basestation import BaseStation
from repro.net.dpi import DPIInspector
from repro.net.flows import VideoFlow
from repro.net.slicing import ResourceSlicer

_F8 = np.dtype(float)


__all__ = [
    "SlotObservation",
    "BatchSlotObservation",
    "DataReceiver",
    "InformationCollector",
    "DataTransmitter",
    "Gateway",
]


@dataclass(frozen=True)
class SlotObservation:
    """Everything a scheduler may observe at the start of a slot.

    All per-user arrays have shape ``(n_users,)``.  Inactive users
    (session not started, or fully delivered) are flagged in
    ``active``; well-behaved schedulers allocate them zero units.

    The arrays describe the slot they were collected in and many of
    them are the simulation's own state (the fleet's slot view and
    occupancy, the rate table, the link-table rows, the join/depart
    masks), so those are read-only views: writing into them raises.
    ``idle_tail_cost_mj`` is the observer's own copy.
    """

    slot: int
    tau_s: float
    delta_kb: float
    #: Video-slice serving capacity S(n), KB/s.
    capacity_kbps: float
    #: Constraint (2) budget: floor(tau * S(n) / delta) units.
    unit_budget: int
    #: Per-user RSSI, dBm.
    sig_dbm: np.ndarray
    #: Observed required data rate p_i(n), KB/s.
    rate_kbps: np.ndarray
    #: Constraint (1) caps: floor(tau * v(sig_i) / delta) units.
    link_units: np.ndarray
    #: Per-KB reception energy P(sig_i), mJ/KB.
    p_mj_per_kb: np.ndarray
    #: Session started and still has bytes to receive.
    active: np.ndarray
    #: Client buffer occupancy r_i(n), seconds.
    buffer_s: np.ndarray
    #: Media bytes still to deliver, KB.
    remaining_kb: np.ndarray
    #: Tail energy the device pays if it idles this slot, mJ.
    idle_tail_cost_mj: np.ndarray
    #: Receiver window: bytes each client can accept this slot, KB
    #: (inf for uncapped buffers).
    receivable_kb: np.ndarray = None  # type: ignore[assignment]
    #: Rows whose session was admitted this slot (churn runs only;
    #: ``None`` on zero-churn runs).
    joined: np.ndarray | None = None
    #: Rows vacated since the previous slot (churn runs only; ``None``
    #: on zero-churn runs).
    departed: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.receivable_kb is None:
            object.__setattr__(
                self, "receivable_kb", np.full(self.sig_dbm.shape, np.inf)
            )

    @property
    def n_users(self) -> int:
        return self.sig_dbm.shape[0]

    @property
    def sendable_kb(self) -> np.ndarray:
        """Useful bytes per user: min(remaining media, receiver window)."""
        return np.minimum(self.remaining_kb, self.receivable_kb)


@dataclass(frozen=True)
class BatchSlotObservation(SlotObservation):
    """A :class:`SlotObservation` over R run-stacked row segments.

    The batch engine (:mod:`repro.sim.batch`) folds R shape-compatible
    runs into one ``(R*N,)`` row space; every per-user array above
    covers all R runs, with run ``r`` owning rows
    ``run_offsets[r]:run_offsets[r+1]``.  The scalar ``unit_budget`` /
    ``capacity_kbps`` fields hold cross-run aggregates (sums) for
    display only — constraint enforcement is per run through
    ``run_unit_budgets`` (see :func:`repro.core.allocation.check_constraints`
    and ``clip_to_constraints``, which branch on its presence).
    """

    #: ``(R+1,)`` int64 row bounds of each run's segment.
    run_offsets: np.ndarray | None = None
    #: ``(R,)`` int64 per-run Eq. (2) budgets.
    run_unit_budgets: np.ndarray | None = None
    #: ``(R,)`` float per-run video-slice capacity S(n), KB/s.
    run_capacity_kbps: np.ndarray | None = None

    @property
    def n_runs(self) -> int:
        return 0 if self.run_offsets is None else int(self.run_offsets.shape[0] - 1)


class DataReceiver:
    """Per-user queues of video bytes fetched from origin servers.

    The origin is modelled as always able to refill the queue up to
    ``fetch_ahead_kb`` ahead of what has been transmitted (``inf``
    reproduces the paper, where the gateway is never origin-limited).
    """

    def __init__(self, n_users: int, fetch_ahead_kb: float = float("inf")):
        if n_users <= 0:
            raise ConfigurationError("n_users must be positive")
        if fetch_ahead_kb <= 0:
            raise ConfigurationError("fetch_ahead_kb must be positive")
        self.n_users = int(n_users)
        self.fetch_ahead_kb = float(fetch_ahead_kb)
        self.queued_kb = np.zeros(self.n_users, dtype=float)
        self._fetch = np.empty(self.n_users, dtype=float)

    def refill(self, remaining_kb: np.ndarray) -> None:
        """Fetch from origin up to the fetch-ahead limit.

        ``remaining_kb`` is each session's undelivered media; queues
        never hold more than that.
        """
        remaining = as_array(remaining_kb, _F8)
        if remaining.shape != (self.n_users,):
            raise ConfigurationError("remaining_kb has wrong shape")
        fetch = self._fetch
        if self.fetch_ahead_kb == np.inf:
            # min(inf, remaining) is remaining itself.
            np.subtract(remaining, self.queued_kb, out=fetch)
        else:
            np.minimum(self.fetch_ahead_kb, remaining, out=fetch)
            np.subtract(fetch, self.queued_kb, out=fetch)
        np.maximum(fetch, 0.0, out=fetch)
        np.add(self.queued_kb, fetch, out=self.queued_kb)

    def grow(self, new_n_users: int) -> None:
        """Resize to ``new_n_users`` queues, preserving existing ones."""
        old = self.n_users
        if new_n_users <= old:
            raise ConfigurationError("grow requires new_n_users > current n_users")
        queued = np.zeros(new_n_users, dtype=float)
        queued[:old] = self.queued_kb
        self.queued_kb = queued
        self._fetch = np.empty(new_n_users, dtype=float)
        self.n_users = int(new_n_users)

    def reset_rows(self, rows) -> None:
        """Drop queue state for vacated/recycled rows."""
        self.queued_kb[rows] = 0.0

    def drain(self, amounts_kb: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Remove up to ``amounts_kb`` per user; returns what was taken."""
        req = as_array(amounts_kb, _F8)
        if req.shape != (self.n_users,):
            raise ConfigurationError("amounts_kb has wrong shape")
        if req.min() < 0:
            raise ConfigurationError("drain amounts must be non-negative")
        taken = np.minimum(req, self.queued_kb, out=out)
        np.subtract(self.queued_kb, taken, out=self.queued_kb)
        return taken


class InformationCollector:
    """Builds the :class:`SlotObservation` from cross-layer sources."""

    def __init__(self, dpi: DPIInspector | None = None):
        self.dpi = dpi if dpi is not None else DPIInspector()

    def _client_columns(self, slot, sig_row, flows, fleet):
        """Signal row and DPI rates; brings the fleet's slot view up to date."""
        n = fleet.n_users
        sig = as_array(sig_row, _F8)
        if len(flows) != n or sig.shape != (n,):
            raise SimulationError("inconsistent per-user array lengths")
        fleet.slot_view(slot)
        return sig, self.dpi.observed_rates_kbps(flows, fleet.rates_for_slot(slot))

    def collect_fleet(
        self,
        slot: int,
        sig_row: np.ndarray,
        flows: list[VideoFlow],
        fleet,
        bs: BaseStation,
        slicer: ResourceSlicer,
        link_units: np.ndarray,
        p_mj_per_kb: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        joined: np.ndarray | None = None,
        departed: np.ndarray | None = None,
    ) -> SlotObservation:
        """The slot's observation, read from a :class:`~repro.media.fleet.ClientFleet`.

        No per-user Python loops and no per-slot arrays: client
        feedback is the fleet's state and slot view (see
        :meth:`~repro.media.fleet.ClientFleet.slot_view`), the DPI rates
        its vectorized profile lookup, and the Eq. (1)/(24) columns
        ``link_units`` / ``p_mj_per_kb`` arrive precomputed (rows of a
        :class:`~repro.radio.linktable.LinkTable`).  The view arrays
        are rewritten by the fleet's next state change, so the
        observation is valid within its slot.
        """
        sig, rates = self._client_columns(slot, sig_row, flows, fleet)
        video_cap = slicer.video_capacity_kbps(bs.capacity_kbps(slot), slot)
        return SlotObservation(
            slot=slot,
            tau_s=bs.tau_s,
            delta_kb=bs.delta_kb,
            capacity_kbps=video_cap,
            unit_budget=math.floor(bs.tau_s * video_cap / bs.delta_kb),
            sig_dbm=sig,
            rate_kbps=rates,
            link_units=link_units,
            p_mj_per_kb=p_mj_per_kb,
            active=fleet.view_active,
            buffer_s=fleet.buffer_occupancy_s,
            remaining_kb=fleet.view_remaining_kb,
            idle_tail_cost_mj=as_array(idle_tail_cost_mj, _F8),
            receivable_kb=fleet.view_receivable_kb,
            joined=joined,
            departed=departed,
        )

    def collect_fleet_batch(
        self,
        slot: int,
        sig_row: np.ndarray,
        flows: list[VideoFlow],
        fleet,
        bs: BaseStation,
        link_row: np.ndarray,
        p_row: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        run_offsets: np.ndarray,
        run_unit_budgets: np.ndarray,
        run_capacity_kbps: np.ndarray,
    ) -> BatchSlotObservation:
        """:meth:`collect_fleet` over a run-stacked fleet.

        The per-run BS capacities and unit budgets arrive precomputed
        (the batch engine derives them once per slot from each run's
        capacity model and slicer).  Client feedback reads the stacked
        fleet exactly like the serial path reads a single-run fleet.
        """
        sig, rates = self._client_columns(slot, sig_row, flows, fleet)
        return BatchSlotObservation(
            slot=slot,
            tau_s=bs.tau_s,
            delta_kb=bs.delta_kb,
            capacity_kbps=float(run_capacity_kbps.sum()),
            unit_budget=int(run_unit_budgets.sum()),
            sig_dbm=sig,
            rate_kbps=rates,
            link_units=link_row,
            p_mj_per_kb=p_row,
            active=fleet.view_active,
            buffer_s=fleet.buffer_occupancy_s,
            remaining_kb=fleet.view_remaining_kb,
            idle_tail_cost_mj=as_array(idle_tail_cost_mj, _F8),
            receivable_kb=fleet.view_receivable_kb,
            run_offsets=run_offsets,
            run_unit_budgets=run_unit_budgets,
            run_capacity_kbps=run_capacity_kbps,
        )


class DataTransmitter:
    """Delivers allocated shards to clients, bounded by receiver queues."""

    def transmit_fleet(
        self,
        allocation_units: np.ndarray,
        obs: SlotObservation,
        receiver: DataReceiver,
        fleet,
        arena=None,
        stall_mask: np.ndarray | None = None,
    ) -> np.ndarray:
        """Send ``phi_i(n) * delta`` KB to each client of ``fleet``.

        Returns the KB actually accepted per user (after receiver-queue
        and session-remaining truncation); only accepted bytes leave the
        gateway queue, the rest stays buffered (flow control, not loss).
        ``stall_mask`` marks users whose delivery path is stalled this
        slot (fault injection): their offer is zeroed — allocated frames
        go untransmitted and the queued bytes stay at the gateway.
        Raises :class:`~repro.errors.SimulationError` if a client
        accepted more than its allocation.

        With a :class:`~repro.kernels.arena.SlotArena` the offer and
        accepted vectors live in the arena's reused buffers (the
        accepted vector stays valid for the rest of the slot — the
        engine copies it into its result grid).
        """
        phi = as_array(allocation_units)
        if phi.shape != (fleet.n_users,):
            raise SimulationError("allocation has wrong shape")
        if phi.min() < 0:
            raise SimulationError("allocation must be non-negative")
        if arena is not None:
            want, offer, over = arena.want_kb, arena.offer_kb, arena.b1_tmp
            accepted, drained = arena.accepted_kb, arena.drained_kb
        else:
            want, offer = np.empty(phi.shape), np.empty(phi.shape)
            over = np.empty(phi.shape, dtype=bool)
            accepted = drained = None
        np.multiply(phi, obs.delta_kb, out=want)
        np.minimum(want, receiver.queued_kb, out=offer)
        if stall_mask is not None:
            offer[stall_mask] = 0.0
        accepted = fleet.deliver(offer, obs.slot, out=accepted)
        receiver.drain(accepted, out=drained)
        # Conservation: no client takes more than its allocation.
        np.add(want, 1e-9, out=offer)
        np.greater(accepted, offer, out=over)
        if over.any():
            raise SimulationError(f"slot {obs.slot}: delivered more than allocated")
        return accepted


class Gateway:
    """Fig. 1 assembled: receiver + collector + scheduler + transmitter."""

    def __init__(
        self,
        scheduler,
        bs: BaseStation,
        n_users: int,
        slicer: ResourceSlicer | None = None,
        dpi: DPIInspector | None = None,
        fetch_ahead_kb: float = float("inf"),
    ):
        self.scheduler = scheduler
        self.bs = bs
        self.slicer = slicer if slicer is not None else ResourceSlicer()
        self.receiver = DataReceiver(n_users, fetch_ahead_kb)
        self.collector = InformationCollector(dpi)
        self.transmitter = DataTransmitter()
        # (instrumentation, observe/schedule/transmit sample lists)
        # resolved once per bundle — the engine calls step() once per
        # slot and profiler lookups in that loop are measurable.
        self._obs_cache: tuple | None = None

    def step(
        self,
        slot: int,
        sig_row: np.ndarray,
        flows: list[VideoFlow],
        fleet,
        link_units: np.ndarray,
        p_mj_per_kb: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        instrumentation=None,
        arena=None,
        joined_mask: np.ndarray | None = None,
        departed_mask: np.ndarray | None = None,
        stall_mask: np.ndarray | None = None,
    ) -> tuple[SlotObservation, np.ndarray, np.ndarray]:
        """Run one slot of the framework.

        Returns ``(observation, allocation_units, delivered_kb)``.

        Client state comes from the
        :class:`~repro.media.fleet.ClientFleet` ``fleet``; ``link_units``
        and ``p_mj_per_kb`` are the slot's Eq. (1)/(24) rows.  A
        :class:`~repro.kernels.arena.SlotArena` makes the step
        allocation-free (transmit scratch is written into the arena's
        reused buffers).

        With an :class:`~repro.obs.instrument.Instrumentation` bundle
        attached, the observe/schedule/transmit phases are timed
        separately (one profiler sample each per call).  Allocation
        counters — scheduler invocations, budget near-misses,
        allocated-but-unaccepted bytes — are batch-derived by the
        engine from its recorded grids so the per-slot path stays
        within the instrumentation overhead budget.
        """
        timed = instrumentation is not None
        if timed:
            cache = self._obs_cache
            if cache is None or cache[0] is not instrumentation:
                # Only the profiler sees per-slot samples; span phase
                # totals are derived from these same lists by the
                # engine after the run (SpanRecorder.add_bulk), so the
                # gateway's hot path is identical with or without a
                # span recorder attached.
                profiler = instrumentation.profiler
                cache = self._obs_cache = (
                    instrumentation,
                    profiler.samples("observe").append,
                    profiler.samples("schedule").append,
                    profiler.samples("transmit").append,
                )
            _, rec_observe, rec_schedule, rec_transmit = cache
            _pc = perf_counter
            _t0 = _pc()
        obs = self.collector.collect_fleet(
            slot,
            sig_row,
            flows,
            fleet,
            self.bs,
            self.slicer,
            link_units,
            p_mj_per_kb,
            idle_tail_cost_mj,
            joined=joined_mask,
            departed=departed_mask,
        )
        self.receiver.refill(obs.remaining_kb)
        if timed:
            _t1 = _pc()
            rec_observe(_t1 - _t0)
        phi = as_array(self.scheduler.allocate(obs))
        if timed:
            _t2 = _pc()
            rec_schedule(_t2 - _t1)
        delivered_kb = self.transmitter.transmit_fleet(
            phi, obs, self.receiver, fleet, arena=arena, stall_mask=stall_mask
        )
        if timed:
            rec_transmit(_pc() - _t2)
        return obs, phi, delivered_kb

    def step_batch(
        self,
        slot: int,
        sig_row: np.ndarray,
        flows: list[VideoFlow],
        fleet,
        link_row: np.ndarray,
        p_row: np.ndarray,
        idle_tail_cost_mj: np.ndarray,
        run_offsets: np.ndarray,
        run_unit_budgets: np.ndarray,
        run_capacity_kbps: np.ndarray,
        arena,
        instrumentation=None,
    ) -> tuple[BatchSlotObservation, np.ndarray, np.ndarray]:
        """:meth:`step` over a run-stacked fleet.

        One observe/schedule/transmit cycle covers all R runs: the
        collector builds a segment-aware
        :class:`BatchSlotObservation`, the (batch-adapted) scheduler
        allocates every run, and the transmitter delivers through the
        stacked fleet — the delivery/receiver chains are row-elementwise,
        so :meth:`DataTransmitter.transmit_fleet` is already
        segment-transparent.  Phase timing mirrors :meth:`step` (one
        profiler sample per phase per slot for the whole batch).
        """
        timed = instrumentation is not None
        if timed:
            cache = self._obs_cache
            if cache is None or cache[0] is not instrumentation:
                profiler = instrumentation.profiler
                cache = self._obs_cache = (
                    instrumentation,
                    profiler.samples("observe").append,
                    profiler.samples("schedule").append,
                    profiler.samples("transmit").append,
                )
            _, rec_observe, rec_schedule, rec_transmit = cache
            _pc = perf_counter
            _t0 = _pc()
        obs = self.collector.collect_fleet_batch(
            slot,
            sig_row,
            flows,
            fleet,
            self.bs,
            link_row,
            p_row,
            idle_tail_cost_mj,
            run_offsets,
            run_unit_budgets,
            run_capacity_kbps,
        )
        self.receiver.refill(obs.remaining_kb)
        if timed:
            _t1 = _pc()
            rec_observe(_t1 - _t0)
        phi = as_array(self.scheduler.allocate(obs))
        if timed:
            _t2 = _pc()
            rec_schedule(_t2 - _t1)
        delivered_kb = self.transmitter.transmit_fleet(
            phi, obs, self.receiver, fleet, arena=arena
        )
        if timed:
            rec_transmit(_pc() - _t2)
        return obs, phi, delivered_kb

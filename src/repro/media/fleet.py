"""Struct-of-arrays client fleet: the vectorized playback hot path.

:class:`ClientFleet` holds the state of every
:class:`~repro.media.player.StreamingClient` in a cell as parallel
NumPy arrays (delivered bytes, buffer occupancy, elapsed playback,
pending playback duration, arrival masks) and applies the paper's
per-slot recursions to all users at once:

* :meth:`ClientFleet.begin_slot` — Eq. (7) buffer advance and Eq. (8)
  rebuffering for every arrived user in a handful of element-wise
  operations, and in the same kernel pass the *slot view*
  (:meth:`ClientFleet.slot_view`): every per-row quantity the rest of
  the slot reads — the observation's activity, remaining-media and
  receiver-window columns and the engine's arrived and
  playback-complete masks — formed once;
* :meth:`ClientFleet.deliver` — the data-shard acceptance rule
  (truncate to the view's remaining media and receiver window) for
  the whole fleet;
* :meth:`ClientFleet.rates_for_slot` — the per-user required rates
  ``p_i(n)``, evaluated from the sessions' bit-rate profiles without a
  per-user Python loop (CBR and piecewise-VBR profiles are grouped and
  indexed; exotic profiles fall back per-user).

Every element-wise operation mirrors the scalar arithmetic of
:class:`~repro.media.player.StreamingClient` /
:class:`~repro.media.buffer.PlaybackBuffer` *exactly* (same operations
in the same order), so each fleet row evolves bit-for-bit like one
``StreamingClient`` — the per-row oracle
`tests/integration/test_fleet_equivalence.py` drives with random
offers.  State arrays are **rebound, never mutated in place**, which
lets :class:`~repro.net.gateway.SlotObservation` snapshots alias them
safely; the slot view is rewritten in place, and an observation uses
it within its slot.

The fleet is also the engine's growable row space: rows are loaded
with admitted sessions (:meth:`ClientFleet.load_rows`), vacated on
retirement (:meth:`ClientFleet.clear_rows`), and doubled on demand
(:meth:`ClientFleet.grow`); the rate table is rebuilt lazily, once per
batch of row changes.

:class:`FleetClientView` is a thin per-user window onto the arrays with
the read API of :class:`StreamingClient`, so code written against
individual clients (tests, diagnostics) keeps working.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import as_array, read_only
from repro.errors import ConfigurationError, SimulationError
from repro.kernels import registry as kernel_registry
from repro.media.player import PlayerState
from repro.media.video import (
    ConstantBitrateProfile,
    PiecewiseBitrateProfile,
    VideoSession,
)

__all__ = ["ClientFleet", "FleetClientView"]

#: Tolerance for floating-point playback-time comparisons — must match
#: ``repro.media.player._EPS`` for cross-path bit-identity.
_EPS = 1e-9

_F8 = np.dtype(float)

#: Arrival slot of vacant fleet rows — far past any horizon, so the
#: begin-slot kernel never touches them.
_FAR_FUTURE = int(2**62)


def _placeholder_video() -> VideoSession:
    """Session occupying a vacant row: 0 remaining bytes, safe 1 KB/s rate.

    The row's ``size_kb`` is forced to 0 (``VideoSession`` itself
    forbids empty videos) so the row is "fully delivered" and inactive;
    the positive constant bitrate keeps the deliver kernel's
    non-positive-rate guard and EMA's rate divisions well-defined.
    """
    return VideoSession(1.0, ConstantBitrateProfile(1.0))


class _VacantRowFlow:
    """Flow-shaped stand-in used to construct an all-vacant fleet."""

    __slots__ = ("user_id", "video", "arrival_slot")

    def __init__(self, user_id: int, video: VideoSession):
        self.user_id = user_id
        self.video = video
        self.arrival_slot = 0


class _RateTable:
    """Vectorized ``p_i(slot)`` lookup across heterogeneous profiles.

    Profiles are grouped once at construction: constant-rate profiles
    contribute a fixed vector, piecewise profiles are padded into a
    matrix indexed by ``(slot // segment_slots) % n_segments``, and any
    other :class:`~repro.media.video.BitrateProfile` subclass is
    evaluated per-user (correct, just not vectorized).  The most recent
    slot's vector is cached — the engine asks for the same slot several
    times (observation, receiver window, delivery).
    """

    def __init__(self, profiles):
        self.n = len(profiles)
        const_idx, const_rates = [], []
        pw_idx, pw_profiles = [], []
        other_idx = []
        for i, prof in enumerate(profiles):
            if type(prof) is ConstantBitrateProfile:
                const_idx.append(i)
                const_rates.append(prof.rate_kbps(0))
            elif type(prof) is PiecewiseBitrateProfile:
                pw_idx.append(i)
                pw_profiles.append(prof)
            else:
                other_idx.append(i)
        self._const_idx = np.array(const_idx, dtype=np.intp)
        self._const_rates = np.array(const_rates, dtype=float)
        self._pw_idx = np.array(pw_idx, dtype=np.intp)
        if pw_idx:
            max_len = max(p.rates.size for p in pw_profiles)
            self._pw_mat = np.zeros((len(pw_idx), max_len), dtype=float)
            for k, p in enumerate(pw_profiles):
                self._pw_mat[k, : p.rates.size] = p.rates
            self._pw_seg = np.array(
                [p.segment_slots for p in pw_profiles], dtype=np.int64
            )
            self._pw_len = np.array(
                [p.rates.size for p in pw_profiles], dtype=np.int64
            )
            self._pw_rows = np.arange(len(pw_idx))
        self._other = [(i, profiles[i]) for i in other_idx]
        self._all_const = not pw_idx and not other_idx
        #: Every rate this table can return is positive, so deliveries
        #: never need the non-positive-bitrate check.
        self.positive = (
            not other_idx
            and bool((self._const_rates > 0).all())
            and all(bool((p.rates > 0).all()) for p in pw_profiles)
        )
        self._cache_slot: int | None = None
        self._cache: np.ndarray | None = None

    def rates_for_slot(self, slot: int) -> np.ndarray:
        if self._cache_slot == slot:
            return self._cache
        out = np.empty(self.n, dtype=float)
        if self._const_idx.size:
            out[self._const_idx] = self._const_rates
        if self._pw_idx.size:
            seg = (slot // self._pw_seg) % self._pw_len
            out[self._pw_idx] = self._pw_mat[self._pw_rows, seg]
        for i, prof in self._other:
            out[i] = prof.rate_kbps(slot)
        # Observations carry this array: nobody may change the cache.
        out.flags.writeable = False
        if self._all_const:
            # Constant forever: pin the cache so it is computed once.
            self._cache_slot, self._cache = slot, out
            self.rates_for_slot = lambda _slot: out  # type: ignore[method-assign]
            return out
        self._cache_slot, self._cache = slot, out
        return out


class ClientFleet:
    """All streaming clients of a cell as parallel state arrays.

    Parameters
    ----------
    flows:
        The workload's :class:`~repro.net.flows.VideoFlow` list; fixes
        user order, sessions, and arrival slots.
    tau_s:
        Slot length, seconds.
    buffer_capacity_s:
        Optional client buffer cap (seconds of playback), shared by the
        fleet — matching :class:`~repro.media.player.StreamingClient`'s
        per-client parameter as the engine uses it.
    """

    def __init__(self, flows, tau_s: float, buffer_capacity_s: float | None = None):
        if tau_s <= 0:
            raise ConfigurationError("tau_s must be positive")
        if buffer_capacity_s is not None and buffer_capacity_s <= 0:
            raise ConfigurationError("buffer_capacity_s must be positive when given")
        n = len(flows)
        if n == 0:
            raise ConfigurationError("fleet needs at least one flow")
        self.n_users = n
        self.tau_s = float(tau_s)
        self.capacity_s = None if buffer_capacity_s is None else float(buffer_capacity_s)
        self.videos = [f.video for f in flows]
        self.size_kb = np.array([f.video.size_kb for f in flows], dtype=float)
        self.arrival_slot = np.array([f.arrival_slot for f in flows], dtype=np.int64)
        self._profiles = [f.video.profile for f in flows]
        #: Built on first use and dropped whenever rows are loaded or
        #: cleared, so a slot's admissions cost one rebuild.
        self._rates: _RateTable | None = None

        self._size_eps = self.size_kb - _EPS
        #: The most recent slot passed to begin_slot.
        self._last_begun: int | None = None
        self._allocate(n)
        self._begin_kernel = None
        self._deliver_kernel = None

    def _allocate(self, n: int) -> None:
        """Fresh state, view and scratch buffers for ``n`` rows.

        Double buffers for the slot kernels: a kernel reads the current
        binding of each mutable array and writes the alternate; on
        success the bindings swap.  A binding is not overwritten until
        two kernel calls later, preserving the "rebound, never mutated
        in place" contract SlotObservation snapshots rely on within
        their slot.

        The arrays an observation carries — the occupancy and the slot
        view — are handed out as read-only views, made here once per
        buffer, so whoever reads an observation cannot change the state
        the rest of the slot is computed from.
        """
        #: Total media bytes received so far (KB).
        self.delivered_kb = np.zeros(n, dtype=float)
        self._occ = np.zeros(n, dtype=float)
        self._occ_alt = np.empty(n, dtype=float)
        #: Remaining occupancy r_i(n), seconds of playback buffered.
        self.buffer_occupancy_s = read_only(self._occ)
        self._occ_alt_ro = read_only(self._occ_alt)
        #: Buffer left after one slot of playback, ``max(r_i - tau, 0)``.
        self._carried = np.zeros(n, dtype=float)
        # Field pairs that take the same ufunc share a (2, n) block:
        # [delivered playback; pending playback] both grow by each
        # delivery's duration, [elapsed playback m_i; cumulative
        # rebuffering] by each slot's [played; rebuffering].
        self._bind_dp(np.zeros((2, n), dtype=float))
        self._bind_ea(np.zeros((2, n), dtype=float))
        self._bind_pr(np.zeros((2, n), dtype=float))
        self._dp_alt = np.empty((2, n), dtype=float)
        self._carried_alt = np.empty(n, dtype=float)
        self._ea_alt = np.empty((2, n), dtype=float)
        self._pr_alt = np.empty((2, n), dtype=float)
        self._delivered_alt = np.empty(n, dtype=float)
        self._accepted = np.empty(n, dtype=float)
        self._fscratch = np.empty(2 * n, dtype=float)
        self._bscratch = np.empty(3 * n, dtype=bool)
        # The slot view begin_slot writes (see slot_view()).
        self._view = (
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=bool),
            np.zeros(n, dtype=float),
            np.full(n, np.inf),
        )
        (
            self.view_arrived,
            self.view_active,
            self.view_complete,
            self.view_remaining_kb,
            self.view_receivable_kb,
        ) = map(read_only, self._view)
        self._view_slot: int | None = None
        self._views: list[FleetClientView] | None = None

    def _bind_dp(self, block: np.ndarray) -> None:
        self._dp = block
        #: Total playback duration of received media (sum of t_i(n), s).
        self.delivered_playback_s = block[0]
        #: Playback duration delivered in the current slot (pending t(n)).
        self.pending_playback_s = block[1]

    def _bind_ea(self, block: np.ndarray) -> None:
        self._ea = block
        #: Elapsed playback time m_i (s).
        self.elapsed_playback_s = block[0]
        #: Cumulative rebuffering time (s).
        self.total_rebuffering_s = block[1]

    def _bind_pr(self, block: np.ndarray) -> None:
        self._pr = block
        #: Rebuffering time c_i(n) of the most recent slot.
        self.last_slot_rebuffering_s = block[1]

    # -- growable row space (session admission and retirement) ---------------

    @classmethod
    def with_capacity(
        cls, capacity: int, tau_s: float, buffer_capacity_s: float | None = None
    ) -> "ClientFleet":
        """An all-vacant fleet of ``capacity`` rows.

        The engine loads rows as sessions are admitted (:meth:`load_rows`)
        and doubles via :meth:`grow` when the free list runs dry.
        """
        if capacity <= 0:
            raise ConfigurationError("capacity must be positive")
        placeholder = _placeholder_video()
        flows = [_VacantRowFlow(user_id=-1, video=placeholder)] * capacity
        fleet = cls(flows, tau_s, buffer_capacity_s)
        fleet.clear_rows(np.arange(capacity))
        return fleet

    def grow(self, new_capacity: int) -> None:
        """Resize to ``new_capacity`` rows, preserving existing state.

        Existing rows keep every state value bit-for-bit (the common
        prefix is copied, never recomputed); new rows come up vacant.
        All alternate buffers and scratch areas are reallocated in
        lockstep so the kernel double-buffer protocol is unaffected.
        """
        old = self.n_users
        if new_capacity <= old:
            raise ConfigurationError("grow requires new_capacity > current capacity")
        placeholder = _placeholder_video()
        self.videos.extend(placeholder for _ in range(old, new_capacity))
        self._profiles.extend(placeholder.profile for _ in range(old, new_capacity))

        def _resized(arr: np.ndarray) -> np.ndarray:
            out = np.zeros(new_capacity, dtype=arr.dtype)
            out[:old] = arr
            return out

        state = {
            name: getattr(self, name)
            for name in ("delivered_kb", "_occ", "_carried")
        }
        blocks = {name: getattr(self, name) for name in ("_dp", "_ea", "_pr")}
        self.size_kb = _resized(self.size_kb)
        self._size_eps = _resized(self._size_eps)
        self.arrival_slot = _resized(self.arrival_slot)
        self._allocate(new_capacity)
        for name, arr in state.items():
            getattr(self, name)[:old] = arr
        for name, block in blocks.items():
            getattr(self, name)[:, :old] = block
        self.n_users = new_capacity
        self.clear_rows(np.arange(old, new_capacity))

    def load_rows(self, rows, flows) -> None:
        """Bind freshly admitted sessions' flows to vacant rows.

        One call per slot covers every admission: one vectorised state
        reset, and the rate table is rebuilt once, on the next
        :meth:`rates_for_slot`.
        """
        rows = np.asarray(rows, dtype=np.intp)
        sizes, arrivals = [], []
        for row, flow in zip(rows.tolist(), flows):
            video = flow.video
            self.videos[row] = video
            self._profiles[row] = video.profile
            sizes.append(video.size_kb)
            arrivals.append(flow.arrival_slot)
        self.size_kb[rows] = sizes
        self._size_eps[rows] = self.size_kb[rows] - _EPS
        self.arrival_slot[rows] = arrivals
        self._zero_rows(rows)

    def clear_rows(self, rows) -> None:
        """Vacate rows (sessions departed); they can be recycled later."""
        rows = np.asarray(rows, dtype=np.intp)
        placeholder = _placeholder_video()
        for row in rows.tolist():
            self.videos[row] = placeholder
            self._profiles[row] = placeholder.profile
        self.size_kb[rows] = 0.0
        self._size_eps[rows] = -_EPS
        self.arrival_slot[rows] = _FAR_FUTURE
        self._zero_rows(rows)

    def _zero_rows(self, rows: np.ndarray) -> None:
        # Row loads/clears happen between slots (before the collect
        # phase aliases the arrays), so in-place writes are safe here.
        self.delivered_kb[rows] = 0.0
        self._dp[:, rows] = 0.0
        self._ea[:, rows] = 0.0
        self._occ[rows] = 0.0
        self._carried[rows] = 0.0
        self.last_slot_rebuffering_s[rows] = 0.0
        self._rates = None
        self._view_slot = None

    # -- progress predicates (all shape (n_users,)) --------------------------

    @property
    def fully_delivered(self) -> np.ndarray:
        """All ``size_kb`` media bytes have been received."""
        return self.delivered_kb >= self.size_kb - _EPS

    @property
    def playback_complete(self) -> np.ndarray:
        """Users who have watched their entire video (``m_i >= M_i``)."""
        return self.fully_delivered & (
            self.elapsed_playback_s >= self.delivered_playback_s - _EPS
        )

    @property
    def began(self) -> np.ndarray:
        """Sessions arrived by the last slot begun: their player has
        left the initial startup state."""
        if self._last_begun is None:
            return np.zeros(self.n_users, dtype=bool)
        return self.arrival_slot <= self._last_begun

    @property
    def needs_data(self) -> np.ndarray:
        """The gateway still has bytes to push to these users."""
        return ~self.fully_delivered

    @property
    def remaining_kb(self) -> np.ndarray:
        """Media bytes not yet delivered (KB)."""
        return np.maximum(self.size_kb - self.delivered_kb, 0.0)

    def active_mask(self, slot: int) -> np.ndarray:
        """Session started and still has bytes to receive."""
        return (slot >= self.arrival_slot) & self.needs_data

    def rates_for_slot(self, slot: int) -> np.ndarray:
        """Required data rates ``p_i(slot)`` (KB/s).  Do not mutate."""
        rates = self._rates
        if rates is None:
            rates = self._rates = _RateTable(self._profiles)
        return rates.rates_for_slot(slot)

    def receivable_kb(self, slot: int) -> np.ndarray:
        """Receiver windows: media bytes each client can accept this slot."""
        if self.capacity_s is None:
            return np.full(self.n_users, np.inf)
        carried = np.maximum(self.buffer_occupancy_s - self.tau_s, 0.0)
        headroom_s = self.capacity_s - carried - self.pending_playback_s
        return np.where(
            headroom_s <= 0.0, 0.0, headroom_s * self.rates_for_slot(slot)
        )

    # -- the slot view --------------------------------------------------------

    def slot_view(self, slot: int) -> None:
        """Make the ``view_*`` arrays describe the current state at ``slot``.

        :meth:`begin_slot` writes them in the same kernel pass that
        advances playback, so on the engine's path this is a single
        comparison.  Any other state change (a delivery, a row load or
        clear, growth) invalidates them, and the next call recomputes
        them from the reference formulas — ``arrival_slot <= slot``,
        :meth:`active_mask`, :attr:`remaining_kb`,
        :meth:`receivable_kb` and :attr:`playback_complete`, which the
        kernel reproduces bit for bit.  The arrays are rewritten in
        place, so they are valid only until the next state change; a
        :class:`~repro.net.gateway.SlotObservation` uses them within
        its slot.  They are read-only views of arrays only the fleet
        writes.
        """
        if self._view_slot != slot:
            arrived, active, complete, remaining, receivable = self._view
            np.less_equal(self.arrival_slot, slot, out=arrived)
            np.copyto(active, self.active_mask(slot))
            np.copyto(complete, self.playback_complete)
            np.copyto(remaining, self.remaining_kb)
            np.copyto(receivable, self.receivable_kb(slot))
            self._view_slot = slot

    # -- per-slot protocol ---------------------------------------------------

    def begin_slot(self, slot: int, out: np.ndarray | None = None) -> np.ndarray:
        """Start slot ``slot`` for every arrived user: Eqs. (7)-(8).

        Users whose session has not arrived are untouched (no buffer
        advance, no startup rebuffering); completed users record zero
        rebuffering.  Returns this slot's per-user rebuffering vector —
        a fresh array, or ``out`` filled in place when given (the
        engine passes its result-grid row to stay allocation-free).
        The same pass writes the slot view (see :meth:`slot_view`).
        """
        if self._begin_kernel is None:
            self._begin_kernel = kernel_registry.resolve("fleet_begin_slot")
        cap = np.inf if self.capacity_s is None else self.capacity_s
        self._begin_kernel(
            slot,
            self.tau_s,
            cap,
            self.arrival_slot,
            self.size_kb,
            self._size_eps,
            self.delivered_kb,
            self.rates_for_slot(slot),
            self._carried,
            self._occ,
            self._dp,
            self._ea,
            self._carried_alt,
            self._occ_alt,
            self._dp_alt,
            self._ea_alt,
            self._pr_alt,
            *self._view,
            self._fscratch,
            self._bscratch,
        )
        self._carried, self._carried_alt = self._carried_alt, self._carried
        self._occ, self._occ_alt = self._occ_alt, self._occ
        self.buffer_occupancy_s, self._occ_alt_ro = self._occ_alt_ro, self.buffer_occupancy_s
        dp, ea, pr = self._dp_alt, self._ea_alt, self._pr_alt
        self._dp_alt, self._ea_alt, self._pr_alt = self._dp, self._ea, self._pr
        self._bind_dp(dp)
        self._bind_ea(ea)
        self._bind_pr(pr)
        self._view_slot = self._last_begun = slot
        if out is not None:
            np.copyto(out, self.last_slot_rebuffering_s)
            return out
        return self.last_slot_rebuffering_s.copy()

    def deliver(
        self, offer_kb: np.ndarray, slot: int, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Record the slot's data shards for the whole fleet.

        Each user's shard is truncated to the session's remaining bytes
        and to the receiver window (the slot view's columns); the
        accepted amounts (KB) are returned — in a fresh array, or in
        ``out`` when given.  On a non-positive-bitrate error the fleet
        state is untouched (the kernel reports before any state buffer
        swaps).
        """
        offer = as_array(offer_kb, _F8)
        if offer.shape != (self.n_users,):
            raise ConfigurationError("offer_kb has wrong shape")
        if offer.min() < 0:
            raise ConfigurationError("data_kb must be non-negative")
        if self._deliver_kernel is None:
            self._deliver_kernel = kernel_registry.resolve("fleet_deliver")
        self.slot_view(slot)
        remaining, receivable = self._view[3:]
        rates = self.rates_for_slot(slot)
        cap = np.inf if self.capacity_s is None else self.capacity_s
        accepted = out if out is not None else self._accepted
        err = self._deliver_kernel(
            cap,
            offer,
            rates,
            not self._rates.positive,
            remaining,
            receivable,
            self.delivered_kb,
            self._dp,
            self._delivered_alt,
            self._dp_alt,
            accepted,
            self._fscratch,
            self._bscratch,
        )
        if err:
            raise SimulationError(f"non-positive bitrate at slot {slot}")
        self.delivered_kb, self._delivered_alt = self._delivered_alt, self.delivered_kb
        dp = self._dp_alt
        self._dp_alt = self._dp
        self._bind_dp(dp)
        self._view_slot = None
        if out is not None:
            return out
        return accepted.copy()

    # -- per-user views ------------------------------------------------------

    @property
    def clients(self) -> list["FleetClientView"]:
        """Per-user read views with the ``StreamingClient`` API."""
        if self._views is None:
            self._views = [FleetClientView(self, i) for i in range(self.n_users)]
        return self._views

    def view(self, user: int) -> "FleetClientView":
        return self.clients[user]


class FleetClientView:
    """One user's window onto a :class:`ClientFleet`.

    Mirrors the read API of :class:`~repro.media.player.StreamingClient`
    (progress predicates, occupancy, receiver window, player state) so
    per-client diagnostics and tests work unchanged against the fleet.
    """

    __slots__ = ("_fleet", "_i")

    def __init__(self, fleet: ClientFleet, index: int):
        self._fleet = fleet
        self._i = index

    @property
    def video(self):
        return self._fleet.videos[self._i]

    @property
    def tau_s(self) -> float:
        return self._fleet.tau_s

    @property
    def delivered_kb(self) -> float:
        return float(self._fleet.delivered_kb[self._i])

    @property
    def delivered_playback_s(self) -> float:
        return float(self._fleet.delivered_playback_s[self._i])

    @property
    def elapsed_playback_s(self) -> float:
        return float(self._fleet.elapsed_playback_s[self._i])

    @property
    def total_rebuffering_s(self) -> float:
        return float(self._fleet.total_rebuffering_s[self._i])

    @property
    def fully_delivered(self) -> bool:
        return bool(self._fleet.fully_delivered[self._i])

    @property
    def playback_complete(self) -> bool:
        return bool(self._fleet.playback_complete[self._i])

    @property
    def needs_data(self) -> bool:
        return bool(self._fleet.needs_data[self._i])

    @property
    def remaining_kb(self) -> float:
        return float(self._fleet.remaining_kb[self._i])

    @property
    def buffer_occupancy_s(self) -> float:
        return float(self._fleet.buffer_occupancy_s[self._i])

    @property
    def last_slot_rebuffering_s(self) -> float:
        return float(self._fleet.last_slot_rebuffering_s[self._i])

    def receivable_kb(self, slot: int) -> float:
        fleet = self._fleet
        if fleet.capacity_s is None:
            return float("inf")
        occ = float(fleet.buffer_occupancy_s[self._i])
        carried = max(occ - fleet.tau_s, 0.0)
        headroom_s = (
            fleet.capacity_s - carried - float(fleet.pending_playback_s[self._i])
        )
        if headroom_s <= 0.0:
            return 0.0
        return headroom_s * self.video.rate_kbps(slot)

    @property
    def state(self) -> PlayerState:
        fleet, i = self._fleet, self._i
        if fleet.playback_complete[i]:
            return PlayerState.FINISHED
        if fleet._last_begun is None or fleet.arrival_slot[i] > fleet._last_begun:
            return PlayerState.STARTUP
        if fleet.last_slot_rebuffering_s[i] > 0:
            return (
                PlayerState.STARTUP
                if fleet.elapsed_playback_s[i] <= _EPS
                else PlayerState.REBUFFERING
            )
        return PlayerState.PLAYING

    def __repr__(self) -> str:  # pragma: no cover
        return f"FleetClientView(user={self._i}, {self.state.value})"

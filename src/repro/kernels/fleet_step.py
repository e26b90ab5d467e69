"""ClientFleet slot kernels: playback advance (Eqs. 7-8) and delivery.

Both kernels are pure array -> array state transitions: they read the
fleet's *current* state arrays and write the fleet-owned *alternate*
buffers (:class:`repro.media.fleet.ClientFleet` double-buffers its
mutable state and swaps bindings after each successful kernel call, so
the "state arrays are rebound, never mutated in place" aliasing
contract survives unchanged).

``fleet_begin_slot`` advances playback and, in the same pass, writes
the slot's *view* — every per-row quantity the rest of the slot reads:
the observation's ``active`` / ``remaining_kb`` / ``receivable_kb``
columns, the engines' arrived and playback-complete masks, and
``carried_s`` (the
buffer left after one slot of playback, ``max(occ - tau, 0)``), which
is both the receiver window's base and next slot's Eq. (7) drain.
``fleet_deliver`` then truncates the offer with the view's
``remaining`` and ``receivable`` columns instead of recomputing them.
Fleet state does not change between the two calls, so each quantity is
formed once per slot.

Fleet fields that take the same ufunc travel as ``(2, n)`` blocks, one
call for both: ``ea = [elapsed_playback_s; total_rebuffering_s]``
advances by ``pr = [played; rebuffering]``, and ``dp =
[delivered_playback_s; pending_playback_s]`` grows by each delivery's
playback duration.

``cap_s`` is the buffer capacity in seconds with ``+inf`` standing for
"uncapped" — ``min(x, inf) == x`` bit-for-bit, so the capped and
uncapped forms share one code path; the uncapped receiver window is
the constant ``+inf`` the fleet keeps in ``receivable_out``, which the
kernel then leaves untouched.

``fleet_deliver`` returns a nonzero error code instead of raising (the
class raises :class:`repro.errors.SimulationError` *before* swapping
buffers, leaving state untouched); a delivery with a non-positive
bitrate is the only error case, and ``check_rates=False`` (every rate
known positive) skips the test.

The numpy implementations are explicit out=-chains; the loop
implementations mirror them lane by lane.  Scratch layout:
``fscratch`` >= 2n float64, ``bscratch`` >= 3n bool.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import register

__all__ = [
    "fleet_begin_slot_numpy",
    "fleet_begin_slot_loops",
    "fleet_deliver_numpy",
    "fleet_deliver_loops",
]

_EPS = 1e-9


def fleet_begin_slot_numpy(
    slot,
    tau_s,
    cap_s,
    arrival_slot,
    size_kb,
    size_eps,
    delivered_kb,
    rates,
    carried_in,
    occ_in,
    dp_in,
    ea_in,
    carried_out,
    occ_out,
    dp_out,
    ea_out,
    pr_out,
    arrived_out,
    active_out,
    complete_out,
    remaining_out,
    receivable_out,
    fscratch,
    bscratch,
):
    n = arrival_slot.shape[0]
    arrived = arrived_out
    mask = bscratch[0:n]
    fully = bscratch[n : 2 * n]
    idle = bscratch[2 * n : 3 * n]
    dplay_eps = fscratch[0:n]
    media_left = fscratch[n : 2 * n]
    played = pr_out[0]
    rebuf = pr_out[1]
    elapsed_in = ea_in[0]
    delivered_playback_s = dp_in[0]
    pend_in = dp_in[1]

    np.less_equal(arrival_slot, slot, out=arrived)
    # Eq. (7): last slot's carried buffer plus last slot's arrivals.
    np.add(carried_in, pend_in, out=occ_out)
    np.minimum(occ_out, cap_s, out=occ_out)
    np.logical_not(arrived, out=mask)
    np.copyto(occ_out, occ_in, where=mask)
    np.copyto(dp_out, dp_in)
    np.copyto(dp_out[1], 0.0, where=arrived)
    # idle = ~playing = ~(arrived & ~(fully delivered & all media played))
    np.greater_equal(delivered_kb, size_eps, out=fully)
    np.subtract(delivered_playback_s, _EPS, out=dplay_eps)
    np.greater_equal(elapsed_in, dplay_eps, out=idle)
    np.logical_and(idle, fully, out=idle)
    np.less_equal(arrived, idle, out=idle)
    # Eq. (8): stall for whatever part of the slot the buffer can't cover.
    np.subtract(occ_out, tau_s, out=carried_out)
    np.maximum(carried_out, 0.0, out=carried_out)
    np.subtract(tau_s, occ_out, out=rebuf)
    np.maximum(rebuf, 0.0, out=rebuf)
    np.subtract(tau_s, rebuf, out=played)
    np.copyto(pr_out, 0.0, where=idle)
    # Clamp playback to the media actually delivered; the tail of the
    # stream neither plays nor stalls once everything is delivered.
    # (An idle row plays 0, which exceeds its media left only when that
    # is negative, and the clamp then rewrites the 0 it already holds.)
    np.subtract(delivered_playback_s, elapsed_in, out=media_left)
    np.greater(played, media_left, out=mask)
    np.maximum(media_left, 0.0, out=media_left)
    np.copyto(played, media_left, where=mask)
    np.logical_and(mask, fully, out=mask)
    np.copyto(rebuf, 0.0, where=mask)
    np.add(ea_in, pr_out, out=ea_out)
    # The slot view.
    np.greater(arrived, fully, out=active_out)
    np.greater_equal(ea_out[0], dplay_eps, out=complete_out)
    np.logical_and(complete_out, fully, out=complete_out)
    np.subtract(size_kb, delivered_kb, out=remaining_out)
    np.maximum(remaining_out, 0.0, out=remaining_out)
    if cap_s != np.inf:
        # Receiver window: seconds of headroom after this slot's drain,
        # scaled by the stream bitrate (Eq. 7 capacity clamp).
        np.subtract(cap_s, carried_out, out=receivable_out)
        np.subtract(receivable_out, dp_out[1], out=receivable_out)
        np.less_equal(receivable_out, 0.0, out=mask)
        np.multiply(receivable_out, rates, out=receivable_out)
        np.copyto(receivable_out, 0.0, where=mask)
    return 0


def fleet_begin_slot_loops(
    slot,
    tau_s,
    cap_s,
    arrival_slot,
    size_kb,
    size_eps,
    delivered_kb,
    rates,
    carried_in,
    occ_in,
    dp_in,
    ea_in,
    carried_out,
    occ_out,
    dp_out,
    ea_out,
    pr_out,
    arrived_out,
    active_out,
    complete_out,
    remaining_out,
    receivable_out,
    fscratch,
    bscratch,
):
    n = arrival_slot.shape[0]
    capped = cap_s != np.inf
    for i in range(n):
        arrived = arrival_slot[i] <= slot
        arrived_out[i] = arrived
        dplay = dp_in[0, i]
        occ = carried_in[i] + dp_in[1, i]
        if not occ < cap_s:
            occ = cap_s
        if not arrived:
            occ = occ_in[i]
        occ_out[i] = occ
        pend = 0.0 if arrived else dp_in[1, i]
        dp_out[0, i] = dplay
        dp_out[1, i] = pend
        fully = delivered_kb[i] >= size_eps[i]
        dplay_eps = dplay - _EPS
        elapsed = ea_in[0, i]
        playing = arrived and not (fully and elapsed >= dplay_eps)
        carried = occ - tau_s
        if carried < 0.0:
            carried = 0.0
        carried_out[i] = carried
        if playing:
            rebuf = tau_s - occ
            if rebuf < 0.0:
                rebuf = 0.0
            played = tau_s - rebuf
        else:
            rebuf = 0.0
            played = 0.0
        media_left = dplay - elapsed
        if played > media_left:
            played = media_left if media_left > 0.0 else 0.0
            if fully:
                rebuf = 0.0
        pr_out[0, i] = played
        pr_out[1, i] = rebuf
        elapsed = elapsed + played
        ea_out[0, i] = elapsed
        ea_out[1, i] = ea_in[1, i] + rebuf
        active_out[i] = arrived and not fully
        complete_out[i] = elapsed >= dplay_eps and fully
        remaining = size_kb[i] - delivered_kb[i]
        if remaining < 0.0:
            remaining = 0.0
        remaining_out[i] = remaining
        if capped:
            headroom_s = (cap_s - carried) - pend
            receivable_out[i] = 0.0 if headroom_s <= 0.0 else headroom_s * rates[i]
    return 0


def fleet_deliver_numpy(
    cap_s,
    offer_kb,
    rates,
    check_rates,
    remaining_kb,
    receivable_kb,
    delivered_in,
    dp_in,
    delivered_out,
    dp_out,
    accepted_out,
    fscratch,
    bscratch,
):
    n = offer_kb.shape[0]
    duration = fscratch[0:n]
    m1 = bscratch[0:n]
    m2 = bscratch[n : 2 * n]
    np.minimum(offer_kb, remaining_kb, out=accepted_out)
    if cap_s != np.inf:
        np.minimum(accepted_out, receivable_kb, out=accepted_out)
    np.less_equal(accepted_out, 0.0, out=m1)
    np.copyto(accepted_out, 0.0, where=m1)
    if check_rates:
        np.greater(accepted_out, 0.0, out=m1)
        np.less_equal(rates, 0.0, out=m2)
        np.logical_and(m1, m2, out=m1)
        if m1.any():
            return 1  # delivering at a non-positive bitrate
    np.divide(accepted_out, rates, out=duration)
    np.add(delivered_in, accepted_out, out=delivered_out)
    # [delivered playback; pending playback] both grow by the duration.
    np.add(dp_in, duration, out=dp_out)
    return 0


def fleet_deliver_loops(
    cap_s,
    offer_kb,
    rates,
    check_rates,
    remaining_kb,
    receivable_kb,
    delivered_in,
    dp_in,
    delivered_out,
    dp_out,
    accepted_out,
    fscratch,
    bscratch,
):
    n = offer_kb.shape[0]
    capped = cap_s != np.inf
    for i in range(n):
        a = offer_kb[i]
        if remaining_kb[i] < a:
            a = remaining_kb[i]
        if capped and receivable_kb[i] < a:
            a = receivable_kb[i]
        if not a > 0.0:
            a = 0.0
        if check_rates and a > 0.0 and rates[i] <= 0.0:
            return 1
        accepted_out[i] = a
    for i in range(n):
        a = accepted_out[i]
        duration = a / rates[i]
        delivered_out[i] = delivered_in[i] + a
        dp_out[0, i] = dp_in[0, i] + duration
        dp_out[1, i] = dp_in[1, i] + duration
    return 0


def _f8(*vals):
    return np.array(vals, dtype=float)


def _warmup_begin(fn):
    """Specialise begin_slot on a two-user instance (one not yet arrived)."""
    n = 2
    fn(
        np.int64(0),
        1.0,
        30.0,
        np.array([0, 5], dtype=np.int64),
        _f8(100.0, 100.0),
        _f8(100.0 - _EPS, 100.0 - _EPS),
        _f8(10.0, 0.0),
        _f8(100.0, 100.0),
        _f8(0.0, 0.0),
        _f8(1.0, 0.0),
        np.array([[2.0, 0.0], [0.5, 0.0]]),
        np.zeros((2, n)),
        np.empty(n),
        np.empty(n),
        np.empty((2, n)),
        np.empty((2, n)),
        np.empty((2, n)),
        np.empty(n, dtype=np.bool_),
        np.empty(n, dtype=np.bool_),
        np.empty(n, dtype=np.bool_),
        np.empty(n),
        np.empty(n),
        np.empty(2 * n),
        np.empty(3 * n, dtype=np.bool_),
    )


def _warmup_deliver(fn):
    """Specialise deliver on a two-user instance."""
    n = 2
    fn(
        30.0,
        _f8(5.0, 0.0),
        _f8(100.0, 100.0),
        True,
        _f8(90.0, 100.0),
        _f8(2500.0, 3000.0),
        _f8(10.0, 0.0),
        np.array([[2.0, 0.0], [0.5, 0.0]]),
        np.empty(n),
        np.empty((2, n)),
        np.empty(n),
        np.empty(2 * n),
        np.empty(4 * n, dtype=np.bool_),
    )


register(
    "fleet_begin_slot",
    numpy=fleet_begin_slot_numpy,
    python=fleet_begin_slot_loops,
    warmup=_warmup_begin,
    phase="playback",
)
register(
    "fleet_deliver",
    numpy=fleet_deliver_numpy,
    python=fleet_deliver_loops,
    warmup=_warmup_deliver,
    phase="transmit",
)

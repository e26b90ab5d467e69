"""Property-based tests for the growable row space.

The dynamic engine's correctness hangs on two mechanical guarantees:

* **grow is invisible** — doubling a fleet's (or RRC fleet's) capacity
  mid-run changes nothing for the rows that already exist: every state
  value is preserved bit-for-bit and the subsequent evolution matches
  a fleet that never grew;
* **recycle is a reset** — a vacated row reloaded with a fresh session
  behaves exactly like that session in a brand-new fleet.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.media.fleet import ClientFleet
from repro.media.video import ConstantBitrateProfile, VideoSession
from repro.net.flows import VideoFlow
from repro.radio.rrc import RRCFleet

FLEET_STATE = (
    "size_kb",
    "arrival_slot",
    "delivered_kb",
    "delivered_playback_s",
    "elapsed_playback_s",
    "total_rebuffering_s",
    "buffer_occupancy_s",
    "pending_playback_s",
    "last_slot_rebuffering_s",
    "began",
)


def _flows(sizes, rates):
    return [
        VideoFlow(
            user_id=i,
            video=VideoSession(size, ConstantBitrateProfile(rate)),
            arrival_slot=0,
        )
        for i, (size, rate) in enumerate(zip(sizes, rates))
    ]


def _drive(fleet, slot, offers):
    fleet.begin_slot(slot)
    fleet.deliver(np.asarray(offers, dtype=float), slot)


@given(
    sizes=st.lists(st.floats(500.0, 5_000.0), min_size=2, max_size=5),
    rate=st.floats(100.0, 800.0),
    offers=st.lists(
        st.lists(st.floats(0.0, 400.0), min_size=5, max_size=5),
        min_size=2,
        max_size=12,
    ),
    grow_at=st.integers(0, 11),
    extra=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_fleet_grow_is_invisible_to_existing_rows(
    sizes, rate, offers, grow_at, extra
):
    n = len(sizes)
    flows = _flows(sizes, [rate] * n)
    reference = ClientFleet(flows, tau_s=1.0, buffer_capacity_s=30.0)
    grower = ClientFleet(flows, tau_s=1.0, buffer_capacity_s=30.0)
    for slot, row in enumerate(offers):
        if slot == min(grow_at, len(offers) - 1):
            grower.grow(n + extra)
        _drive(reference, slot, row[:n])
        pad = np.zeros(grower.n_users)
        pad[:n] = row[:n]
        _drive(grower, slot, pad)
        for name in FLEET_STATE:
            a = getattr(reference, name)[:n]
            b = getattr(grower, name)[:n]
            assert a.tobytes() == b.tobytes(), (name, slot)
        if grower.n_users > n:
            # Vacant rows never accrue playback or buffer state.
            assert not grower.delivered_kb[n:].any()
            assert not grower.buffer_occupancy_s[n:].any()
            assert not grower.total_rebuffering_s[n:].any()


@given(
    first_size=st.floats(400.0, 2_000.0),
    second_size=st.floats(400.0, 2_000.0),
    rate=st.floats(100.0, 800.0),
    pre=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=8),
    post=st.lists(st.floats(0.0, 500.0), min_size=1, max_size=8),
)
@settings(max_examples=40, deadline=None)
def test_recycled_row_matches_fresh_fleet(first_size, second_size, rate, pre, post):
    recycled = ClientFleet.with_capacity(2, tau_s=1.0, buffer_capacity_s=30.0)
    first = _flows([first_size], [rate])[0]
    recycled.load_rows([0], [first])
    for slot, kb in enumerate(pre):
        offer = np.zeros(2)
        offer[0] = kb
        _drive(recycled, slot, offer)
    recycled.clear_rows([0])

    restart = len(pre)
    second = VideoFlow(
        user_id=1,
        video=VideoSession(second_size, ConstantBitrateProfile(rate)),
        arrival_slot=restart,
    )
    recycled.load_rows([0], [second])
    fresh = ClientFleet([second], tau_s=1.0, buffer_capacity_s=30.0)
    for k, kb in enumerate(post):
        slot = restart + k
        offer = np.zeros(2)
        offer[0] = kb
        _drive(recycled, slot, offer)
        _drive(fresh, slot, [kb])
        for name in FLEET_STATE:
            got = getattr(recycled, name)[0]
            want = getattr(fresh, name)[0]
            assert got == want, (name, slot, got, want)


@given(
    tx=st.lists(
        st.lists(st.booleans(), min_size=4, max_size=4),
        min_size=2,
        max_size=16,
    ),
    grow_at=st.integers(0, 15),
    extra=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_rrc_grow_preserves_state_and_energy(tx, grow_at, extra):
    n = 4
    reference = RRCFleet(n)
    grower = RRCFleet(n)
    for slot, row in enumerate(tx):
        if slot == min(grow_at, len(tx) - 1):
            grower.grow(n + extra)
        mask = np.asarray(row, dtype=bool)
        e_ref = reference.step(mask, 1.0)
        pad = np.zeros(grower.n_users, dtype=bool)
        pad[:n] = mask
        e_grow = grower.step(pad, 1.0)
        assert e_ref.tobytes() == e_grow[:n].tobytes(), slot
        assert reference.idle_age_s.tobytes() == grower.idle_age_s[:n].tobytes()
        assert (
            reference.ever_transmitted.tobytes()
            == grower.ever_transmitted[:n].tobytes()
        )
        if grower.n_users > n:
            # New rows come up cold: no tail energy without a transmission.
            assert not e_grow[n:].any()


@given(
    tx=st.lists(st.booleans(), min_size=1, max_size=10),
    idle_steps=st.integers(1, 6),
)
@settings(max_examples=40, deadline=None)
def test_rrc_reset_rows_ends_the_tail(tx, idle_steps):
    rrc = RRCFleet(2)
    for bit in tx:
        rrc.step(np.array([bit, False]), 1.0)
    rrc.reset_rows([0])
    assert not rrc.ever_transmitted[0]
    for _ in range(idle_steps):
        energy = rrc.step(np.zeros(2, dtype=bool), 1.0)
        assert energy[0] == 0.0, "reset row must not pay tail energy"

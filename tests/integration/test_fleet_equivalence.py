"""The fleet hot path, pinned two ways.

:class:`~repro.media.fleet.ClientFleet` is the engine's only client
state.  Two guards keep it honest:

* **Per-row oracle** — driven with the same random offers, every fleet
  row evolves bit-for-bit like a scalar
  :class:`~repro.media.player.StreamingClient` (staggered arrivals,
  capped and uncapped buffers, CBR and VBR profiles), checked after
  every slot.
* **Zero-churn grid digests** — the engine once also ran a per-object
  path over ``StreamingClient`` instances, and these tests compared
  the two engine paths grid for grid.  That path is gone; its grids
  live on as sha256 digests, recorded when both paths (and the
  fixed-population engine body) still existed and agreed byte for
  byte.  Every scheduler is pinned on the shapes that exercise the
  fixed population's edge cases: several seeds, uncapped buffers, VBR,
  staggered arrivals, and mid-run completion.

A third guarantee rides along: a traced run passes the offline
invariant checkers of :mod:`repro.obs.analyze` with zero violations.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    DefaultScheduler,
    EStreamerScheduler,
    OnOffScheduler,
    SalsaScheduler,
    ThrottlingScheduler,
)
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.media.fleet import ClientFleet
from repro.media.player import PlayerState, StreamingClient
from repro.media.video import (
    ConstantBitrateProfile,
    PiecewiseBitrateProfile,
    VideoSession,
)
from repro.net.flows import VideoFlow
from repro.obs import Instrumentation, JsonlTraceWriter, check_trace
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.workload import Workload, generate_workload

RESULT_ARRAYS = (
    "allocation_units",
    "delivered_kb",
    "rebuffering_s",
    "energy_trans_mj",
    "energy_tail_mj",
    "buffer_s",
    "need_kb",
    "active",
    "completion_slot",
    "arrival_slot",
)

SCHEDULERS = {
    "rtma": lambda cfg: RTMAScheduler(sig_threshold_dbm=-95.0),
    "ema": lambda cfg: EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s),
    "default": lambda cfg: DefaultScheduler(),
    "on-off": lambda cfg: OnOffScheduler(),
    "throttling": lambda cfg: ThrottlingScheduler(),
    "estreamer": lambda cfg: EStreamerScheduler(),
    "salsa": lambda cfg: SalsaScheduler(),
}


def grid_digest(result) -> str:
    """sha256 over every result grid's name, dtype and raw bytes."""
    h = hashlib.sha256()
    for name in RESULT_ARRAYS:
        arr = getattr(result, name)
        h.update(name.encode())
        h.update(arr.dtype.str.encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _scenario(name, seed=None):
    if name == "seeds":
        cfg = SimConfig(
            n_users=10, n_slots=250, capacity_kbps=6_000.0,
            video_size_range_kb=(20_000.0, 50_000.0), buffer_capacity_s=60.0,
            seed=seed,
        )
        return cfg, generate_workload(cfg)
    if name == "uncapped":
        cfg = SimConfig(
            n_users=8, n_slots=200, capacity_kbps=5_000.0, seed=3,
            buffer_capacity_s=None,
        )
        return cfg, generate_workload(cfg)
    if name == "completion":
        # Sessions finish early: completion is recorded once, rows stay
        # resident and their RRC tails run on.
        cfg = SimConfig(
            n_users=6, n_slots=150, capacity_kbps=8_000.0,
            video_size_range_kb=(500.0, 1_500.0), buffer_capacity_s=40.0,
            seed=13,
        )
        return cfg, generate_workload(cfg)
    if name == "staggered":
        # Hand-built arrivals without churn: every session still takes
        # its row at slot 0; the fleet masks it until it arrives.
        cfg = SimConfig(n_users=6, n_slots=220, capacity_kbps=4_000.0, seed=9)
        base = generate_workload(cfg)
        flows = [
            VideoFlow(
                user_id=f.user_id,
                video=f.video,
                arrival_slot=(f.user_id * 25) % 120,
                protocol=f.protocol,
            )
            for f in base.flows
        ]
        return cfg, Workload(flows=flows, signal_dbm=base.signal_dbm)
    assert name == "vbr"
    cfg = SimConfig(
        n_users=8, n_slots=200, capacity_kbps=5_000.0, vbr_segments=15,
        buffer_capacity_s=30.0, seed=5,
    )
    return cfg, generate_workload(cfg)


#: Result-grid digests of the per-object engine path, recorded while it
#: still existed (the fleet path matched it byte for byte).
OBJECT_PATH_DIGESTS = {
    ("seeds", 1, "default"): "b14f2709fc021f43d5548798c878c53017f2f38e5354e2e0d7a2652d67ead771",
    ("seeds", 1, "ema"): "4dc5e00ecb16727906a0602933cb2a8fd979286560a48a30ffcd36bd10e7be02",
    ("seeds", 1, "estreamer"): "57e84f7e4baf8d9ecbad2e6c6dd541b0228fcf35a0824759053a3b55c21f309b",
    ("seeds", 1, "on-off"): "f5c074a68e8a7aba514693ad74f37d994411e8917406ab70424ff8cc625a6b8a",
    ("seeds", 1, "rtma"): "66bf79083b6bd40bec17418778bcb9287b3103515db815653bf811ff2a9b15d1",
    ("seeds", 1, "salsa"): "770f06989632266fb9e03ea7108aa24700c435ea61562dbf425ecc0e6940ac7f",
    ("seeds", 1, "throttling"): "ca49a4f4fab8651693e1679a66b5fedf50b0141e6c073c2b4d45b6af00979c39",
    ("seeds", 7, "default"): "9907110324b85159dd25340fd6cf73d7a660201667fec3fb9f59dccf3bb5a475",
    ("seeds", 7, "ema"): "b48059fdb9ef954b9ae6f1d70837eb485ee905679d179440e484f6fe8100ba9a",
    ("seeds", 7, "estreamer"): "71a67436e714f3decc273bb14a42c8370ffd15ef9fc03308f22ce0d7e1e4b73b",
    ("seeds", 7, "on-off"): "50b3ff81af11aa7739f7f63215b537921903f2a4ab3fb332a85dbfb4b6c17120",
    ("seeds", 7, "rtma"): "1b495a460cfd115699b33b5b3d0c7900b8783abb8c26ceb9e0eaeaf19fa415a9",
    ("seeds", 7, "salsa"): "cde943d0396d1d5f415cf000aba7f9761f9c64752231bcf94566b0f3c7e652e4",
    ("seeds", 7, "throttling"): "59c20784690aa2fb6193c8837d829749e2871c1cdf16ff75fc6d61b730035dce",
    ("seeds", 23, "default"): "9cb3958ed6ddf5748ff2191b709f1c357f25a521b28ff5954bea06daeb05f5bb",
    ("seeds", 23, "ema"): "52a36dc207e2a21cdda2384893031801e40e2b4f790e7d73bc8988111307e51b",
    ("seeds", 23, "estreamer"): "38d2c52354df8d09ac2dd11390b2f6fd7cd2d35a6d349972eab433577d645bc7",
    ("seeds", 23, "on-off"): "475c660b61c2a27506f73f88c47b1dca6abe0fa5200336f315bcaf3d794863c5",
    ("seeds", 23, "rtma"): "d3ec56f62dcce3972151fa9c96c3972245f8aca1b677c4456d0ab29dce1266c4",
    ("seeds", 23, "salsa"): "cb9724d96099f5cc77c090b7abd913a6eecfb93dff28358fdef97083a2414f28",
    ("seeds", 23, "throttling"): "264ead2eab1737231e16e544292f287f90ed3ca544954b07dcf49c1fd6dc1c3f",
    ("uncapped", None, "default"): "e5d4efdd119f2cbe3ec93d0c8afccfcd6c2873bb82c631ccaae1e14b3ae3230a",
    ("uncapped", None, "ema"): "397f8b6bc33938e6653bddddb2d9738a22c10af010e5697ad95e321fd3507f82",
    ("uncapped", None, "rtma"): "7eed0d5a186f47c2a18113b662a545dc7f1e3b1a54319710e5681f72259bf1d7",
    ("completion", None, "default"): "e09f8a6793dd73ecffb01fa4a1733d854ec5b9c806176e61f8e72fdcccf59de0",
    ("completion", None, "ema"): "8ca38bf34c2d9de98dffa9c18ce222c3b0a3042e88370507706a8117a0eea3bd",
    ("completion", None, "estreamer"): "e09f8a6793dd73ecffb01fa4a1733d854ec5b9c806176e61f8e72fdcccf59de0",
    ("completion", None, "on-off"): "e09f8a6793dd73ecffb01fa4a1733d854ec5b9c806176e61f8e72fdcccf59de0",
    ("completion", None, "rtma"): "f537af6d7ab22a160712b7df978c5a66cfa6f4c20a6a77d119d95fe2549dcfd4",
    ("completion", None, "salsa"): "6ed0cc509ad38764e3f98d49965b46247d762ad19ec5449577df46f71290e625",
    ("completion", None, "throttling"): "ac4b5c0d36d4d30d33e40b406bcf9164fef33b8c58052ccab92c1dca3805bdb1",
    ("staggered", None, "default"): "5a4cac3d99bbdacaf83b7ec8b8a723557289851ee716551dcc537e812c284019",
    ("staggered", None, "ema"): "a80fef0f71686016b86b537c3eba807ddd17990c4a51ac45ad641f94ad67f38f",
    ("staggered", None, "estreamer"): "133d787f033d77fe93307cd08d9250cbc3712cbf3945d9b46035e24987ec26f9",
    ("staggered", None, "on-off"): "c38008855b6a076847265933d7f54779d601263ed81ace267d4bc62658da4946",
    ("staggered", None, "rtma"): "9405385d2db71a07ddc19c0770d895faf9b8788047b0dd77561a8ba701778916",
    ("staggered", None, "salsa"): "43fac3e7d7d22fa2ca948aa45a6442a87121d7b15172b01434d7962d057f2825",
    ("staggered", None, "throttling"): "4ce0b058a1aaa2494903824efcf98e8640b5ba555e54bbd616cd18ca1292ad94",
    ("vbr", None, "default"): "1f7618993ee5f6fc409d4a3487ea30e7fe99a0c9233ef450e019a37ccd6f2fa0",
    ("vbr", None, "ema"): "967a88f27ed141d14d1bcfe976639dcc91f24888c4b06108dd9c46cb9cf49c35",
    ("vbr", None, "estreamer"): "1f7618993ee5f6fc409d4a3487ea30e7fe99a0c9233ef450e019a37ccd6f2fa0",
    ("vbr", None, "on-off"): "1f7618993ee5f6fc409d4a3487ea30e7fe99a0c9233ef450e019a37ccd6f2fa0",
    ("vbr", None, "rtma"): "b2bc27c7e396b1a4d7caff9e77124e5418db9538cbf4796a26d81a2b2b9c3a77",
    ("vbr", None, "salsa"): "b1fcf4c2b258db03189f0d4681cfc801cee6fd0361910dff168943c12a80ed2c",
    ("vbr", None, "throttling"): "a936749c85e472d7280a4da9c1c1fc141039331125ae35497e07427a41c1c7c3",
}


def assert_matches_object_path(scenario, sched_name, seed=None):
    cfg, wl = _scenario(scenario, seed)
    res = Simulation(cfg, SCHEDULERS[sched_name](cfg), wl).run()
    assert res.admitted is None  # zero churn: no session bookkeeping
    assert grid_digest(res) == OBJECT_PATH_DIGESTS[scenario, seed, sched_name], (
        f"{scenario}/{sched_name} grids differ from the object path"
    )
    return res


class TestBitIdentity:
    """Zero-churn grids equal the recorded object-path grids."""

    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_all_schedulers_all_seeds(self, sched_name, seed):
        assert_matches_object_path("seeds", sched_name, seed)

    @pytest.mark.parametrize("sched_name", ["rtma", "ema", "default"])
    def test_uncapped_buffers(self, sched_name):
        assert_matches_object_path("uncapped", sched_name)

    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    def test_vbr_profiles(self, sched_name):
        assert_matches_object_path("vbr", sched_name)

    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    def test_staggered_arrivals(self, sched_name):
        assert_matches_object_path("staggered", sched_name)

    def test_tiny_videos_complete_mid_run(self):
        # Sessions finish early: completion is recorded once, rows stay
        # resident and their RRC tails run on — for every scheduler.
        for sched_name in sorted(SCHEDULERS):
            res = assert_matches_object_path("completion", sched_name)
            assert (res.completion_slot >= 0).any()


class TestFleetTraceInvariants:
    @pytest.mark.parametrize("sched_name", ["rtma", "ema"])
    def test_fleet_trace_is_violation_free(self, tmp_path, sched_name):
        cfg = SimConfig(
            n_users=8, n_slots=200, capacity_kbps=5_000.0,
            buffer_capacity_s=60.0, seed=4,
        )
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTraceWriter(path)
        Simulation(
            cfg,
            SCHEDULERS[sched_name](cfg),
            instrumentation=Instrumentation(tracer=tracer),
        ).run()
        tracer.close()
        ((tl, report),) = check_trace(path)
        assert tl.scheduler == sched_name
        assert report.ok, report.render()


def _assert_row_matches_client(fleet, row, client, slot):
    view = fleet.view(row)
    assert view.delivered_kb == client.delivered_kb
    assert view.delivered_playback_s == client.delivered_playback_s
    assert view.elapsed_playback_s == client.elapsed_playback_s
    assert view.total_rebuffering_s == client.total_rebuffering_s
    assert view.buffer_occupancy_s == client.buffer_occupancy_s
    assert fleet.pending_playback_s[row] == client._pending_playback_s
    assert view.last_slot_rebuffering_s == client.last_slot_rebuffering_s
    assert view.remaining_kb == client.remaining_kb
    assert view.fully_delivered == client.fully_delivered
    assert view.playback_complete == client.playback_complete
    assert view.needs_data == client.needs_data
    assert view.receivable_kb(slot) == client.receivable_kb(slot)


_profiles = st.one_of(
    st.floats(20.0, 400.0).map(ConstantBitrateProfile),
    st.builds(
        PiecewiseBitrateProfile,
        st.lists(st.floats(20.0, 400.0), min_size=1, max_size=4),
        segment_slots=st.integers(1, 5),
    ),
)
_sessions = st.lists(
    st.tuples(st.floats(10.0, 3_000.0), _profiles, st.integers(0, 8)),
    min_size=1,
    max_size=5,
)


class TestFleetClientView:
    """The fleet mirrors StreamingClient stepwise, row by row."""

    def _flows(self):
        return [
            VideoFlow(0, VideoSession(400.0, ConstantBitrateProfile(100.0))),
            VideoFlow(1, VideoSession(600.0, ConstantBitrateProfile(150.0)),
                      arrival_slot=3),
        ]

    def test_view_matches_streaming_client(self):
        flows = self._flows()
        fleet = ClientFleet(flows, tau_s=1.0, buffer_capacity_s=10.0)
        clients = [
            StreamingClient(f.video, 1.0, buffer_capacity_s=10.0) for f in flows
        ]
        rng = np.random.default_rng(0)
        for slot in range(12):
            offers = rng.uniform(0.0, 200.0, size=2)
            rebuf = np.zeros(2)
            for i, c in enumerate(clients):
                if slot < flows[i].arrival_slot:
                    continue
                rebuf[i], _ = c.begin_slot(slot)
            fleet_rebuf = fleet.begin_slot(slot)
            np.testing.assert_array_equal(rebuf, fleet_rebuf)

            capped = np.array(
                [
                    min(offers[i], c.remaining_kb, c.receivable_kb(slot))
                    for i, c in enumerate(clients)
                ]
            )
            accepted_obj = np.array(
                [
                    c.deliver(capped[i], slot) if capped[i] > 0 else 0.0
                    for i, c in enumerate(clients)
                ]
            )
            accepted_fleet = fleet.deliver(np.maximum(offers, 0.0), slot)
            np.testing.assert_array_equal(accepted_obj, accepted_fleet)

            for i, c in enumerate(clients):
                _assert_row_matches_client(fleet, i, c, slot)
                assert isinstance(fleet.view(i).state, PlayerState)

    @settings(max_examples=60, deadline=None)
    @given(
        sessions=_sessions,
        capacity_s=st.one_of(st.none(), st.floats(1.0, 30.0)),
        tau_s=st.sampled_from([0.5, 1.0, 2.0]),
        offers=st.lists(
            st.lists(st.floats(0.0, 600.0), min_size=5, max_size=5),
            min_size=1,
            max_size=30,
        ),
    )
    def test_rows_match_streaming_clients(self, sessions, capacity_s, tau_s, offers):
        # The engine's offer discipline: a session is offered media only
        # once it has arrived (allocations to inactive users are
        # rejected by check_constraints); the client truncates the
        # offer to its remaining media and receiver window.
        flows = [
            VideoFlow(i, VideoSession(size, profile), arrival_slot=arrival)
            for i, (size, profile, arrival) in enumerate(sessions)
        ]
        n = len(flows)
        fleet = ClientFleet(flows, tau_s=tau_s, buffer_capacity_s=capacity_s)
        clients = [
            StreamingClient(f.video, tau_s, buffer_capacity_s=capacity_s)
            for f in flows
        ]
        for slot, row in enumerate(offers):
            arrived = np.array([slot >= f.arrival_slot for f in flows])
            offer = np.where(arrived, np.array(row[:n]), 0.0)

            rebuf = np.zeros(n)
            for i, c in enumerate(clients):
                if arrived[i]:
                    rebuf[i], _ = c.begin_slot(slot)
            assert fleet.begin_slot(slot).tobytes() == rebuf.tobytes()

            accepted = np.array(
                [
                    c.deliver(offer[i], slot) if offer[i] > 0 else 0.0
                    for i, c in enumerate(clients)
                ]
            )
            assert fleet.deliver(offer, slot).tobytes() == accepted.tobytes()
            for i, c in enumerate(clients):
                _assert_row_matches_client(fleet, i, c, slot)

    def test_views_are_cached(self):
        fleet = ClientFleet(self._flows(), tau_s=1.0)
        assert fleet.view(0) is fleet.view(0)
        assert len(fleet.clients) == 2

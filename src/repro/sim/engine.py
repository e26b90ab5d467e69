"""The slot-driven simulation engine.

One slot loop serves every run.  Each slot runs the paper's pipeline
in order:

0. **Session lifecycle** — sessions whose arrival slot has come pass
   the admission policy and take a row of the growable row space
   (:class:`~repro.sim.sessions.SessionManager`).  The paper's fixed
   population is the special case "every session arrives at slot 0":
   session ``i`` takes row ``i`` before the first slot and keeps it.
1. **Playback phase** — every client applies Eq. (7) with the media
   delivered last slot, records this slot's rebuffering (Eq. 8), and
   plays;
2. **Observation** — the gateway's Information Collector assembles the
   cross-layer :class:`~repro.net.gateway.SlotObservation` (RSSI, DPI
   rates, BS slice capacity, client feedback, prospective tail costs);
3. **Scheduling** — the policy returns ``phi_i(n)``, validated against
   constraints (1)-(2) (a violating policy raises, it never cheats);
4. **Transmission** — shards flow through Data Receiver queues to the
   clients; transmission energy is ``P(sig_i) * delivered`` (Eq. 3);
5. **Radio accounting** — the RRC fleet advances: transmitting users
   reset their tails, idle users accrue incremental tail energy
   (Eq. 4/5);
6. **Feedback** — the scheduler's ``notify`` hook sees the delivered
   amounts (EMA updates its virtual queues here).

On churn runs (:attr:`~repro.sim.config.SimConfig.has_churn`) a
session that finishes playback is retired at the end of that slot and
its row is recycled; without churn rows are never retired, so RRC
tails run on to the horizon.  Result grids and trace payloads are
keyed by session whatever the row a session occupies.

The engine is deliberately strict: it asserts conservation invariants
as it goes (delivered bytes never exceed capacity or session size) and
fails loudly on scheduler misbehaviour.

Observability: pass an :class:`~repro.obs.instrument.Instrumentation`
bundle (or establish one ambiently with
:func:`~repro.obs.instrument.use_instrumentation`) and the engine times
every phase, counts slots/energy into the metrics registry, and emits
one ``"slot"`` trace event per simulated slot.  Instrumentation is
strictly observational — instrumented and plain runs are bit-identical.
"""

from __future__ import annotations

import logging
from time import perf_counter

import numpy as np

from repro.core.admission import make_admission_policy
from repro.core.allocation import check_constraints
from repro.errors import SimulationError
from repro.faults import current_fault_plan
from repro.kernels import SlotArena, backend_info, use_backend
from repro.media.fleet import ClientFleet
from repro.net.basestation import BaseStation, ConstantCapacity, FaultyCapacity
from repro.net.gateway import Gateway
from repro.net.slicing import ResourceSlicer
from repro.obs.instrument import Instrumentation, current_instrumentation
from repro.obs.spans import SLOT_PREFIX, activate_spans
from repro.radio.linktable import LinkTable
from repro.radio.rrc import RRCFleet, fleet_occupancy_from_tx
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult
from repro.sim.sessions import INITIAL_CAPACITY, SessionManager
from repro.sim.workload import Workload, generate_workload

__all__ = ["Simulation"]

log = logging.getLogger("repro.sim.engine")

#: Scheduler attributes worth pinning in the trace's ``run.start``
#: event — the invariant checkers key off these (RTMA's Eq. 10/12
#: budget and threshold, EMA's Lyapunov V and queue floor).
_TRACED_SCHEDULER_PARAMS = (
    "sig_threshold_dbm",
    "energy_budget_mj_per_slot",
    "v_param",
    "queue_floor_s",
)


#: Signal (dBm) vacant rows observe on churn runs; they are inactive,
#: so schedulers allocate them nothing.
_VACANT_DBM = -110.0


def _resident_mean(buffer_row: np.ndarray, session_row: np.ndarray) -> float:
    """Mean of a session-keyed row over resident sessions (0.0 if none)."""
    resident = buffer_row[session_row >= 0]
    return float(resident.mean()) if resident.size else 0.0


#: Slots per hierarchical-span slot block: the span profiler closes one
#: ``run;slots`` span every this many slots (same batching idea as the
#: live plane's ``watch_every``) so block accounting costs the hot loop
#: a single comparison per slot.
SPAN_BLOCK_SLOTS = 64


def _emit_fault_windows(tracer, plan) -> None:
    """One ``fault.window`` trace event per injected window, emitted at
    run start so trace analysis sees the full plan before any slot."""
    for w in plan.signal:
        tracer.emit(
            "fault.window",
            fault="signal",
            start_slot=w.start_slot,
            n_slots=w.n_slots,
            users=list(w.users) if w.users is not None else None,
            level_dbm=w.level_dbm,
        )
    for w in plan.capacity:
        tracer.emit(
            "fault.window",
            fault="capacity",
            start_slot=w.start_slot,
            n_slots=w.n_slots,
            factor=w.factor,
        )
    for w in plan.stalls:
        tracer.emit(
            "fault.window",
            fault="stall",
            start_slot=w.start_slot,
            n_slots=w.n_slots,
            users=list(w.users),
        )


def _fault_counters(metrics, plan, outage_mask, gamma: int) -> None:
    """Batch-derived ``fault.*`` counters (only created on faulted runs,
    so healthy-path registries stay byte-identical to the seed)."""
    metrics.counter("fault.outage_slots").inc(int(outage_mask.sum()))
    if plan.signal:
        metrics.counter("fault.signal_slots").inc(
            int(plan.signal_slot_mask(gamma).sum())
        )
    if plan.capacity:
        metrics.counter("fault.capacity_slots").inc(
            int(plan.capacity_slot_mask(gamma).sum())
        )
    if plan.stalls:
        metrics.counter("fault.stall_slots").inc(
            int(plan.stall_slot_mask(gamma).sum())
        )


def _scheduler_trace_params(scheduler) -> dict:
    """The scheduler's traced parameters (missing attributes skipped)."""
    out = {}
    for attr in _TRACED_SCHEDULER_PARAMS:
        if hasattr(scheduler, attr):
            value = getattr(scheduler, attr)
            if value is None or isinstance(value, (int, float)):
                out[attr] = value
    return out


class Simulation:
    """One scheduler, one workload, one run.

    Parameters
    ----------
    config:
        The run parameters.
    scheduler:
        Any :class:`~repro.core.scheduler.Scheduler`.
    workload:
        Pre-generated workload; ``None`` generates one from the
        config's seed.  Pass the same :class:`Workload` object to
        several simulations to compare schedulers head-to-head.
    instrumentation:
        Optional observability bundle.  ``None`` falls back to the
        ambient bundle established by
        :func:`~repro.obs.instrument.use_instrumentation` (and runs
        fully uninstrumented when there is none).
    """

    def __init__(
        self,
        config: SimConfig,
        scheduler,
        workload: Workload | None = None,
        instrumentation: Instrumentation | None = None,
    ):
        self.config = config
        self.scheduler = scheduler
        self.instrumentation = instrumentation
        self.workload = workload if workload is not None else generate_workload(config)
        if self.workload.n_users != config.n_users:
            raise SimulationError(
                f"workload has {self.workload.n_users} users, config says {config.n_users}"
            )
        if self.workload.n_slots < config.n_slots:
            raise SimulationError(
                f"workload trace covers {self.workload.n_slots} slots, "
                f"config needs {config.n_slots}"
            )

    def run(self) -> SimulationResult:
        """Execute the full horizon and return the result record."""
        if self.config.kernel_backend is not None:
            # The whole run — including scheduler.reset(), which clears
            # cached kernel resolutions — executes under the configured
            # backend.
            with use_backend(self.config.kernel_backend):
                return self._run()
        return self._run()

    def _run(self) -> SimulationResult:
        instr = (
            self.instrumentation
            if self.instrumentation is not None
            else current_instrumentation()
        )
        spans = instr.spans if instr is not None else None
        if spans is None:
            return self._run_body(instr)
        # Activate the recorder for the *whole* body — scheduler.reset()
        # and the lazy fleet/RRC kernel resolutions all happen inside,
        # so every registry-resolved kernel self-reports its span.
        with activate_spans(spans), spans.span("run"):
            return self._run_body(instr)

    def _run_body(self, instr: Instrumentation | None) -> SimulationResult:
        cfg = self.config
        radio = cfg.radio
        n, gamma = cfg.n_users, cfg.n_slots
        # The one switch between the paper's fixed population and its
        # churn generalisation.  Without churn every session takes row
        # == its index at slot 0 and is never retired (RRC tails run on
        # to the horizon); every session-lifecycle output — result
        # fields, session.* trace events, the lifecycle keys of
        # run.start/slot/run.end, sessions.* counters — is gated on it.
        churn = cfg.has_churn

        # Fault injection: a plan on the config wins; otherwise the
        # ambient plan (repro-experiments --faults) applies.  With
        # neither, every fault hook below compiles to the historical
        # no-op path — bit-identical to the seed behaviour.
        plan = cfg.faults if cfg.faults is not None else current_fault_plan()
        faults_on = plan is not None and not plan.is_empty

        # The hot loop appends perf_counter deltas to the profiler's raw
        # sample lists rather than entering a context manager per phase
        # per slot, and all registry accounting that can be derived from
        # the recorded grids happens in one vectorised batch after the
        # loop — this is what keeps NullTracer instrumentation under the
        # 2% overhead budget (guarded in benchmarks/bench_kernels.py).
        instrumented = instr is not None
        live = instr.live if instrumented else None
        live_on = live is not None
        spans = instr.spans if instrumented else None
        spans_on = spans is not None
        trace_on = False
        if instrumented:
            tracer = instr.tracer
            trace_on = tracer.enabled
            prof = instr.profiler
            # Register phases in pipeline order so the summary table
            # reads top-to-bottom like a slot (observe/schedule/transmit
            # are appended to by the gateway).
            _pc = perf_counter
            rec_playback = prof.samples("playback").append
            prof.samples("observe")
            prof.samples("schedule")
            prof.samples("transmit")
            rec_rrc = prof.samples("rrc").append
            rec_feedback = prof.samples("feedback").append
            budgets = np.zeros(gamma, dtype=np.int64)
        session_events = churn and trace_on
        if spans_on:
            # Phase spans are *derived* from the profiler's sample
            # lists after the loop (see _fold_phase_spans below) — the
            # slot loop pays nothing for them.  Intern the phase nodes
            # now, in pipeline order, so they precede the kernel nodes
            # resolved mid-run and the flame graph reads like a slot.
            rec_block = spans.adder(spans.path_node(SLOT_PREFIX))
            _span_phase_ids = {
                ph: spans.slot_phase_id(ph)
                for ph in (
                    "playback", "observe", "schedule", "transmit",
                    "rrc", "feedback",
                )
            }
            # The profiler may already hold samples from an earlier
            # run against the same bundle; fold only this run's tail.
            _span_phase_base = {
                ph: len(prof.samples(ph)) for ph in _span_phase_ids
            }

            def _fold_phase_spans() -> None:
                # Totals are computed exactly the way
                # PhaseProfiler.summary() computes them — float(sum())
                # over the sorted samples — so span phase totals equal
                # profiler totals bit-for-bit.
                for ph, node in _span_phase_ids.items():
                    tail = prof.samples(ph)[_span_phase_base[ph]:]
                    if tail:
                        spans.add_bulk(node, len(tail), float(sum(sorted(tail))))

        self.scheduler.reset()
        self.scheduler.bind_instrumentation(instr)

        # Row space: n rows on a zero-churn run (all admitted at slot
        # 0); INITIAL_CAPACITY rows on a churn run, doubling on demand.
        capacity = min(n, INITIAL_CAPACITY) if churn else n
        fleet = ClientFleet.with_capacity(capacity, cfg.tau_s, cfg.buffer_capacity_s)
        # Per-row scratch beyond the fleets' own state.
        arena = SlotArena(capacity)
        rrc = RRCFleet(capacity, radio.rrc)
        cap_model = ConstantCapacity(cfg.capacity_kbps)
        if faults_on and plan.capacity:
            cap_model = FaultyCapacity(cap_model, plan.capacity_factors(gamma))
        bs = BaseStation(cap_model, cfg.delta_kb, cfg.tau_s)
        slicer = ResourceSlicer(cfg.background) if cfg.background else ResourceSlicer()
        gateway = Gateway(
            self.scheduler, bs, capacity, slicer=slicer, fetch_ahead_kb=cfg.fetch_ahead_kb
        )
        if churn:
            # Row-capacity alignment: stateful schedulers built for
            # cfg.n_users shrink once here, before any state accrues.
            self.scheduler.grow_users(capacity)
        flows = self.workload.flows
        mgr = SessionManager(
            flows, fleet, rrc, arena, gateway.receiver, self.scheduler,
            all_at_start=not churn,
        )
        policy = make_admission_policy(cfg)
        policy.reset()
        nominal_budget = cfg.unit_budget_per_slot

        alloc = np.zeros((gamma, n), dtype=np.int64)
        delivered = np.zeros((gamma, n), dtype=float)
        rebuf = np.zeros((gamma, n), dtype=float)
        e_trans = np.zeros((gamma, n), dtype=float)
        e_tail = np.zeros((gamma, n), dtype=float)
        buffer_s = np.zeros((gamma, n), dtype=float)
        need_kb = np.zeros((gamma, n), dtype=float)
        active_rec = np.zeros((gamma, n), dtype=bool)
        completion = np.full(n, -1, dtype=np.int64)
        departure = np.full(n, -1, dtype=np.int64)

        signal = self.workload.signal_dbm
        if faults_on:
            # Blackouts are applied to a *copy* of the generated trace
            # (the workload object itself is shared across schedulers
            # and must stay pristine), and the stall/outage masks are
            # precomputed once.  Windows name *sessions*; the per-slot
            # gather below carries them into whatever row each session
            # occupies.
            signal = plan.apply_signal(signal)
            stall_grid = plan.stall_grid(gamma, n)
            outage_mask = plan.outage_slot_mask(gamma)
        else:
            stall_grid = None
            outage_mask = None
        # Eq. (1)/(24) rows of the whole trace, evaluated a block of
        # slots at a time.  Churn runs gather rows through the row map,
        # whose vacant rows point at one extra floor-signal column.
        table = LinkTable(
            [signal], gamma, cfg.tau_s, cfg.delta_kb, radio.throughput,
            radio.power, pad_dbm=_VACANT_DBM if churn else None,
        )
        if churn and stall_grid is not None:
            stall_cols = np.zeros((gamma, n + 1), dtype=bool)
            stall_cols[:, :n] = stall_grid
        arrivals = np.array([f.arrival_slot for f in flows], dtype=np.int64)

        scheduler_name = getattr(
            self.scheduler, "name", type(self.scheduler).__name__
        )
        if trace_on:
            # Run boundary + the parameters trace analysis needs to
            # segment multi-run traces and select invariant checkers.
            tracer.emit(
                "run.start",
                scheduler=scheduler_name,
                n_users=n,
                n_slots=gamma,
                tau_s=cfg.tau_s,
                delta_kb=cfg.delta_kb,
                seed=cfg.seed,
                kernel_backend=backend_info()["resolved"],
                **(
                    {"arrival_process": cfg.arrival_process, "admission": cfg.admission}
                    if churn
                    else {}
                ),
                rrc={
                    "pd_mw": radio.rrc.pd_mw,
                    "pf_mw": radio.rrc.pf_mw,
                    "t1_s": radio.rrc.t1_s,
                    "t2_s": radio.rrc.t2_s,
                },
                params=_scheduler_trace_params(self.scheduler),
                **({"faults": plan.spec()} if faults_on else {}),
            )
            if faults_on:
                _emit_fault_windows(tracer, plan)
        if live_on:
            live.begin_run(scheduler_name, n_slots=gamma, n_users=n)
            live_every = live.watch_every
            live_start = 0
        if spans_on:
            span_block_start = 0
            _block_t0 = perf_counter()

        slot = -1
        try:
            for slot in range(gamma):
                # 0. Session lifecycle: admit (or reject) every session
                #    whose arrival slot has come — all of them at slot 0
                #    without churn — in one batched row load.
                due = mgr.begin_slot(slot)
                if due:
                    rows = mgr.admit_due(slot, due, policy, nominal_budget)
                    if session_events:
                        for sess, row in zip(due, rows):
                            if row >= 0:
                                tracer.emit(
                                    "session.start",
                                    slot=slot,
                                    user=int(sess),
                                    row=row,
                                    arrival_slot=int(arrivals[sess]),
                                )
                            else:
                                tracer.emit(
                                    "session.reject",
                                    slot=slot,
                                    user=int(sess),
                                    policy=policy.name,
                                )
                # Row i holds session i: the slot's row-space vectors
                # are written straight into the session-keyed grids.
                # Otherwise they land in arena buffers and are scattered
                # through the cached row -> session map.
                ident = mgr.identity
                if ident:
                    rebuf_row, trans_row, tail_row = rebuf[slot], e_trans[slot], e_tail[slot]
                    sig_row, link_row, p_row = table.rows(slot)
                    sig_row, link_row, p_row = sig_row[:n], link_row[:n], p_row[:n]
                    stall_row = stall_grid[slot] if stall_grid is not None else None
                else:
                    occ, sess_of = mgr.occupied, mgr.occupied_sessions
                    rebuf_row, trans_row, tail_row = arena.rebuf_s, arena.trans_mj, arena.tail_mj
                    # Vacant rows see a floor signal; they are inactive,
                    # so schedulers allocate them nothing.
                    col = mgr.row_col
                    sig_row, link_row, p_row = table.rows_through(slot, col)
                    if stall_grid is not None:
                        stall_row = stall_cols[slot].take(col, out=arena.stall, mode="clip")
                    else:
                        stall_row = None

                # 1. Playback: Eq. (7)/(8) with last slot's deliveries.
                #    Sessions that have not arrived yet do not play (and do
                #    not accrue startup rebuffering).
                if instrumented:
                    _t0 = _pc()
                fleet.begin_slot(slot, out=rebuf_row)
                newly_done = np.logical_and(fleet.view_complete, mgr.live, out=arena.done)
                done_rows = None
                if newly_done.any():
                    done_rows = np.flatnonzero(newly_done)
                    completion[mgr.row_session[done_rows]] = slot
                    mgr.live[done_rows] = False
                if instrumented:
                    rec_playback(_pc() - _t0)

                # 2-4. Observe, schedule, transmit (timed inside the gateway).
                idle_cost = rrc.expected_idle_cost_mj(
                    cfg.tau_s, out=arena.idle_tail_cost_mj
                )
                obs, phi, sent_kb = gateway.step(
                    slot,
                    sig_row,
                    mgr.row_flows,
                    fleet,
                    link_row,
                    p_row,
                    idle_cost,
                    instrumentation=instr,
                    arena=arena,
                    joined_mask=mgr.joined_mask if churn else None,
                    departed_mask=mgr.departed_mask if churn else None,
                    stall_mask=stall_row,
                )
                check_constraints(phi, obs)

                # 5. Radio energy accounting (Eq. 5: trans XOR tail).
                #    Occupancy/tail metrics are batch-derived after the loop.
                if instrumented:
                    _t0 = _pc()
                tx_mask = np.greater(sent_kb, 0.0, out=arena.tx_mask)
                np.multiply(obs.p_mj_per_kb, sent_kb, out=trans_row)
                rrc.step(tx_mask, cfg.tau_s, out=tail_row)
                if instrumented:
                    rec_rrc(_pc() - _t0)

                # 6. Scheduler feedback.
                if instrumented:
                    _t0 = _pc()
                self.scheduler.notify(obs, phi, sent_kb)
                if instrumented:
                    rec_feedback(_pc() - _t0)

                if ident:
                    alloc[slot] = phi
                    delivered[slot] = sent_kb
                    buffer_s[slot] = obs.buffer_s
                    need_kb[slot] = obs.rate_kbps  # times tau after the loop
                    active_rec[slot] = obs.active
                elif occ.size:
                    alloc[slot, sess_of] = phi[occ]
                    delivered[slot, sess_of] = sent_kb[occ]
                    rebuf[slot, sess_of] = rebuf_row[occ]
                    e_trans[slot, sess_of] = trans_row[occ]
                    e_tail[slot, sess_of] = tail_row[occ]
                    buffer_s[slot, sess_of] = obs.buffer_s[occ]
                    need_kb[slot, sess_of] = obs.rate_kbps[occ]
                    active_rec[slot, sess_of] = obs.active[occ]

                if instrumented:
                    budgets[slot] = obs.unit_budget
                if trace_on:
                    # Per-user vectors: what repro.obs.analyze needs to
                    # reconstruct timelines and run the invariant
                    # checkers offline.  Only built when a real tracer is
                    # attached, so the NullTracer overhead budget is
                    # untouched.  Arena-backed vectors are referenced
                    # through the result grids or copied here — the arena
                    # reuses its buffers next slot, so raw references
                    # would go stale in a recording tracer.
                    if ident:
                        link_sess = np.array(obs.link_units)
                        rate_sess = obs.rate_kbps
                    else:
                        link_sess = np.zeros(n, dtype=np.int64)
                        rate_sess = np.zeros(n, dtype=float)
                        link_sess[sess_of] = obs.link_units[occ]
                        rate_sess[sess_of] = obs.rate_kbps[occ]
                    tracer.emit(
                        "slot",
                        slot=slot,
                        active_users=int(obs.active.sum()),
                        **(
                            {"resident_sessions": int(mgr.active_count)}
                            if churn
                            else {}
                        ),
                        tx_users=int(tx_mask.sum()),
                        allocated_units=int(phi.sum()),
                        unit_budget=int(obs.unit_budget),
                        delivered_kb=float(sent_kb.sum()),
                        rebuffering_s=float(rebuf[slot].sum()),
                        energy_trans_mj=float(e_trans[slot].sum()),
                        energy_tail_mj=float(e_tail[slot].sum()),
                        mean_buffer_s=(
                            _resident_mean(buffer_s[slot], mgr.session_row)
                            if churn
                            else float(obs.buffer_s.mean())
                        ),
                        users={
                            "phi": alloc[slot],
                            "delivered_kb": delivered[slot],
                            "rebuffering_s": rebuf[slot],
                            "buffer_s": buffer_s[slot],
                            "energy_trans_mj": e_trans[slot],
                            "energy_tail_mj": e_tail[slot],
                            "link_units": link_sess,
                            "sig_dbm": signal[slot],
                            "rate_kbps": rate_sess,
                            "active": active_rec[slot],
                        },
                    )

                # Retirement happens at the *end* of the completion slot
                # — the slot's tail accrual and accounting include the
                # session — and frees the row for recycling.  A slot's
                # population (trace resident_sessions, live
                # active_users) counts the sessions it retires.
                resident = mgr.active_count
                if churn and done_rows is not None:
                    retired = mgr.retire(done_rows)
                    departure[retired] = slot
                    if session_events:
                        for row, sess in zip(done_rows.tolist(), retired.tolist()):
                            tracer.emit("session.end", slot=slot, user=sess, row=row)

                # Live telemetry consumes whole blocks straight from the
                # result grids — one comparison per slot, vectorized
                # cell sums every watch_every slots (plus the run tail).
                if live_on and (slot - live_start + 1 >= live_every or slot == gamma - 1):
                    end = slot + 1
                    live.observe_block(
                        slot,
                        rebuf[live_start:end].sum(axis=1),
                        e_trans[live_start:end].sum(axis=1)
                        + e_tail[live_start:end].sum(axis=1),
                        delivered[live_start:end].sum(axis=1),
                        buffer_s[live_start:end].mean(axis=1),
                        active_users=int(resident),
                        outage_slots=(
                            int(outage_mask[live_start:end].sum())
                            if outage_mask is not None
                            else 0
                        ),
                    )
                    live_start = end
                # One run;slots span per block of SPAN_BLOCK_SLOTS slots
                # (plus the run tail) — a single comparison per slot.
                if spans_on and (
                    slot - span_block_start + 1 >= SPAN_BLOCK_SLOTS
                    or slot == gamma - 1
                ):
                    rec_block(_pc() - _block_t0)
                    span_block_start = slot + 1
                    _block_t0 = _pc()
        except BaseException as exc:
            # Leave a valid, parseable trace prefix behind a crashed (or
            # SLO-aborted) run: one final run.abort event, then flush and
            # close the writer before the exception propagates.
            if instrumented:
                log.warning(
                    "run aborted at slot %d: %s: %s",
                    slot,
                    type(exc).__name__,
                    exc,
                )
                if spans_on:
                    _fold_phase_spans()
                if trace_on:
                    tracer.emit(
                        "run.abort",
                        scheduler=scheduler_name,
                        slot=slot,
                        error=type(exc).__name__,
                        message=str(exc),
                    )
                if live_on:
                    live.abort_run(f"{type(exc).__name__}: {exc}")
                instr.close()
            raise

        if spans_on:
            _fold_phase_spans()

        np.multiply(need_kb, cfg.tau_s, out=need_kb)
        if not np.all(np.isfinite(e_trans)):
            raise SimulationError("non-finite transmission energy recorded")

        n_admitted = int(mgr.admitted.sum())
        n_rejected = int(mgr.rejected.sum())
        n_completed = int(mgr.completed.sum())
        if trace_on:
            tracer.emit(
                "run.end",
                scheduler=scheduler_name,
                n_slots=gamma,
                delivered_total_kb=float(delivered.sum()),
                energy_total_mj=float(e_trans.sum() + e_tail.sum()),
                rebuffering_total_s=float(rebuf.sum()),
                completed_users=int((completion >= 0).sum()),
                **(
                    {
                        "sessions": {
                            "offered": int(n),
                            "arrived": n_admitted + n_rejected,
                            "admitted": n_admitted,
                            "rejected": n_rejected,
                            "completed": n_completed,
                            "active": int(mgr.active_count),
                        }
                    }
                    if churn
                    else {}
                ),
            )
        if live_on:
            live.end_run()

        if instrumented:
            # Batch registry accounting: identical totals to per-slot
            # increments, derived from the recorded grids in a few
            # vectorised operations.
            metrics = instr.metrics
            kinfo = backend_info()
            metrics.gauge("kernels.backend").set(kinfo["resolved"])
            metrics.gauge("kernels.requested").set(kinfo["requested"])
            if kinfo["numba_version"] is not None:
                metrics.gauge("kernels.numba_version").set(kinfo["numba_version"])
            metrics.counter("engine.slots").inc(gamma)
            metrics.counter("energy.trans_mj").inc(float(e_trans.sum()))
            metrics.counter("rrc.tail_mj").inc(float(e_tail.sum()))
            occupancy = fleet_occupancy_from_tx(delivered > 0.0, cfg.tau_s, radio.rrc)
            metrics.counter("rrc.occupancy.dch").inc(occupancy["dch"])
            metrics.counter("rrc.occupancy.fach").inc(occupancy["fach"])
            metrics.counter("rrc.occupancy.idle").inc(occupancy["idle"])
            metrics.counter("scheduler.invocations").inc(gamma)
            if churn:
                metrics.counter("sessions.admitted").inc(n_admitted)
                metrics.counter("sessions.rejected").inc(n_rejected)
                metrics.counter("sessions.completed").inc(n_completed)
            used_units = alloc.sum(axis=1)
            near_miss = int(
                np.count_nonzero((budgets > 0) & (used_units > 0.9 * budgets))
            )
            metrics.counter("allocation.near_miss").inc(near_miss)
            truncated = float(
                np.maximum(alloc * cfg.delta_kb - delivered, 0.0).sum()
            )
            metrics.counter("allocation.truncated_kb").inc(truncated)
            if faults_on:
                _fault_counters(metrics, plan, outage_mask, gamma)
        sessions = (
            dict(
                admitted=mgr.admitted.copy(),
                rejected=mgr.rejected.copy(),
                departure_slot=departure,
                offered_video_kb=self.workload.offered_video_kb(),
                admitted_video_kb=self.workload.admitted_video_kb(mgr.admitted),
            )
            if churn
            else {}
        )
        return SimulationResult(
            scheduler_name=scheduler_name,
            config=cfg,
            allocation_units=alloc,
            delivered_kb=delivered,
            rebuffering_s=rebuf,
            energy_trans_mj=e_trans,
            energy_tail_mj=e_tail,
            buffer_s=buffer_s,
            need_kb=need_kb,
            active=active_rec,
            completion_slot=completion,
            arrival_slot=arrivals,
            phase_timings=instr.profiler.summary() if instrumented else None,
            **sessions,
        )

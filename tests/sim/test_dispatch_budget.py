"""NumPy calls per slot: a deterministic work counter for the slot loop.

At the cell sizes the paper studies a slot is one to two hundred NumPy calls
of about a microsecond each, so the slot loop's speed tracks how many
calls it makes.  :mod:`tests.dispatch_counter` counts them exactly; this
test pins the count on two small configs shaped like the benchmark's
``churn-faults`` and ``paper-rtma-sweep`` workloads, so a change that
re-forms a per-slot quantity shows up as a failing bound rather than as
wall-clock noise.

Before the slot pipeline shared its per-slot quantities (the fleet's
slot view, the RRC preview reused by the step, the Eq. (1)/(24) link
table, one fail-fast constraint test), the same configs measured
``CHURN_BEFORE`` and ``STACKED_BEFORE`` calls per slot.
"""

from __future__ import annotations

from repro.baselines.default import DefaultScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.experiments.common import paper_config
from repro.faults import FaultPlan
from repro.sim.batch import BatchPlan
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import RunTask
from repro.sim.workload import generate_workload

from tests.dispatch_counter import count_numpy_calls

#: Calls per slot before the sharing, measured with this module's
#: functions on the code before it.  Of the churn slot's 185: client
#: fleet 76, RRC fleet 40, gateway 16, Eq. (1)/(24) models 15, engine
#: 10, constraint checks and clipping 10, schedulers the rest.
CHURN_BEFORE = 184.68
STACKED_BEFORE = 221.52
#: Calls per slot now (91.32 and 107.37; the churn slot: client fleet
#: 45, RRC fleet 7, gateway 13, engine 5, checks and clipping 7; the
#: read-only views observations carry are made once per run and add
#: 0.02 per slot here), pinned: a rise means some per-slot quantity is
#: formed twice again.
CHURN_NOW = 91.4
STACKED_NOW = 107.4


def churn_calls_per_slot() -> tuple[float, dict]:
    """Default, ON-OFF, RTMA and EMA on a small churn run under faults."""
    cfg = SimConfig(
        n_users=40,
        n_slots=400,
        capacity_kbps=4_000.0,
        video_size_range_kb=(8_000.0, 16_000.0),
        buffer_capacity_s=40.0,
        seed=3,
        arrival_process="poisson",
        arrival_rate_per_slot=0.1,
        admission="capacity-threshold",
        admission_max_active=4,
    )
    plan = FaultPlan.random(3, cfg.n_slots, cfg.n_users, n_signal=2, n_capacity=1, n_stalls=2)
    cfg = cfg.with_(faults=plan)
    wl = generate_workload(cfg)
    scheds = [
        DefaultScheduler(),
        OnOffScheduler(),
        RTMAScheduler(),
        EMAScheduler(cfg.n_users, tau_s=cfg.tau_s),
    ]
    with count_numpy_calls() as counts:
        for sched in scheds:
            Simulation(cfg, sched, wl).run()
    slots = len(scheds) * cfg.n_slots
    return counts.total / slots, counts


def stacked_calls_per_slot() -> tuple[float, dict]:
    """A stacked zero-churn Default/RTMA group, per stacked slot."""
    cfg = paper_config("bench", 1).with_(n_users=20, n_slots=300)
    wl = generate_workload(cfg)
    plan = BatchPlan(
        [
            RunTask(cfg, DefaultScheduler(), wl),
            RunTask(cfg, RTMAScheduler(sig_threshold_dbm=-95.0), wl),
        ]
    )
    with count_numpy_calls() as counts:
        plan.run()
    return counts.total / cfg.n_slots, counts


def _report(counts) -> str:
    return ", ".join(f"{k} {v}" for k, v in counts.by_site.most_common(12))


def test_churn_slot_calls_halved():
    per_slot, counts = churn_calls_per_slot()
    assert per_slot <= CHURN_NOW, _report(counts)
    assert per_slot <= CHURN_BEFORE / 2, _report(counts)


def test_stacked_slot_calls_halved():
    per_slot, counts = stacked_calls_per_slot()
    assert per_slot <= STACKED_NOW, _report(counts)
    assert per_slot <= STACKED_BEFORE / 2, _report(counts)

"""The benchmark's three workloads, built only from ``repro``'s public API.

Each workload is split in two so the child can time them apart:
:func:`prepare` generates every input from the seed (the end of
``setup_s``), and :meth:`Prepared.run` calls into the simulator and
returns every final :class:`~repro.sim.results.SimulationResult`.

The benchmark seed is folded into :data:`SEED_SPACE` input seeds, so
the committed reference digests (``reference_digests.json``) cover every
seed the command line can name.  ``size="tiny"`` shrinks every workload
for the self-test; its digests are never committed.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

from repro.baselines.default import DefaultScheduler
from repro.baselines.onoff import OnOffScheduler
from repro.baselines.throttling import ThrottlingScheduler
from repro.core.ema import EMAScheduler
from repro.core.rtma import RTMAScheduler
from repro.experiments.common import calibration_kwargs, paper_config
from repro.faults import FaultPlan
from repro.sim import runner
from repro.sim import workload as wl_mod
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import RunExecutor, use_executor

#: Distinct input seeds; ``--seed n`` selects input seed ``n % SEED_SPACE``.
SEED_SPACE = 16

NAMES = ("ema-cell-1k", "paper-rtma-sweep", "churn-faults")

#: Per-size knobs.  ``full`` is what the benchmark measures.
SIZES = {
    "full": {
        "ema_users": 1000,
        "ema_slots": 40,
        "sweep_users": (20, 30, 40),
        "sweep_slots": 1500,
        "sweep_seeds": 2,
        "churn_sessions": 150,
        "churn_slots": 3000,
    },
    "tiny": {
        "ema_users": 60,
        "ema_slots": 8,
        "sweep_users": (20,),
        "sweep_slots": 300,
        "sweep_seeds": 1,
        "churn_sessions": 30,
        "churn_slots": 500,
    },
}


@dataclass
class Item:
    """One returned result with the scheduler parameters the checkers use."""

    label: str
    result: object
    params: dict


@dataclass
class Step:
    """A unit of simulator work; if it raises, all its labels count failed."""

    labels: list[str]
    fn: Callable[[], list[Item]]


@dataclass
class Prepared:
    steps: list[Step]
    executor: RunExecutor | None = None

    def run(self, serial_oracle: bool = False):
        """Run every step; yields ``(step, items or exception)``.

        ``serial_oracle`` swaps the workload's executor for
        ``RunExecutor(jobs=1, batch_size=1)``, the reference path.
        """
        ex = self.executor
        if serial_oracle and ex is not None:
            ex = RunExecutor(jobs=1, batch_size=1)
        with use_executor(ex) if ex is not None else nullcontext():
            for step in self.steps:
                try:
                    items = step.fn()
                except Exception as exc:  # counted as failed runs, not fatal
                    yield step, exc
                else:
                    yield step, items


def sched_params(scheduler) -> dict:
    """The scheduler parameters ``repro-analyze`` reads from a trace."""
    out = {}
    for attr in ("sig_threshold_dbm", "energy_budget_mj_per_slot", "v_param", "queue_floor_s"):
        value = getattr(scheduler, attr, None)
        if isinstance(value, (int, float)):
            out[attr] = float(value)
    return out


def prepare(name: str, seed: int, size: str = "full") -> Prepared:
    knobs = SIZES[size]
    input_seed = seed % SEED_SPACE
    if name == "ema-cell-1k":
        return _ema_cell(input_seed, knobs)
    if name == "paper-rtma-sweep":
        return _rtma_sweep(input_seed, knobs)
    if name == "churn-faults":
        return _churn_faults(input_seed, knobs)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


def _ema_cell(seed: int, k: dict) -> Prepared:
    """One serial fixed-population EMA run at the ``bench_scaling`` point."""
    n = k["ema_users"]
    cfg = SimConfig(
        n_users=n,
        n_slots=k["ema_slots"],
        capacity_kbps=512.0 * n,
        buffer_capacity_s=60.0,
        vbr_segments=30,
        seed=seed,
    )
    wl = wl_mod.generate_workload(cfg)

    def step():
        sched = EMAScheduler(n, v_param=0.05, tau_s=cfg.tau_s)
        res = Simulation(cfg, sched, wl).run()
        return [Item("ema", res, sched_params(sched))]

    return Prepared([Step(["ema"], step)])


def _rtma_sweep(seed: int, k: dict) -> Prepared:
    """Fig. 5 at bench scale: calibrate RTMA, then compare four schedulers."""
    steps = []
    for sim_seed in range(seed * k["sweep_seeds"], (seed + 1) * k["sweep_seeds"]):
        for n in k["sweep_users"]:
            cfg = paper_config("bench", sim_seed).with_(
                n_users=n, n_slots=k["sweep_slots"]
            )
            steps.append(_sweep_point(cfg, wl_mod.generate_workload(cfg)))
    return Prepared(steps, executor=RunExecutor(jobs=2, batch_size=8))


def _sweep_point(cfg: SimConfig, wl) -> Step:
    tag = f"n{cfg.n_users}-s{cfg.seed}"
    names = ("default", "throttling", "on-off", "rtma")

    def step():
        thr = runner.calibrate_rtma_threshold(
            cfg, alpha=1.0, workload=wl, **calibration_kwargs("bench")
        )
        scheds = {
            "default": DefaultScheduler(),
            "throttling": ThrottlingScheduler(),
            "on-off": OnOffScheduler(),
            "rtma": RTMAScheduler(sig_threshold_dbm=thr),
        }
        results = runner.compare_schedulers(cfg, scheds, workload=wl)
        return [
            Item(f"{tag}-{name}", results[name], sched_params(scheds[name]))
            for name in names
        ]

    return Step([f"{tag}-{name}" for name in names], step)


def _churn_faults(seed: int, k: dict) -> Prepared:
    """Dynamic population under a seeded fault plan, four schedulers serially.

    Arrivals outpace the admission cap of four concurrent sessions, so
    about half the sessions are rejected and the cap stays full: the
    session-slot count then varies little from seed to seed.
    """
    cfg = SimConfig(
        n_users=k["churn_sessions"],
        n_slots=k["churn_slots"],
        capacity_kbps=4_000.0,
        video_size_range_kb=(60_000.0, 120_000.0),
        buffer_capacity_s=40.0,
        seed=seed,
        arrival_process="poisson",
        arrival_rate_per_slot=0.05,
        admission="capacity-threshold",
        admission_max_active=4,
    )
    plan = FaultPlan.random(
        seed, cfg.n_slots, cfg.n_users, n_signal=2, n_capacity=1, n_stalls=2
    )
    cfg = cfg.with_(faults=plan)
    wl = wl_mod.generate_workload(cfg)
    names = ("default", "on-off", "rtma", "ema")

    def step():
        scheds = {
            "default": DefaultScheduler(),
            "on-off": OnOffScheduler(),
            "rtma": RTMAScheduler(),
            "ema": EMAScheduler(cfg.n_users, tau_s=cfg.tau_s),
        }
        results = runner.compare_schedulers(cfg, scheds, workload=wl)
        return [Item(name, results[name], sched_params(scheds[name])) for name in names]

    return Prepared([Step(list(names), step)])

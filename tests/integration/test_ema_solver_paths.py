"""EMA solver path accounting: deterministic, and equal serial vs batch.

Every EMA slot is solved by the certified closed form (``closed`` when
capacity does not bind, ``certified`` when it does) or by the DP
fallback.  ``EMAScheduler.solver_counts`` tallies the paths per run;
instrumented runs mirror the tallies into ``ema.solver.*`` counters.
The counts are a pure function of the run, so they are pinned exactly
on the ``bench_scaling`` N=200 point, and the run-stacked batch must
report the same counts as serial runs.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core.ema import EMAScheduler
from repro.obs import Instrumentation
from repro.sim.batch import run_batch
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import RunTask
from repro.sim.workload import generate_workload

SRC = Path(__file__).resolve().parents[2] / "src"


def cell_config(n_users: int, n_slots: int, seed: int) -> SimConfig:
    """The ``bench_scaling`` cell: 512 KB/s per user, 60 s buffers, VBR."""
    return SimConfig(
        n_users=n_users,
        n_slots=n_slots,
        capacity_kbps=512.0 * n_users,
        buffer_capacity_s=60.0,
        vbr_segments=30,
        seed=seed,
    )


def solver_counters(instr: Instrumentation) -> dict:
    counters = instr.metrics.snapshot()["counters"]
    return {k: v for k, v in counters.items() if k.startswith("ema.solver.")}


class TestPinnedCounts:
    def test_bench_scaling_n200_seed7(self):
        cfg = cell_config(200, 150, seed=7)
        sched = EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s)
        instr = Instrumentation()
        Simulation(cfg, sched, generate_workload(cfg), instrumentation=instr).run()
        # Slot 0 is the seeded-queue tie (every user at one power shares
        # one slope) and takes the DP: 200 users x 2561 states.
        assert sched.solver_counts == {
            "closed": 29,
            "certified": 120,
            "fallback": 1,
            "fallback_cells": 512_200,
        }
        assert solver_counters(instr) == {
            "ema.solver.closed": 29.0,
            "ema.solver.certified": 120.0,
            "ema.solver.fallback": 1.0,
            "ema.solver.fallback_cells": 512_200.0,
        }

    def test_counts_reset_between_runs(self):
        cfg = cell_config(20, 40, seed=3)
        wl = generate_workload(cfg)
        sched = EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s)
        Simulation(cfg, sched, wl).run()
        first = dict(sched.solver_counts)
        Simulation(cfg, sched, wl).run()
        assert sched.solver_counts == first
        assert first["closed"] + first["certified"] + first["fallback"] == cfg.n_slots


class TestSerialBatchCounts:
    def test_batch_reports_serial_counts(self):
        configs = [cell_config(20, 200, seed) for seed in (1, 2, 3)]
        make = [
            lambda c, v=v: EMAScheduler(c.n_users, v_param=v, tau_s=c.tau_s)
            for v in (0.05, 0.2, 1.0)
        ]

        instr_s = Instrumentation()
        serial = []
        for cfg, mk in zip(configs, make):
            sched = mk(cfg)
            Simulation(
                cfg, sched, generate_workload(cfg), instrumentation=instr_s
            ).run()
            serial.append(dict(sched.solver_counts))

        instr_b = Instrumentation()
        tasks = [
            RunTask(cfg, mk(cfg), generate_workload(cfg))
            for cfg, mk in zip(configs, make)
        ]
        run_batch(tasks, instrumentation=instr_b)

        assert [t.scheduler.solver_counts for t in tasks] == serial
        assert solver_counters(instr_b) == solver_counters(instr_s)
        totals = {k: sum(c[k] for c in serial) for k in serial[0]}
        # The mix exercises every path, so the equality above is not vacuous.
        assert totals["closed"] and totals["certified"] and totals["fallback"], totals

    def test_uninstrumented_batch_matches_serial(self):
        configs = [cell_config(20, 120, seed) for seed in (4, 5)]
        serial = []
        for cfg in configs:
            sched = EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s)
            res = Simulation(cfg, sched, generate_workload(cfg)).run()
            serial.append((dict(sched.solver_counts), res.allocation_units))
        tasks = [
            RunTask(cfg, EMAScheduler(cfg.n_users, v_param=0.05, tau_s=cfg.tau_s),
                    generate_workload(cfg))
            for cfg in configs
        ]
        batched = run_batch(tasks)
        for t, res, (counts, alloc) in zip(tasks, batched, serial):
            assert t.scheduler.solver_counts == counts
            assert np.array_equal(res.allocation_units, alloc)


def test_import_does_not_load_scipy_ndimage():
    """No EMA run loads ``scipy.ndimage``, not even one that takes the DP."""
    code = (
        "import sys, repro\n"
        "from repro.core.ema import EMAScheduler\n"
        "from repro.sim.config import SimConfig\n"
        "from repro.sim.engine import Simulation\n"
        "from repro.sim.workload import generate_workload\n"
        "loaded = 'scipy.ndimage' in sys.modules\n"
        "cfg = SimConfig(n_users=10, n_slots=5, capacity_kbps=5120.0,\n"
        "                buffer_capacity_s=60.0, vbr_segments=30, seed=0)\n"
        "sched = EMAScheduler(10, v_param=0.05, tau_s=cfg.tau_s)\n"
        "Simulation(cfg, sched, generate_workload(cfg)).run()\n"
        "print(loaded, sched.solver_counts['fallback'], 'scipy.ndimage' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(SRC), "PATH": ""},
    )
    after_import, fallbacks, after_run = out.stdout.split()
    assert after_import == "False"
    # The seeded slot-0 tie takes the DP fallback, so the run is not vacuous.
    assert int(fallbacks) >= 1
    assert after_run == "False"

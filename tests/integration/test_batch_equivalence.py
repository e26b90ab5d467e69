"""Run-stacked batching equivalence: ``run_batch`` is invisible.

:mod:`repro.sim.batch` stacks R shape-compatible runs into one
``(R*N)``-row fleet and executes a single slot loop for all of them.
The contract is *bit-identity*: every per-run result grid, every
summary statistic, and the instrumentation metrics (minus the
``batch.*`` bookkeeping counters the stacked path adds) must match a
serial run-by-run execution byte for byte, for every scheduler and
every available kernel backend.  A property test additionally checks
that *how* a task sequence is partitioned into batches — any split
into consecutive groups of any sizes — cannot be observed in the
results.

Locally this exercises numpy and python backends; CI's numba job adds
the compiled backend to the same parametrisation automatically.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from repro.kernels import available_backends
from repro.obs import Instrumentation
from repro.sim.batch import batch_incompatibility, run_batch
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.executor import RunExecutor, RunTask
from repro.sim.workload import generate_workload

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

BACKENDS = list(available_backends())


def _cfg(seed, **overrides):
    base = dict(
        n_users=10,
        n_slots=250,
        capacity_kbps=6_000.0,
        video_size_range_kb=(20_000.0, 50_000.0),
        buffer_capacity_s=60.0,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


def _tasks(make_scheduler, configs):
    """One RunTask per config, each with its own scheduler instance."""
    return [
        RunTask(cfg, make_scheduler(cfg), generate_workload(cfg))
        for cfg in configs
    ]


def assert_results_bit_identical(a, b, label):
    for name in RESULT_ARRAYS:
        assert (
            getattr(a, name).tobytes() == getattr(b, name).tobytes()
        ), f"{label}: {name} differs between serial and batched execution"


def _strip_batch_keys(counters):
    return {k: v for k, v in counters.items() if not k.startswith("batch.")}


class TestBatchBitIdentity:
    """run_batch == run-by-run Simulation, per grid byte."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    @pytest.mark.parametrize("seeds", [(1, 7), (23, 42)])
    def test_all_schedulers_all_backends(self, backend, sched_name, seeds):
        make = SCHEDULERS[sched_name]
        configs = [_cfg(s, kernel_backend=backend) for s in seeds]
        serial = [
            Simulation(t.config, t.scheduler, t.workload).run()
            for t in _tasks(make, configs)
        ]
        batched = run_batch(_tasks(make, configs))
        assert len(batched) == len(serial)
        for r, (a, b) in enumerate(zip(serial, batched)):
            assert_results_bit_identical(a, b, f"{sched_name}/{backend} run {r}")
            assert a.summary().as_dict() == b.summary().as_dict(), (
                f"{sched_name}/{backend} run {r}: summary differs"
            )

    @pytest.mark.parametrize("sched_name", ["rtma", "ema"])
    def test_per_run_parameter_lanes(self, sched_name):
        """Runs with *different* scheduler parameters still stack."""
        if sched_name == "rtma":
            makes = [
                lambda cfg, t=t: RTMAScheduler(sig_threshold_dbm=t)
                for t in (-95.0, -90.0, -100.0)
            ]
        else:
            makes = [
                lambda cfg, v=v: EMAScheduler(
                    cfg.n_users, v_param=v, tau_s=cfg.tau_s
                )
                for v in (0.05, 0.2, 1.0)
            ]
        configs = [_cfg(s, n_slots=150) for s in (1, 2, 3)]
        serial = [
            Simulation(cfg, make(cfg), generate_workload(cfg)).run()
            for cfg, make in zip(configs, makes)
        ]
        tasks = [
            RunTask(cfg, make(cfg), generate_workload(cfg))
            for cfg, make in zip(configs, makes)
        ]
        batched = run_batch(tasks)
        for r, (a, b) in enumerate(zip(serial, batched)):
            assert_results_bit_identical(a, b, f"{sched_name}-lanes run {r}")


class TestBatchMetricsEquivalence:
    @pytest.mark.parametrize("sched_name", sorted(SCHEDULERS))
    def test_metrics_identical_minus_batch_keys(self, sched_name):
        make = SCHEDULERS[sched_name]
        configs = [_cfg(s, n_slots=150) for s in (4, 5, 6)]
        instr_serial = Instrumentation()
        for t in _tasks(make, configs):
            Simulation(
                t.config, t.scheduler, t.workload,
                instrumentation=instr_serial,
            ).run()
        instr_batch = Instrumentation()
        run_batch(_tasks(make, configs), instrumentation=instr_batch)

        snap_s = instr_serial.metrics.snapshot()
        snap_b = instr_batch.metrics.snapshot()
        # Counters: exact float equality (same accumulation order is
        # part of the contract), minus the batch.* bookkeeping.
        assert snap_s["counters"] == _strip_batch_keys(snap_b["counters"])
        assert snap_b["counters"].get("batch.runs") == len(configs)
        # Gauges: every serially-published gauge must come back with
        # the same final value (last-write-wins order is preserved).
        for key, value in snap_s["gauges"].items():
            got = snap_b["gauges"].get(key)
            if isinstance(value, np.ndarray):
                assert got is not None and np.array_equal(value, got), key
            else:
                assert value == got, f"gauge {key}: {value!r} != {got!r}"


class TestBatchCompatibilityOracle:
    def test_incompatible_shapes_are_rejected(self):
        make = SCHEDULERS["rtma"]
        tasks = _tasks(make, [_cfg(1), _cfg(2, n_users=8)])
        assert batch_incompatibility(tasks) is not None
        with pytest.raises(Exception):
            run_batch(tasks)

    def test_shared_scheduler_instance_is_rejected(self):
        cfgs = [_cfg(1), _cfg(2)]
        shared = RTMAScheduler(sig_threshold_dbm=-95.0)
        tasks = [
            RunTask(cfg, shared, generate_workload(cfg)) for cfg in cfgs
        ]
        assert batch_incompatibility(tasks) is not None


def _metrics_bytes(instr):
    """Every counter, gauge and info value, minus batch/executor bookkeeping."""
    snap = instr.metrics.snapshot()
    kept = {
        section: {
            k: v
            for k, v in snap[section].items()
            if not k.startswith(("batch.", "executor."))
        }
        for section in ("counters", "gauges", "info")
    }
    return json.dumps(kept, sort_keys=True).encode()


class TestMixedSchedulerBatch:
    """One group holding every scheduler type is invisible too.

    The mixed group runs each scheduler on its own row views inside the
    stacked slot loop.  Results must match serial byte for byte, and so
    must the metrics, whether the group runs in-process or in a pool
    worker that ships each run's metrics home (EMA's solver counters
    and queue gauges included).
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_all_types_one_group(self, backend):
        cfg = _cfg(3, n_slots=150, kernel_backend=backend)
        wl = generate_workload(cfg)
        names = sorted(SCHEDULERS)

        def tasks():
            return [RunTask(cfg, SCHEDULERS[name](cfg), wl) for name in names]

        assert batch_incompatibility(tasks()) is None
        instr_serial = Instrumentation()
        serial = [
            Simulation(t.config, t.scheduler, t.workload,
                       instrumentation=instr_serial).run()
            for t in tasks()
        ]
        instr_batch = Instrumentation()
        batched = run_batch(tasks(), instrumentation=instr_batch)
        instr_pool = Instrumentation()
        pooled = RunExecutor(jobs=2, batch_size=2).map_runs(
            tasks(), instrumentation=instr_pool
        )
        for other, label in ((batched, "run_batch"), (pooled, "pool")):
            assert len(other) == len(serial)
            for name, a, b in zip(names, serial, other):
                assert_results_bit_identical(a, b, f"{label} {name}/{backend}")
                assert a.summary().as_dict() == b.summary().as_dict(), (
                    f"{label} {name}/{backend}: summary differs"
                )
        want = _metrics_bytes(instr_serial)
        assert b"ema.solver." in want
        assert _metrics_bytes(instr_batch) == want
        assert _metrics_bytes(instr_pool) == want
        assert instr_batch.metrics.snapshot()["counters"]["batch.runs"] == len(names)


# --- partition invariance ------------------------------------------------

_PARTITION_SEEDS = (0, 1, 2, 3, 4, 5)
#: One scheduler per seed: partitions cut this sequence into homogeneous
#: groups (stacking adapters) and mixed ones (per-run row views).
_PARTITION_SCHEDULERS = ("rtma", "rtma", "default", "ema", "ema", "on-off")
_PARTITION_REFERENCE = None


def _partition_tasks(configs, names):
    return [
        RunTask(cfg, SCHEDULERS[name](cfg), generate_workload(cfg))
        for cfg, name in zip(configs, names)
    ]


def _partition_reference():
    """Serial reference grids for the property test, computed once."""
    global _PARTITION_REFERENCE
    if _PARTITION_REFERENCE is None:
        configs = [
            _cfg(s, n_users=5, n_slots=60,
                 video_size_range_kb=(2_000.0, 5_000.0))
            for s in _PARTITION_SEEDS
        ]
        serial = [
            Simulation(t.config, t.scheduler, t.workload).run()
            for t in _partition_tasks(configs, _PARTITION_SCHEDULERS)
        ]
        _PARTITION_REFERENCE = (
            configs,
            [
                tuple(getattr(r, name).tobytes() for name in RESULT_ARRAYS)
                for r in serial
            ],
        )
    return _PARTITION_REFERENCE


@st.composite
def partitions(draw):
    """A split of the task sequence into consecutive non-empty groups."""
    n = len(_PARTITION_SEEDS)
    cuts = draw(
        st.lists(st.integers(min_value=1, max_value=n - 1),
                 unique=True, max_size=n - 1)
    )
    bounds = [0, *sorted(cuts), n]
    return [(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]


class TestPartitionInvariance:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(partition=partitions())
    def test_any_partition_is_invisible(self, partition):
        configs, expected = _partition_reference()
        results = []
        for lo, hi in partition:
            group = _partition_tasks(
                configs[lo:hi], _PARTITION_SCHEDULERS[lo:hi]
            )
            if len(group) == 1:
                t = group[0]
                results.append(
                    Simulation(t.config, t.scheduler, t.workload).run()
                )
            else:
                results.extend(run_batch(group))
        assert len(results) == len(expected)
        for r, (got, want) in enumerate(zip(results, expected)):
            got_bytes = tuple(
                getattr(got, name).tobytes() for name in RESULT_ARRAYS
            )
            assert got_bytes == want, (
                f"partition {partition}: run {r} differs from serial"
            )

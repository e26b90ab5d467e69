"""Span recording around the simulator's public entry points, from outside.

Nothing here edits the package: :func:`install` replaces class
attributes and module attributes of an already-imported ``repro`` with
thin wrappers that open and close a span around the original call.  A
span is one row of seven doubles kept in memory::

    name id, parent row (-1 for a root), start, end, a, b, c

where ``a``/``b``/``c`` are per-span work counts (tasks and shipped
bytes for ``map_runs``, run-slots for an engine run, DP cells for an
EMA kernel call, ...).  Timestamps come from ``time.perf_counter``,
which on Linux reads ``CLOCK_MONOTONIC`` and is therefore comparable
across the pool workers the executor forks.

Forked workers inherit the wrappers.  An ``os.register_at_fork`` hook
gives each worker an empty span table, and a worker appends its rows to
``spans-<pid>.bin`` whenever its outermost span closes, so the parent
can read every worker's spans once the pool has shut down.  The parent
writes ``spans-main.bin`` once, at the end (:meth:`SpanRecorder.write`).
"""

from __future__ import annotations

import json
import os
import pickle
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: Doubles per span row.
STRIDE = 7
NAME, PARENT, START, END, A, B, C = range(STRIDE)


class SpanRecorder:
    """In-memory span table for one process (see the module docstring)."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.rows = array("d")
        self.stack: list[int] = []
        self.worker = False
        self._flushed = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.rows) // STRIDE
        parent = self.stack[-1] if self.stack else -1
        self.rows.extend((nid, parent, perf_counter(), 0.0, 0.0, 0.0, 0.0))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.rows[idx * STRIDE + END] = perf_counter()
        self.stack.pop()

    def set_counts(self, idx: int, a: float = 0.0, b: float = 0.0, c: float = 0.0) -> None:
        base = idx * STRIDE
        self.rows[base + A] = a
        self.rows[base + B] = b
        self.rows[base + C] = c

    def after_root_closed(self) -> None:
        """In a worker, append the rows recorded since the last flush."""
        if self.worker and not self.stack:
            start = self._flushed * STRIDE
            with open(self.out_dir / f"spans-{os.getpid()}.bin", "ab") as fh:
                self.rows[start:].tofile(fh)
            self._flushed = len(self.rows) // STRIDE

    def _after_fork_in_child(self) -> None:
        self.rows = array("d")
        self.stack = []
        self.worker = True
        self._flushed = 0

    def write(self) -> None:
        """Write the parent's spans and the name table (once, at the end)."""
        with open(self.out_dir / "spans-main.bin", "wb") as fh:
            self.rows.tofile(fh)
        (self.out_dir / "names.json").write_text(json.dumps(self.names))


def _wrap(rec: SpanRecorder, fn, name: str, pre=None, post=None):
    """``fn`` wrapped in a span named ``name``.

    ``pre(args, kwargs)`` runs before the span opens and returns a
    context handed to ``post(ctx, args, out)``, which runs after the
    span closed and returns the span's ``(a, b, c)`` counts; neither
    hook's cost lands inside the span.
    """
    nid = rec.name_id(name)
    if pre is None and post is None:

        def traced(*args, **kwargs):
            idx = rec.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
                if not rec.stack:
                    rec.after_root_closed()

    else:

        def traced(*args, **kwargs):
            ctx = pre(args, kwargs) if pre is not None else None
            idx = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if post is not None:
                rec.set_counts(idx, *post(ctx, args, out))
            if not rec.stack:
                rec.after_root_closed()
            return out

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__qualname__ = getattr(fn, "__qualname__", name)
    traced.__wrapped__ = fn
    return traced


def _patch_method(rec, cls, attr, name, pre=None, post=None) -> None:
    setattr(cls, attr, _wrap(rec, cls.__dict__[attr], name, pre, post))


def _patch_function(rec, module, attr, name, pre=None, post=None) -> None:
    """Replace ``module.attr`` and every ``repro`` module's alias of it."""
    orig = getattr(module, attr)
    traced = _wrap(rec, orig, name, pre, post)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is orig:
            setattr(mod, attr, traced)


# -- per-span work counts -------------------------------------------------


def _map_runs_pre(args, kwargs):
    """Tasks, computed shipped bytes and jobs of one ``map_runs`` call.

    Shipped bytes are the pickle sizes of what a pool ships: each
    task's (config, scheduler) and each distinct explicit workload
    once.  The result bytes are added in :func:`_map_runs_post`.
    """
    executor, tasks = args[0], list(args[1] if len(args) > 1 else kwargs["tasks"])
    shipped = 0
    if executor.jobs > 1:
        seen = set()
        for t in tasks:
            shipped += len(pickle.dumps((t.config, t.scheduler), protocol=5))
            if t.workload is not None and id(t.workload) not in seen:
                seen.add(id(t.workload))
                shipped += len(pickle.dumps(t.workload, protocol=5))
    return len(tasks), shipped, executor.jobs


def _map_runs_post(ctx, args, out):
    n_tasks, shipped, jobs = ctx
    if jobs > 1:
        shipped += sum(len(pickle.dumps(r, protocol=5)) for r in out)
    return n_tasks, shipped, jobs


def _batch_post(ctx, args, out):
    return len(out), float(out[0].config.n_slots) if out else 0.0, 0.0


def _engine_post(ctx, args, out):
    sim = args[0]
    return 1.0, float(sim.config.n_slots), 1.0 if sim.config.has_churn else 0.0


def _ema_dp_pre(args, kwargs):
    """DP cells and whether capacity binds, from the kernel's inputs.

    The call is non-binding when every user's independent best of
    ``{0, 1, w_k}`` (idle cost vs. the affine transmit cost at its two
    ends) fits the ``n_states - 1`` unit budget together.
    """
    import numpy as np

    _phi, active_idx, w_eff, _origin, slope, const, idle, rows = args[:8]
    n = active_idx.shape[0]
    n_states = rows.shape[1]
    w = w_eff[:n].astype(float)
    with np.errstate(invalid="ignore", over="ignore"):
        cost_one = const[:n] + slope[:n]
        cost_w = const[:n] + slope[:n] * w
    pick = np.where(cost_w < cost_one, w, 1.0)
    best = np.minimum(cost_one, cost_w)
    pick = np.where((w >= 1) & (best < idle[:n]), pick, 0.0)
    nonbinding = float(pick.sum() <= n_states - 1)
    return float(n * n_states), nonbinding


def _ema_dp_post(ctx, args, out):
    return ctx[0], ctx[1], 0.0


# -- installation ---------------------------------------------------------


def install(rec: SpanRecorder) -> None:
    """Wrap every traced entry point of the imported ``repro`` package."""
    from repro.baselines.default import DefaultScheduler
    from repro.baselines.onoff import OnOffScheduler
    from repro.baselines.throttling import ThrottlingScheduler
    from repro.core.ema import EMAScheduler
    from repro.core.rtma import RTMAScheduler
    from repro.kernels import registry
    from repro.media.fleet import ClientFleet
    from repro.net.gateway import DataTransmitter, Gateway, InformationCollector
    from repro.radio.rrc import RRCFleet
    from repro.sim import batch, engine, executor, runner, workload

    # Kernel wrappers are made at first resolve, possibly in a forked
    # worker; intern their names now so worker ids match the parent's.
    for name in registry.kernel_names():
        rec.name_id(f"kernels.{name}")
    rec.name_id("obs.analyze.check")

    _patch_function(rec, workload, "generate_workload", "sim.workload.generate")
    _patch_function(rec, runner, "calibrate_rtma_threshold", "sim.runner.calibrate")
    _patch_function(rec, runner, "compare_schedulers", "sim.runner.compare")
    _patch_method(
        rec, executor.RunExecutor, "map_runs", "sim.executor.map_runs",
        pre=_map_runs_pre, post=_map_runs_post,
    )
    # run_batch() and the pool workers both execute through BatchPlan.run.
    _patch_method(rec, batch.BatchPlan, "run", "sim.batch.run_batch", post=_batch_post)
    _patch_method(rec, engine.Simulation, "run", "sim.engine.run", post=_engine_post)
    _patch_method(rec, Gateway, "step", "net.gateway.step")
    _patch_method(rec, Gateway, "step_batch", "net.gateway.step")
    _patch_method(rec, InformationCollector, "collect_fleet", "net.gateway.collect")
    _patch_method(rec, InformationCollector, "collect_fleet_batch", "net.gateway.collect")
    _patch_method(rec, DataTransmitter, "transmit_fleet", "net.gateway.transmit")
    _patch_method(rec, ClientFleet, "begin_slot", "media.fleet.begin_slot")
    _patch_method(rec, RRCFleet, "step", "radio.rrc.step")
    _patch_method(rec, RRCFleet, "expected_idle_cost_mj", "radio.rrc.idle_cost")
    _patch_method(rec, EMAScheduler, "allocate", "core.ema.allocate")
    _patch_method(rec, EMAScheduler, "notify", "core.ema.notify")
    _patch_method(rec, RTMAScheduler, "allocate", "core.rtma.allocate")
    for cls in (DefaultScheduler, OnOffScheduler, ThrottlingScheduler):
        _patch_method(rec, cls, "allocate", "baselines.allocate")

    orig_resolve = registry.resolve
    hooks = {"ema_dp": (_ema_dp_pre, _ema_dp_post)}

    def traced_resolve(name, backend=None):
        pre, post = hooks.get(name, (None, None))
        return _wrap(rec, orig_resolve(name, backend), f"kernels.{name}", pre, post)

    registry.resolve = traced_resolve
    os.register_at_fork(after_in_child=rec._after_fork_in_child)

"""Per-layer metrics from the span files one traced child wrote.

Totals, call counts and work counts add up spans from every process
(the traced child and its forked pool workers).  The ``split.*`` layer
self-times count the traced child's own spans only: they tile its
timeline, so together with ``process.start_s`` and ``unattributed_s``
(both finished by ``run.py``, which knows the spawn time) they add up to
the traced wall time.  A span's self time is its duration minus the
durations of its child spans, which nest inside it.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from tracer import A, B, C, END, NAME, PARENT, START, STRIDE

#: Layer of each span name, by prefix (first match wins).
LAYERS = (
    ("import.", "process"),
    ("sim.workload.", "sim.workload"),
    ("sim.runner.", "sim.runner"),
    ("sim.executor.", "sim.executor"),
    ("sim.batch.", "sim.batch"),
    ("sim.engine.", "sim.engine"),
    ("net.gateway.", "net.gateway"),
    ("media.fleet.", "media.fleet"),
    ("radio.rrc.", "radio.rrc"),
    ("core.", "core"),
    ("baselines.", "baselines"),
    ("kernels.", "kernels"),
)
SPLIT_LAYERS = tuple(layer for _, layer in LAYERS)

#: Spans reported as ``<name>_s`` (total time) and ``<name>_calls``.
TIMED = (
    "sim.workload.generate",
    "sim.runner.calibrate",
    "sim.runner.compare",
    "sim.executor.map_runs",
    "sim.batch.run_batch",
    "net.gateway.step",
    "net.gateway.collect",
    "net.gateway.transmit",
    "media.fleet.begin_slot",
    "radio.rrc.step",
    "radio.rrc.idle_cost",
    "core.ema.allocate",
    "core.ema.notify",
    "core.rtma.allocate",
    "baselines.allocate",
    "obs.analyze.check",
)

RUNS = ("sim.engine.run", "sim.batch.run_batch")


def layer_of(name: str) -> str | None:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return None


def _load(path: Path) -> np.ndarray:
    return np.fromfile(path, dtype=np.float64).reshape(-1, STRIDE)


def _self_times(rows: np.ndarray) -> np.ndarray:
    dur = rows[:, END] - rows[:, START]
    parent = rows[:, PARENT].astype(np.int64)
    has = parent >= 0
    covered = np.bincount(parent[has], weights=dur[has], minlength=len(rows))
    return dur - covered


def layer_metrics(trace_dir: Path, kernel_names) -> dict[str, float]:
    trace_dir = Path(trace_dir)
    names = json.loads((trace_dir / "names.json").read_text())
    nid = {name: i for i, name in enumerate(names)}
    main = _load(trace_dir / "spans-main.bin")
    workers = [_load(p) for p in sorted(trace_dir.glob("spans-[0-9]*.bin"))]
    procs = [main] + workers
    selfs = [_self_times(rows) for rows in procs]

    def pick(rows, name):
        return rows[rows[:, NAME] == nid[name]]

    def total(name):
        return sum(float((r[:, END] - r[:, START]).sum()) for r in (pick(p, name) for p in procs))

    def calls(name):
        return sum(int((p[:, NAME] == nid[name]).sum()) for p in procs)

    def self_total(name):
        return sum(float(s[p[:, NAME] == nid[name]].sum()) for p, s in zip(procs, selfs))

    def col_sum(name, col):
        return sum(float(pick(p, name)[:, col].sum()) for p in procs)

    m: dict[str, float] = {}
    m["import.repro_s"] = total("import.repro")
    for name in TIMED:
        m[f"{name}_s"] = total(name)
        m[f"{name}_calls"] = calls(name)
    m["net.gateway.step_self_s"] = self_total("net.gateway.step")

    # Runs: every engine run, plus stacked batches (a batch of one run,
    # or one that fell back to serial, shows its runs as engine spans).
    engine_id, batch_id = nid["sim.engine.run"], nid["sim.batch.run_batch"]
    run_starts, run_weights, stacked, slots = [], [], 0.0, 0.0
    for rows in procs:
        parent = rows[:, PARENT].astype(np.int64)
        is_engine = rows[:, NAME] == engine_id
        engine_children = np.bincount(parent[is_engine & (parent >= 0)], minlength=len(rows))
        is_stacked = (rows[:, NAME] == batch_id) & (engine_children == 0) & (rows[:, A] > 1)
        stacked += float(rows[is_stacked, A].sum())
        slots += float(rows[is_engine, B].sum() + (rows[is_stacked, A] * rows[is_stacked, B]).sum())
        run_starts += [rows[is_engine, START], rows[is_stacked, START]]
        run_weights += [np.ones(int(is_engine.sum())), rows[is_stacked, A]]
    run_starts = np.concatenate(run_starts)
    run_weights = np.concatenate(run_weights)
    m["sim.engine.run_s"] = total("sim.engine.run")
    m["sim.engine.run_calls"] = calls("sim.engine.run")
    m["sim.engine.runs"] = float(run_weights.sum())
    m["sim.engine.slots"] = slots
    m["sim.engine.self_s"] = self_total("sim.engine.run")
    m["sim.engine.dynamic_runs"] = col_sum("sim.engine.run", C)
    m["sim.batch.stacked_runs"] = stacked
    m["sim.batch.unstacked_runs"] = calls("sim.engine.run")

    calibrate = pick(main, "sim.runner.calibrate")
    inside = np.zeros(len(run_starts), dtype=bool)
    for s, e in calibrate[:, [START, END]]:
        inside |= (run_starts >= s) & (run_starts <= e)
    m["sim.runner.calibration_runs"] = float(run_weights[inside].sum())

    m.update(_executor_metrics(main, workers, nid))

    for k in kernel_names:
        m[f"kernels.{k}.calls"] = calls(f"kernels.{k}")
        m[f"kernels.{k}.busy_s"] = total(f"kernels.{k}")
    dp_calls = m["kernels.ema_dp.calls"]
    cells = col_sum("kernels.ema_dp", A)
    nonbinding = col_sum("kernels.ema_dp", B)
    m["kernels.ema_dp.cells"] = cells
    m["kernels.ema_dp.ns_per_cell"] = m["kernels.ema_dp.busy_s"] / cells * 1e9 if cells else 0.0
    m["kernels.ema_dp.nonbinding_calls"] = nonbinding
    m["kernels.ema_dp.nonbinding_share"] = nonbinding / dp_calls if dp_calls else 0.0

    # The traced child's own timeline, split by layer.
    split = {layer: 0.0 for layer in SPLIT_LAYERS}
    for i, name in enumerate(names):
        layer = layer_of(name)
        if layer is not None:
            split[layer] += float(selfs[0][main[:, NAME] == i].sum())
    for layer, value in split.items():
        m[f"split.{layer}_s"] = value
    return m


def _executor_metrics(main, workers, nid) -> dict[str, float]:
    """Executor accounting per ``map_runs`` call.

    A call's dispatch units are its in-process run spans (direct
    children) plus the root run spans pool workers started inside its
    window.  Busy time is their summed duration; capacity is ``jobs``
    times the call's wall time.
    """
    run_ids = [nid[n] for n in RUNS]
    map_idx = np.flatnonzero(main[:, NAME] == nid["sim.executor.map_runs"])
    roots = [w[np.isin(w[:, NAME], run_ids) & (w[:, PARENT] < 0)] for w in workers]
    roots = np.concatenate(roots) if roots else np.zeros((0, STRIDE))
    local = main[np.isin(main[:, NAME], run_ids)]
    out = dict.fromkeys(
        ("tasks", "groups", "shipped_bytes", "busy_s", "capacity_s", "overhead_s"), 0.0
    )
    for i in map_idx:
        s, e = main[i, START], main[i, END]
        jobs = max(main[i, C], 1.0)
        mine = local[local[:, PARENT] == i]
        pooled = roots[(roots[:, START] >= s) & (roots[:, START] <= e)]
        local_busy = float((mine[:, END] - mine[:, START]).sum())
        worker_busy = float((pooled[:, END] - pooled[:, START]).sum())
        out["tasks"] += main[i, A]
        out["groups"] += len(mine) + len(pooled)
        if len(pooled):
            out["shipped_bytes"] += main[i, B]
        out["busy_s"] += local_busy + worker_busy
        out["capacity_s"] += jobs * (e - s)
        out["overhead_s"] += (e - s) - local_busy - worker_busy / jobs
    cap = out["capacity_s"]
    out["parallel_efficiency"] = out["busy_s"] / cap if cap else 0.0
    return {f"sim.executor.{k}": float(v) for k, v in out.items()}

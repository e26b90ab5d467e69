"""Whole-process benchmark of the streaming simulator.

Run from the repository root::

    python3 perfbench/run.py --workload ema-cell-1k --seed 1 --seconds 30 --trace 0

Every measured run of the workload is a fresh interpreter
(``perfbench/child.py``) started from here, so start-up, ``import repro``
and input generation are paid and timed like a user's CLI call.
``--trace 0`` repeats measured children for ``--seconds`` and prints the
end-to-end metrics (medians over children).  ``--trace 1`` runs one
untraced child and two traced children and prints the per-layer metrics
(timings averaged over the traced children, whose work counters must be
identical).  The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Every returned result is checked against the reference digests in
``reference_digests.json`` (recorded by a serial ``RunExecutor(jobs=1,
batch_size=1)`` pass, ``--record-references``) and by the
``repro.obs.analyze`` invariant checkers.  See ``perfbench/README.md``.

This file uses the standard library only: it must fail cleanly (exit 2,
no result line) in a directory that does not hold the package sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ema-cell-1k", "paper-rtma-sweep", "churn-faults")
#: Must match ``workloads.SEED_SPACE`` (this file does not import the package).
SEED_SPACE = 16
MIN_CHILDREN = 3
TRACED_CHILDREN = 2
#: A whole run (all its children) must end within this many seconds.
RUN_TIMEOUT_S = 170.0
#: Speed probe, timed before each measured child and after the last.  The
#: host's speed drifts by up to 2x over minutes, and import time and
#: simulation time drift together, so end-to-end times are scaled to a
#: machine on which the probe takes PROBE_REF_S.  The probe mixes what the
#: workloads lean on: memory bandwidth, allocation and hashing over a
#: multi-megabyte working set, and the bytecode compiler.
PROBE_REF_S = 0.45
PROBE_COPY_BYTES = 48 << 20
PROBE_SOURCE = "".join(
    f"def f{i}(x):\n    y = x * {i}\n    for k in range(3):\n        y += k\n    return y\n"
    for i in range(300)
)

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "session_slots_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_share": "ratio",
}

#: Per-layer work counters that must repeat exactly across traced children.
EXACT_SUFFIXES = (
    "_calls", ".calls", "_runs", ".runs", ".slots", ".tasks", ".groups", "stacked_runs",
    ".calibration_runs", ".cells", ".nonbinding_calls", ".shipped_bytes",
)


class BenchError(RuntimeError):
    """The benchmark could not run (not a failed result)."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_share", "efficiency")):
        return "ratio"
    if name.endswith("ns_per_cell"):
        return "ns"
    return "count"


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_KERNEL_BACKEND", "REPRO_SIM_PATH", "PYTHONPATH")}
    env.update(
        PYTHONPATH=str(root / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(root: Path, args: list[str], deadline: float) -> dict:
    """Run one child to completion; returns its JSON plus ``t_spawn``.

    The child leads its own process group, so when ``deadline`` (a
    ``perf_counter`` reading) passes, killing the group also stops its
    pool workers.
    """
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(deadline - t_spawn, 0.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"child {args} did not finish within the run's {RUN_TIMEOUT_S:.0f} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err[-4000:])
        raise BenchError(f"child {args} exited with code {proc.returncode}")
    data = json.loads(lines[-1])
    data["t_spawn"] = t_spawn
    return data


def child_args(opts, mode: str, extra=()) -> list[str]:
    args = ["--workload", opts.workload, "--seed", str(opts.seed), "--mode", mode,
            "--size", opts.size, *extra]
    if opts.inject and mode in ("measure", "trace"):
        args += ["--inject", opts.inject]
    return args


def failed_labels(child: dict, reference: dict[str, str]) -> set[str]:
    """Labels that raised, mismatch their reference digest, or violate an invariant."""
    bad = set(child["failed"]) | set(child["violations"])
    for label, digest in child["digests"].items():
        if reference.get(label) != digest:
            bad.add(label)
    return bad


def load_reference(opts) -> dict[str, str]:
    path = Path(opts.references)
    table = json.loads(path.read_text()) if path.exists() else {}
    ref = table.get(opts.size, {}).get(opts.workload, {}).get(str(opts.seed % SEED_SPACE))
    if ref is None:
        raise BenchError(
            f"{path} has no {opts.size} reference for {opts.workload} "
            f"seed {opts.seed % SEED_SPACE}; record it with --record-references"
        )
    return ref


def speed_probe(buf: bytearray) -> float:
    """Seconds this machine takes, right now, for a fixed mix of work."""
    t0 = time.perf_counter()
    for _ in range(4):
        bytes(buf)
    table = {str(i): i for i in range(200_000)}
    rows = sorted(table.items(), key=lambda kv: kv[1] % 1009)
    json.loads(json.dumps(rows))
    for _ in range(8):
        compile(PROBE_SOURCE, "<probe>", "exec")
    return time.perf_counter() - t0


def end_to_end(children: list[dict], probes: list[float]) -> dict[str, float]:
    """Medians over children, scaled by the run's median probe time."""
    setup, wall, rate, rss = [], [], [], []
    for c in children:
        s = c["t_first"] - c["t_spawn"]
        w = c["t_done"] - c["t_spawn"]
        setup.append(s)
        wall.append(w)
        rate.append(c["counters"]["session_slots"] / (w - s))
        rss.append(max(c["rss_self_kb"], c["rss_children_kb"]) / 1024.0)
    med = statistics.median
    scale = PROBE_REF_S / med(probes)
    return {"setup_s": med(setup) * scale, "wall_s": med(wall) * scale,
            "session_slots_per_s": med(rate) / scale, "peak_rss_mb": med(rss)}


def per_layer(untraced: dict, traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Average the traced children's layer metrics; finish the split."""
    problems = []
    first = traced[0]["layers"]
    m = {}
    for name in first:
        values = [t["layers"][name] for t in traced]
        if name.endswith(EXACT_SUFFIXES) and len(set(values)) > 1:
            problems.append(f"counter {name} differs across traced children: {values}")
        m[name] = statistics.fmean(values)
    mean = statistics.fmean
    m["process.start_s"] = mean([t["t_main"] - t["t_spawn"] for t in traced])
    m["split.process_s"] += m["process.start_s"]
    m["traced_wall_s"] = mean([t["t_done"] - t["t_spawn"] for t in traced])
    split = sum(v for k, v in m.items() if k.startswith("split."))
    m["unattributed_s"] = m["traced_wall_s"] - split
    m["untraced_wall_s"] = untraced["t_done"] - untraced["t_spawn"]
    m["trace_overhead_s"] = m["traced_wall_s"] - m["untraced_wall_s"]
    counters = traced[0]["counters"]
    m["import.modules"] = counters["import_modules"]
    m["sim.results.grid_bytes"] = counters["grid_bytes"]
    m["session_slots"] = counters["session_slots"]
    m["obs.analyze.checkers_run"] = counters["checkers_run"]
    m["obs.analyze.checkers_skipped"] = counters["checkers_skipped"]
    m["obs.analyze.violations"] = sum(traced[0]["violations"].values())
    return m, problems


def measure(opts, root: Path) -> dict:
    reference = load_reference(opts)
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    spawn(root, child_args(opts, "warmup"), deadline)
    children: list[dict] = []
    traced: list[dict] = []
    probes: list[float] = []
    started = time.perf_counter()
    if opts.trace:
        children.append(spawn(root, child_args(opts, "measure"), deadline))
        for k in range(TRACED_CHILDREN):
            trace_dir = root / ".perfbench" / f"trace-{opts.workload}-{k}"
            args = child_args(opts, "trace", extra=("--trace-dir", str(trace_dir)))
            traced.append(spawn(root, args, deadline))
    else:
        buf = bytearray(PROBE_COPY_BYTES)
        longest = 0.0
        while len(children) < MIN_CHILDREN or (
            time.perf_counter() - started + longest <= opts.seconds
        ):
            t0 = time.perf_counter()
            probes.append(speed_probe(buf))
            children.append(spawn(root, child_args(opts, "measure"), deadline))
            longest = max(longest, time.perf_counter() - t0)
        probes.append(speed_probe(buf))

    problems: list[str] = []
    attempted = failed = 0
    for c in children + traced:
        attempted += c["attempted"]
        bad = failed_labels(c, reference)
        failed += len(bad)
        if bad:
            problems.append(f"failed runs {sorted(bad)}; errors: {c['errors']}")
    for c in children[1:] + traced:
        if c["counters"] != children[0]["counters"]:
            problems.append(f"counters differ across children: {c['counters']} vs {children[0]['counters']}")

    if opts.trace:
        values, more = per_layer(children[0], traced)
        problems += more
        values["failed_share"] = failed / attempted
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    else:
        values = end_to_end(children, probes)
        values["pass_share"] = 1.0 - failed / attempted
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    backend = children[0]["backend"]
    print(f"workload {opts.workload} seed {opts.seed}: {len(children)} measured, "
          f"{len(traced)} traced children; kernel backend {backend['resolved']} "
          f"(requested {backend['requested']}, available {backend['available']})")
    for c in children + traced:
        print(f"  child: setup {c['t_first'] - c['t_spawn']:.4f} s, wall {c['t_done'] - c['t_spawn']:.4f} s, "
              f"{c['attempted']} runs")
    if probes:
        print(f"  speed probe: median {statistics.median(probes):.4f} s over {len(probes)} "
              f"(times below scaled to {PROBE_REF_S} s)")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def record_references(opts, root: Path) -> None:
    """Serial-oracle digests for every input seed, two children at a time."""
    path = Path(opts.references)
    table = json.loads(path.read_text()) if path.exists() else {}
    names = [opts.workload] if opts.workload else list(WORKLOADS)
    jobs = [(name, seed) for name in names for seed in range(opts.record_seeds)]

    def one(job):
        name, seed = job
        args = ["--workload", name, "--seed", str(seed), "--mode", "oracle", "--size", opts.size]
        child = spawn(root, args, time.perf_counter() + RUN_TIMEOUT_S)
        if child["failed"] or child["violations"]:
            raise BenchError(f"oracle run {job} failed: {child['errors']} {child['violations']}")
        return name, seed, child["digests"]

    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, seed, digests in pool.map(one, jobs):
            table.setdefault(opts.size, {}).setdefault(name, {})[str(seed)] = digests
            print(f"recorded {opts.size} {name} seed {seed}: {len(digests)} digests")
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Whole-process benchmark (see module docstring).")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--references", default=str(HERE / "reference_digests.json"))
    ap.add_argument("--record-references", action="store_true",
                    help="record serial-oracle digests instead of measuring")
    ap.add_argument("--record-seeds", type=int, default=SEED_SPACE)
    ap.add_argument("--inject", choices=("raise",), default=None,
                    help="self-test only: make the first simulation run raise")
    opts = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro package; run from the repository root",
              file=sys.stderr)
        return 2
    try:
        if opts.record_references:
            record_references(opts, root)
            return 0
        if opts.workload is None:
            ap.error("--workload is required")
        result = measure(opts, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

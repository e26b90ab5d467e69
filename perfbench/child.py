"""One run of one workload in a fresh interpreter (spawned by ``run.py``).

Modes:

* ``measure`` — untraced; the timings ``run.py`` turns into end-to-end
  metrics;
* ``trace`` — the same run with spans around every layer's entry points
  (:mod:`tracer`), reported as per-layer metrics (:mod:`layers`);
* ``oracle`` — the serial reference pass, ``RunExecutor(jobs=1,
  batch_size=1)``, that records reference digests;
* ``warmup`` — imports the package only (fills the bytecode cache).

Prints one JSON object on its last stdout line.  Timestamps are
``time.perf_counter`` readings (``CLOCK_MONOTONIC`` on Linux), so the
parent can subtract its own spawn timestamp from them.
"""

import time

T_MAIN = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Result grids covered by the reference digest.
GRIDS = (
    "allocation_units",
    "delivered_kb",
    "rebuffering_s",
    "energy_trans_mj",
    "energy_tail_mj",
    "buffer_s",
)


def digest(result) -> str:
    import numpy as np

    h = hashlib.sha256()
    for name in GRIDS:
        grid = np.ascontiguousarray(getattr(result, name))
        h.update(f"{name}:{grid.dtype.str}:{grid.shape};".encode())
        h.update(grid.tobytes())
    return h.hexdigest()


def inject_raise() -> None:
    """Make the first ``Simulation.run`` call raise (self-test only)."""
    from repro.sim.engine import Simulation

    orig = Simulation.run
    state = {"armed": True}

    def run(self):
        if state["armed"]:
            state["armed"] = False
            raise RuntimeError("injected benchmark fault")
        return orig(self)

    Simulation.run = run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("measure", "trace", "oracle", "warmup"), default="measure")
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--inject", choices=("raise",), default=None)
    args = ap.parse_args(argv)

    rec = None
    if args.mode == "trace":
        import tracer

        trace_dir = Path(args.trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
        rec = tracer.SpanRecorder(trace_dir)
        import_span = rec.open(rec.name_id("import.repro"))

    import repro  # noqa: F401  (the import step being measured)
    import workloads

    if rec is not None:
        rec.close(import_span)
        tracer.install(rec)
    import_modules = sum(1 for m in sys.modules if m == "repro" or m.startswith("repro."))
    if args.mode == "warmup":
        print(json.dumps({"import_modules": import_modules}))
        return 0
    if args.inject == "raise":
        inject_raise()

    from repro.kernels import backend_info, kernel_names, use_backend

    attempted, failed, errors, items = 0, [], [], []
    with use_backend("numpy"):
        backend = backend_info()
        prepared = workloads.prepare(args.workload, args.seed, args.size)
        t_first = time.perf_counter()
        for step, outcome in prepared.run(serial_oracle=args.mode == "oracle"):
            attempted += len(step.labels)
            if isinstance(outcome, Exception):
                failed += step.labels
                errors.append(f"{type(outcome).__name__}: {outcome}")
            else:
                items += outcome
        t_done = time.perf_counter()
    usage_self = resource.getrusage(resource.RUSAGE_SELF)
    usage_children = resource.getrusage(resource.RUSAGE_CHILDREN)

    # Correctness, outside the timed window.
    from repro.obs.analyze import check_invariants, timeline_from_result

    checked = skipped = 0
    violations: dict[str, int] = {}
    for item in items:
        span = rec.open(rec.name_id("obs.analyze.check")) if rec is not None else None
        report = check_invariants(timeline_from_result(item.result, item.params))
        if rec is not None:
            rec.close(span)
        checked += len(report.checked)
        skipped += len(report.skipped)
        if report.violations:
            violations[item.label] = len(report.violations)

    out = {
        "t_main": T_MAIN,
        "t_first": t_first,
        "t_done": t_done,
        "rss_self_kb": usage_self.ru_maxrss,
        "rss_children_kb": usage_children.ru_maxrss,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digests": {item.label: digest(item.result) for item in items},
        "violations": violations,
        "counters": {
            "import_modules": import_modules,
            "results": len(items),
            "session_slots": int(sum(int(item.result.active.sum()) for item in items)),
            "grid_bytes": int(
                sum(getattr(item.result, g).nbytes for item in items for g in GRIDS)
            ),
            "checkers_run": checked,
            "checkers_skipped": skipped,
        },
        "backend": backend,
    }
    if rec is not None:
        import layers

        rec.write()
        out["layers"] = layers.layer_metrics(rec.out_dir, kernel_names())
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark at a tiny size.  Run from the repository root::

    python3 perfbench/selftest.py

Checks, for each workload:

* every metric named in ``BENCHMARK.json`` is printed with its unit,
  untraced (end-to-end) and traced (per-layer);
* the traced layer self-times plus ``unattributed_s`` add up to the
  traced wall time, and ``unattributed_s`` is not negative (no span time
  is counted twice);
* a corrupted reference digest, and separately an injected exception,
  each make the failed share (``failed / attempted``) positive.

It also checks that the command exits non-zero without a result line in
a directory holding only ``BENCHMARK.json`` and the benchmark files.
Takes about two minutes; writes only under ``.perfbench/selftest``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 and cwd == ROOT:
        sys.stderr.write(proc.stderr[-3000:])
    return proc.returncode, result


def check_metrics(result: dict, wanted: list[dict], where: str) -> None:
    got = result["metrics"]
    for spec in wanted:
        m = got.get(spec["name"])
        assert m is not None, f"{where}: metric {spec['name']} missing"
        assert m["unit"] == spec["unit"], f"{where}: {spec['name']} unit {m['unit']} != {spec['unit']}"
        assert isinstance(m["value"], (int, float)), f"{where}: {spec['name']} not a number"


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    refs = WORK / "refs.json"
    common = ("--seed", "0", "--seconds", "1", "--references", str(refs))

    code, _ = bench("--record-references", "--record-seeds", "1", "--references", str(refs))
    assert code == 0, "recording tiny references failed"

    for w in SPEC["workloads"]:
        name = w["name"]
        code, res = bench("--workload", name, "--trace", "0", *common)
        assert code == 0 and res is not None, f"{name}: untraced run failed"
        assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{name}: {res}"
        check_metrics(res, SPEC["end_to_end"], f"{name} trace 0")

        code, res = bench("--workload", name, "--trace", "1", *common)
        assert code == 0 and res is not None, f"{name}: traced run failed"
        assert res["correct"], f"{name}: traced run not correct"
        check_metrics(res, SPEC["per_layer"], f"{name} trace 1")
        m = {k: v["value"] for k, v in res["metrics"].items()}
        split = sum(v for k, v in m.items() if k.startswith("split."))
        assert abs(split + m["unattributed_s"] - m["traced_wall_s"]) <= 1e-6 * m["traced_wall_s"], (
            f"{name}: layer self-times {split} + unattributed {m['unattributed_s']} "
            f"!= traced wall {m['traced_wall_s']}"
        )
        assert m["unattributed_s"] >= 0.0, f"{name}: negative unattributed time"
        assert m["failed_share"] == 0.0, f"{name}: failed_share {m['failed_share']}"

        table = json.loads(refs.read_text())
        digests = table["tiny"][name]["0"]
        label = sorted(digests)[0]
        digests[label] = "0" * 64
        bad_refs = WORK / f"refs-corrupt-{name}.json"
        bad_refs.write_text(json.dumps(table))
        code, res = bench("--workload", name, "--trace", "0", "--seed", "0", "--seconds", "1",
                          "--references", str(bad_refs))
        assert code == 0 and res["failed"] / res["attempted"] > 0 and not res["correct"], (
            f"{name}: corrupted reference digest not detected: {res}"
        )

        code, res = bench("--workload", name, "--trace", "0", "--inject", "raise", *common)
        assert code == 0 and res["failed"] / res["attempted"] > 0 and not res["correct"], (
            f"{name}: injected exception not counted: {res}"
        )
        print(f"ok {name}")

    bare = WORK / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
    name = SPEC["workloads"][0]["name"]
    code, res = bench("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    assert code != 0 and res is None, "benchmark must fail without the package sources"
    print("ok bare directory")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself: short runs of every workload.

Run from the root of a checkout::

    python3 perfbench/smoke.py

For each workload it makes one untraced and one traced run on the default seed
with ``--seconds 1`` (which still sends at least ``run.MIN_OPS`` operations),
and asserts that the result line has exactly the contracted keys, that every
metric named in ``BENCHMARK.json`` is printed with its unit, and that no
operation failed (``fail_ratio`` is 0).  It then copies only ``BENCHMARK.json``
and the benchmark directory into an empty directory and asserts that the
benchmark refuses to run there.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(cwd, workload, trace):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = config["command"] + ["--workload", workload, "--seed", "0", "--seconds", "1",
                                "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in config["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            done = bench(ROOT, workload, trace)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True and result["failed"] == 0, (workload, trace, done.stderr)
            assert result["attempted"] >= 100
            assert "fail_ratio: 0.0 ratio" in lines, lines
            expected = {m["name"]: m["unit"] for m in config[kind]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (workload, trace, printed)
            for name, unit in expected.items():
                assert any(line.startswith(f"{name}: ") and line.endswith(f" {unit}") for line in lines), name
            print(f"ok {workload} trace={trace} attempted={result['attempted']}")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in config["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = bench(bare, config["workloads"][0]["name"], 0)
        assert done.returncode != 0 and not done.stdout.strip(), done.stdout
        print("ok refuses to run without the package sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

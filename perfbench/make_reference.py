"""Regenerate ``reference.json``, the stored answers the benchmark checks against.

Run from the root of a checkout, on code whose outputs are known to be right::

    python3 perfbench/make_reference.py

It records the digests of the two ``genus4`` reports, the classes of each sweep
universe that the derived-bound search refuses (twist-invariant, which this
script verifies on a second twist), and digest blocks of the first operations
of every workload on the default seed.  It takes a few minutes.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

#: Operations covered per workload: several times what one 20-second run of
#: the reference code completes, so faster code stays covered.
COVERED = {"curve-sweep": 8800, "higher-rank": 1950, "oracle-box": 2100, "headline": 10800}


def refused_keys(lib, workload):
    region = lib.walls.Region(*workloads.WIDE_REGION)
    keys = []
    for key, ch in workload.universe:
        outcomes = set()
        for t in (0, 5):
            try:
                lib.walls.enumerate_tilt_walls(lib.chern.ChernCharacter(*workloads.twist(ch, t)), region)
                outcomes.add(False)
            except lib.walls.WallSearchError:
                outcomes.add(True)
        if len(outcomes) != 1:
            raise SystemExit(f"refusal of {key} depends on the twist")
        if True in outcomes:
            keys.append(key)
    return keys


def main():
    os.chdir(ROOT)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    lib = workloads.import_library()
    reference = {"genus4": {}, "refused": {}, "blocks": {}}
    for kind, argv in (("genus4-text", ["genus4"]), ("genus4-json", ["genus4", "--format", "json"])):
        out = io.StringIO()
        with redirect_stdout(out):
            lib.cli.run(argv)
        reference["genus4"][kind] = workloads.digest(out.getvalue())
    for cls in (workloads.CurveSweep, workloads.HigherRank):
        reference["refused"][cls.name] = refused_keys(lib, cls(run.DEFAULT_SEED, reference))

    for name, cls in workloads.WORKLOADS.items():
        bench = run.Run(cls, run.DEFAULT_SEED, reference)
        bench.lib = lib
        bench.workload = cls(run.DEFAULT_SEED, reference)
        _, _, digests = bench.loop(count=COVERED[name])
        if bench.failed_ops:
            raise SystemExit(f"{name}: {len(bench.failed_ops)} operations failed their checks")
        blocks = [
            run.block_digest("".join(digests[i:i + run.BLOCK]))
            for i in range(0, len(digests) - run.BLOCK + 1, run.BLOCK)
        ]
        reference["blocks"][name] = blocks
        print(f"{name}: {len(digests)} ops, {bench.refused} refused", file=sys.stderr)

    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

"""Benchmark of the p3walls package: one workload per run, one thread, one client.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload curve-sweep --seed 0 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  With ``--trace 0`` the run sends
operations in a closed loop for ``--seconds`` seconds of measured time, then
on to the end of the current epoch, so that every run sends whole epochs and
every seed the same mix of work (at least ``MIN_OPS`` operations), and reports
the end-to-end metrics.  With
``--trace 1`` it runs the first ``TRACE_OPS`` operations twice, untraced and
then traced, and reports the per-layer metrics of ``tracer.py`` plus the ratio
of the two pass times.  Every output is checked; checking is excluded from the
measured time.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans of a traced run go to ``.bench_out/spans-<workload>.tsv``.

Speed calibration.  On a CPU shared with other tenants the speed this process
gets drifts by 10-30 % over seconds, with CPU time equal to wall time, which
swamps run-to-run comparisons.  So a fixed calibration kernel (exact rational
arithmetic of the benchmark's own, unaffected by the package) is timed before
every operation, outside the measured time, and each operation's latency is
scaled by ``KERNEL_REF_S`` over the mean kernel time of the operations
around it.  Reported times therefore read as wall-clock times on a machine
where the kernel takes ``KERNEL_REF_S``; the unscaled figures are printed
alongside as ``raw`` lines.  ``op_p50_ms`` and ``op_p90_ms`` are Harrell-Davis
estimates over every operation of the run; the sample count is printed.

Set-up (importing the package from ``src``, generating the inputs and running
one fixed warm-up operation) is repeated ``SETUP_REPEATS`` times with the
package modules dropped from ``sys.modules`` in between; ``setup_s`` is the
median, each repetition scaled by the kernel timed around it.  The program
exits with status 2 and prints no result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 0
MIN_OPS = 100
TRACE_OPS = 100
SETUP_REPEATS = 9
#: Operations per digest block of the default-seed reference.
BLOCK = 25
#: Reference time of the calibration kernel: about its time on an uncontended
#: core of the 2-core x86-64 VM (CPython 3.11) the benchmark was written on.
KERNEL_REF_S = 90e-6
#: Kernel samples on each side of an operation that set its speed factor.
KERNEL_WINDOW = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def calibration_kernel():
    """Exact bisection with outward-rounded square roots: the kind of work the
    package spends its time on, frozen here so that no change to the package
    changes it."""
    x, lo, hi = Fraction(73, 4), Fraction(0), Fraction(121, 4)
    for _ in range(6):
        mid = (lo + hi) / 2
        t = x + mid
        root = math.isqrt(t.numerator * t.denominator << 128)
        if Fraction(root, t.denominator << 64) ** 2 < 2 * x:
            lo = mid
        else:
            hi = mid
    return lo


def kernel_seconds(samples=1):
    """Mean time of ``samples`` runs of the calibration kernel."""
    started = time.perf_counter()
    for _ in range(samples):
        calibration_kernel()
    return (time.perf_counter() - started) / samples


def scaled(latencies, kernels):
    """Latencies scaled to reference speed; ``kernels[i]`` was timed just
    before operation ``i`` and ``kernels[-1]`` after the last one.

    The mean, not the median, of the nearby kernel times sets the factor:
    the speed alternates between fast and slow phases shorter than a
    window, and an operation's time grows with the mean slowdown.
    """
    out = []
    for i, latency in enumerate(latencies):
        window = kernels[max(0, i - KERNEL_WINDOW): i + KERNEL_WINDOW + 2]
        out.append(latency * KERNEL_REF_S * len(window) / sum(window))
    return out


def _drop_package_modules():
    for name in [n for n in sys.modules if n == "p3walls" or n.startswith("p3walls.")]:
        del sys.modules[name]


def block_digest(joined):
    return hashlib.sha256(joined.encode()).hexdigest()[:16]


class Run:
    """State of one benchmark run: the library, the workload and the tallies."""

    def __init__(self, workload_cls, seed, reference):
        self.workload_cls = workload_cls
        self.seed = seed
        self.reference = reference
        self.blocks = reference["blocks"].get(workload_cls.name, []) if seed == DEFAULT_SEED else []
        self.failed_ops = set()
        self.checked = 0
        self.refused = 0
        self.reported = 0

    def setup(self, import_library):
        """Import, generate inputs and run the warm-up op, several times.

        Returns the median set-up time, raw and scaled to reference speed.
        """
        raw, scaled_times = [], []
        for _ in range(SETUP_REPEATS):
            before = kernel_seconds(5)
            _drop_package_modules()
            started = time.perf_counter()
            self.lib = import_library()
            self.workload = self.workload_cls(self.seed, self.reference)
            self.workload.spec(0)
            spec = self.workload.warmup_spec()
            status, output = self.workload.run(self.lib, spec)
            if not self.workload.check(self.lib, spec, status, output):
                raise SystemExit(f"warm-up operation of {self.workload.name} gave a wrong result")
            elapsed = time.perf_counter() - started
            speed = (before + kernel_seconds(5)) / 2
            raw.append(elapsed)
            scaled_times.append(elapsed * KERNEL_REF_S / speed)
        return statistics.median(raw), statistics.median(scaled_times)

    def _fail(self, i, why):
        if self.reported < 5:
            print(f"op {i} failed: {why}", file=sys.stderr)
            self.reported += 1
        self.failed_ops.add(i)

    def call(self, i):
        """Run operation ``i``; returns ``(spec, status, output, seconds)``."""
        spec = self.workload.spec(i)
        started = time.perf_counter()
        try:
            status, output = self.workload.run(self.lib, spec)
        except Exception:  # an unexpected exception is a failed op, not a crash
            elapsed = time.perf_counter() - started
            self._fail(i, traceback.format_exc())
            return spec, "error", None, elapsed
        return spec, status, output, time.perf_counter() - started

    def verify(self, i, spec, status, output, digests):
        """Check one output and fold its digest into the default-seed blocks."""
        self.checked += 1
        if status == "error":
            digests.append("error")
        else:
            if status == "refused":
                self.refused += 1
            try:
                good = self.workload.check(self.lib, spec, status, output)
            except Exception:
                good = False
            if not good:
                self._fail(i, f"output check failed for {spec!r:.200}")
            digests.append(self.workload.digest(spec, status, output))
        block, pos = divmod(i, BLOCK)
        if pos == BLOCK - 1 and block < len(self.blocks):
            if block_digest("".join(digests[-BLOCK:])) != self.blocks[block]:
                for j in range(i - BLOCK + 1, i + 1):
                    self._fail(j, f"digest of block {block} differs from the reference")

    def loop(self, seconds=None, count=None, digests=None, tracer=None):
        """Send operations one after another.

        Stops after ``count`` operations, or at the first end of an epoch
        after ``seconds`` of measured time and at least ``MIN_OPS`` operations.
        Outputs are checked, or, when ``digests`` is given, compared with those
        digests.  A ``tracer`` is told the index of each operation.  Returns
        the latencies, the kernel times around them and the output digests.
        """
        latencies, kernels, own = [], [kernel_seconds()], []
        epoch = len(self.workload.universe)
        measured = 0.0
        i = 0
        while True:
            if tracer is not None:
                tracer.op = i
            spec, status, output, elapsed = self.call(i)
            latencies.append(elapsed)
            measured += elapsed
            if digests is None:
                self.verify(i, spec, status, output, own)
            elif status != "error" and self.workload.digest(spec, status, output) != digests[i]:
                self._fail(i, "traced output differs from the untraced one")
            kernels.append(kernel_seconds())
            i += 1
            if i == count or (count is None and i >= MIN_OPS and measured >= seconds
                              and i % epoch == 0):
                return latencies, kernels, own


def _betacf(a, b, x):
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 100000):
        for num in (m * (b - m) * x / ((a - 1 + 2 * m) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 1 + 2 * m))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-13:
            return h
    raise ArithmeticError("incomplete beta did not converge")


def _betainc(a, b, x):
    """Regularized incomplete beta function ``I_x(a, b)``."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _betacf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _betacf(b, a, 1.0 - x) / b


def percentile(sorted_values, q):
    """Harrell-Davis estimate of the ``q`` quantile of an ascending list.

    A Beta-weighted average of the order statistics around rank ``q n``.
    Latencies cluster by input class, and a plain order statistic jumps
    between clusters from run to run; the weighted average does not.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    spread = 12 * math.sqrt(q * (1 - q) / (n + 2)) + 1 / n
    lo, hi = max(0, math.floor((q - spread) * n)), min(n, math.ceil((q + spread) * n))
    total, previous = 0.0, _betainc(a, b, lo / n)
    for i in range(lo, hi):
        current = _betainc(a, b, (i + 1) / n)
        total += (current - previous) * sorted_values[i]
        previous = current
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "p3walls" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (needs the paths above)

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    reference = json.loads((HERE / "reference.json").read_text())
    run = Run(workloads.WORKLOADS[args.workload], args.seed, reference)
    raw_setup_s, setup_s = run.setup(workloads.import_library)

    if args.trace:
        from tracer import Tracer

        latencies, kernels, digests = run.loop(count=TRACE_OPS)
        untraced_s = sum(scaled(latencies, kernels))
        tracer = Tracer(run.lib)
        tracer.install()
        try:
            latencies, kernels, _ = run.loop(count=TRACE_OPS, digests=digests, tracer=tracer)
        finally:
            tracer.uninstall()
        traced_s = sum(scaled(latencies, kernels))
        attempted = 2 * TRACE_OPS
        metrics = tracer.metrics(traced_s / untraced_s)
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}.tsv")
        print(f"traced {TRACE_OPS} ops: untraced {untraced_s:.3f} s, traced {traced_s:.3f} s"
              f" (scaled), {len(tracer.start)} spans")
    else:
        latencies, kernels, _ = run.loop(seconds=args.seconds)
        attempted = len(latencies)
        raw, ordered = sorted(latencies), sorted(scaled(latencies, kernels))
        values = {
            "ops_per_s": attempted / sum(ordered),
            "op_p50_ms": 1000 * percentile(ordered, 0.5),
            "op_p90_ms": 1000 * percentile(ordered, 0.9),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        print(f"samples: {attempted} ops in {sum(raw):.3f} s of measured time;"
              f" mean kernel {1e6 * statistics.mean(kernels):.1f} us")
        print(f"raw ops_per_s: {attempted / sum(raw)} 1/s")
        print(f"raw op_p50_ms: {1000 * percentile(raw, 0.5)} ms")
        print(f"raw op_p90_ms: {1000 * percentile(raw, 0.9)} ms")
        print(f"raw setup_s: {raw_setup_s} s")

    failed = len(run.failed_ops)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']} {metric['unit']}")
    print(f"fail_ratio: {failed / attempted} ratio")
    print(f"refused: {run.refused} of {run.checked} ops checked")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

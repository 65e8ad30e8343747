"""Span recording at the package's layer boundaries, from outside the package.

:meth:`Tracer.install` replaces public functions of the layers with wrappers
in every module that holds a reference to them (the names ``walls``, ``cli``,
``genus4`` and ``plotting`` import from ``stability`` and ``chern`` included),
and :meth:`Tracer.uninstall` puts the originals back.  Nothing in ``src``
changes.  A span is ``(name, parent, op, start, end)``; spans of one operation
share ``op``.  Spans stay in compact in-memory arrays and are written out by
:meth:`Tracer.write` once the run is over.  A span's self time is its duration
minus the durations of its direct children, which in one thread never overlap.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

#: Metric prefix of each span name, with the modules and attribute names
#: wrapped for it.  Methods are patched on their classes.
SPANS = {
    "walls.enumerate": [(m, "enumerate_tilt_walls") for m in ("walls", "cli", "genus4", "plotting")],
    "walls.brute_force": [("walls", "brute_force_walls")],
    "stability.wall_admissible": [("stability", "wall_admissible"), ("walls", "wall_admissible")],
    "stability.point": [
        ("stability", "nu"),
        ("stability", "bmt_form"),
        ("stability", "mu_beta"),
        ("stability", "lambda_slope"),
        ("stability", "bridgeland_charge"),
        ("walls", "nu"),
        ("cli", "bmt_form"),
    ],
    "chern.twist": [("chern.ChernTruncation", "twist"), ("chern.ChernCharacter", "twist")],
    "chern.euler": [(m, "euler_pairing") for m in ("chern", "cli", "genus4")],
    "genus4.report": [("genus4", "report")],
    "plotting.build_scene": [("plotting", "build_scene")],
    "plotting.render_svg": [("plotting", "render_svg")],
    "cli.run": [("cli", "run")],
}

#: Every per-layer metric with its unit, in output order.
METRICS = {
    "walls.enumerate.calls": "count",
    "walls.enumerate.self_s": "s",
    "walls.enumerate.walls_found": "count",
    "walls.enumerate.refused": "count",
    "walls.enumerate.refused_s": "s",
    "walls.enumerate.repeat_share": "ratio",
    "walls.brute_force.calls": "count",
    "walls.brute_force.self_s": "s",
    "walls.brute_force.triples": "count",
    "walls.brute_force.yield": "ratio",
    "walls.admissible_per_triple": "ratio",
    "stability.wall_admissible.calls": "count",
    "stability.wall_admissible.self_s": "s",
    "chern.twist.calls": "count",
    "chern.twist.self_s": "s",
    "stability.point.calls": "count",
    "stability.point.self_s": "s",
    "chern.euler.calls": "count",
    "chern.euler.self_s": "s",
    "genus4.report.calls": "count",
    "genus4.report.self_s": "s",
    "plotting.build_scene.self_s": "s",
    "plotting.render_svg.self_s": "s",
    "plotting.svg_bytes": "bytes",
    "cli.run.calls": "count",
    "cli.run.self_s": "s",
    "cli.run.nonzero_exits": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names = list(SPANS)
        self.name_of = array("B")
        self.parent = array("q")
        self.op_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op = -1
        self.counts = Counter()
        self.refused_spans = []
        self._seen = set()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = self.names.index(name)
        on_result = getattr(self, "_after_" + name.replace(".", "_"), None)
        on_error = getattr(self, "_raised_" + name.replace(".", "_"), None)
        name_of, parent, op_of, start, end, stack = (
            self.name_of, self.parent, self.op_of, self.start, self.end, self.stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            op_of.append(self.op)
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(idx, exc, args)
                raise
            end[idx] = clock()
            stack.pop()
            if on_result is not None:
                on_result(idx, result, args)
            return result

        return wrapper

    def _enumerate_key(self, args):
        v, region = args[0], args[1]
        bounds = args[2] if len(args) > 2 else None
        key = (v.r, v.c, v.d, v.e, region.beta_min, region.beta_max, region.alpha_sq_max, bounds)
        self.counts["walls.enumerate.repeats"] += key in self._seen
        self._seen.add(key)

    def _after_walls_enumerate(self, idx, result, args):
        self._enumerate_key(args)
        self.counts["walls.enumerate.walls_found"] += len(result)

    def _raised_walls_enumerate(self, idx, exc, args):
        self._enumerate_key(args)
        if isinstance(exc, self.lib.walls.WallSearchError):
            self.refused_spans.append(idx)

    def _after_walls_brute_force(self, idx, result, args):
        r, c, dd = args[2]
        self.counts["walls.brute_force.triples"] += (2 * r + 1) * (2 * c + 1) * (2 * dd + 1)
        self.counts["walls.brute_force.walls"] += len(result)

    def _after_plotting_render_svg(self, idx, result, args):
        self.counts["plotting.svg_bytes"] += len(result)

    def _after_cli_run(self, idx, result, args):
        self.counts["cli.run.nonzero_exits"] += result != 0

    # -- patching ----------------------------------------------------------

    def _owner(self, path):
        module, _, cls = path.partition(".")
        owner = getattr(self.lib, module)
        return getattr(owner, cls) if cls else owner

    def install(self):
        for name, targets in SPANS.items():
            for path, attr in targets:
                owner = self._owner(path)
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _self_and_calls(self):
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                children[p] += duration[i]
        self_ns = Counter()
        calls = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            self_ns[name] += duration[i] - children[i]
            calls[name] += 1
        return duration, self_ns, calls

    def metrics(self, overhead_ratio):
        duration, self_ns, calls = self._self_and_calls()
        brute = self.names.index("walls.brute_force")
        admissible = self.names.index("stability.wall_admissible")
        under_brute = sum(
            1 for i in range(len(self.start))
            if self.name_of[i] == admissible and self.parent[i] >= 0
            and self.name_of[self.parent[i]] == brute
        )
        triples = self.counts["walls.brute_force.triples"]
        enumerations = calls["walls.enumerate"]
        values = {
            "walls.enumerate.walls_found": self.counts["walls.enumerate.walls_found"],
            "walls.enumerate.refused": len(self.refused_spans),
            "walls.enumerate.refused_s": sum(duration[i] for i in self.refused_spans) / 1e9,
            "walls.enumerate.repeat_share":
                self.counts["walls.enumerate.repeats"] / enumerations if enumerations else 0.0,
            "walls.brute_force.triples": triples,
            "walls.brute_force.yield":
                self.counts["walls.brute_force.walls"] / triples if triples else 0.0,
            "walls.admissible_per_triple": under_brute / triples if triples else 0.0,
            "plotting.svg_bytes": self.counts["plotting.svg_bytes"],
            "cli.run.nonzero_exits": self.counts["cli.run.nonzero_exits"],
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in METRICS:
            prefix, _, kind = name.rpartition(".")
            if kind == "calls":
                values[name] = calls[prefix]
            elif kind == "self_s":
                values[name] = self_ns[prefix] / 1e9
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS.items()}

    def write(self, path):
        """Write every span as one tab-separated line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write("span\tparent\top\tname\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                handle.write(
                    f"{i}\t{self.parent[i]}\t{self.op_of[i]}\t{self.names[self.name_of[i]]}"
                    f"\t{self.start[i]}\t{self.end[i]}\n"
                )

"""Per-layer call tracing for the benchmark's traced run.

The tracer wraps public functions of ``pesin_coder`` from the outside: for
each target it replaces the function object under every loaded module
attribute bound to it (so ``dist_to_discontinuity`` is wrapped both in
``dynamics`` and as imported into ``cocycle``, and the workloads' own
imports are wrapped too), and restores the originals on exit.  The package
source is not modified.

Each wrapper records calls, inclusive time and the time spent in wrapped
children, so self time is inclusive minus children.  Spans are kept in
memory as per-name totals; nothing is written until the benchmark ends.
"""
from __future__ import annotations

import importlib
import sys
import time

# (module, attribute) of every wrapped function; "Class.method" wraps a
# method on the class itself.  Names in the report are "<module>.<function>".
TARGETS = (
    ("tables", "BilliardTable.contains_point"),
    ("dynamics", "singularity_cloud"),
    ("dynamics", "dist_to_discontinuity"),
    ("dynamics", "billiard_map"),
    ("dynamics", "billiard_inverse"),
    ("dynamics", "derivative_along_orbit"),
    ("accel", "run_orbit"),
    ("cocycle", "orbit_segment"),
    ("cocycle", "oseledets_splitting"),
    ("cocycle", "lyapunov_exponents"),
    ("cocycle", "frame_at"),
    ("charts", "chart_map_fxy"),
    ("manifolds", "path_from_vertices"),
    ("manifolds", "shadow"),
    ("manifolds", "stable_manifold"),
    ("manifolds", "unstable_manifold"),
    ("manifolds", "intersect"),
    ("coding", "gammas_from_segment"),
    ("coding", "coarse_grain"),
    ("coding", "sufficiency_itinerary"),
    ("coding", "project_pi"),
    ("coding", "inverse_diagnostics"),
    ("coding", "save_alphabet"),
    ("coding", "load_alphabet"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Span:
    """Running totals for one wrapped function."""

    __slots__ = ("calls", "total_ns", "child_ns", "steps")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.steps = 0


class Tracer:
    """Context manager that wraps TARGETS while active."""

    def __init__(self):
        self.spans = {span_name(m, a): Span() for m, a in TARGETS}
        self._stack: list[list[int]] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter_ns
        count_steps = name == "accel.run_orbit"

        def traced(*args, **kwargs):
            children = [0]
            stack.append(children)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.calls += 1
                span.total_ns += dt
                span.child_ns += children[0]
                if stack:
                    stack[-1][0] += dt
            if count_steps:
                span.steps += int(out[5])  # steps completed by the kernel
            return out

        return traced

    def __enter__(self):
        wrappers = {}
        for module, attr in TARGETS:
            name = span_name(module, attr)
            home = importlib.import_module(f"pesin_coder.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(home, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, orig, self._wrap(name, orig))
            else:
                orig = getattr(home, attr)
                wrappers[id(orig)] = (orig, self._wrap(name, orig))
        # every module holding a target by name, the benchmark's included
        for mod in list(sys.modules.values()):
            for key, val in list(getattr(mod, "__dict__", {}).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patch(mod, key, val, hit[1])
        return self

    def _patch(self, owner, key, orig, wrapper):
        self._patches.append((owner, key, orig))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()
        return False

    def metrics(self) -> dict:
        """Per-layer figures as {name: (value, unit)}: calls, inclusive and
        self time for every span, plus per-call or per-step time where a
        later change is expected to move it."""
        out = {}
        for name, s in self.spans.items():
            out[f"{name}.calls"] = (s.calls, "count")
            out[f"{name}.ms"] = (s.total_ns / 1e6, "ms")
            out[f"{name}.self_ms"] = ((s.total_ns - s.child_ns) / 1e6, "ms")
        for name in PER_CALL_US:
            out[f"{name}.us_per_call"] = (_ratio(self.spans[name].total_ns / 1e3,
                                                 self.spans[name].calls), "us")
        chart = self.spans["charts.chart_map_fxy"]
        out["charts.chart_map_fxy.ms_per_call"] = (
            _ratio(chart.total_ns / 1e6, chart.calls), "ms")
        kernel = self.spans["accel.run_orbit"]
        out["accel.run_orbit.steps"] = (kernel.steps, "count")
        out["accel.run_orbit.us_per_step"] = (
            _ratio(kernel.total_ns / 1e3, kernel.steps), "us")
        return out


# spans whose per-call cost is reported in microseconds
PER_CALL_US = ("dynamics.dist_to_discontinuity", "dynamics.billiard_map",
               "dynamics.billiard_inverse")


def _ratio(num: float, den: int) -> float:
    return num / den if den else 0.0

"""Layer tracing by wrapping fracdg functions from outside the package.

Each traced function is replaced, in every fracdg module that binds it, by a
wrapper that records a span with its parent span.  Spans are aggregated as
they close, keyed by (name, parent name), into calls, inclusive time and
self time (inclusive time minus the time of traced child spans).
`memory_block` spans are named by the kernel branch that builds the block,
classified here by the kernel's documented rule.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

# (module under fracdg, function) pairs; a missing function is skipped
TRACED = (
    ("kernel", "memory_block"),
    ("kernel", "memory_form"),
    ("kernel", "power_rule"),
    ("kernel", "legendre_derivative_values"),
    ("stepper", "solve"),
    ("stepper", "stability_report"),
    ("analysis", "error_measure"),
    ("analysis", "fem_mode_problems"),
    ("spatial", "fem_backend"),
    ("config", "parse_config"),
    ("cli", "main"),
)

# memory_block's near/far switch: gap >= FAR_RATIO * larger step is far field
FAR_RATIO = 2.0

BRANCHES = ("local", "near", "far")


def block_branch(mesh, j, n):
    """Kernel branch building block (j, n): local, near or far."""
    if j == n:
        return "local"
    sl, sr = mesh.interval(j)
    tl, tr = mesh.interval(n)
    return "far" if tl - sr >= FAR_RATIO * max(tr - tl, sr - sl) else "near"


def _block_key(arguments):
    mesh, j, n = arguments["mesh"], arguments["j"], arguments["n"]
    degrees = arguments.get("degrees")
    if degrees is None:
        degrees = (mesh.degree(j), mesh.degree(n))
    order = arguments["order"]
    alpha = float(getattr(order, "alpha", order))
    return (mesh.nodes.tobytes(), mesh.degrees.tobytes(), j, n, tuple(degrees), alpha)


class Tracer:
    """Span aggregates of the traced fracdg functions while installed."""

    def __init__(self):
        # (name, parent name) -> [calls, inclusive seconds, self seconds]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(int)
        self.block_keys = set()
        self._stack = []
        self._patches = []

    def install(self):
        import fracdg

        modules = [m for name, m in sys.modules.items()
                   if name == "fracdg" or name.startswith("fracdg.")]
        for module_name, function in TRACED:
            home = getattr(fracdg, module_name, None)
            original = getattr(home, function, None)
            if original is None:
                print(f"trace: fracdg.{module_name}.{function} not found", file=sys.stderr)
                continue
            wrapper = self._wrap(f"{module_name}.{function}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def restore(self):
        """Put every wrapped binding back; returns the bindings that did not revert."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        stuck = [f"{m.__name__}.{a}" for m, a, o in self._patches if getattr(m, a) is not o]
        self._patches.clear()
        return stuck

    def _span(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            agg = self.spans[(name, parent)]
            agg[0] += 1
            agg[1] += elapsed
            agg[2] += elapsed - frame[1]

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)

        if name == "kernel.memory_block":
            def wrapper(*args, **kwargs):
                arguments = signature.bind(*args, **kwargs).arguments
                self.block_keys.add(_block_key(arguments))
                branch = block_branch(arguments["mesh"], arguments["j"], arguments["n"])
                return self._span(f"{name}.{branch}", fn, args, kwargs)
        elif name == "kernel.power_rule":
            def wrapper(*args, **kwargs):
                nodes, weights = self._span(name, fn, args, kwargs)
                self.counters["kernel.power_rule.nodes"] += len(nodes)
                return nodes, weights
        elif name == "stepper.solve":
            def wrapper(*args, **kwargs):
                bound = signature.bind(*args, **kwargs)
                problems = list(bound.arguments["problems"])
                bound.arguments["problems"] = problems
                intervals = bound.arguments["mesh"].interval_count
                self.counters["stepper.local_solves"] += intervals * len(problems)
                return self._span(name, fn, bound.args, bound.kwargs)
        else:
            def wrapper(*args, **kwargs):
                return self._span(name, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def total(self, name, field, parent=...):
        """Sum of calls (0), seconds (1) or self seconds (2) over spans named
        `name`, optionally only those whose parent span is `parent`."""
        return sum(agg[field] for (span, up), agg in self.spans.items()
                   if span == name and (parent is ... or up == parent))


def layer_metrics(setup, passes, pass_count, unique_blocks, overhead_frac):
    """Per-layer metrics for one set-up plus one timed pass.

    `setup` traced the workload's set-up, `passes` its `pass_count` timed
    passes; `unique_blocks` counts distinct memory blocks per pass, summed.
    """
    out = {}

    def put(metric, unit, setup_value, pass_value):
        out[metric] = (setup_value + pass_value / pass_count, unit)

    def span(metric, name, field, unit, parent=...):
        put(metric, unit, setup.total(name, field, parent), passes.total(name, field, parent))

    block_calls = 0
    for branch in BRANCHES:
        name = f"kernel.memory_block.{branch}"
        span(f"{name}.calls", name, 0, "count")
        span(f"{name}.s", name, 1, "s")
        block_calls += passes.total(name, 0)
    out["kernel.memory_block.unique_ratio"] = (
        unique_blocks / block_calls if block_calls else 1.0, "ratio")
    for name in ("kernel.legendre_derivative_values", "kernel.power_rule"):
        span(f"{name}.calls", name, 0, "count")
        span(f"{name}.s", name, 1, "s")
    put("kernel.power_rule.nodes", "count", setup.counters["kernel.power_rule.nodes"],
        passes.counters["kernel.power_rule.nodes"])
    for name in ("kernel.memory_form", "stepper.stability_report", "stepper.solve"):
        span(f"{name}.calls", name, 0, "count")
        span(f"{name}.s", name, 1, "s")
        span(f"{name}.self_s", name, 2, "s")
    put("stepper.local_solves", "count", setup.counters["stepper.local_solves"],
        passes.counters["stepper.local_solves"])
    span("stepper.load.power_rule_calls", "kernel.power_rule", 0, "count", parent="stepper.solve")
    span("stepper.load.s", "kernel.power_rule", 1, "s", parent="stepper.solve")
    span("analysis.error_measure.calls", "analysis.error_measure", 0, "count")
    span("analysis.error_measure.s", "analysis.error_measure", 1, "s")
    span("spatial.fem_backend.s", "spatial.fem_backend", 1, "s")
    span("analysis.fem_mode_problems.s", "analysis.fem_mode_problems", 1, "s")
    span("config.parse_config.s", "config.parse_config", 1, "s")
    span("cli.main.self_s", "cli.main", 2, "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out

"""In-memory span tracing around the package's public entry points.

A traced run replaces module attributes of the package with thin
wrappers that record one span per call: (name, start, end, parent, op).
Calls made inside the package resolve those names through the same
module globals, so nested layers show up as child spans.  Spans are
only recorded while an operation is open; the benchmark's own checks
run outside operations and are not traced.  Nothing here changes the
package: ``uninstall`` restores every attribute it replaced.
"""

import contextlib
import dataclasses
import importlib
import json
import time
from collections import Counter

import numpy as np

# span name -> [(module name, attribute)] it wraps
WRAPPED = {
    "branch.inverse": [("branch", "inverse_sigma"), ("branch", "unified_sigma")],
    "branch.constants": [
        ("branch", "sigma_z"),
        ("branch", "g_crit"),
        ("branch", "sigma_c"),
        ("branch", "phi_crit"),
        ("branch", "critical_set"),
    ],
    "rhs.assemble": [
        ("rhs", "assemble_three_species"),
        ("rhs", "assemble_four_species"),
    ],
    "bvp.solve": [("bvp", "solve")],
    "bvp.checks": [
        ("bvp", "classify_solution"),
        ("bvp", "bounds_check"),
        ("bvp", "envelope_check"),
    ],
    "bvp.limits": [("bvp", "boundary_layer_limits")],
    "bvp.eigen": [("bvp", "linearized_smallest_eigenvalue")],
    "quadrature.simpson": [("bvp", "adaptive_simpson"), ("current", "adaptive_simpson")],
    "current.pointwise": [
        ("current", "pointwise_current_three"),
        ("current", "pointwise_current_four"),
    ],
    "current.x_route": [("current", "integral_current_x")],
    "current.sigma_route": [
        ("current", "integral_current_sigma_three"),
        ("current", "integral_current_sigma_four"),
    ],
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Span recorder; ``open_op`` brackets the work of one operation."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = None
        self._stack = []
        self._next_op = 0
        self._saved = []

    # -- recording -----------------------------------------------------

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)

    def _exit(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span named name (pass-through outside operations)."""
        if self.op is None:
            return fn(*args, **kwargs)
        self._enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    @contextlib.contextmanager
    def open_op(self, name):
        """Bracket one operation; its spans share an op id."""
        self.op = self._next_op
        self._next_op += 1
        self._enter(name)
        try:
            yield self.op
        finally:
            self._exit()
            self.op = None

    def parent_name(self):
        return self.spans[self._stack[-1]].name if self._stack else None

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        if name == "branch.inverse":

            def wrapper(phi, *args, **kwargs):
                # B segments recurse into the A inverse: count points once
                if tracer.op is not None and tracer.parent_name() != name:
                    tracer.counts["branch.inverse_points"] += int(np.size(phi))
                return tracer.call(name, fn, phi, *args, **kwargs)

        elif name == "rhs.assemble":

            def wrapper(*args, **kwargs):
                tracer.counts["rhs.assemble_calls"] += tracer.op is not None
                out = tracer.call(name, fn, *args, **kwargs)
                return dataclasses.replace(
                    out,
                    evaluator=tracer._wrap_eval(out.evaluator),
                    derivative=tracer._wrap_eval(out.derivative),
                )

        elif name == "bvp.solve":

            def wrapper(*args, **kwargs):
                sol = tracer.call(name, fn, *args, **kwargs)
                if tracer.op is not None:
                    tracer.counts["bvp.solves"] += 1
                    tracer.counts["bvp.newton_iters"] += sol.iterations
                    tracer.counts["bvp.nodes"] += sol.nodes.size
                return sol

        elif name == "quadrature.simpson":

            def wrapper(*args, **kwargs):
                tracer.counts["quadrature.calls"] += tracer.op is not None
                return tracer.call(name, fn, *args, **kwargs)

        else:

            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_eval(self, fn):
        tracer = self

        def wrapper(phi):
            tracer.counts["rhs.eval_calls"] += tracer.op is not None
            return tracer.call("rhs.eval", fn, phi)

        return wrapper

    def install(self):
        """Wrap every package attribute listed in WRAPPED."""
        for name, targets in WRAPPED.items():
            for mod_name, attr in targets:
                mod = importlib.import_module("pnp_steric." + mod_name)
                original = getattr(mod, attr)
                self._saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    # -- reduction -----------------------------------------------------

    def self_times(self):
        """Total self time per span name."""
        return self_times(self.spans)

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dataclasses.asdict(s)}) + "\n")


def self_times(spans):
    """Self time per span name: each span's duration minus its children's.

    Spans come from one synchronous call stack, so the children of a span
    never overlap.
    """
    out = Counter()
    for s in spans:
        out[s.name] += s.end - s.start
        if s.parent is not None:
            out[spans[s.parent].name] -= s.end - s.start
    return out

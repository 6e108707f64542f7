"""Layer spans recorded from outside the package.

The tracer replaces the public entry points of each movingbed module with
wrappers that record a span (parent span, layer name, start, end, raised)
and then call the original.  A function is rebound in every movingbed
module that holds it under its name, so calls through any import path are
seen: ``return_map`` in charfun, spectrum and cli; ``dominant_eigenvalue``
in spectrum, sensitivity, sim and cli; and so on.  ``uninstall`` puts the
original objects back, and nothing is wrapped outside ``install``.

Self time of a span is its duration minus the durations of its direct
children.  Spans stay in memory until ``layer_totals`` aggregates them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# layer name -> (defining module, function name) pairs it covers
LAYERS = {
    "charfun.return_map": [("charfun", "return_map")],
    "charfun.zone_eigen": [("charfun", "zone_eigen")],
    "spectrum.dominant_eigenvalue": [("spectrum", "dominant_eigenvalue")],
    "spectrum.real_root_scan": [("spectrum", "real_root_scan")],
    "spectrum.collocation_spectrum": [("spectrum", "collocation_spectrum")],
    "spectrum.limit_spectrum": [("spectrum", "limit_spectrum")],
    "eigfun.solve": [("eigfun", "eigenfunction"),
                     ("eigfun", "adjoint_eigenfunction"),
                     ("eigfun", "steady_state")],
    "eigfun.evaluate": [("eigfun", "evaluate")],
    "sensitivity.inner_product": [("eigfun", "inner_product")],
    "sensitivity.full_report": [("sensitivity", "full_report")],
    "sensitivity.central_difference": [("sensitivity", "central_difference")],
    "sim.setup": [("sim", "init")],
    "sim.run": [("sim", "run")],
    "sim.advection_step": [("sim", "advection_step")],
    "sim.mass_transfer_step": [("sim", "mass_transfer_step")],
    "sim.diagnostics": [("sim", "_row")],
    "cli.io": [("cli", "_write_csv"), ("cli", "_write_json")],
}

_MODULES = ("charfun", "spectrum", "eigfun", "sensitivity", "sim", "cli")


class Tracer:
    """Span recorder; one per traced pass."""

    def __init__(self):
        self.spans = []          # (parent index or -1, name, t0, t1, raised)
        self._stack = []
        self._saved = []         # (module, attribute, original)
        self.paused = False

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around the block; the benchmark opens these
        itself around each CLI subcommand."""
        spans, stack = self.spans, self._stack
        sid = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        raised = True
        t0 = time.perf_counter()
        try:
            yield
            raised = False
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[sid] = (parent, name, t0, t1, raised)

    def wrap(self, name, fn):
        # span() inlined: a wrapper runs ~30k times per sweep op
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            raised = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, name, t0, t1, raised)
        return wrapper

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside (the benchmark's output checks) are not traced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = {m: importlib.import_module(f"movingbed.{m}") for m in _MODULES}
        holders = [m for k, m in sys.modules.items()
                   if m is not None and (k == "movingbed"
                                         or k.startswith("movingbed."))]
        for name, targets in LAYERS.items():
            for modname, attr in targets:
                orig = getattr(mods[modname], attr)
                wrapper = self.wrap(name, orig)
                for mod in holders:
                    if getattr(mod, attr, None) is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def layer_totals(self) -> dict:
        """name -> {calls, raised, total_s, self_s} over all spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for parent, _, t0, t1, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (_, name, t0, t1, raised) in enumerate(spans):
            agg = out.setdefault(name, {"calls": 0, "raised": 0,
                                        "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["raised"] += raised
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child[i]
        return out

    def count_under(self, name: str, ancestor: str,
                    direct: bool = False) -> int:
        """Spans called ``name`` below a span called ``ancestor``
        (only as its direct child when ``direct``)."""
        spans = self.spans
        n = 0
        for parent, nm, *_ in spans:
            if nm != name:
                continue
            while parent >= 0:
                if spans[parent][1] == ancestor:
                    n += 1
                    break
                if direct:
                    break
                parent = spans[parent][0]
        return n


"""Per-layer spans recorded from outside fracheat.

Each layer is a module of src/fracheat.  Its public functions and the
public methods of its classes are wrapped in place, and every module of
the package that bound the function by `from .x import y` gets the wrapper
under the same name.  A wrapper opens a span when the call enters the
layer from another layer or from the benchmark; calls inside one layer run
unwrapped, so a layer's `calls` count entries and its self time is its
spans' time minus the time of the spans they caused.

Spans (id, parent, name, start, end) stay in memory and are written out
when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from dataclasses import dataclass

import numpy as np

LAYERS = ("stable", "subordinator", "solution", "kernels", "estimates", "scale",
          "numerics", "harness")


@dataclass
class LayerStats:
    calls: int = 0
    self_s: float = 0.0
    points: int = 0        # stable: 1 per scalar call, array size per grid call; kernels: q values
    draws: int = 0         # stable and subordinator samples
    nodes: int = 0         # subordinator: r values sent to inverse_density(_grid)
    zero_nodes: int = 0    # ... of which returned exactly 0
    nonconverged: int = 0  # solution: estimates flagged converged=False


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _count_stable(stats, name, args, kwargs, result):
    if name in ("density", "cdf", "survival", "log_cdf"):
        stats.points += 1
    elif name in ("density_grid", "cdf_grid"):
        stats.points += int(np.size(_arg(args, kwargs, 1, "xs")))
    elif name == "sample":
        stats.draws += int(_arg(args, kwargs, 2, "n", 1))


def _count_subordinator(stats, name, args, kwargs, result):
    if name in ("SubordinatorModel.inverse_density", "SubordinatorModel.inverse_density_grid"):
        stats.nodes += int(np.size(result))
        stats.zero_nodes += int(np.count_nonzero(np.asarray(result) == 0.0))
    elif name in ("SubordinatorModel.sample_inverse", "SubordinatorModel.sample_subordinator"):
        stats.draws += int(_arg(args, kwargs, 3, "n", 1))


def _count_solution(stats, name, args, kwargs, result):
    if getattr(result, "converged", True) is False:
        stats.nonconverged += 1


def _count_kernels(stats, name, args, kwargs, result):
    if name.endswith(".q"):
        stats.points += int(np.size(result))


COUNTERS = {"stable": _count_stable, "subordinator": _count_subordinator,
            "solution": _count_solution, "kernels": _count_kernels}


def _public_functions(module):
    """(owner, attribute, qualified name, function) for the module's own
    public functions and the public methods of its own classes."""
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, name, name, obj
        elif inspect.isclass(obj):
            for mname, meth in list(vars(obj).items()):
                if not mname.startswith("_") and inspect.isfunction(meth):
                    yield obj, mname, f"{name}.{mname}", meth


class Tracer:
    def __init__(self):
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.spans = []        # (id, parent, name index, start_ns, end_ns)
        self.names = []
        self._name_index = {}
        self._stack = []       # [layer, span id, start_ns, child_ns]
        self._patched = []

    # ----- spans -------------------------------------------------------

    def _name(self, name):
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, layer):
        frame = [layer, len(self.spans) + len(self._stack) + 1, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, name):
        end = time.perf_counter_ns()
        self._stack.pop()
        layer, span_id, start, child = frame
        duration = end - start
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][1]
        if layer is not None:
            self.stats[layer].self_s += (duration - child) * 1e-9
        self.spans.append((span_id, parent, self._name(name), start, end))

    def root(self, name, fn, *args):
        """Run one benchmark call as a root span (not a layer)."""
        frame = self._open(None)
        try:
            return fn(*args)
        finally:
            self._close(frame, f"bench.{name}")

    # ----- wrapping ----------------------------------------------------

    def _wrap(self, layer, qualname, fn):
        stack, stats, count = self._stack, self.stats[layer], COUNTERS.get(layer)
        full = f"{layer}.{qualname}"

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, full)
            stats.calls += 1
            if count is not None:
                count(stats, qualname, args, kwargs, result)
            return result

        wrapper.__name__, wrapper.__qualname__, wrapper.__doc__ = fn.__name__, fn.__qualname__, fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "fracheat" or name.startswith("fracheat."))]
        for layer in LAYERS:
            module = sys.modules[f"fracheat.{layer}"]
            for owner, attr, qualname, fn in _public_functions(module):
                wrapper = self._wrap(layer, qualname, fn)
                self._set(owner, attr, wrapper)
                if owner is module:
                    for other in package:
                        if other is not module and vars(other).get(attr) is fn:
                            self._set(other, attr, wrapper)

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ----- output --------------------------------------------------------

    def metrics(self):
        out = {}
        for layer, s in self.stats.items():
            out[f"{layer}.calls"] = (s.calls, "count")
            out[f"{layer}.self_s"] = (s.self_s, "s")
        st, sub, sol, ker = (self.stats[k] for k in ("stable", "subordinator", "solution", "kernels"))
        out["stable.points"] = (st.points, "count")
        out["stable.draws"] = (st.draws, "count")
        out["subordinator.nodes"] = (sub.nodes, "count")
        out["subordinator.zero_frac"] = (sub.zero_nodes / sub.nodes if sub.nodes else 0.0, "ratio")
        out["subordinator.draws"] = (sub.draws, "count")
        out["solution.nonconverged"] = (sol.nonconverged, "count")
        out["kernels.points"] = (ker.points, "count")
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id}\t{parent}\t{self.names[name]}\t{start}\t{end}\n")

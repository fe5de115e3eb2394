"""Per-layer tracing of tropkern, installed from outside the library.

The tracer replaces, in every tropkern module namespace that binds them, the
public functions of the seven layer modules by wrappers that record a span
(name, start, end, parent span, op id) per call.  Modules import each other
by name (``tropkern.conjugation.gram_on`` is the object imported from
``tropkern.kernels``), so each binding is replaced, not only the defining
one.  Class construction and public methods get spans as well; the per-entry
``eval`` methods of the kernel classes only count calls.  Scalar helpers
that run once per matrix entry are left alone: a span on them would cost more
than the work it measures.

For the functions named in ``peak_names``, ``tracemalloc`` runs for the
length of each call and gives the peak of memory allocated above the level
at its start.  It is off elsewhere: it slows every allocation, and the JSON
encoding and per-entry kernel evaluation allocate a lot.  Spans are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "core", "kernels", "conjugation", "linear_theory", "representer", "control")

# Called once per matrix entry or per scalar: not traced.
SCALAR_HELPERS = frozenset({
    "ext", "as_point", "upper_add", "lower_add", "upper_sub", "lower_sub",
    "negate", "encode_extreal", "decode_extreal",
})
# Per-entry methods: no span.  The kernel classes' ``eval`` is counted, under
# kernels.eval.calls; ``LagrangianSpec.eval`` and the accessors are not.
COUNTED_METHODS = frozenset({"kernels.eval"})
SKIPPED_METHODS = frozenset({"eval", "index_of", "value_at"})

MB = 1024.0 * 1024.0


class _Frame:
    __slots__ = ("span", "name", "child_s", "owns_tracing", "mem_start")

    def __init__(self, span: int, name: str) -> None:
        self.span, self.name = span, name
        self.child_s = 0.0
        self.owns_tracing = False
        self.mem_start = None


class Tracer:
    """Spans and counters for one traced run."""

    def __init__(self, peak_names: set[str]) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op: str | None = None
        self.peak_names = peak_names
        self._stack: list[_Frame] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []
        self.counts: Counter = Counter()
        self.busy_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.peak_mb: dict[str, float] = defaultdict(float)

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(len(self.spans), name)
        if name in self.peak_names:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
                frame.owns_tracing = True
            tracemalloc.reset_peak()
            frame.mem_start = tracemalloc.get_traced_memory()[0]
        parent_span = self._stack[-1].span if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent_span, self.op])
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: _Frame) -> None:
        end = time.perf_counter()
        span = self.spans[frame.span]
        span[2] = end
        duration = end - span[1]
        if frame.mem_start is not None:
            alloc = (tracemalloc.get_traced_memory()[1] - frame.mem_start) / MB
            self.peak_mb[frame.name] = max(self.peak_mb[frame.name], alloc)
            if frame.owns_tracing:
                tracemalloc.stop()
        self._stack.pop()
        self._active[frame.name] -= 1
        self.counts[frame.name] += 1
        self.busy_s[frame.name] += duration
        self.self_s[frame.name.split(".")[0]] += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration

    def _span(self, name: str, fn, entries: bool = False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._active[name]:  # recursive call: the outer span covers it
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
                if entries:
                    tracer.counts[name + ".entries"] += int(result.size)
                return result
            finally:
                tracer._exit(frame)

        return traced

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function, constructor and method of the layers."""
        modules = {layer: importlib.import_module(f"tropkern.{layer}") for layer in LAYERS}
        modules["tropkern"] = importlib.import_module("tropkern")
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            for name, obj in vars(modules[layer]).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != f"tropkern.{layer}":
                    continue
                if inspect.isfunction(obj) and name not in SCALAR_HELPERS:
                    wrappers[id(obj)] = self._span(f"{layer}.{name}", obj, entries=(name == "gram_on"))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(layer, obj)
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers and not name.startswith("__"):
                    self._replace(module, name, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        self._replace(cls, "__init__", self._span(f"{layer}.{cls.__name__}", cls.__init__))
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(member):
                continue
            if f"{layer}.{attr}" in COUNTED_METHODS:
                self._replace(cls, attr, self._counter(f"{layer}.{attr}", member))
            elif attr not in SKIPPED_METHODS:
                self._replace(cls, attr, self._span(f"{layer}.{attr}", member))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, names: list[str], rounds: int) -> dict[str, float]:
        """Per-layer metrics by name; sums and counts are per round."""
        out = {}
        for metric in names:
            base, quantity = metric.rsplit(".", 1)
            if quantity == "self_s":
                value = self.self_s[base] / rounds
            elif quantity == "s":
                value = self.busy_s[base] / rounds
            elif quantity == "calls":
                value = self.counts[base] / rounds
            elif quantity == "entries":
                value = self.counts[metric] / rounds
            elif quantity == "peak_alloc_mb":
                value = self.peak_mb.get(base, 0.0)
            else:
                raise ValueError(f"unknown per-layer quantity in {metric!r}")
            out[metric] = value
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)

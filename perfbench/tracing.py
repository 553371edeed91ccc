"""In-memory span tracer for the traced benchmark run.

The tracer replaces a public omegalib function with a wrapper at every
module-level name bound to it, so each caller's own lookup (``codespace``
binding ``prefix_free`` itself, ``verify`` calling ``codespace.allocate``,
``ce_real`` binding ``ceil_neg_log2``) reaches the wrapper.  Each wrapped
call records one span: name, start, end and the span open when it began.
Spans live in flat arrays and are written out once, at the end.

Self time is a span's duration minus the durations of its direct child
spans and minus the time the tracer itself spent around those children
(bookkeeping and counter hooks), so hooks that compute counters do not
inflate the numbers they sit next to.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, NamedTuple


class Layer(NamedTuple):
    """One wrapped function and the counters computed around its calls.

    ``before(args)`` runs outside the span and returns a context value;
    ``after(ctx, args, result, exc)`` runs outside the span too, after the
    call returned or raised.  ``label(args)`` names the span per call (the
    CLI uses it to split ``cli.main`` by subcommand).
    """

    qualname: str
    before: Callable | None = None
    after: Callable | None = None
    label: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.hook_s = array("d")   # tracer time spent around a span's children
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- counters -----------------------------------------------------

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def gauge_max(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrapping -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        pc = time.perf_counter
        stack = self._stack
        starts, ends, parents, hooks = self.start, self.end, self.parent, self.hook_s
        name_ids = self.name_id
        before, after, label = layer.before, layer.after, layer.label
        fixed_id = self._name_id(layer.qualname)

        def wrapper(*args, **kwargs):
            h0 = pc()
            ctx = before(args) if before is not None else None
            ident = self._name_id(label(args)) if label is not None else fixed_id
            parent = stack[-1] if stack else -1
            index = len(starts)
            name_ids.append(ident)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            hooks.append(0.0)
            stack.append(index)
            result = exc = None
            start = pc()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = pc()
                stack.pop()
                starts[index] = start
                ends[index] = end
                if after is not None:
                    after(ctx, args, result, exc)
                if parent >= 0:
                    hooks[parent] += (start - h0) + (pc() - end)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer.qualname)
        return wrapper

    def prepare(self, layers: list[Layer], package: str = "omegalib") -> None:
        """Find every module-level binding of each layer's function."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        for layer in layers:
            module_name, attr = layer.qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"{package}.{module_name}"], attr)
            wrapper = self.wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original, wrapper))

    def install(self) -> None:
        for module, key, _, wrapper in self._patches:
            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original, _ in self._patches:
            setattr(module, key, original)

    # -- results ------------------------------------------------------

    def mark(self) -> int:
        """Index of the next span; delimits phases for ``summarize``."""
        return len(self.start)

    def summarize(self, lo: int = 0, hi: int | None = None) -> dict[str, dict]:
        """Calls and self seconds per span name over spans ``lo..hi``."""
        hi = len(self.start) if hi is None else hi
        starts, ends, parents = self.start, self.end, self.parent
        child_s = [0.0] * len(starts)
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                child_s[p] += ends[i] - starts[i]
        out: dict[str, dict] = {}
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            entry = out.setdefault(name, {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += ends[i] - starts[i] - child_s[i] - self.hook_s[i]
        return out

    def write(self, path: str) -> None:
        """Dump every span as ``id name start end parent`` (seconds, TSV)."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="ascii") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.start)):
                out.write(f"{i}\t{self.names[self.name_id[i]]}\t"
                          f"{self.start[i] - origin:.9f}\t"
                          f"{self.end[i] - origin:.9f}\t{self.parent[i]}\n")

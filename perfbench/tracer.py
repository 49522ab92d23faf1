"""Per-layer tracing of the ``overgrowth`` package from outside.

The tracer replaces every public function of the package, and
``BallTable.lookup``, in every module namespace that holds it, by a wrapper
that records a span: name, start, end, parent span and run id.  Spans stay
in memory (parallel arrays) until the traced run ends; ``restore`` puts
every original object back.  Self time is a span's duration minus the time
of its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("omega", "words", "elements", "growth", "cli")


def _public_functions(module):
    for name, obj in vars(module).items():
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__ == module.__name__
        ):
            yield name, obj


class Tracer:
    def __init__(self, package):
        """``package`` is the imported ``overgrowth`` package."""
        self.modules = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS
        ]
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)
        # counters measured at the layer boundaries
        self.letters_in = 0
        self.contractions = 0
        self.decompose_seen: set = set()
        self.decompose_repeats = 0
        self.equal_true = 0
        self.lookup_hits = 0
        self.lookup_collisions = 0
        self.candidates = 0
        self.new_elements = 0

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module in self.modules[1:]:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in self.modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrapper)
        table = self.modules[0].growth.BallTable
        lookup = table.__dict__["lookup"]
        self._patched.append((table, "lookup", lookup))
        table.lookup = self._wrap("growth.lookup", lookup)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped binding holds its original object again."""
        return bool(self._patched) and all(
            vars(owner)[attr] is original for owner, attr, original in self._patched
        )

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack = self._stack
        names, parents, runs = self.span_name, self.span_parent, self.span_run
        starts, ends = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            runs.append(self.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = start
                stack.pop()
            if hook is not None:
                hook(args, result, parent)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    # -- counters taken where the work happens ----------------------------

    def _parent_is(self, parent: int, name: str) -> bool:
        return parent >= 0 and self.names[self.span_name[parent]] == name

    def _after_words_reduce(self, args, receipt, parent):
        self.letters_in += len(args[0])
        self.contractions += receipt.contractions

    def _after_elements_decompose(self, args, result, parent):
        g = args[0]
        key = (g.omega, g.shift, g.word)
        if key in self.decompose_seen:
            self.decompose_repeats += 1
        else:
            self.decompose_seen.add(key)

    def _after_elements_equal(self, args, result, parent):
        if result:
            self.equal_true += 1
        elif self._parent_is(parent, "growth.lookup"):
            self.lookup_collisions += 1

    def _after_elements_mul(self, args, result, parent):
        if self._parent_is(parent, "growth.enumerate_ball"):
            self.candidates += 1

    def _after_growth_lookup(self, args, result, parent):
        if result is not None:
            self.lookup_hits += 1

    def _after_growth_enumerate_ball(self, args, table, parent):
        self.new_elements += len(table.entries)

    # -- results ----------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        names = self.names
        for i in range(n):
            row = out[names[self.span_name[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return out

    def counters(self) -> dict:
        return {
            "letters_in": self.letters_in,
            "contractions": self.contractions,
            "decompose_repeats": self.decompose_repeats,
            "equal_true": self.equal_true,
            "lookup_hits": self.lookup_hits,
            "lookup_collisions": self.lookup_collisions,
            "candidates": self.candidates,
            "new_elements": self.new_elements,
        }

    def write(self, path: Path) -> None:
        """Spans as a JSON index of names plus five raw little-endian arrays
        (name id, parent index, run id as int32; start, end as float64)."""
        with open(path.with_suffix(".json"), "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.span_start)}, fh)
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (
                self.span_name,
                self.span_parent,
                self.span_run,
                self.span_start,
                self.span_end,
            ):
                arr.tofile(fh)

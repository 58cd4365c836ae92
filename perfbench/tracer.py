"""Outside-in span tracer for the traced benchmark run.

The tracer replaces chosen library functions with wrappers that record one
span per call: name, start, end, parent span and operation id. It patches
a function where it is defined (a class attribute, or a module attribute)
and also in every `anoncrowd` module that imported it by name, so calls
through `from .primitives import encrypt` are traced too. Nothing inside
`src/` changes; `uninstall` puts every original back.

Spans live in flat arrays (about 30 bytes each) because the settlement
workload records several hundred thousand of them per run. `write` dumps
them at the end; `layer_totals` folds them into calls, total and self time
per span name, where self time is a span's duration minus the time its
traced children cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from typing import Callable

_ROOT = -1


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.raised: list[tuple[int, str]] = []  # (span index, exception class)
        self.op = -1
        self._op_starts: list[int] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object, bool]] = []

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrap(self, fn: Callable, name: str, name_for: Callable | None) -> Callable:
        fixed_id = self._name_id(name)
        stack, raised = self._stack, self.raised
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends = self.starts, self.ends
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(fixed_id if name_for is None else self._name_id(name_for(args)))
            parents.append(stack[-1] if stack else _ROOT)
            ops.append(self.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised.append((idx, type(exc).__name__))
                raise
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return traced

    def patch_method(self, cls: type, attr: str, name: str, name_for: Callable | None = None) -> None:
        """Trace cls.attr; plain, class and static methods, own or inherited."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, name, name_for))
        else:
            replacement = self._wrap(raw, name, name_for)
        self._undo.append((cls, attr, raw, attr in cls.__dict__))
        setattr(cls, attr, replacement)

    def patch_function(self, module, attr: str, name: str) -> None:
        """Trace module.attr in its own module and wherever it was imported."""
        original = getattr(module, attr)
        traced = self._wrap(original, name, None)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "anoncrowd" and not mod_name.startswith("anoncrowd."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original, True))
                    setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def begin_op(self) -> None:
        """Spans recorded from here on belong to the next operation."""
        self._op_starts.append(len(self.name_ids))
        self.op = len(self._op_starts) - 1

    def spans_of(self, op: int) -> range:
        end = self._op_starts[op + 1] if op + 1 < len(self._op_starts) else len(self.name_ids)
        return range(self._op_starts[op], end)

    def subtrees(self, spans: range) -> list[tuple[str, range]]:
        """(name, index range) of each outermost span in `spans`; a call
        tree is recorded in call order, so each one is contiguous."""
        roots = [i for i in spans if self.parents[i] == _ROOT]
        bounds = roots[1:] + [spans.stop]
        return [(self.names[self.name_ids[i]], range(i, end)) for i, end in zip(roots, bounds)]

    def layer_totals(self, spans: range) -> dict[str, dict[str, float]]:
        """calls, total_s and self_s per span name over `spans`."""
        child_time: dict[int, float] = {}
        out: dict[str, dict[str, float]] = {}
        names, name_ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        # a child is recorded after its parent, so walking backwards sees
        # all of a span's children before the span itself
        for i in reversed(spans):
            dur = ends[i] - starts[i]
            parent = parents[i]
            if parent != _ROOT:
                child_time[parent] = child_time.get(parent, 0.0) + dur
            row = out.setdefault(names[name_ids[i]], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time.pop(i, 0.0)
        return out

    def write(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent, op."""
        names, name_ids, parents = self.names, self.name_ids, self.parents
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i in range(len(name_ids)):
                fh.write(
                    f"{i}\t{names[name_ids[i]]}\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}"
                    f"\t{parents[i]}\t{self.ops[i]}\n"
                )

"""Span recording for the traced benchmark run.

The tracer wraps the public module-level functions of the traced
``qretrodict`` modules from outside the package: each wrapper records a
span (name, start, end, parent span, op id, value) in memory, and the
spans are written to one JSON file when the traced process ends.  A
span's ``value`` carries a count measured at that boundary: the
computed bytes of a beam-splitter unitary (16 * dim**4) or the length
of the records list ``simulate_slots`` built.

Only stdlib is imported here, so ``traced_cli.py`` can load this module
before it times ``import qretrodict.cli``.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

TRACED_MODULES = ("cli", "hilbert", "bayes", "retrodict", "optics", "bb84")


def _unitary_bytes(args, kwargs, result):
    space = kwargs.get("space", args[1] if len(args) > 1 else None)
    return 16 * space.dim ** 4


def _records_built(args, kwargs, result):
    return len(result[0])


#: Counts recorded on a span from the call's arguments and result.
SPAN_VALUES = {
    "optics.beam_splitter_unitary": _unitary_bytes,
    "bb84.simulate_slots": _records_built,
}


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self, op=None):
        self.spans = []
        self.op = op
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name: str):
        index = self._open()
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._close(index, name, None, start)

    def _open(self) -> int:
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int, name: str, value, start: int):
        end = perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = [name, start, end, parent, self.op, value]

    def wrap(self, name: str, fn):
        measure = SPAN_VALUES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open()
            start = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                value = measure(args, kwargs, result) if measure and result is not None else None
                self._close(index, name, value, start)

        return traced

    def install(self):
        """Wrap every public function of the traced modules wherever it is bound.

        Installing twice is a no-op, so ``uninstall`` always restores the
        package's own functions.
        """
        if self._patches:
            return
        originals = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"qretrodict.{short}"]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    originals[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for module in [m for name, m in sys.modules.items()
                       if name == "qretrodict" or name.startswith("qretrodict.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    wrapper = originals[id(obj)][1]
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def export(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

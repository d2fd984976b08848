"""Wall-clock spans recorded from outside the library.

The benchmark never edits ``src/``.  It measures a layer by wrapping the
layer's public functions and methods for the length of a traced pass and
restoring the originals afterwards.  The library imports functions with
``from x import f``, so a function is rewrapped in every ``repro`` or
``perfbench`` module that holds a reference to it.

A span is ``[name, start, end, parent, tag, value]``: ``parent`` indexes
the enclosing span (-1 at top level), ``tag`` is set from the call's
arguments before it runs and ``value`` from its result afterwards.  All
clock reads of the benchmark happen here.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, TAG, VALUE = range(6)

PATCHED_PACKAGES = ("repro", "perfbench")
"""Top-level packages whose module globals are rewired on install."""

clock = time.perf_counter


class Tracer:
    """Records nested spans and owns the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str, tag) -> list:
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, tag, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = clock()
        return record

    def _close(self, record: list) -> None:
        record[END] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, tag=None):
        """Record the enclosed block as one span."""
        record = self._open(name, tag)
        try:
            yield record
        finally:
            self._close(record)

    def _wrap(self, fn, name: str, tag=None, value=None):
        open_, close = self._open, self._close

        def wrapper(*args, **kwargs):
            record = open_(name, None if tag is None else tag(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                close(record)
            if value is not None:
                record[VALUE] = value(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, fn, name: str, tag=None, value=None) -> None:
        """Wrap ``fn`` wherever a benchmark or library module binds it."""
        wrapper = self._wrap(fn, name, tag, value)
        for module in list(sys.modules.values()):
            package = getattr(module, "__name__", "").split(".")[0]
            if package not in PATCHED_PACKAGES:
                continue
            for attr, bound in list(vars(module).items()):
                if bound is fn:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr: str, name: str, tag=None, value=None):
        """Wrap a method defined on ``cls`` itself."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(original, name, tag, value))

    def restore(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class NullTracer:
    """The untraced stand-in: spans cost one no-op context manager."""

    @contextmanager
    def span(self, name: str, tag=None):
        yield None


class Breakdown:
    """Durations, self times and child lists of one recorded pass.

    A span's self time is its duration minus the durations of its
    direct children.
    """

    def __init__(self, spans: list[list]) -> None:
        self.spans = spans
        self.duration = [span[END] - span[START] for span in spans]
        self.children: list[list[int]] = [[] for _ in spans]
        self._by_name: dict[str, list[int]] = {}
        child_time = [0.0] * len(spans)
        for index, span in enumerate(spans):
            self._by_name.setdefault(span[NAME], []).append(index)
            parent = span[PARENT]
            if parent >= 0:
                self.children[parent].append(index)
                child_time[parent] += self.duration[index]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def indices(self, name: str) -> list[int]:
        """Every span with this name, in start order."""
        return self._by_name.get(name, [])

    def count(self, name: str) -> int:
        """How many times the named layer was entered."""
        return len(self.indices(name))

    def busy(self, name: str) -> float:
        """Time inside the named layer, nested re-entries counted once."""
        spans = self.spans
        return sum(
            self.duration[i]
            for i in self.indices(name)
            if spans[i][PARENT] < 0 or spans[spans[i][PARENT]][NAME] != name
        )

    def self_s(self, name: str) -> float:
        """Time in the named layer outside every traced child."""
        return sum(self.self_time[i] for i in self.indices(name))

    def values(self, name: str) -> list:
        """The result-derived values of the named spans."""
        return [self.spans[i][VALUE] for i in self.indices(name)]

    def table(self) -> list[tuple[str, int, float, float]]:
        """``(name, calls, busy_s, self_s)`` per layer, by self time."""
        rows = [
            (name, self.count(name), self.busy(name), self.self_s(name))
            for name in sorted(self._by_name)
        ]
        return sorted(rows, key=lambda row: row[3], reverse=True)

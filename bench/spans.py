"""Spans recorded around calls into qkdlab, from outside the package.

A span is (name, start, end, parent).  Spans are appended to flat arrays in
memory and written out once, when the benchmark ends.  Wrappers go onto the
module and class attributes that callers resolve at call time, so the program
itself is unchanged.  A target that no longer exists is recorded as absent and
skipped, so the benchmark keeps running when a refactor deletes a function.
"""

from __future__ import annotations

import functools
import importlib
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module.path``, or entry ``key`` of the mapping
    at ``module.path`` when callers look the function up in a table."""

    module: str
    path: str
    span: str
    key: str | None = None
    hook: Callable | None = None

    @property
    def label(self) -> str:
        suffix = "" if self.key is None else f"[{self.key!r}]"
        return f"{self.module}.{self.path}{suffix}"


class Patcher:
    """Replaces callables with wrappers and puts the originals back."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._undo: list[Callable[[], None]] = []

    def wrap(self, target: Target, make_wrapper: Callable) -> bool:
        """Install ``make_wrapper(original)``; False if the target is absent."""
        try:
            owner = importlib.import_module(target.module)
            *parents, attr = target.path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            if target.key is None:
                original = getattr(owner, attr)
            else:
                owner = getattr(owner, attr)
                original = owner[target.key]
        except (ImportError, AttributeError, KeyError, TypeError):
            self.absent.append(target.label)
            return False
        wrapper = make_wrapper(original)
        if target.key is None:
            setattr(owner, attr, wrapper)
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            owner[target.key] = wrapper
            self._undo.append(lambda: owner.__setitem__(target.key, original))
        return True

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


class Recorder:
    """Span store: four parallel arrays plus a table of span names."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._excluded: dict[int, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` spent inside the innermost open span, such as a
        signal handler that interrupted it, out of that span's self time."""
        span = self._stack[-1]
        if span >= 0:
            self._excluded[span] = self._excluded.get(span, 0.0) + seconds

    def wrapper(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``hook(counts, args, result)``
        afterwards adds counters measured at the same boundary."""
        name_id = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(ends)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span, e.g. around a CLI call."""
        span = len(self.end)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(span)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[span] = perf_counter()
            self._stack.pop()

    def summary(self, begin: int = 0) -> dict[str, tuple[int, float]]:
        """Calls and self time per span name over the spans from ``begin`` on.

        Self time is a span's duration minus its children's durations; spans
        nest strictly because the benchmark is single-threaded.
        """
        import numpy as np

        start = np.frombuffer(self.start[begin:], dtype=np.float64)
        duration = np.frombuffer(self.end[begin:], dtype=np.float64) - start
        parent = np.frombuffer(self.parent[begin:], dtype=np.int32) - begin
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(start))
        own = duration - child
        for span, seconds in self._excluded.items():
            if span >= begin:
                own[span - begin] -= seconds
        name = np.frombuffer(self.name[begin:], dtype=np.int32)
        calls = np.bincount(name, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {
            n: (int(calls[i]), float(self_s[i]))
            for i, n in enumerate(self.names)
            if calls[i]
        }

    def write(self, path: Path) -> None:
        """Write every span recorded, as arrays in one ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def install(recorder: Recorder, targets) -> Patcher:
    """Wrap every target that exists; the returned patcher lists the absent."""
    patcher = Patcher()
    for target in targets:
        patcher.wrap(
            target, lambda fn, t=target: recorder.wrapper(t.span, fn, t.hook)
        )
    return patcher

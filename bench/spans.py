"""Span tracing for the benchmark.

The tracer replaces library functions by timing wrappers in the modules
where their callers look them up, so the program itself is not edited.
Each span records its name, start, end, thread and parent.  A span opened
on a pool thread with no open span of its own gets as parent the span
open on the thread that created the tracer (the campaign that started the
pool).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

NAME, START, END, THREAD, PARENT = range(5)


class Tracer:
    def __init__(self, listener=None):
        self.spans: list[list] = []
        self.listener = listener        # called as listener(name, span, args, kwargs, result)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.main_thread = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self.main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list[int], int]:
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, threading.get_ident(), parent])
        stack.append(idx)
        return stack, idx

    def _close(self, stack: list[int], idx: int) -> list:
        span = self.spans[idx]
        span[END] = time.perf_counter()
        stack.pop()
        return span

    def _notify(self, name, span, args, kwargs, result) -> None:
        if self.listener is not None:
            self.listener(name, span, args, kwargs, result)

    def wrap(self, name: str, fn, kind: str = "call"):
        """Timing wrapper; kind "gen" drains a generator inside the span,
        kind "class" times the constructor of a subclass."""
        if kind == "class":
            tracer = self

            class Traced(fn):
                def __init__(self, *args, **kwargs):
                    stack, idx = tracer._open(name)
                    try:
                        super().__init__(*args, **kwargs)
                    finally:
                        span = tracer._close(stack, idx)
                    tracer._notify(name, span, args, kwargs, self)

            Traced.__name__ = Traced.__qualname__ = fn.__name__
            return Traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
                if kind == "gen":
                    result = list(result)
            finally:
                span = self._close(stack, idx)
            self._notify(name, span, args, kwargs, result)
            return iter(result) if kind == "gen" else result
        return traced

    def instrument(self, targets) -> list[str]:
        """Patch (module, attribute, span name, kind) targets that exist;
        returns the span names of the targets that were found."""
        found = []
        for module, attr, name, kind in targets:
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            self._patched.append((module, attr, orig))
            setattr(module, attr, self.wrap(name, orig, kind))
            found.append(name)
        return found

    def restore(self) -> None:
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[str, float]:
    """Self time per span name, summed over threads: each span's duration
    minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for idx, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(idx)
    out: dict[str, float] = defaultdict(float)
    for idx, span in enumerate(spans):
        start, end = span[START], span[END]
        kids = [(max(start, spans[c][START]), min(end, spans[c][END])) for c in children.get(idx, ())]
        out[span[NAME]] += (end - start) - covered([iv for iv in kids if iv[0] < iv[1]])
    return dict(out)


def thread_busy(spans, main_thread: int) -> float:
    """Time pool threads spent inside traced calls, summed over threads."""
    by_thread = defaultdict(list)
    for span in spans:
        if span[THREAD] != main_thread:
            by_thread[span[THREAD]].append((span[START], span[END]))
    return sum(covered(ivs) for ivs in by_thread.values())

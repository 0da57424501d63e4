"""In-memory spans and counters recorded around calls into the program.

A :class:`Tracer` keeps every span as ``[name, start, end, parent, thread,
request]`` in one list and writes them out, gzip-compressed JSON, when the
benchmark ends.  Spans
opened on a worker thread with nothing open on that thread take the span
open on the main thread as their parent, which is the call that started the
worker (``evaluate.run_rkfold`` starting fold threads).

Self time is a span's duration minus the part of its interval that its
children cover; children on different threads may overlap, so the covered
part is the length of the union of their intervals.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from collections import defaultdict

NAME, START, END, PARENT, THREAD, REQUEST = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.request = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._index, self._index_len = {}, -1

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        rec = [name, time.perf_counter(), None, parent, threading.get_ident(), self.request]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        end = time.perf_counter()
        rec = self.spans[idx]
        rec[END] = end
        self._stack().pop()
        return end - rec[START]

    def add(self, name: str, value: float = 1.0):
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, fn, after=None):
        """Return ``fn`` inside a span; ``after(args, kwargs, result, seconds)`` runs outside it."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(idx)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return traced

    # -- analysis -------------------------------------------------------

    def children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = defaultdict(list)
        for i, s in enumerate(self.spans):
            if s[PARENT] is not None:
                kids[s[PARENT]].append(i)
        return kids

    def self_times(self) -> list[float]:
        kids = self.children()
        out = []
        for i, s in enumerate(self.spans):
            if s[END] is None:
                out.append(0.0)
                continue
            intervals = [(self.spans[c][START], self.spans[c][END]) for c in kids.get(i, ())]
            out.append((s[END] - s[START]) - covered(intervals, s[START], s[END]))
        return out

    def named(self, name: str) -> list[list]:
        if self._index_len != len(self.spans):
            self._index = defaultdict(list)
            for s in self.spans:
                self._index[s[NAME]].append(s)
            self._index_len = len(self.spans)
        return self._index.get(name, [])

    def outermost(self, name: str) -> list[list]:
        """Closed spans called ``name`` with no ancestor of the same name."""
        found = []
        for s in self.named(name):
            if s[END] is None:
                continue
            p = s[PARENT]
            while p is not None and self.spans[p][NAME] != name:
                p = self.spans[p][PARENT]
            if p is None:
                found.append(s)
        return found

    def busy(self, *names: str) -> float:
        return sum(s[END] - s[START] for n in names for s in self.outermost(n))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.named(name) if s[END] is not None)

    def write(self, path):
        t0 = min((s[START] for s in self.spans), default=0.0)
        rows = [
            [s[NAME], s[START] - t0, None if s[END] is None else s[END] - t0, s[PARENT], s[THREAD], s[REQUEST]]
            for s in self.spans
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "thread", "request"],
                       "spans": rows, "counters": dict(self.counters)}, fh)


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total

"""Spans recorded around calls into arithproj, from outside the package.

A span is opened by replacing a module attribute with a wrapper, so only
calls that look the name up on that module are seen.  Each span records its
name, start, end, parent span and job id in flat arrays; nothing is
aggregated until the run ends.  Counters are updated after the wrapped call
returns, from its result and arguments.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.counters: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._sites: list[tuple[object, str, str, object]] = []
        self._installed: list[tuple[object, str, object]] = []

    def site(self, module, attr: str, name: str, count=None) -> None:
        """Register a wrapper for module.attr, recorded as span ``name``.

        ``count(tracer, result, args)`` runs after each call returns.
        """
        self._sites.append((module, attr, name, count))

    def install(self) -> None:
        for module, attr, name, count in self._sites:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, name, count))
            self._installed.append((module, attr, original))

    def restore(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str, count):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, jobs = self.name_col, self.parent_col, self.job_col
        starts, ends, stack = self.start_col, self.end_col, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count is not None:
                count(self, result, args)
            return result

        return traced

    def summary(self, jobs: range | None = None, scales=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent and one at a time, so
        that is the part of the parent's interval no child covers.
        Restricted to spans whose job id lies in ``jobs`` when given; times
        are multiplied by ``scales[job id]`` when given.
        """
        child = defaultdict(float)
        for i, parent in enumerate(self.parent_col):
            if parent >= 0:
                child[parent] += self.end_col[i] - self.start_col[i]
        out: dict[str, dict[str, float]] = {}
        for i, nid in enumerate(self.name_col):
            if jobs is not None and self.job_col[i] not in jobs:
                continue
            scale = 1.0 if scales is None else scales[self.job_col[i]]
            duration = self.end_col[i] - self.start_col[i]
            agg = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += duration * scale
            agg["self_s"] += (duration - child[i]) * scale
        return out

    def top_level_seconds(self, jobs: range) -> float:
        """Total duration of spans without a parent, within ``jobs``."""
        return sum(
            self.end_col[i] - self.start_col[i]
            for i, parent in enumerate(self.parent_col)
            if parent < 0 and self.job_col[i] in jobs
        )

    def write_csv(self, path: str, title: str) -> None:
        """A ``# title`` line, then one line per span: job, name, parent, start, end."""
        t0 = self.start_col[0] if self.start_col else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {title}\nspan,job,name,parent,start_s,end_s\n")
            for i in range(len(self.start_col)):
                fh.write(
                    f"{i},{self.job_col[i]},{self.names[self.name_col[i]]},"
                    f"{self.parent_col[i]},{self.start_col[i] - t0:.9f},"
                    f"{self.end_col[i] - t0:.9f}\n"
                )

"""Spans around the package's public functions, recorded from outside it.

A span is recorded by replacing a module attribute at the place where the
caller looks it up (``pipeline.fit_device_monitor`` rather than
``monitoring.fit_device_monitor``, because pipeline imported the name). The
replacement is installed for one traced segment of a run and removed after,
so untraced passes run the package untouched.

Each span holds its name, start and end (perf_counter_ns), the index of the
span that was open when it started, the segment it belongs to and, where the
wrapped call has one, a small ``info`` dict taken from its arguments and
result. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int
    segment: str
    info: dict | None
    self_s: float = 0.0  # filled in by Tracer.settle

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    """Installs wrappers for a list of hook points and keeps their spans.

    ``hooks`` holds (owner, attribute, span name, info) tuples; ``info`` is
    None or a function of (args, result) returning a dict.
    """

    def __init__(self, run_id: str, hooks):
        self.run_id = run_id
        self.hooks = list(hooks)
        self.spans: list[Span] = []
        self.phases: dict[str, str] = {}  # segment -> "setup" | "run"
        self._open: list[int] = []
        self._segment = ""
        self._by_name: dict[str, list[Span]] = {}

    def _wrap(self, fn, name, info):
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = open_spans[-1] if open_spans else -1
            open_spans.append(idx)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                open_spans.pop()
                details = info(args, result) if info is not None and result is not None else None
                spans[idx] = Span(name, start, end, parent, self._segment, details)

        return traced

    @contextmanager
    def segment(self, segment: str, phase: str):
        """Trace every hook point while the block runs, as one segment."""
        self._segment = segment
        self.phases[segment] = phase
        saved = []
        for owner, attr, name, info in self.hooks:
            if not hasattr(owner, attr):  # a layer the package no longer has reports 0
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, info))
        try:
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # ---- derived numbers -------------------------------------------------

    def settle(self) -> None:
        """Set each span's self time: its duration minus its direct children's."""
        for s in self.spans:
            s.self_s = s.seconds
        for s in self.spans:
            if s.parent >= 0:
                self.spans[s.parent].self_s -= s.seconds
        self._by_name = {}
        for s in self.spans:
            self._by_name.setdefault(s.name, []).append(s)

    def _phase_of(self, name: str) -> str:
        """Run-phase spans when the layer worked in the measured passes, else set-up."""
        named = self._by_name.get(name, [])
        return "run" if any(self.phases[s.segment] == "run" for s in named) else "setup"

    def per_segment(self, name: str, value=None) -> float:
        """Median over segments of the per-segment sum of ``value(span)``.

        ``value`` defaults to one per span (a call count). Segments are the
        traced passes, or the set-up repetitions for a layer that worked only
        in set-up; a layer that never ran gives 0.
        """
        phase = self._phase_of(name)
        totals = {seg: 0.0 for seg, ph in self.phases.items() if ph == phase}
        for s in self._by_name.get(name, []):
            if s.segment in totals:
                totals[s.segment] += 1.0 if value is None else value(s)
        return statistics.median(totals.values()) if totals else 0.0

    def call_median(self, name: str, value=Span.seconds.fget, keep=None) -> float:
        """Median over single calls of ``value(span)`` (the duration in seconds
        by default), over the chosen phase; ``keep`` filters on span info."""
        phase = self._phase_of(name)
        values = [
            value(s)
            for s in self._by_name.get(name, [])
            if self.phases[s.segment] == phase
            and (keep is None or (s.info is not None and keep(s.info)))
        ]
        return statistics.median(values) if values else 0.0

    def self_time_table(self) -> list[dict]:
        """Calls, total and self seconds per (phase, span name)."""
        rows: dict = {}
        for s in self.spans:
            key = (self.phases[s.segment], s.name)
            row = rows.setdefault(
                key, {"phase": key[0], "name": s.name, "calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += s.seconds
            row["self_s"] += s.self_s
        return sorted(rows.values(), key=lambda r: (r["phase"], -r["self_s"]))

    def write(self, span_path: str, table_path: str) -> list[dict]:
        with open(span_path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {
                    "run": self.run_id,
                    "segment": s.segment,
                    "phase": self.phases[s.segment],
                    "id": i,
                    "parent": None if s.parent < 0 else s.parent,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                }
                if s.info:
                    record["info"] = s.info
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        table = self.self_time_table()
        with open(table_path, "w") as fh:
            fh.write("phase\tname\tcalls\ttotal_s\tself_s\n")
            for r in table:
                fh.write(f"{r['phase']}\t{r['name']}\t{r['calls']}\t{r['total_s']:.6f}\t{r['self_s']:.6f}\n")
        return table

"""Spans recorded around the benchmark's calls into the verifier.

A traced run wraps every public call it makes (parse, expand, verify,
edit, reverify, listing, the Fmax solvers) in a span: name, start, end,
parent span and operation id.  Spans live in memory and are written out
once the run ends.  An untraced run uses :data:`NO_TRACE`, whose spans
cost one attribute lookup and an empty context manager.

A span's *self time* is its duration minus the time covered by its
direct children, so the self times of one operation's spans add up to
the operation's wall time.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: str

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Records nested spans; ``op`` labels the spans of one operation."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        rec = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.op)
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``."""
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self) -> dict[int, float]:
        """Self time of every span, keyed by span id."""
        own = {s.id: s.seconds for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def self_by_name(self, ops: set[str]) -> dict[str, float]:
        """Total self seconds per span name over the operations ``ops``."""
        own = self.self_seconds()
        out: dict[str, float] = {}
        for s in self.spans:
            if s.op in ops:
                out[s.name] = out.get(s.name, 0.0) + own[s.id]
        return out

    def write(self, path) -> None:
        """One JSON object per span, then one with the self times per name."""
        own = self.self_seconds()
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {
                            "id": s.id,
                            "name": s.name,
                            "start_ns": s.start_ns,
                            "end_ns": s.end_ns,
                            "parent": s.parent,
                            "op": s.op,
                            "self_s": own[s.id],
                        }
                    )
                    + "\n"
                )
            ops = {s.op for s in self.spans}
            f.write(json.dumps({"self_s_by_name": self.self_by_name(ops)}) + "\n")


class _NoTrace:
    """The untraced stand-in: same interface, records nothing."""

    enabled = False
    op = ""
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NO_TRACE = _NoTrace()

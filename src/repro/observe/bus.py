"""The event bus: one :class:`Observer` collects a process's events/spans.

Design contract — **zero overhead when disabled**: every instrumented
subsystem holds ``observer = None`` by default and guards each emission
with a single ``is not None`` check, and no instrumentation sits inside
the predecoded record-free run loop at all.  The byte-identity suite
(``tests/cpu/test_predecode_identity.py``) and the repo benchmark
(``benchmarks/suite/run.py --compare``) are the gates that keep that true.

The second contract is **observation never perturbs results**: an
observer only reads simulator state, so a run with an observer attached
produces a byte-identical :class:`~repro.systems.metrics.RunResult` to the
same run without one (covered by ``tests/observe/test_engine_events.py``).
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

from .events import Event, EventKind, validate_args
from .profile import RunProfile
from .spans import OpenSpan, Span

#: optional streaming sink: called with each Event/Span as it is recorded
Sink = Callable[[object], None]


class Observer:
    """Collects typed events and spans for one process.

    Cheap by construction: emission is append + counter bump; aggregation
    (:meth:`profile`) and export (``repro.observe.export``) happen after
    the run.  ``clock`` is injectable for deterministic tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._seq = 0
        self.events: list[Event] = []
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.sinks: list[Sink] = []

    # ------------------------------------------------------------------
    def now_us(self) -> float:
        """Host microseconds since this observer's epoch."""
        return (self._clock() - self._epoch) * 1e6

    @property
    def elapsed_us(self) -> float:
        return self.now_us()

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def emit(self, kind: EventKind, cycle: int | None = None, **args) -> Event:
        """Record one event; payload keys are validated against the schema."""
        validate_args(kind, args)
        event = Event(kind=kind, seq=self._seq, ts_us=self.now_us(), cycle=cycle, args=args)
        self._seq += 1
        self.events.append(event)
        self.counts[kind.value] += 1
        for sink in self.sinks:
            sink(event)
        return event

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin_span(
        self, name: str, cat: str, cycle: int | None = None, **args
    ) -> OpenSpan:
        span = OpenSpan(name, cat, self._seq, self.now_us(), cycle, args)
        self._seq += 1
        return span

    def end_span(self, open_span: OpenSpan, cycle: int | None = None, **args) -> Span:
        span = open_span.close(self.now_us(), cycle, args)
        self.spans.append(span)
        self.counts[f"span:{span.cat}/{span.name}"] += 1
        for sink in self.sinks:
            sink(span)
        return span

    @contextmanager
    def span(self, name: str, cat: str, cycle: int | None = None, **args):
        """Lexical span: ``with obs.span("verify", "dsa"): ...``"""
        open_span = self.begin_span(name, cat, cycle=cycle, **args)
        try:
            yield open_span
        finally:
            self.end_span(open_span)

    # ------------------------------------------------------------------
    def profile(self) -> RunProfile:
        """Aggregate everything observed so far into a run profile."""
        return RunProfile.from_observer(self)

    def count(self, kind: EventKind) -> int:
        return self.counts.get(kind.value, 0)

    def events_of(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events if e.kind is kind]

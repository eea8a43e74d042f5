"""``repro.observe`` — the structured observability subsystem.

Explains *why* the simulator did what it did: typed events from every
execution layer (DSA decisions, NEON dispatch, cache traffic, worker
retries), span timing in host microseconds and simulation cycles, per-run
profiles attached to campaign metrics, and exporters for the formats the
surrounding tooling speaks (JSONL, Chrome ``chrome://tracing``).

Instrumentation is strictly opt-in: every hook defaults to ``None`` and
costs one pointer comparison when disabled — simulation results and
fast-path throughput are byte-identical with observers off (gated by the
predecode identity suite and the repo benchmark).

Entry points::

    from repro.observe import Observer, EventKind
    obs = Observer()
    result = execute_spec(spec, observer=obs)       # instrumented run
    write_chrome_trace(obs, "run.trace.json")       # chrome://tracing
    profile = obs.profile()                         # aggregated RunProfile

or from the command line: ``repro trace <workload> <system>`` and
``repro stats``.
"""

from .bus import Observer
from .events import Event, EventKind, EventSchemaError
from .export import (
    check_chrome_trace,
    chrome_trace,
    jsonl_records,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .profile import RunProfile
from .spans import Span
from .stats import PAPER_LOOP_CLASSES, LoopClassCoverage, LoopCoverageReport

__all__ = [
    "Observer",
    "Event",
    "EventKind",
    "EventSchemaError",
    "Span",
    "RunProfile",
    "LoopClassCoverage",
    "LoopCoverageReport",
    "PAPER_LOOP_CLASSES",
    "chrome_trace",
    "check_chrome_trace",
    "jsonl_records",
    "read_jsonl",
    "write_chrome_trace",
    "write_jsonl",
]

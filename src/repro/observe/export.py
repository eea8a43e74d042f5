"""Exporters: turn one observer's stream into standard tool formats.

Two formats, matching how people actually consume traces:

* **JSONL** — one record per line, events and spans interleaved in
  emission order; the greppable archival form.
* **Chrome tracing JSON** — loads straight into ``chrome://tracing`` /
  Perfetto: spans become complete (``"ph": "X"``) slices, events become
  instants (``"ph": "i"``), and metadata events name the process.
"""

from __future__ import annotations

import json
from pathlib import Path

from .events import Event
from .spans import Span

#: chrome trace format constants
_PID = 1
_TID_SPANS = 1
_TID_EVENTS = 2


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------
def jsonl_records(observer) -> list[dict]:
    """Events and spans as dicts, interleaved in emission (seq) order."""
    records: list[tuple[int, dict]] = []
    for event in observer.events:
        records.append((event.seq, {"type": "event", **event.to_dict()}))
    for span in observer.spans:
        records.append((span.seq, {"type": "span", **span.to_dict()}))
    records.sort(key=lambda pair: pair[0])
    return [record for _, record in records]


def write_jsonl(observer, path: str | Path) -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for record in jsonl_records(observer):
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
    return path


def read_jsonl(path: str | Path) -> list[dict]:
    """Parse a written event log back into dicts (tests, post-processing)."""
    out = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


# ---------------------------------------------------------------------------
# Chrome tracing
# ---------------------------------------------------------------------------
def chrome_trace(observer, process_name: str = "repro") -> dict:
    """The ``chrome://tracing`` JSON object format.

    Spans render as duration slices on one track, instant events on a
    second, so the detection/speculation timeline reads left to right
    against the run's phases.
    """
    trace_events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": _PID, "tid": _TID_SPANS,
         "args": {"name": process_name}},
        {"ph": "M", "name": "thread_name", "pid": _PID, "tid": _TID_SPANS,
         "args": {"name": "spans"}},
        {"ph": "M", "name": "thread_name", "pid": _PID, "tid": _TID_EVENTS,
         "args": {"name": "events"}},
    ]
    for span in observer.spans:
        args = dict(span.args)
        if span.cycle_start is not None:
            args["cycle_start"] = span.cycle_start
        if span.cycle_end is not None:
            args["cycle_end"] = span.cycle_end
        if span.cycles is not None:
            args["cycles"] = span.cycles
        trace_events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": round(span.ts_us, 3),
            "dur": round(span.dur_us, 3),
            "pid": _PID,
            "tid": _TID_SPANS,
            "args": args,
        })
    for event in observer.events:
        args = dict(event.args)
        if event.cycle is not None:
            args["cycle"] = event.cycle
        trace_events.append({
            "ph": "i",
            "name": event.kind.value,
            "cat": "event",
            "ts": round(event.ts_us, 3),
            "pid": _PID,
            "tid": _TID_EVENTS,
            "s": "t",  # thread-scoped instant
            "args": args,
        })
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome_trace(observer, path: str | Path, process_name: str = "repro") -> Path:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(chrome_trace(observer, process_name=process_name), fh)
        fh.write("\n")
    return path


def check_chrome_trace(payload: dict) -> list[str]:
    """Format checker for the trace-event JSON (what the loader enforces).

    Returns a list of violations; empty means the object loads in
    ``chrome://tracing``.  Used by the test suite and kept public so
    downstream tooling can validate third-party traces too.
    """
    problems: list[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["top level must be an object with a 'traceEvents' array"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"traceEvents[{i}] is not an object")
            continue
        ph = ev.get("ph")
        if ph not in ("X", "i", "M", "B", "E", "C"):
            problems.append(f"traceEvents[{i}] has unknown phase {ph!r}")
            continue
        if "name" not in ev or "pid" not in ev:
            problems.append(f"traceEvents[{i}] missing name/pid")
        if ph in ("X", "i", "B", "E", "C") and not isinstance(ev.get("ts"), (int, float)):
            problems.append(f"traceEvents[{i}] ({ph}) missing numeric ts")
        if ph == "X" and not isinstance(ev.get("dur"), (int, float)):
            problems.append(f"traceEvents[{i}] (X) missing numeric dur")
        if ph == "i" and ev.get("s") not in (None, "t", "p", "g"):
            problems.append(f"traceEvents[{i}] (i) has invalid scope {ev.get('s')!r}")
    return problems


"""Outside-in per-layer host-time attribution for the benchmark's traced runs.

The tracer wraps the public entry points of each simulator layer from the
benchmark's own files; nothing under ``src/`` changes.  Wrappers go on the
owning class or module attribute, never on an instance, and are removed in
``finally``.  An instance-level wrapper would silently switch covered
execution off: ``DynamicSIMDAssembler._cover_hook`` releases a region only
while ``core.retire_hooks[0] == self.on_record`` and
``core.timing_suppressor == self._suppressor``, and a bound method of a
class-level wrapper still compares equal where an instance attribute would
not.

A layer's self time is the time inside its wrapped calls minus the time
inside wrapped calls nested below them, so every host second lands in
exactly one layer.  Two attribution limits follow from measuring at call
boundaries:

* compiled blocks (``repro.cpu.blockcompile``) inline the scoreboard
  arithmetic instead of calling the timing model, so that time lands in
  ``cpu``, not ``timing``;
* covered regions are interpreted inside ``_cover_hook``, so their scalar
  execution lands in ``dsa.cover``, not ``cpu``.

Only coarse layers record spans (name, start, end, parent, run id); the hot
per-instruction layers are counted and timed but keep no span, so a traced
run holds thousands of spans, not millions.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

#: (module, attribute path, layer, records spans[, outcome]).  A span's run
#: id is the label of the first argument that has one (a RunSpec), else the
#: enclosing span's.  A layer of ``None`` marks the per-cell boundary: a
#: span that owns no self time.  An ``outcome`` name counts the calls and
#: the truthy returns of that entry point, for the ratio of useful outcomes
#: to attempts.
WRAP_POINTS = (
    ("repro.dsa.engine", "DynamicSIMDAssembler.on_record", "dsa.observe", False),
    ("repro.dsa.engine", "DynamicSIMDAssembler._suppressor", "dsa.observe", False),
    ("repro.dsa.engine", "DynamicSIMDAssembler._cover_hook", "dsa.cover", False, "cover"),
    ("repro.cpu.core", "Core.run", "cpu", True),
    ("repro.cpu.core", "predecode", "cpu.codegen", True),
    ("repro.cpu.blockcompile", "compile_region", "cpu.codegen", True),
    ("repro.dsa.engine", "compile_covered", "cpu.codegen", True),
    ("repro.cpu.timing", "TimingModel.charge_scalar_decoded", "timing", False),
    ("repro.cpu.timing", "TimingModel.charge_vector_decoded", "timing", False),
    ("repro.cpu.timing", "TimingModel.block_commit", "timing", False),
    ("repro.cpu.timing", "TimingModel.block_entry_state", "timing", False),
    ("repro.cpu.timing", "TimingModel.note_suppressed", "timing", False),
    ("repro.cpu.timing", "TimingModel.add_stall", "timing", False),
    ("repro.memory.hierarchy", "MemoryHierarchy.access", "memory", False),
    ("repro.neon.engine", "NeonEngine.execute", "vector", False),
    ("repro.vector.scalable", "ScalableEngine.execute", "vector", False),
    ("repro.systems.setups", "lower_for", "compiler", True),
    ("repro.systems.campaign", "lower_for", "compiler", True),
    ("repro.systems.campaign", "build_workload", "workloads", True),
    ("repro.workloads.base", "Workload.fresh_args", "workloads", True),
    ("repro.workloads.base", "Workload.expected", "golden", True),
    ("repro.systems.runner", "KernelRun.array", "golden", True),
    ("repro.energy.model", "EnergyModel.report", "energy", True),
    ("repro.systems.campaign", "CampaignRunner.cache_key", "campaign.key", True),
    ("repro.systems.result_cache", "ResultDiskCache.load", "campaign.cache_io", True, "cache_load"),
    ("repro.systems.result_cache", "ResultDiskCache.store", "campaign.cache_io", True),
    ("repro.systems.metrics", "RunResult.to_dict", "campaign.serialize", True),
    ("repro.systems.metrics", "RunResult.from_dict", "campaign.serialize", True),
    ("repro.systems.campaign", "execute_spec", None, True),
)

#: every layer, in report order; ``other`` is the remainder of the pass
LAYERS = tuple(dict.fromkeys(point[2] for point in WRAP_POINTS if point[2])) + ("other",)

#: entry points whose truthy returns are counted (see WRAP_POINTS)
OUTCOMES = tuple(point[4] for point in WRAP_POINTS if len(point) > 4)


class Tracer:
    """Self-time, call counts and spans for wrapped layer entry points.

    ``clock`` is injectable so the self-time arithmetic can be tested on a
    synthetic call tree.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        #: outcome name -> [calls, truthy returns]
        self.outcomes = {name: [0, 0] for name in OUTCOMES}
        self.spans: list[dict] = []
        self.run_id = "-"
        self._frames: list[list] = []   # [start, child seconds] per open call
        self._open_spans: list[int] = []

    # ------------------------------------------------------------------
    def wrap(self, fn, name: str, layer: str | None, span: bool, outcome: str | None = None):
        """A wrapper timing ``fn`` as one call into ``layer``."""
        frames, clock = self._frames, self.clock
        self_s, calls = self.self_s, self.calls
        tally = self.outcomes[outcome] if outcome else None

        if layer is not None and not span:
            # the per-instruction layers: no span, nothing beyond the sums
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                frame = [clock(), 0.0]
                frames.append(frame)
                try:
                    out = fn(*args, **kwargs)
                    if tally is not None:
                        tally[0] += 1
                        if out:
                            tally[1] += 1
                    return out
                finally:
                    frames.pop()
                    dur = clock() - frame[0]
                    self_s[layer] += dur - frame[1]
                    calls[layer] += 1
                    if frames:
                        frames[-1][1] += dur
            return timed

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            run_id = self.run_id
            self.run_id = next((a.label for a in args if hasattr(a, "label")), run_id)
            start = clock()
            frame = [start, 0.0]
            frames.append(frame)
            sid = self._open(name, layer, start)
            try:
                out = fn(*args, **kwargs)
                if tally is not None:
                    tally[0] += 1
                    if out:
                        tally[1] += 1
                return out
            finally:
                frames.pop()
                end = clock()
                self._close(sid, end)
                dur = end - start
                if layer is not None:
                    self_s[layer] += dur - frame[1]
                    calls[layer] += 1
                if frames:
                    frames[-1][1] += dur
                self.run_id = run_id
        return spanned

    def _open(self, name: str, layer: str | None, start: float) -> int:
        sid = len(self.spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({
            "name": name, "layer": layer, "start": start, "end": None,
            "parent": parent, "run": self.run_id,
        })
        self._open_spans.append(sid)
        return sid

    def _close(self, sid: int, end: float) -> None:
        self.spans[sid]["end"] = end
        self._open_spans.pop()

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self, points=WRAP_POINTS):
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for module_name, path, layer, span, *outcome in points:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                # the raw descriptor: a classmethod must stay a classmethod
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    fn = self.wrap(original.__func__, path, layer, span, *outcome)
                    setattr(owner, attr, classmethod(fn))
                else:
                    setattr(owner, attr, self.wrap(original, path, layer, span, *outcome))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def totals(self) -> dict:
        """Self seconds and calls per layer, and the counted outcomes."""
        return {"self_s": self.self_s, "calls": self.calls, "outcomes": self.outcomes}

    def closed_spans(self) -> list[dict]:
        """Finished spans, times in seconds since the tracer was created."""
        return [
            {**s, "start": s["start"] - self.origin, "end": s["end"] - self.origin}
            for s in self.spans
            if s["end"] is not None
        ]

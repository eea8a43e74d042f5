"""Child-process body of the benchmark; every use is a fresh interpreter.

    python3 benchmarks/suite/worker.py sim WORKLOAD --spawned-at T
        [--seed N] [--deadline T] [--setup-only] [--traced]
    python3 benchmarks/suite/worker.py tables --cache-dir DIR --report FILE

``sim`` runs one simulation workload's cells closed-loop, one cell at a time
through ``repro.systems.campaign.execute_spec``: an untimed warm-up pass,
then timed passes while another one still ends by ``--deadline`` (at least
one).  Both times are read from ``now()``.  ``--traced`` alternates
untraced and traced passes and fails any cell whose tier counts or result
digest differ between them.  The last stdout line is one JSON report.

``tables`` runs ``python -m repro experiments --scale test --jobs 1`` under
the layer tracer; the tables go to stdout as usual and the layer report to
``--report``.

Both expect ``src`` on ``PYTHONPATH`` (``run.py`` sets it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

from layers import Tracer

HERE = Path(__file__).resolve().parent

#: simulation workloads run at ``bench`` scale: ``test`` cells last
#: 0.01-0.4 s, short enough for per-run setup to dominate
SCALE = "bench"

#: every registered workload, paper seven first; fixed here so that adding
#: a workload to the simulator does not silently change the benchmark
ALL_WORKLOADS = (
    "matmul", "rgb_gray", "gaussian", "susan_edges", "bitcount", "dijkstra", "qsort",
    "delim_scan", "utf8_validate", "base64_decode", "stride_histogram",
)

#: the four workloads the static vectorizers vectorize
STATIC_SIMD_WORKLOADS = ("matmul", "rgb_gray", "gaussian", "susan_edges")

#: (workload, system) cells of one pass of each simulation workload
SIM_CELLS = {
    "dsa": tuple((w, "neon_dsa") for w in ALL_WORKLOADS),
    "scalar": tuple((w, "arm_original") for w in ALL_WORKLOADS),
    "static_simd": tuple(
        (w, s) for w in STATIC_SIMD_WORKLOADS for s in ("neon_autovec", "neon_handvec")
    ),
}

#: the ``repro`` command the ``tables_*`` workloads time (plus --cache-dir)
EXPERIMENTS_ARGS = ("experiments", "--scale", "test", "--jobs", "1")

#: error messages kept per report; the counts stay exact
MAX_ERRORS = 10


def digest(result_dict: dict) -> str:
    """sha256 of a RunResult's canonical JSON."""
    return hashlib.sha256(json.dumps(result_dict, sort_keys=True).encode()).hexdigest()


def result_totals(results: list[dict]) -> dict:
    """Guest work and modelled-component statistics summed over RunResult
    dicts (simulated quantities, not host time)."""
    l1 = sum(r["hierarchy_stats"]["l1_accesses"] for r in results)
    l1_hits = sum(
        r["hierarchy_stats"]["l1_accesses"] * r["hierarchy_stats"]["l1_hit_rate"]
        for r in results
    )
    return {
        "instructions": sum(r["instructions"] for r in results),
        "cycles": sum(r["cycles"] for r in results),
        "l1_hit_rate": l1_hits / l1 if l1 else 0.0,
        "memory_stall_cycles": sum(r["timing_stats"]["memory_stall_cycles"] for r in results),
        "dsa_stall_cycles": sum(r["timing_stats"]["dsa_stall_cycles"] for r in results),
        "suppressed_instructions": sum(
            r["timing_stats"]["suppressed_instructions"] for r in results
        ),
    }


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def another_fits(begin: float, rounds: int, deadline: float) -> bool:
    """Whether one more round of the mean length since ``begin`` ends by
    ``deadline`` (both ``now()`` times)."""
    t = now()
    return t + (t - begin) / rounds <= deadline


# ----------------------------------------------------------------------
# sim
# ----------------------------------------------------------------------
class SimRun:
    """One workload's cells, their reference identities and the tallies."""

    def __init__(self, workload: str, seed: int | None):
        from repro.systems.campaign import RunSpec

        self.specs = [RunSpec(w, s, "full", SCALE, seed) for w, s in SIM_CELLS[workload]]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def one_pass(self) -> tuple[float, list]:
        """Wall time of one closed-loop pass and each cell's result (or error)."""
        # looked up per pass so a traced pass goes through the wrapper
        from repro.systems import campaign

        results = []
        start = time.perf_counter()
        for spec in self.specs:
            try:
                results.append(campaign.execute_spec(spec))
            except Exception as exc:  # noqa: BLE001 - a failed cell is counted
                results.append(exc)
        return time.perf_counter() - start, results

    def check(self, results: list, against: list | None, what: str) -> list:
        """Count the pass; with ``against``, fail every cell whose
        (result digest, tier counts) differs from it."""
        self.attempted += len(results)
        identities = []
        for i, (spec, result) in enumerate(zip(self.specs, results)):
            if isinstance(result, Exception):
                detail = " ".join(str(result).split())[:200]  # golden diffs span lines
                self.fail(f"{spec.label}: {type(result).__name__}: {detail}")
                identities.append(None)
                continue
            identity = (digest(result.to_dict()), dict(sorted(result.tier_counts.items())))
            if against is not None and against[i] is not None and identity != against[i]:
                self.fail(f"{spec.label}: {what}")
            identities.append(identity)
        return identities


def run_sim(args) -> dict:
    run = SimRun(args.workload, args.seed)
    _, warm = run.one_pass()
    reference = run.check(warm, None, "")
    if args.seed is None:
        pins = json.loads((HERE / "pins.json").read_text())["cells"]
        for spec, identity in zip(run.specs, reference):
            if identity is not None and pins.get(spec.label) != identity[0]:
                run.fail(f"{spec.label}: result digest differs from pins.json")
    setup_s = now() - args.spawned_at
    good = [r for r in warm if not isinstance(r, Exception)]
    report = {
        "setup_s": setup_s,
        "totals": result_totals([r.to_dict() for r in good]),
        "tiers": dict(sum((Counter(r.tier_counts) for r in good), Counter())),
        "walls": [],
        "traced_walls": [],
    }
    if not args.setup_only:
        tracer = Tracer() if args.traced else None
        begin = now()
        while True:
            wall, results = run.one_pass()
            report["walls"].append(wall)
            untraced = run.check(results, reference, "result differs from the warm-up pass")
            if tracer is not None:
                with tracer.installed():
                    wall, results = run.one_pass()
                report["traced_walls"].append(wall)
                run.check(results, untraced, "tier counts or result digest differ under tracing")
            if not another_fits(begin, len(report["walls"]), args.deadline):
                break
        if tracer is not None:
            report["layers"] = tracer.totals()
            report["spans"] = tracer.closed_spans()
    report.update(attempted=run.attempted, failed=run.failed, errors=run.errors)
    return report


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------
def run_tables(args) -> int:
    import repro.cli
    from repro.systems import campaign

    tracer = Tracer()
    tiers: Counter = Counter()
    execute_spec = campaign.execute_spec

    def counting(*a, **kw):
        result = execute_spec(*a, **kw)
        tiers.update(result.tier_counts)
        return result

    campaign.execute_spec = counting
    try:
        with tracer.installed():
            rc = repro.cli.main([*EXPERIMENTS_ARGS, "--cache-dir", args.cache_dir])
    finally:
        campaign.execute_spec = execute_spec
    report = {
        "layers": tracer.totals(),
        "tiers": dict(tiers),
        "spans": tracer.closed_spans(),
    }
    Path(args.report).write_text(json.dumps(report))
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("sim")
    p.add_argument("workload", choices=sorted(SIM_CELLS))
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--deadline", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--traced", action="store_true")
    p = sub.add_parser("tables")
    p.add_argument("--cache-dir", required=True)
    p.add_argument("--report", required=True)
    args = parser.parse_args(argv)
    if args.mode == "tables":
        return run_tables(args)
    print(json.dumps(run_sim(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

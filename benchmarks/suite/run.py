"""The repository benchmark: five closed-loop workloads behind one command.

    PYTHONPATH=src python benchmarks/suite/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--traced | --trace 0|1] [-o results.json] [--trace-out spans.json]
    python benchmarks/suite/run.py --compare A.json B.json

Every workload runs in fresh child processes, one at a time, each a closed
loop with one client: the next cell (or ``repro experiments`` invocation)
starts when the previous one finished.  The report prints every metric by
name with unit, value, median, q1, q3 and sample count; the last stdout line
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  Outputs are checked against the numpy goldens, ``pins.json`` and
the untraced run; any mismatch makes the exit status 1.  Bad arguments
print one ``error:`` line and exit 2.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import LAYERS
from worker import EXPERIMENTS_ARGS, another_fits, now, result_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: scratch space for cache directories and reports, removed after each run
WORK = HERE / ".work"

#: workloads, end-to-end and per-layer metrics, bounds and run seconds
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: name -> why it was chosen; the order is the report order
WORKLOADS = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
END_TO_END = BENCHMARK["end_to_end"]
PER_LAYER = BENCHMARK["per_layer"]
#: seconds per workload run, setup included
DEFAULT_SECONDS = BENCHMARK["run_seconds"]
#: setups per run whose median is ``setup_s`` (fresh-import setups are
#: cheap, so ``tables_cold`` takes more of them)
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 5
#: a child still running after this many seconds is killed and counted failed
CHILD_TIMEOUT = 150

TABLE_WORKLOADS = ("tables_cold", "tables_warm")

#: reported beside the end-to-end metrics and compared exactly when both
#: runs had the same seed (simulated results move with the inputs only)
EXACT = (
    {"name": "error_rate", "unit": "fraction"},
    {"name": "sim_cycles", "unit": "cycles"},
    {"name": "dsa_gain_pct", "unit": "%"},
    {"name": "energy_saving_pct", "unit": "%"},
)

#: paper value of the art3_fig9 AVERAGE energy saving of the full DSA
PAPER_ENERGY_SAVING_PCT = 45.0

#: execution tiers of ``RunResult.tier_counts`` and modelled-component
#: totals of ``result_totals``, reported as ``cpu.tier.*`` and ``sim.*``
TIERS = ("fast", "traced", "compiled", "bulk", "covered")
SIM_STATS = ("l1_hit_rate", "memory_stall_cycles", "dsa_stall_cycles", "suppressed_instructions")

UNITS = {m["name"]: m["unit"] for m in (*END_TO_END, *EXACT, *PER_LAYER)}


class UsageError(Exception):
    """A bad command line: one ``error:`` line, exit status 2."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def summary(samples: list[float], value: float | None = None) -> dict:
    """Median, quartiles and count of ``samples``; ``value`` is what gets
    reported (the median unless given)."""
    median = statistics.median(samples)
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = median
    return {
        "value": median if value is None else value,
        "median": median, "q1": q1, "q3": q3, "n": len(samples),
        "samples": list(samples),
    }


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
@dataclass
class Child:
    returncode: int
    stdout: bytes
    wall_s: float
    maxrss_kb: int


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    env = {
        **os.environ,
        "PYTHONPATH": f"{SRC}{os.pathsep}{path}" if path else str(SRC),
        # string hashing feeds set and dict layouts; fix it so runs repeat
        "PYTHONHASHSEED": "0",
        # nothing a child does may write outside the checkout
        "TMPDIR": str(WORK / "tmp"),
        "REPRO_CACHE_DIR": str(WORK / "default-cache"),
    }
    # setup time counts imports as users pay them: from cached bytecode
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv: list[str], timeout: float = CHILD_TIMEOUT) -> Child:
    """Run one child to completion: its exit status, stdout, wall time from
    spawn to exit, and its own peak RSS (``wait4`` reports it per child)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    chunks = []
    try:
        fd = proc.stdout.fileno()
        deadline = start + timeout
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                break
            ready, _, _ = select.select([fd], [], [], left)
            if ready:
                data = os.read(fd, 1 << 16)
                if not data:
                    break
                chunks.append(data)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return Child(proc.returncode, b"".join(chunks), time.perf_counter() - start, usage.ru_maxrss)


def worker_report(child: Child) -> dict | None:
    """The JSON report on a worker's last stdout line (None if it failed)."""
    if child.returncode != 0:
        return None
    try:
        return json.loads(child.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        return None


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured and checked."""

    workload: str
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    passes: int = 0
    metrics: dict[str, dict] = field(default_factory=dict)
    layers: dict[str, dict] = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def take(self, report: dict) -> None:
        self.attempted += report["attempted"]
        self.failed += report["failed"]
        self.errors += report["errors"]

    def add_spans(self, spans: list[dict], run: str) -> None:
        base = len(self.spans)
        for s in spans:
            parent = s["parent"]
            self.spans.append({
                **s, "parent": None if parent is None else parent + base,
                "workload": self.workload, "process": run,
            })

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def layer_metrics(out: Outcome, layers: list[dict], untraced: list[float], traced: list[float],
                  tiers: dict, totals: dict) -> None:
    """Per-layer metrics from the tracer reports covering the ``traced`` passes."""
    traced_wall, passes = sum(traced), len(traced)
    self_s = {k: sum(r["self_s"][k] for r in layers) for k in LAYERS}
    self_s["other"] = traced_wall - sum(v for k, v in self_s.items() if k != "other")
    calls = {k: sum(r["calls"][k] for r in layers) for k in LAYERS}
    outcomes = {
        k: [sum(r["outcomes"][k][i] for r in layers) for i in (0, 1)]
        for k in layers[0]["outcomes"]
    }
    values = {}
    for layer in LAYERS:
        values[f"{layer}.self_pct"] = 100.0 * self_s[layer] / traced_wall
        values[f"{layer}.calls"] = calls[layer] / passes
        out.layers[layer] = {
            "host_s": self_s[layer] / passes,
            "share_pct": values[f"{layer}.self_pct"],
            "calls": values[f"{layer}.calls"],
        }
    cover, loads = outcomes["cover"], outcomes["cache_load"]
    values["dsa.cover.accept_ratio"] = cover[1] / cover[0] if cover[0] else 0.0
    values["campaign.cache_hit_ratio"] = loads[1] / loads[0] if loads[0] else 0.0
    for tier in TIERS:
        values[f"cpu.tier.{tier}"] = tiers.get(tier, 0)
    for stat in SIM_STATS:
        values[f"sim.{stat}"] = totals[stat]
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    for name, value in values.items():
        out.metrics[name] = {"value": value, "n": passes}


def measure_sim(name: str, seed: int | None, deadline: float, traced: bool) -> Outcome:
    """Setup-only children first, then the measuring child, which times
    passes while another one still ends by ``deadline``.

    The setup-only children run the pinned default inputs whatever the
    seed, so every run checks the pins and measures peak RSS on the same
    work: dead cores are freed by the cyclic collector, so the peak moves
    in 8 MiB steps (one simulated memory) with the inputs' allocation
    pattern.
    """
    out = Outcome(name)
    argv = [sys.executable, str(HERE / "worker.py"), "sim", name]
    seeded = [] if seed is None else ["--seed", str(seed)]
    measuring = ["--deadline", repr(deadline)] + seeded + (["--traced"] if traced else [])
    reports, rss = [], []
    for extra in [["--setup-only"]] * (0 if traced else SETUP_SAMPLES - 1) + [measuring]:
        child = spawn(argv + extra + ["--spawned-at", repr(now())])
        if extra != measuring:
            rss.append(child.maxrss_kb / 1024)
        report = worker_report(child)
        if report is None:
            out.attempted += 1
            out.fail(f"worker exited with status {child.returncode}")
            return out
        out.take(report)
        reports.append(report)
    main = reports[-1]
    walls = main["walls"]
    out.passes = len(walls)
    totals = main["totals"]
    if traced:
        layer_metrics(out, [main["layers"]], walls, main["traced_walls"], main["tiers"], totals)
        out.add_spans(main["spans"], "sim")
        return out
    out.metrics["wall_s"] = summary(walls)
    out.metrics["guest_mips"] = summary([totals["instructions"] / w / 1e6 for w in walls])
    out.metrics["setup_s"] = summary([r["setup_s"] for r in reports])
    out.metrics["peak_rss_mb"] = summary(rss)
    out.metrics["sim_cycles"] = {"value": totals["cycles"]}
    return out


def cache_totals(cache_dir: Path) -> dict:
    """Totals over every RunResult in a cache directory, plus a digest of
    the whole set (the identity of one ``repro experiments`` campaign)."""
    results, h = [], hashlib.sha256()
    for path in sorted(cache_dir.rglob("*.json")):
        result = json.loads(path.read_text())["result"]
        results.append(result)
        h.update(json.dumps(result, sort_keys=True).encode())
    return {**result_totals(results), "count": len(results), "digest": h.hexdigest()}


def paper_average(stdout: str, exp_id: str) -> float:
    """The ``dsa_full_%`` AVERAGE of one experiment table in the output."""
    block = stdout.split(f"== {exp_id}:", 1)[1]
    row = next(line for line in block.splitlines() if line.startswith("AVERAGE"))
    return float(row.split()[-1])


def measure_tables(name: str, deadline: float, traced: bool, pins: dict) -> Outcome:
    out = Outcome(name)
    work = WORK / name
    experiments = [sys.executable, "-m", "repro", *EXPERIMENTS_ARGS, "--cache-dir"]
    rss, setup = [], []

    def run_tables(cache_dir: Path, report: Path | None = None) -> Child:
        """One timed ``repro experiments`` pass, checked against the pin."""
        if report is None:
            argv = experiments + [str(cache_dir)]
        else:
            argv = [sys.executable, str(HERE / "worker.py"), "tables", "--cache-dir",
                    str(cache_dir), "--report", str(report)]
        child = spawn(argv)
        out.attempted += 1
        if child.returncode != 0:
            out.fail(f"repro experiments exited with status {child.returncode}")
        elif hashlib.sha256(child.stdout).hexdigest() != pins["tables_stdout"]:
            out.fail("repro experiments output differs from pins.json")
        return child

    cold = name == "tables_cold"
    if cold and not traced:
        for _ in range(IMPORT_SAMPLES):
            child = spawn([sys.executable, "-c", "import repro.cli"])
            setup.append(child.wall_s)
            out.attempted += 1
            if child.returncode != 0:
                out.fail(f"import repro.cli exited with status {child.returncode}")
    filled = None
    if not cold:
        for k in range(1 if traced else SETUP_SAMPLES):
            if filled is not None:
                shutil.rmtree(filled)
            filled = work / f"fill-{k}"
            setup.append(run_tables(filled).wall_s)
        totals = cache_totals(filled)

    walls, traced_walls, layers, tiers = [], [], [], {}
    begin = now()
    stdout = ""
    while out.failed == 0:
        cache_dir = filled or work / f"cold-{len(walls)}"
        child = run_tables(cache_dir)
        walls.append(child.wall_s)
        rss.append(child.maxrss_kb / 1024)
        stdout = child.stdout.decode()
        if cold:
            totals = cache_totals(cache_dir)
            shutil.rmtree(cache_dir)
        if traced:
            traced_dir = filled or work / f"traced-{len(walls)}"
            report = work / "layers.json"
            child = run_tables(traced_dir, report)
            traced_walls.append(child.wall_s)
            if child.stdout.decode() != stdout:
                out.fail("repro experiments output differs under tracing")
            if cache_totals(traced_dir)["digest"] != totals["digest"]:
                out.fail("cached results differ under tracing")
            if report.exists():
                data = json.loads(report.read_text())
                layers.append(data["layers"])
                tiers = data["tiers"]
                out.add_spans(data["spans"], f"pass-{len(walls)}")
                report.unlink()
            if cold:
                shutil.rmtree(traced_dir)
        if not another_fits(begin, len(walls), deadline):
            break
    if out.failed:
        return out
    out.passes = len(walls)
    if traced:
        layer_metrics(out, layers, walls, traced_walls, tiers, totals)
        return out
    out.metrics["wall_s"] = summary(walls)
    out.metrics["guest_mips"] = summary([totals["instructions"] / w / 1e6 for w in walls])
    out.metrics["setup_s"] = summary(setup)
    out.metrics["peak_rss_mb"] = summary(rss)
    out.metrics["sim_cycles"] = {"value": totals["cycles"]}
    out.metrics["dsa_gain_pct"] = {"value": paper_average(stdout, "art3_fig8")}
    saving = paper_average(stdout, "art3_fig9")
    out.metrics["energy_saving_pct"] = {"value": saving}
    out.notes.append(
        f"energy_saving_pct {saving} vs paper {PAPER_ENERGY_SAVING_PCT:g}: "
        f"error {saving - PAPER_ENERGY_SAVING_PCT:+.1f} points"
    )
    return out


def measure(name: str, seed: int | None, seconds: float, traced: bool, pins: dict) -> Outcome:
    """One workload run; setup counts against its ``seconds``."""
    deadline = now() + seconds
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    try:
        if name in TABLE_WORKLOADS:
            out = measure_tables(name, deadline, traced, pins)
        else:
            out = measure_sim(name, seed, deadline, traced)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    missing = [m["name"] for m in (PER_LAYER if traced else END_TO_END)
               if m["name"] not in out.metrics]
    if missing and not out.failed:
        out.fail(f"no value for {', '.join(missing)} (BENCHMARK.json names it)")
    out.metrics["error_rate"] = {"value": out.failed / max(out.attempted, 1)}
    return out


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_report(out: Outcome, seed: int | None, traced: bool) -> None:
    if out.workload in TABLE_WORKLOADS:
        seed_text = "fixed seeds, output checked against pins"
    elif seed is None:
        seed_text = "default seed, results checked against pins"
    else:
        seed_text = f"seed {seed}, goldens checked (setup runs against pins)"
    print(f"== {out.workload}: {seed_text}, {out.passes} timed passes, "
          f"{out.attempted} attempted, {out.failed} failed ==")
    names = [m["name"] for m in (PER_LAYER if traced else END_TO_END)] + ["error_rate"]
    if not traced:
        names += [m["name"] for m in EXACT[1:]]
    rows = [("metric", "unit", "value", "median", "q1", "q3", "n")]
    for name in names:
        m = out.metrics.get(name)
        if m is not None:
            rows.append((name, UNITS[name], *(fmt(m.get(k, "-")) for k in
                                               ("value", "median", "q1", "q3", "n"))))
    if traced and out.layers:
        rows.append(("layer", "", "host_s/pass", "share_%", "calls/pass", "", ""))
        for layer, d in out.layers.items():
            rows.append((layer, "s", fmt(d["host_s"]), fmt(d["share_pct"]), fmt(d["calls"]), "", ""))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(v.ljust(w) for v, w in zip(row, widths)).rstrip())
    for line in out.notes + out.errors:
        print(line)
    print()


def result_line(outcomes: list[Outcome], traced: bool) -> dict:
    """The final stdout line: the contract's metrics, prefixed by workload
    name when more than one workload ran."""
    specs = PER_LAYER if traced else END_TO_END
    metrics = {}
    for out in outcomes:
        prefix = f"{out.workload}/" if len(outcomes) > 1 else ""
        for spec in specs:
            m = out.metrics.get(spec["name"])
            if m is not None:
                metrics[prefix + spec["name"]] = {"value": m["value"], "unit": spec["unit"]}
    return {
        "correct": all(o.correct for o in outcomes),
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }


def run_record(outcomes: list[Outcome], seed, seconds, traced) -> dict:
    """The ``-o`` results file: environment, protocol and every metric."""
    sys.path.insert(0, str(SRC))
    import numpy
    from repro.systems.result_cache import code_fingerprint

    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "code_fingerprint": code_fingerprint(),
        "git_commit": commit,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "workloads": {
            o.workload: {
                "passes": o.passes, "attempted": o.attempted, "failed": o.failed,
                "errors": o.errors, "metrics": o.metrics, "layers": o.layers,
            }
            for o in outcomes
        },
    }


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def verdict(spec: dict, a: dict, b: dict) -> str:
    """How metric ``b`` compares with ``a`` under the metric's bound."""
    change = (b["value"] - a["value"]) / a["value"]
    worse = change if spec["better"] == "lower" else -change
    sign = 1 if spec["better"] == "lower" else -1
    spread = max((m["q3"] - m["q1"]) / m["median"] for m in (a, b))
    if spread > spec["bound"]:
        # too noisy to call, unless every run of B beats every run of A
        if max(sign * v for v in b["samples"]) < min(sign * v for v in a["samples"]):
            return f"{change:+.1%} improved"
        return f"{change:+.1%} unresolved"
    if worse > spec["bound"]:
        return f"{change:+.1%} REGRESSED"
    if -worse > spec["bound"]:
        return f"{change:+.1%} improved"
    return f"{change:+.1%} ok"


def compare(path_a: str, path_b: str) -> int:
    """One row per workload; exit 4 when any metric regressed past its bound."""
    runs = []
    for path in (path_a, path_b):
        try:
            record = json.loads(Path(path).read_text())
            runs.append((record["workloads"], record["seed"]))
        except (OSError, ValueError, KeyError) as exc:
            raise UsageError(f"cannot read results file {path}: {exc}") from None
    (a, seed_a), (b, seed_b) = runs
    same_inputs = seed_a == seed_b
    if not same_inputs:
        print(f"seeds differ ({seed_a} vs {seed_b}): exact metrics not compared")
    regressed = False
    for workload in [w for w in a if w in b]:
        ma, mb = a[workload]["metrics"], b[workload]["metrics"]
        cells = []
        for spec in END_TO_END:
            if spec["name"] in ma and spec["name"] in mb:
                text = verdict(spec, ma[spec["name"]], mb[spec["name"]])
                regressed |= text.endswith("REGRESSED")
                cells.append(f"{spec['name']} {text}")
        for spec in EXACT if same_inputs else ():
            if spec["name"] in ma and spec["name"] in mb:
                va, vb = ma[spec["name"]]["value"], mb[spec["name"]]["value"]
                if va != vb:
                    regressed = True
                    cells.append(f"{spec['name']} {va} -> {vb} CHANGED")
        print(f"{workload:<12} " + " | ".join(cells))
    return 4 if regressed else 0


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse(argv: list[str] | None) -> argparse.Namespace:
    p = Parser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", nargs="+", default=list(WORKLOADS), metavar="NAME",
                   help=f"workloads to run (default: all of {', '.join(WORKLOADS)})")
    p.add_argument("--seed", type=int, default=None,
                   help="input seed for the simulation workloads; omitted, results "
                        "are checked against pins.json")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                   help=f"seconds per workload, setup included (default: {DEFAULT_SECONDS})")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: a traced run reporting the per-layer metrics")
    p.add_argument("--traced", action="store_true", help="same as --trace 1")
    p.add_argument("-o", "--output", metavar="FILE", help="write the results record here")
    p.add_argument("--trace-out", metavar="FILE", help="write the traced run's spans here")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two results records instead of running")
    args = p.parse_args(argv)
    unknown = [w for w in args.workload if w not in WORKLOADS]
    if unknown:
        raise UsageError(f"unknown workload {unknown[0]!r}; pick from {', '.join(WORKLOADS)}")
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    if args.seconds <= 0:
        raise UsageError(f"seconds must be positive, got {args.seconds:g}")
    args.traced = args.traced or args.trace == 1
    if args.trace_out and not args.traced:
        raise UsageError("--trace-out needs a traced run (--traced or --trace 1)")
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse(argv)
        if args.compare:
            return compare(*args.compare)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 1
    pins = json.loads((HERE / "pins.json").read_text())
    outcomes = []
    for name in dict.fromkeys(args.workload):
        out = measure(name, args.seed, args.seconds, args.traced, pins)
        print_report(out, args.seed, args.traced)
        outcomes.append(out)
    if args.output:
        record = run_record(outcomes, args.seed, args.seconds, args.traced)
        Path(args.output).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if args.trace_out:
        spans = [s for o in outcomes for s in o.spans]
        Path(args.trace_out).write_text(json.dumps({"spans": spans}) + "\n")
    line = result_line(outcomes, args.traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

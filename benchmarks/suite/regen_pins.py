"""Regenerate ``pins.json``, the benchmark's correctness pins.

    PYTHONPATH=src python benchmarks/suite/regen_pins.py

Pins the sha256 of every simulation cell's canonical RunResult JSON at the
default seed, and the sha256 of ``repro experiments --scale test`` stdout.
Regenerate only for a change meant to alter simulated results, and review
the diff: a pin that moves is a result that moved.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

from run import HERE, SRC, WORK, spawn
from worker import EXPERIMENTS_ARGS, SCALE, SIM_CELLS, digest


def main() -> int:
    sys.path.insert(0, str(SRC))
    from repro.systems.campaign import RunSpec, execute_spec

    cells = {}
    for workload_cells in SIM_CELLS.values():
        for workload, system in workload_cells:
            spec = RunSpec(workload, system, "full", SCALE)
            cells[spec.label] = digest(execute_spec(spec).to_dict())
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    try:
        child = spawn([sys.executable, "-m", "repro", *EXPERIMENTS_ARGS,
                       "--cache-dir", str(WORK / "cache")])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if child.returncode != 0:
        print(f"error: repro experiments exited with status {child.returncode}", file=sys.stderr)
        return 1
    pins = {
        "scale": SCALE,
        "cells": dict(sorted(cells.items())),
        "tables_stdout": hashlib.sha256(child.stdout).hexdigest(),
    }
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    print(f"pinned {len(cells)} cells and the experiments output")
    return 0


if __name__ == "__main__":
    sys.exit(main())

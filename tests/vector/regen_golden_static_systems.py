"""Regenerate tests/vector/golden_static_systems.json.

Run ONLY after an intentional architectural-model change (latencies, cache
geometry, energy inputs...) — never to paper over an identity failure you
can't explain:

    PYTHONPATH=src python tests/vector/regen_golden_static_systems.py
"""

import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))  # for tests.golden

from repro.systems.campaign import RunSpec, execute_spec
from tests.golden import regenerate

OUT = Path(__file__).with_name("golden_static_systems.json")

#: the kernels the static vectorizers vectorize, on the two systems whose
#: vector work runs entirely on the vector engine
STATIC_SIMD_WORKLOADS = ("gaussian", "matmul", "rgb_gray", "susan_edges")
STATIC_SIMD_SYSTEMS = ("neon_autovec", "neon_handvec")

NOTE = (
    "Golden RunResult snapshot of the four statically vectorized kernels on "
    "neon_autovec and neon_handvec (seed=3, scale=test). Regenerate ONLY on "
    "an intentional architectural-model change: "
    "PYTHONPATH=src python tests/vector/regen_golden_static_systems.py"
)


def run(workload: str, system: str) -> dict:
    return execute_spec(RunSpec(workload, system, seed=3)).to_dict()


def main() -> None:
    regenerate(OUT, NOTE, {
        f"{system}:{workload}": partial(run, workload, system)
        for system in STATIC_SIMD_SYSTEMS
        for workload in STATIC_SIMD_WORKLOADS
    })


if __name__ == "__main__":
    main()

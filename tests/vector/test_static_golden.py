"""The committed golden pins the statically vectorized systems absolutely.

On ``neon_autovec`` and ``neon_handvec`` every vector instruction of the
four statically vectorized kernels runs on the vector engine (no DSA), so
this snapshot is what holds the engine's register file, memory traffic and
op counters to their recorded results; the parity suite only compares
backends with each other.
"""

import json

import pytest

from tests.golden import digest
from tests.vector.regen_golden_static_systems import (
    OUT as GOLDEN_PATH,
    STATIC_SIMD_SYSTEMS,
    STATIC_SIMD_WORKLOADS,
    run,
)


@pytest.mark.parametrize("system", STATIC_SIMD_SYSTEMS)
@pytest.mark.parametrize("workload", STATIC_SIMD_WORKLOADS)
def test_matches_snapshot(workload, system):
    golden = json.loads(GOLDEN_PATH.read_text())[f"{system}:{workload}"]
    d = run(workload, system)
    assert (d["cycles"], d["instructions"]) == (golden["cycles"], golden["instructions"])
    assert digest(d) == golden["digest"], (
        f"{system}:{workload} RunResult drifted from the committed golden "
        "snapshot; regenerate ONLY on an intentional architectural-model "
        "change: PYTHONPATH=src python tests/vector/regen_golden_static_systems.py"
    )

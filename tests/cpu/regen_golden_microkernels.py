"""Regenerate tests/cpu/golden_microkernels.json.

Run ONLY after an intentional architectural-model change (latencies, cache
geometry, DSA policy, energy inputs...) — never to paper over an identity
failure you can't explain:

    PYTHONPATH=src python tests/cpu/regen_golden_microkernels.py
"""

import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))  # for tests.golden

from repro.cpu.config import CPUConfig
from repro.systems.campaign import RunSpec, execute_spec
from repro.workloads.synthetic import LOOP_TYPE_MICROKERNELS
from tests.golden import regenerate

OUT = Path(__file__).with_name("golden_microkernels.json")

NOTE = (
    "Golden RunResult snapshot of every loop-type microkernel on "
    "neon_dsa (seed=3, scale=test, predecode on). Regenerate ONLY on "
    "an intentional architectural-model change: "
    "PYTHONPATH=src python tests/cpu/regen_golden_microkernels.py"
)


def run(kind: str) -> dict:
    spec = RunSpec(f"micro:{kind}", "neon_dsa", seed=3)
    return execute_spec(spec, cpu_config=CPUConfig(predecode=True)).to_dict()


def main() -> None:
    regenerate(OUT, NOTE, {
        f"micro:{kind}": partial(run, kind) for kind in sorted(LOOP_TYPE_MICROKERNELS)
    })


if __name__ == "__main__":
    main()

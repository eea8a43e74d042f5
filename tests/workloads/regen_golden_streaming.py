"""Regenerate tests/workloads/golden_streaming.json.

Run ONLY after an intentional architectural-model change (latencies, cache
geometry, DSA policy, energy inputs...) — never to paper over an identity
failure you can't explain:

    PYTHONPATH=src python tests/workloads/regen_golden_streaming.py
"""

import sys
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))  # for tests.golden

from repro.systems.campaign import RunSpec, execute_spec
from repro.workloads.streaming import STREAMING_WORKLOADS
from tests.golden import regenerate

OUT = Path(__file__).with_name("golden_streaming.json")

NOTE = (
    "Golden RunResult snapshot of every streaming workload on "
    "neon_dsa (seed=3, scale=test). Pins both vector backends at "
    "VL=128. Regenerate ONLY on an intentional architectural-model "
    "change: PYTHONPATH=src python tests/workloads/regen_golden_streaming.py"
)


def run(name: str) -> dict:
    return execute_spec(RunSpec(name, "neon_dsa", seed=3)).to_dict()


def main() -> None:
    regenerate(OUT, NOTE, {name: partial(run, name) for name in sorted(STREAMING_WORKLOADS)})


if __name__ == "__main__":
    main()

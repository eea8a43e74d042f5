"""repro — Dynamic SIMD Assembler (DSA) reproduction.

A trace-driven simulation stack reproducing "Boosting SIMD Benefits through
a Run-time and Energy Efficient DLP Detection" (Jordan, DATE 2019):

* :mod:`repro.isa` — ARMv7-like scalar + NEON vector instruction set;
* :mod:`repro.cpu` — functional core with a 2-wide timing model;
* :mod:`repro.memory` — L1/L2/DRAM hierarchy;
* :mod:`repro.vector` — the vector engine at a configurable VL; the
  128-bit NEON unit is that engine at VL=128 (:mod:`repro.neon`);
* :mod:`repro.compiler` — loop-kernel IR + the two static vectorizer
  baselines (compiler auto-vectorization, hand-written NEON library code);
* :mod:`repro.dsa` — the paper's contribution: runtime DLP detection;
* :mod:`repro.energy` — McPAT-substitute energy/area models;
* :mod:`repro.workloads` — MiBench/OpenCV-substitute benchmarks;
* :mod:`repro.systems` — the four evaluated system setups;
* :mod:`repro.experiments` — one harness per paper table/figure.

Quickstart::

    from repro.workloads import load
    from repro.systems import run_system

    workload = load("rgb_gray", "test")
    base = run_system("arm_original", workload)
    dsa = run_system("neon_dsa", workload)
    print(f"DSA speedup: {dsa.improvement_over(base):+.1%}")
"""

from .dsa import DSAConfig, DSAFeatures, DynamicSIMDAssembler
from .systems import SYSTEM_NAMES, SystemResult, run_all_systems, run_system
from .workloads import PAPER_WORKLOADS, load, load_all

__version__ = "1.0.0"

__all__ = [
    "DSAConfig",
    "DSAFeatures",
    "DynamicSIMDAssembler",
    "SYSTEM_NAMES",
    "SystemResult",
    "run_all_systems",
    "run_system",
    "PAPER_WORKLOADS",
    "load",
    "load_all",
    "__version__",
]

"""The paper's NEON unit: the scalable engine pinned at VL=128.

Sixteen 128-bit Q registers (paper, Table 4) are one point of the
vector-length-agnostic design, so the NEON engine adds no behaviour of its
own: it is :class:`repro.vector.scalable.ScalableEngine` at VL=128 under
the backend name ``neon``.  Build it with ``repro.vector.get_backend("neon")``.
"""

from __future__ import annotations

from ..vector.scalable import ScalableEngine


class NeonEngine(ScalableEngine):
    """The scalable engine at VL=128, named ``neon``."""

    name = "neon"

    def __init__(self) -> None:
        super().__init__(128)

    # the benchmark's layer tracer (benchmarks/suite/layers.py) wraps the
    # ``execute`` in each engine class's own __dict__; binding the inherited
    # function here keeps this class a wrap point, and a NEON instruction
    # still passes through exactly one wrapper
    execute = ScalableEngine.execute

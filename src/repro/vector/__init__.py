"""The vector engine (ROADMAP item 3).

One engine, :class:`ScalableEngine`, executes every vector instruction at a
configured vector length; the paper's NEON unit is that engine pinned at
VL=128.  Build it by backend name:

>>> from repro.vector import get_backend
>>> be = get_backend("scalable", 256)
>>> be.width_bytes, be.lanes_for(DType.S32)
(32, 8)

Everything above the engine (core dispatch, DSA template lowering, the
energy model) asks it for ``width_bytes``, ``num_regs`` and
``lanes_for(dtype)`` rather than assuming 128 bits.
"""

from __future__ import annotations

from ..errors import ConfigError
from .backend import VALID_VECTOR_LENGTHS, VectorStats, VMemEvent
from .scalable import ScalableEngine

#: names accepted by :func:`get_backend`, CPUConfig.vector_backend,
#: RunSpec.backend and `repro campaign --backend`
BACKEND_NAMES = ("neon", "scalable")


def get_backend(name: str, vl: int = 128) -> ScalableEngine:
    """Construct the vector engine by backend name at vector length ``vl`` (bits).

    The single supported way to build an engine: ``get_backend("neon")``
    for the paper's 128-bit NEON unit (``vl`` must be 128), or
    ``get_backend("scalable", vl)`` for ``vl`` ∈ {128, 256, 512, 1024}.
    """
    if name == "neon":
        if vl != 128:
            raise ConfigError(
                f"the neon backend is fixed at VL=128, got VL={vl}; "
                f"use the scalable backend for wider vectors"
            )
        # deferred: repro.neon.engine subclasses ScalableEngine, so it
        # imports this package
        from ..neon.engine import NeonEngine

        return NeonEngine()
    if name == "scalable":
        return ScalableEngine(vl)
    raise ConfigError(
        f"unknown vector backend {name!r} (choose from {BACKEND_NAMES})"
    )


__all__ = [
    "BACKEND_NAMES",
    "VALID_VECTOR_LENGTHS",
    "VectorStats",
    "VMemEvent",
    "ScalableEngine",
    "get_backend",
]

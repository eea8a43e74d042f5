"""NEON lane math; the NEON engine itself is ``repro.vector.get_backend("neon")``.

``repro.neon.engine`` is not imported here: it subclasses the scalable
engine, whose module imports :mod:`repro.neon.lanes` through this package.
"""

from . import lanes

__all__ = ["lanes"]

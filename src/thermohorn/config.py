"""Shared numeric tolerances and enumeration limits.

The master matrix-identity tolerance ``TOL`` defaults to 1e-9 and can be
overridden through the ``THERMO_HORN_TOL`` environment variable (read once at
import time). Everything else is fixed: these constants encode how the
package separates genuine structure from floating-point noise, and changing
them ad hoc would silently change which states count as reachable.
"""

from __future__ import annotations

import os

ENV_TOL = "THERMO_HORN_TOL"


def _tol_from_env() -> float:
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return 1e-9
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_TOL} must parse as a float, got {raw!r}") from exc
    if not 0.0 < value < 1.0:
        raise ValueError(f"{ENV_TOL} must lie in (0, 1), got {value!r}")
    return value


#: Master tolerance for matrix identities (unitarity residuals, channel
#: outputs, hull membership defaults route through here).
TOL = _tol_from_env()

#: Residual tolerance for eigendecompositions.
EIGEN_TOL = 1e-8

#: Two reachable-set points closer than this in max-norm are one point.
DEDUP_TOL = 1e-10

#: Exhaustive permutation enumeration refuses above this count.
ENUMERATION_CAP = 10**6

#: Sample size used when an enumeration falls back to seeded sampling.
SAMPLE_COUNT = 10**4

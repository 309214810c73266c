"""Symmetric disorder laws: definition, sampling, truncation.

Every interaction weight in the ensemble is an i.i.d. draw from a
symmetric distribution with finite second moment.  Four families are
supported; symmetry is structural (each family is symmetric by
construction) rather than asserted about user-supplied densities.

Truncation at level ``c`` replaces a draw ``g`` by ``g * 1(|g| <= c)``:
out-of-range draws map to zero.  This is indicator multiplication, not
rejection sampling — rejection would renormalize the law and change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

FAMILIES = ("rademacher", "gaussian", "uniform_symmetric", "two_point_symmetric")


@dataclass(frozen=True)
class DisorderSpec:
    """A symmetric weight distribution, possibly truncated.

    Parameters
    ----------
    family : str
        One of ``rademacher`` (±1), ``gaussian`` (std ``param``),
        ``uniform_symmetric`` (uniform on [-param, param]), or
        ``two_point_symmetric`` (±param with equal probability).
    param : float
        Finite positive family scale parameter; ignored by ``rademacher``.
    truncation : float
        Truncation level c in (0, inf]; ``inf`` means no truncation.
    """

    family: str
    param: float = 1.0
    truncation: float = math.inf

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown disorder family {self.family!r}")
        if not 0 < self.param < math.inf:
            raise ValueError(f"param must be finite and positive, got {self.param!r}")
        if not self.truncation > 0:
            raise ValueError("truncation must be positive (use inf for none)")
        # A two-point law truncated below its magnitude collapses to the
        # point mass at zero; the model then divides nothing and hides bugs.
        if self.family in ("rademacher", "two_point_symmetric"):
            magnitude = 1.0 if self.family == "rademacher" else self.param
            if self.truncation < magnitude:
                raise ValueError(
                    "truncation below the atom magnitude leaves all mass at 0"
                )


def _sample_shape(spec, shape, rng):
    """Internal sampler for arbitrary output shapes."""
    if spec.family == "rademacher":
        out = rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0
    elif spec.family == "gaussian":
        out = rng.normal(0.0, spec.param, size=shape)
    elif spec.family == "uniform_symmetric":
        out = rng.uniform(-spec.param, spec.param, size=shape)
    else:  # two_point_symmetric
        out = (rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0) * spec.param
    if math.isfinite(spec.truncation):
        out[np.abs(out) > spec.truncation] = 0.0
    return out


def truncate_spec(spec: DisorderSpec, c: float) -> DisorderSpec:
    """Spec whose draws are ``g * 1(|g| <= c)`` for ``g`` from ``spec``.

    Stacking truncations keeps the tighter level (a zeroed draw stays
    inside any level).  ``c = inf`` returns an identical spec.
    """
    if not c > 0:
        raise ValueError("truncation level must be positive")
    return replace(spec, truncation=min(spec.truncation, c))

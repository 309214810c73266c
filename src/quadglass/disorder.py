"""Symmetric disorder laws: definition, sampling, truncation.

Every interaction weight in the ensemble is an i.i.d. draw from a
symmetric distribution with finite second moment.  Four families are
supported; symmetry is structural (each family is symmetric by
construction) rather than asserted about user-supplied densities.

Truncation at level ``c``, ``DisorderSpec(family, param, truncation=c)``,
replaces a draw ``g`` by ``g * 1(|g| <= c)``:
out-of-range draws map to zero.  This is indicator multiplication, not
rejection sampling — rejection would renormalize the law and change it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        Finite positive family scale parameter; 1 for ``rademacher``.
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
        if self.family == "uniform_symmetric" and not 2.0 * self.param < math.inf:
            raise ValueError(f"2*param must be finite, got param={self.param!r}")
        if self.family == "rademacher" and self.param != 1.0:
            raise ValueError(
                f"rademacher draws +-1, so its param must be 1, got {self.param!r}; "
                "two_point_symmetric draws +-param"
            )
        if not self.truncation > 0:
            raise ValueError("truncation must be positive (use inf for none)")
        # A two-point law truncated below its magnitude collapses to the
        # point mass at zero; the model then divides nothing and hides bugs.
        if self.family in ("rademacher", "two_point_symmetric") and self.truncation < self.param:
            raise ValueError("truncation below the atom magnitude leaves all mass at 0")


def _sample_shape(spec, shape, rng):
    """Draws of ``spec`` in an array of ``shape``.

    One generator call fills the array; the law's arithmetic then runs
    in place.  The operations are those of ``rng.normal(0, param)``,
    ``rng.uniform(-param, param)`` and ``2*bit - 1``, so the draws equal
    a direct draw of the law bit for bit.
    """
    out = np.empty(shape)
    if spec.family == "gaussian":
        rng.standard_normal(out=out)
        out *= spec.param
    elif spec.family == "uniform_symmetric":
        rng.random(out=out)
        out *= 2.0 * spec.param  # numpy's high - low, exact while finite
        out -= spec.param
    else:  # a sign bit for the two-point families
        out[...] = rng.integers(0, 2, size=out.shape, dtype=np.int32)  # int64's draws
        out *= 2.0
        out -= 1.0
        out *= spec.param  # exact for rademacher, whose param is 1
    if math.isfinite(spec.truncation):
        out[(out > spec.truncation) | (out < -spec.truncation)] = 0.0  # no |out| copy
    return out

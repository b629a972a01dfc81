"""Sphere-plate force through the proximity force approximation.

F(a) = 2 pi R E_pp(a), with E_pp the plate-plate energy per unit area at
the closest-approach separation.  The sign convention is inherited:
negative force pulls the sphere toward the plate.  The approximation is
a leading-order curvature expansion, trustworthy for a << R; results
carry the aspect ratio and a validity warning once a/R exceeds 0.1.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .engine import EnergyResult, GapConfig, energy_per_area
from .errors import DomainError
from .materials import _real_number

PFA_ASPECT_WARN = 0.1


@dataclass(frozen=True)
class SpherePlate:
    """Sphere of radius R above a plane at the gap a, both in m and kept as floats."""

    radius: float
    gap: float

    def __post_init__(self):
        for name, label in (("radius", "sphere radius"), ("gap", "gap")):
            value = _real_number(getattr(self, name), DomainError, label)
            if not (np.isfinite(value) and value > 0.0):
                raise DomainError(f"{label} must be finite and positive")
            object.__setattr__(self, name, value)

    @property
    def aspect(self):
        return self.gap / self.radius


@dataclass(frozen=True)
class PfaResult:
    force: float            # N, negative = attraction
    aspect: float           # a/R
    warning: Optional[str]
    energy: EnergyResult    # the underlying plate-plate result


def pfa_force(geom, material_sphere, material_plate, quad=None):
    """Sphere-plate Casimir force in newtons via the proximity rule."""
    energy = energy_per_area(GapConfig(geom.gap, material_sphere, material_plate),
                             quad)
    warning = None
    if geom.aspect > PFA_ASPECT_WARN:
        warning = (f"a/R = {geom.aspect:.3g} exceeds {PFA_ASPECT_WARN}; the "
                   "proximity approximation is unreliable this far from contact")
    return PfaResult(2.0 * np.pi * geom.radius * energy.value,
                     geom.aspect, warning, energy)

"""Casimir energy, pressure and force-sign analysis between material
half-spaces, evaluated on the imaginary frequency axis.

The package answers one physical question with numbers: under which
material assumptions can the force between two plates in vacuum be
repulsive?  Non-dispersive constant-(eps, mu) media (an explicitly
flagged, unphysical idealization) admit repulsion in parts of their
parameter space; every causal dispersive model with mu ~ 1 at the
frequencies that matter attracts at all separations.
"""

__version__ = "0.1.0"

from .constants import C, HBAR
from .engine import (EnergyResult, GapConfig, PressureResult, QuadratureConfig,
                     QuadraturePoint, ReflectionPair, dominant_frequency,
                     energy_per_area, pressure, reflection)
from .errors import (CasimirError, ContinuumModelWarning, ConvergenceError,
                     DegenerateIntegrandError, DomainError,
                     InconclusiveConfigurationError, IngestionError,
                     InvalidModelError)
from .materials import (DIVERGENT, ConstantEpsMu, DebyeMagnetic, Drude,
                        HighTail, InfinitelyPermeable, LorentzOscillators,
                        LowTail, MaterialResponse, PerfectConductor,
                        PermittivityEstimate, Plasma, Tabulated,
                        TabulatedAbsorption, kramers_kronig, vacuum)
from .pfa import PfaResult, SpherePlate, pfa_force
from .sign_analysis import (VERDICT_FLOOR_PA, AttractionReport, ImpedancePoint,
                            SignMap, SignVerdict, Verdict, boundary_points,
                            classify, dispersion_restores_attraction,
                            find_sign_boundary, sign_map, uvl_map, verdict_for)

__all__ = [
    "C", "HBAR", "__version__",
    "EnergyResult", "GapConfig", "PressureResult", "QuadratureConfig",
    "QuadraturePoint", "ReflectionPair", "dominant_frequency",
    "energy_per_area", "pressure", "reflection",
    "CasimirError", "ContinuumModelWarning", "ConvergenceError",
    "DegenerateIntegrandError", "DomainError",
    "InconclusiveConfigurationError", "IngestionError", "InvalidModelError",
    "DIVERGENT", "ConstantEpsMu", "DebyeMagnetic", "Drude", "HighTail",
    "InfinitelyPermeable", "LorentzOscillators", "LowTail",
    "MaterialResponse", "PerfectConductor", "PermittivityEstimate", "Plasma",
    "Tabulated", "TabulatedAbsorption", "kramers_kronig", "vacuum",
    "PfaResult", "SpherePlate", "pfa_force",
    "AttractionReport", "ImpedancePoint", "SignMap", "SignVerdict", "Verdict",
    "boundary_points", "classify", "dispersion_restores_attraction",
    "find_sign_boundary", "sign_map", "uvl_map", "VERDICT_FLOOR_PA",
    "verdict_for",
]

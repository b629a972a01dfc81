r"""Zero-temperature Lifshitz energy and pressure for two half-spaces in vacuum.

The energy per unit area at separation ``a`` is

    E(a) = (hbar / 4 pi^2) \int_0^inf dxi \int_0^inf k dk
           sum_{p in TE,TM} ln(1 - r1_p r2_p exp(-2 kappa0 a))

with kappa0 = sqrt(k^2 + xi^2/c^2) the vacuum decay constant and r_j the
vacuum-medium reflection coefficients at imaginary frequency xi.  The
pressure is the a-derivative taken inside the integral.  Negative values
mean attraction (the plates bind).

Numerics: the inner integral is rewritten over the dimensionless variable
y = 2 kappa0 a (so k dk -> y dy / (2a)^2 with lower limit y0 = 2 a xi / c),
which makes the exponential kernel separation-independent.  Both axes use
vectorized adaptive Gauss-Kronrod panels.  Each round of the outer axis
hands its xi nodes to the inner axis in blocks of ``_BLOCK``: eps and mu
are evaluated once per block as arrays, and all inner integrals of the
block refine together in one ``integrate_panels`` call, each to its own
tolerance and budget.  Inner-integral error estimates are propagated
into the outer total in quadrature sum.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .constants import C, HBAR
from .errors import (ContinuumModelWarning, ConvergenceError,
                     DegenerateIntegrandError, DomainError)
from .materials import (DIVERGENT, InfinitelyPermeable, MaterialResponse,
                        PerfectConductor)
from .quadrature import (geometric_edges, geometric_panels,
                         integrate_adaptive, integrate_panels)


@dataclass(frozen=True)
class QuadraturePoint:
    """One point of the double integration domain.

    xi is the angular frequency on the positive imaginary axis (rad/s,
    the Wick-rotated time component of the mode vector); k is the
    magnitude of the wave vector parallel to the plates (1/m).
    """

    xi: float
    k: float

    def __post_init__(self):
        if not (np.isfinite(self.xi) and np.isfinite(self.k)):
            raise DomainError("quadrature point must be finite")
        if self.xi < 0.0 or self.k < 0.0:
            raise DomainError("quadrature point needs xi >= 0 and k >= 0")

    @property
    def kappa0(self):
        """Vacuum decay constant sqrt(k^2 + xi^2/c^2), always >= xi/c."""
        return float(np.hypot(self.k, self.xi / C))


class ReflectionPair(NamedTuple):
    r_te: float
    r_tm: float


@dataclass(frozen=True)
class GapConfig:
    """Two material half-spaces separated by a vacuum gap of width a (m)."""

    a: float
    material1: MaterialResponse
    material2: MaterialResponse

    def __post_init__(self):
        if not isinstance(self.material1, MaterialResponse) or \
           not isinstance(self.material2, MaterialResponse):
            raise DomainError("material1/material2 must be MaterialResponse instances")
        if not np.isfinite(self.a) or self.a <= 0.0:
            raise DomainError("gap must be positive")
        if self.a < 1e-9:
            warnings.warn("separation below 1 nm: continuum material response "
                          "is questionable at this scale", ContinuumModelWarning,
                          stacklevel=2)

    @property
    def unphysical(self):
        """Non-dispersive flag inherited from either material."""
        return self.material1.unphysical or self.material2.unphysical


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy and truncation knobs for the double quadrature.

    abs_floor is interpreted in the unit of the requested result
    (J/m^2 for energies, Pa for pressures).  max_subdivisions budgets the
    outer adaptive axis.  The inner integrals at the outer nodes refine
    together, but each keeps its own budget of min(max_subdivisions, 300)
    splits and its own tolerance, so one that exhausts its budget stops
    alone.
    """

    rel_tol: float = 1e-8
    abs_floor: float = 1e-30
    max_subdivisions: int = 4000
    xi_cutoff_factor: float = 60.0
    y_cutoff: float = 80.0

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError("rel_tol must lie in (0, 1)")
        if self.abs_floor < 0.0:
            raise DomainError("abs_floor must be non-negative")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be positive")
        if self.xi_cutoff_factor <= 0.0 or self.y_cutoff <= 0.0:
            raise DomainError("cutoffs must be positive")


@dataclass(frozen=True)
class EnergyResult:
    """Signed Casimir energy per unit area.

    dominant_xi is the abscissa of the peak of the per-log-frequency
    contribution xi*|F(xi)| among the sampled outer points (None when the
    integrand vanishes identically); 2 pi c / dominant_xi is the
    wavelength doing most of the work, of order the separation.
    """

    value: float          # J/m^2, negative = attraction
    error_estimate: float  # J/m^2
    dominant_xi: Optional[float] = None  # rad/s


@dataclass(frozen=True)
class PressureResult:
    """Signed Casimir pressure; negative pulls the plates together."""

    value: float          # Pa
    error_estimate: float  # Pa
    dominant_xi: Optional[float] = None  # rad/s


# ---------------------------------------------------------------------------
# Reflection coefficients
# ---------------------------------------------------------------------------

def _mirror_pair(material):
    if isinstance(material, PerfectConductor):
        return (-1.0, 1.0)
    if isinstance(material, InfinitelyPermeable):
        return (1.0, -1.0)
    return None


def _reflection_by_owner(material, xi):
    """Vacuum-medium (r_te, r_tm) as a function of kappa0 and owner arrays.

    ``owner`` indexes the array ``xi`` (> 0) of outer nodes and broadcasts
    against ``kappa0``; eps and mu are evaluated at ``xi`` once, as
    arrays, when the function is made.  Ideal mirrors give scalars.
    """
    mirror = _mirror_pair(material)
    if mirror is not None:
        return lambda kappa0, owner: mirror

    e = np.asarray(material.eps(xi), dtype=float)
    m = np.asarray(material.mu(xi), dtype=float)
    em_xic2 = (e * m - 1.0) * (xi / C) ** 2

    def rf(kappa0, owner):
        eo = e[owner]
        mo = m[owner]
        kappa = np.sqrt(np.maximum(kappa0 * kappa0 + em_xic2[owner], 0.0))
        r_te = (mo * kappa0 - kappa) / (mo * kappa0 + kappa)
        r_tm = (eo * kappa0 - kappa) / (eo * kappa0 + kappa)
        return r_te, r_tm

    return rf


def reflection(material, point):
    """TE and TM reflection coefficients of a vacuum-material interface.

    Both coefficients are real, finite and of magnitude <= 1 for any
    passive model at every point with xi, k >= 0 not both zero.  They are
    formed from the ratio kappa/kappa0 = hypot(c k, n xi) / hypot(c k, xi),
    n = sqrt(eps mu), scaled by the larger of c k and xi, never from
    kappa0 and kappa separately, so nothing underflows at tiny xi or k:

    * at k = 0 (any xi > 0) they are the normal-incidence Fresnel pair
      ((mu - n) / (mu + n), (eps - n) / (eps + n));
    * at xi = 0 kappa = kappa0, so finite eps and mu reflect as
      ((mu - 1) / (mu + 1), (eps - 1) / (eps + 1)).

    Where eps is infinite (the divergent models at xi = 0) or beyond float
    range (Drude and plasma at tiny xi > 0), TM reflects as +1 and TE
    takes (eps - 1) t^2, t = xi / (c kappa0), from the model's finite
    weight xi^2 (eps - 1).  So a Drude metal (and conductor-like tabulated
    data) reflects as (0, +1) at xi = 0, a dissipationless plasma keeps a
    finite TE coefficient through kappa = sqrt(kappa0^2 + wp^2/c^2), and
    at k = 0 both give the eps -> infinity Fresnel pair (-1, +1).
    """
    if not isinstance(point, QuadraturePoint):
        raise DomainError("point must be a QuadraturePoint")
    mirror = _mirror_pair(material)
    if mirror is not None:
        return ReflectionPair(*mirror)
    xi, k = point.xi, point.k
    if xi == 0.0 and k == 0.0:
        raise DomainError("reflection is undefined at xi = k = 0")
    e = material.eps(xi)
    m = float(material.mu(xi))
    if e is DIVERGENT or math.isinf(e):
        # (eps - 1) t^2 = xi^2 (eps - 1) / (c kappa0)^2 stays finite
        c_kappa0 = math.hypot(xi, C * k)
        t = xi / c_kappa0
        w = material.xi2_susceptibility(xi) / c_kappa0 / c_kappa0
        ratio = math.sqrt(1.0 + m * w + (m - 1.0) * t * t)
        r_te = -1.0 if math.isinf(ratio) else (m - ratio) / (m + ratio)
        return ReflectionPair(r_te, 1.0)
    n = math.sqrt(e) * math.sqrt(m)
    if C * k <= xi:
        u = C * (k / xi)
        ratio = math.hypot(u, n) / math.hypot(u, 1.0)
    else:
        v = (xi / k) / C
        ratio = math.hypot(1.0, n * v) / math.hypot(1.0, v)
    return ReflectionPair((m - ratio) / (m + ratio), (e - ratio) / (e + ratio))


# ---------------------------------------------------------------------------
# Integrand kernels
# ---------------------------------------------------------------------------

def _stable_q(p, emy, y):
    """1 - p e^{-y} = (1 - e^{-y}) + (1-p) e^{-y}, exact to rounding for p <= 1."""
    return -np.expm1(-y) + (1.0 - p) * emy


def _ln_one_minus(p, emy, y):
    """ln(1 - p e^{-y}) via log1p for small arguments, stable q otherwise."""
    x = p * emy
    return np.where(np.abs(x) < 0.5, np.log1p(-x), np.log(_stable_q(p, emy, y)))


def _xi_cutoff(cfg, quad):
    """Outer truncation: the configured cutoff, capped by the exact dead
    zone where the inner lower limit y0 already exceeds y_cutoff."""
    scale = C / cfg.a
    resonance = max(cfg.material1.resonance_scale, cfg.material2.resonance_scale)
    configured = max(quad.xi_cutoff_factor * scale, 1e3 * resonance)
    dead = quad.y_cutoff * C / (2.0 * cfg.a)
    return min(configured, dead)


_INNER_BUDGET = 300
# Outer nodes whose inner integrals refine in one batched call.  Bounds
# the working set of a round (seed panels of every node, kept points)
# while leaving the per-call Python overhead negligible.
_BLOCK = 64


def _inner_integrals(cfg, xi, kind, rel_tol, budget, y_cut):
    """Inner y-integrals at every outer node of the array ``xi``.

    Returns (values, errors), summed over polarizations.  Nodes whose
    lower limit y0 = 2 a xi / c reaches ``y_cut`` contribute exactly zero;
    the others refine together, ``_BLOCK`` nodes per ``integrate_panels``
    call, each from the seed panels ``geometric_edges(y0, y_cut, 0.25)``.
    """
    y0 = 2.0 * cfg.a * xi / C
    vals = np.zeros(xi.shape)
    errs = np.zeros(xi.shape)
    live = np.flatnonzero(y0 < y_cut)
    for start in range(0, live.size, _BLOCK):
        idx = live[start:start + _BLOCK]
        vals[idx], errs[idx] = _inner_block(cfg, xi[idx], y0[idx], kind,
                                            rel_tol, budget, y_cut)
    return vals, errs


def _inner_block(cfg, xi, y0, kind, rel_tol, budget, y_cut):
    """One batched call of ``_inner_integrals``: (values, errors)."""
    rf1 = _reflection_by_owner(cfg.material1, xi)
    rf2 = _reflection_by_owner(cfg.material2, xi)
    two_a = 2.0 * cfg.a

    # a function of its own so that the four coefficient arrays are freed
    # before the kernel below makes its temporaries
    def products(kappa0, owner):
        r1te, r1tm = rf1(kappa0, owner)
        r2te, r2tm = rf2(kappa0, owner)
        return r1te * r2te, r1tm * r2tm

    def g(y, owner):
        pte, ptm = products(y / two_a, owner)
        emy = np.exp(-y)
        if kind == "energy":
            return y * (_ln_one_minus(pte, emy, y) + _ln_one_minus(ptm, emy, y))
        return y * y * (pte * emy / _stable_q(pte, emy, y)
                        + ptm * emy / _stable_q(ptm, emy, y))

    lo, hi, owner = geometric_panels(y0, y_cut, 0.25)
    res = integrate_panels(g, lo, hi, owner, xi.size, rel_tol=rel_tol,
                           max_subdivisions=budget)
    return res.value, res.error


def _integrate_double(cfg, quad, kind):
    """Raw double integral (no physical prefactor) plus diagnostics."""
    a = cfg.a
    inner_tol = 0.1 * quad.rel_tol
    inner_budget = min(quad.max_subdivisions, _INNER_BUDGET)

    def outer(xi_arr):
        return _inner_integrals(cfg, xi_arr, kind, inner_tol, inner_budget,
                                quad.y_cutoff)

    xi_max = _xi_cutoff(cfg, quad)
    xi_edges = np.concatenate([[0.0],
                               geometric_edges(1e-4 * C / a, xi_max, 1e-4 * C / a)])
    res = integrate_adaptive(outer, xi_edges, rel_tol=quad.rel_tol,
                             abs_floor=_raw_floor(cfg, quad, kind),
                             max_subdivisions=quad.max_subdivisions,
                             with_errors=True)
    weight = res.points * np.abs(res.values)
    dominant = float(res.points[np.argmax(weight)]) if np.any(weight > 0.0) else None
    return res, dominant


def _prefactor(cfg, kind):
    if kind == "energy":
        return HBAR / (16.0 * np.pi ** 2 * cfg.a ** 2)
    return HBAR / (16.0 * np.pi ** 2 * cfg.a ** 3)


def _raw_floor(cfg, quad, kind):
    return quad.abs_floor / _prefactor(cfg, kind)


def energy_per_area(cfg, quad=None):
    """Casimir energy per unit area of the gap configuration, J/m^2.

    Negative values bind the plates.  The error estimate satisfies
    ``error <= rel_tol*|value| + abs_floor`` on success; otherwise a
    ConvergenceError carrying the best estimate is raised.
    """
    quad = quad or QuadratureConfig()
    res, dominant = _integrate_double(cfg, quad, "energy")
    pref = _prefactor(cfg, "energy")
    result = EnergyResult(pref * res.value, pref * res.error, dominant)
    if not res.converged:
        raise ConvergenceError("energy quadrature did not converge within "
                               f"{quad.max_subdivisions} subdivisions", best=result)
    return result


def pressure(cfg, quad=None):
    """Casimir pressure on the plates, Pa; negative = attraction."""
    quad = quad or QuadratureConfig()
    res, dominant = _integrate_double(cfg, quad, "pressure")
    pref = _prefactor(cfg, "pressure")
    result = PressureResult(-pref * res.value, pref * res.error, dominant)
    if not res.converged:
        raise ConvergenceError("pressure quadrature did not converge within "
                               f"{quad.max_subdivisions} subdivisions", best=result)
    return result


def dominant_frequency(cfg, quad=None):
    """Imaginary frequency dominating the energy integral, rad/s.

    Defined as the peak of the per-log-frequency contribution
    xi * |F(xi)| of the outer integrand F; located on a logarithmic scan
    and refined by a parabolic fit.  Raises DegenerateIntegrandError when
    the integrand vanishes everywhere (e.g. one side is vacuum).
    """
    quad = quad or QuadratureConfig()
    a = cfg.a
    xi_max = _xi_cutoff(cfg, quad)
    xi_lo = 1e-4 * C / a
    n = max(int(25 * np.log10(xi_max / xi_lo)), 50)
    grid = np.geomspace(xi_lo, xi_max, n)
    vals, _ = _inner_integrals(cfg, grid, "energy", 1e-6, _INNER_BUDGET,
                               quad.y_cutoff)
    weight = grid * np.abs(vals)
    if not np.any(weight > 0.0):
        raise DegenerateIntegrandError("outer integrand vanishes everywhere; "
                                       "no dominant frequency exists")
    m = int(np.argmax(weight))
    if m == 0 or m == n - 1:
        return float(grid[m])
    # parabolic vertex through the three points around the maximum, in log xi
    t = np.log(grid[m - 1:m + 2])
    s = weight[m - 1:m + 2]
    denom = s[0] - 2.0 * s[1] + s[2]
    if denom >= 0.0:
        return float(grid[m])
    shift = 0.5 * (s[0] - s[2]) / denom
    return float(np.exp(t[1] + shift * (t[2] - t[1])))

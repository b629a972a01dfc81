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
hands its xi nodes to the inner axis: eps and mu are evaluated once, as
arrays, and the inner integrals refine together in blocks of ``_BLOCK``,
one ``integrate_panels`` call per block, each to its own tolerance and
budget.  Inner-integral error estimates are propagated into the outer
total in quadrature sum.
"""

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .constants import C, HBAR
from .errors import (ContinuumModelWarning, ConvergenceError,
                     DegenerateIntegrandError, DomainError)
from .materials import MaterialResponse
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


# Fixed floor and truncation of the double quadrature.
_ABS_FLOOR = 1e-30         # absolute error floor, in the unit of the result
_XI_CUTOFF_FACTOR = 60.0   # outer cutoff xi_max, in units of c / a
_Y_CUTOFF = 80.0           # inner cutoff of y = 2 kappa0 a


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy knobs for the double quadrature.

    Each result converges to ``error <= rel_tol * |value| + 1e-30`` in its
    own unit (J/m^2 for energies, Pa for pressures).  max_subdivisions
    budgets the outer adaptive axis.  The inner integrals at the outer
    nodes refine together, but each keeps its own budget of
    min(max_subdivisions, 300) splits and its own tolerance, so one that
    exhausts its budget stops alone.  The truncation is fixed: the outer
    axis ends at xi = max(60 c/a, 1e3 x the larger resonance scale), capped
    where y0 = 2 a xi / c reaches 80, and the inner axis at y = 80.
    """

    rel_tol: float = 1e-8
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError("rel_tol must lie in (0, 1)")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be positive")


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

def _reflection_by_owner(material, xi, c_unit, v):
    """Vacuum-medium (r_te, r_tm) of ``material`` as a function of (u, owner).

    Per owner, ``xi`` is the frequency (rad/s) and ``v`` is xi / c_unit, with
    c_unit = c / lambda in the caller's unit of length lambda; u = kappa0 lambda.
    Then kappa lambda = sqrt(u^2 + (eps mu - 1) v^2), and each polarization
    reflects as (x u - kappa lambda) / (x u + kappa lambda), x = mu for TE and
    eps for TM.  eps and mu are evaluated once, here; a diverging response is
    inf.  The ideal mirrors give float constants: mu infinite at every owner
    reflects TE as +1, and TM as -1 (an infinite kappa); eps infinite at
    every owner, with an infinite weight ``xi2_susceptibility`` as well,
    reflects as (-1, +1).  Other infinite values, and an eps mu v^2 beyond
    float range, go through ``_reflection_at_limits``.
    """
    e = np.asarray(material.eps(xi), dtype=float)
    m = np.asarray(material.mu(xi), dtype=float)
    if np.isinf(m).all():
        r_tm = 1.0 if np.isinf(e).all() else -1.0
        return lambda u, owner: (1.0, r_tm)
    if np.isinf(e).all() and np.isinf(material.xi2_susceptibility(xi)).all():
        return lambda u, owner: (-1.0, 1.0)
    # an upper bound of eps mu v^2 in Python floats, which overflow to inf
    # without a warning
    v_max = max(float(v.max(initial=0.0)), 1.0)
    if float(e.max(initial=0.0)) * float(m.max(initial=0.0)) * v_max * v_max == math.inf:
        return _reflection_at_limits(material, xi, c_unit, v, e, m)
    w = (e * m - 1.0) * (v * v)

    def rf(u, owner):
        kappa = np.sqrt(np.maximum(u * u + w[owner], 0.0))
        mu_u = m[owner] * u
        eps_u = e[owner] * u
        return (mu_u - kappa) / (mu_u + kappa), (eps_u - kappa) / (eps_u + kappa)

    return rf


def _ratio_reflection(x, q):
    """(x - q) / (x + q) for finite x > 0 and q >= 0 or inf, never forming x + q."""
    rho = np.minimum(x, q) / np.maximum(x, q)
    return np.where(x >= q, 1.0, -1.0) * (1.0 - rho) / (1.0 + rho)


def _reflection_at_limits(material, xi, c_unit, v, e, m):
    """``_reflection_by_owner`` for owners with an infinite eps, mu or eps mu.

    Works with q = kappa / kappa0 = hypot(sqrt(1 - t^2), sqrt(eps mu) t),
    t = v / u, so that no product overflows.  An infinite mu reflects TE as
    +1 and an infinite eps TM as +1.  Where eps is infinite, its finite
    weight enters instead: eps t^2 is s / u^2 + t^2 with
    s = xi^2 (eps - 1) / c_unit^2 from ``xi2_susceptibility``.  Where mu is
    infinite, so is q.  An infinite q reflects as -1.
    """
    e_inf = np.isinf(e)
    m_inf = np.isinf(m)
    e_fin = np.where(e_inf, 1.0, e)
    m_fin = np.where(m_inf, 1.0, m)
    s = np.zeros(e.shape)
    if e_inf.any():
        with np.errstate(over="ignore"):  # beyond float range: q = inf
            s = s + material.xi2_susceptibility(xi) / c_unit / c_unit

    def rf(u, owner):
        t = v[owner] / u
        with np.errstate(over="ignore"):  # beyond float range: q = inf
            eps_t2 = np.where(e_inf[owner], s[owner] / u / u + t * t,
                              e_fin[owner] * t * t)
            q = np.hypot(np.sqrt(np.maximum(1.0 - t * t, 0.0)),
                         np.sqrt(m_fin[owner]) * np.sqrt(eps_t2))
        q = np.where(m_inf[owner], np.inf, q)
        r_te = np.where(m_inf[owner], 1.0, _ratio_reflection(m_fin[owner], q))
        r_tm = np.where(e_inf[owner], 1.0, _ratio_reflection(e_fin[owner], q))
        return r_te, r_tm

    return rf


def reflection(material, point):
    """TE and TM reflection coefficients of a vacuum-material interface.

    Real, finite and of magnitude <= 1 for any passive model at every point
    with xi, k >= 0 not both zero: the Lifshitz integrand's coefficients
    (``_reflection_by_owner``) on one owner, in the unit of length 1/kappa0.
    There u = 1 and v = t = xi / (c kappa0), so nothing overflows or
    underflows.  At k = 0 (t = 1) they are the normal-incidence Fresnel
    pair; at xi = 0 a Drude metal reflects as (0, +1) and a plasma keeps a
    finite TE coefficient through kappa = sqrt(kappa0^2 + wp^2/c^2).
    """
    if not isinstance(point, QuadraturePoint):
        raise DomainError("point must be a QuadraturePoint")
    c_kappa0 = math.hypot(point.xi, C * point.k)
    if c_kappa0 == 0.0:
        raise DomainError("reflection is undefined at xi = k = 0")
    if c_kappa0 < math.inf:
        t = point.xi / c_kappa0
    else:  # c k beyond float range; kappa0 itself is finite
        t = point.xi / point.kappa0 / C
    rf = _reflection_by_owner(material, np.asarray(point.xi), c_kappa0, np.asarray(t))
    r_te, r_tm = rf(1.0, ())
    return ReflectionPair(float(r_te), float(r_tm))


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


def _xi_cutoff(cfg):
    """Outer truncation: the fixed cutoff, capped by the exact dead zone
    where the inner lower limit y0 already exceeds ``_Y_CUTOFF``."""
    scale = C / cfg.a
    resonance = max(cfg.material1.resonance_scale, cfg.material2.resonance_scale)
    configured = max(_XI_CUTOFF_FACTOR * scale, 1e3 * resonance)
    dead = _Y_CUTOFF * C / (2.0 * cfg.a)
    return min(configured, dead)


_INNER_BUDGET = 300
# Outer nodes whose inner integrals refine in one batched call.  Bounds
# the working set of a round (seed panels of every node, kept points)
# while leaving the per-call Python overhead negligible.
_BLOCK = 64


def _inner_integrals(cfg, xi, kind, rel_tol, budget):
    """Inner y-integrals at every outer node of the array ``xi``.

    Returns (values, errors), summed over polarizations.  Nodes whose
    lower limit y0 = 2 a xi / c reaches ``_Y_CUTOFF`` contribute exactly
    zero; the others refine together, ``_BLOCK`` nodes per
    ``integrate_panels`` call, each from the seed panels
    ``geometric_edges(y0, _Y_CUTOFF, 0.25)``.
    """
    y0 = 2.0 * cfg.a * xi / C
    vals = np.zeros(xi.shape)
    errs = np.zeros(xi.shape)
    live = np.flatnonzero(y0 < _Y_CUTOFF)
    # lengths in metres: u = kappa0 (1/m), v = xi / c
    xi_live = xi[live]
    v = xi_live / C
    rf1 = _reflection_by_owner(cfg.material1, xi_live, C, v)
    # one model on both sides (a table, say) is evaluated once
    rf2 = (rf1 if cfg.material2 is cfg.material1
           else _reflection_by_owner(cfg.material2, xi_live, C, v))
    for start in range(0, live.size, _BLOCK):
        idx = live[start:start + _BLOCK]
        vals[idx], errs[idx] = _inner_block(cfg, rf1, rf2, start, y0[idx], kind,
                                            rel_tol, budget)
    return vals, errs


def _inner_block(cfg, rf1, rf2, first, y0, kind, rel_tol, budget):
    """One batched call of ``_inner_integrals``, from live node ``first``."""
    two_a = 2.0 * cfg.a

    # a function of its own so that the four coefficient arrays are freed
    # before the kernel below makes its temporaries
    def products(kappa0, owner):
        r1te, r1tm = rf1(kappa0, owner)
        r2te, r2tm = (r1te, r1tm) if rf2 is rf1 else rf2(kappa0, owner)
        return r1te * r2te, r1tm * r2tm

    def g(y, owner):
        pte, ptm = products(y / two_a, owner + first)
        emy = np.exp(-y)
        if kind == "energy":
            return y * (_ln_one_minus(pte, emy, y) + _ln_one_minus(ptm, emy, y))
        return y * y * (pte * emy / _stable_q(pte, emy, y)
                        + ptm * emy / _stable_q(ptm, emy, y))

    lo, hi, owner = geometric_panels(y0, _Y_CUTOFF, 0.25)
    res = integrate_panels(g, lo, hi, owner, y0.size, rel_tol=rel_tol,
                           max_subdivisions=budget)
    return res.value, res.error


def _integrate_double(cfg, quad, kind):
    """Raw double integral (no physical prefactor) plus diagnostics."""
    a = cfg.a
    inner_tol = 0.1 * quad.rel_tol
    inner_budget = min(quad.max_subdivisions, _INNER_BUDGET)

    def outer(xi_arr):
        return _inner_integrals(cfg, xi_arr, kind, inner_tol, inner_budget)

    xi_max = _xi_cutoff(cfg)
    xi_edges = np.concatenate([[0.0],
                               geometric_edges(1e-4 * C / a, xi_max, 1e-4 * C / a)])
    res = integrate_adaptive(outer, xi_edges, rel_tol=quad.rel_tol,
                             abs_floor=_ABS_FLOOR / _prefactor(cfg, kind),
                             max_subdivisions=quad.max_subdivisions,
                             with_errors=True)
    weight = res.points * np.abs(res.values)
    dominant = float(res.points[np.argmax(weight)]) if np.any(weight > 0.0) else None
    return res, dominant


def _prefactor(cfg, kind):
    if kind == "energy":
        return HBAR / (16.0 * np.pi ** 2 * cfg.a ** 2)
    return HBAR / (16.0 * np.pi ** 2 * cfg.a ** 3)


def energy_per_area(cfg, quad=None):
    """Casimir energy per unit area of the gap configuration, J/m^2.

    Negative values bind the plates.  The error estimate satisfies
    ``error <= rel_tol*|value| + 1e-30 J/m^2`` on success; otherwise a
    ConvergenceError carrying the best estimate is raised.  The integral is
    truncated as ``QuadratureConfig`` describes.
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


def dominant_frequency(cfg):
    """Imaginary frequency dominating the energy integral, rad/s.

    Defined as the peak of the per-log-frequency contribution
    xi * |F(xi)| of the outer integrand F; located on a logarithmic scan
    and refined by a parabolic fit.  Raises DegenerateIntegrandError when
    the integrand vanishes everywhere (e.g. one side is vacuum).
    """
    a = cfg.a
    xi_max = _xi_cutoff(cfg)
    xi_lo = 1e-4 * C / a
    n = max(int(25 * np.log10(xi_max / xi_lo)), 50)
    grid = np.geomspace(xi_lo, xi_max, n)
    vals, _ = _inner_integrals(cfg, grid, "energy", 1e-6, _INNER_BUDGET)
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

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
vectorized adaptive Gauss-Kronrod panels.  The outer axis refines the
(gap, kind) integrals of any material pairs together, one owner each
(``integrate_gaps``), from a seed that follows the tolerance: 20
geometric panels in xi below rel_tol 1e-7, every other edge of them (10
panels) from there up.  Each round hands their xi nodes to the inner axis:
each model's eps and mu are evaluated once per distinct frequency of the
owners that use it, as arrays, and the inner integrals of each owner's
nodes refine in one ``integrate_panels`` call per owner per round, each
node to its own tolerance and budget.  Inner-integral error
estimates are propagated into the outer total in quadrature sum.
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
# integrate_adaptive stays bound here for the benchmark's tracer to patch
from .quadrature import (_EVAL_ROWS, geometric_edges, geometric_panels,
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
_Y_CUTOFF = 80.0           # inner cutoff of y = 2 kappa0 a


@dataclass(frozen=True)
class QuadratureConfig:
    """Accuracy knobs for the double quadrature.

    Each result converges to ``error <= rel_tol * |value| + 1e-30`` in its
    own unit (J/m^2 for energies, Pa for pressures).  max_subdivisions
    budgets the outer adaptive axis.  The inner integrals at the outer
    nodes refine together, but each keeps its own budget of
    min(max_subdivisions, 300) splits and its own tolerance, so one that
    exhausts its budget stops alone.  The outer axis starts from 20
    geometric panels in xi, [0, 1e-4 c/a, 2e-4 c/a, 4e-4 c/a, ...], or from
    every other edge of them (10 panels) when rel_tol >= 1e-7: a loose
    tolerance then takes half the inner integrals, and refinement splits
    the panels it needs.  The truncation is fixed: the inner axis ends at
    y = 80, so the outer axis ends where y0 = 2 a xi / c reaches 80, at
    xi = 40 c/a.
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

    dominant_xi is the outer node, of those the quadrature sampled, where
    the per-log-frequency contribution xi*|F(xi)| peaks (None when the
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

def _reflection_by_owner(material, xi, c_unit, v, s=None):
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

    ``s``, given by ``reflection`` only, where u = 1, is each owner's
    in-plane part c k / (c kappa0) = sqrt(1 - v^2).  Then kappa lambda =
    sqrt(s^2 + eps mu v^2), which keeps the 1 - v^2 that cancels as v -> 1
    where eps mu << 1.
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
        return _reflection_at_limits(material, xi, c_unit, v, e, m, s)
    w = (e * m - 1.0) * (v * v)
    # (kappa lambda)^2 at u = 1, without the cancelling 1 - v^2
    k2 = None if s is None else s * s + e * m * (v * v)

    def rf(u, owner):
        kappa = np.sqrt(np.maximum(u * u + w[owner], 0.0) if k2 is None else k2[owner])
        mu_u = m[owner] * u
        eps_u = e[owner] * u
        return (mu_u - kappa) / (mu_u + kappa), (eps_u - kappa) / (eps_u + kappa)

    return rf


def _ratio_reflection(x, q):
    """(x - q) / (x + q) for finite x > 0 and q >= 0 or inf, never forming x + q."""
    rho = np.minimum(x, q) / np.maximum(x, q)
    return np.where(x >= q, 1.0, -1.0) * (1.0 - rho) / (1.0 + rho)


def _reflection_at_limits(material, xi, c_unit, v, e, m, s=None):
    """``_reflection_by_owner`` for owners with an infinite eps, mu or eps mu.

    Works with q = kappa / kappa0 = hypot(sqrt(1 - t^2), sqrt(eps mu) t),
    t = v / u, so that no product overflows; a given ``s`` is sqrt(1 - t^2).
    An infinite mu reflects TE as +1 and an infinite eps TM as +1.  Where
    eps is infinite, its finite weight enters instead: eps t^2 is
    w / u^2 + t^2 with w = xi^2 (eps - 1) / c_unit^2 from
    ``xi2_susceptibility``.  Where mu is infinite, so is q.  An infinite q
    reflects as -1.
    """
    e_inf = np.isinf(e)
    m_inf = np.isinf(m)
    e_fin = np.where(e_inf, 1.0, e)
    m_fin = np.where(m_inf, 1.0, m)
    w = np.zeros(e.shape)
    if e_inf.any():
        with np.errstate(over="ignore"):  # beyond float range: q = inf
            w = w + material.xi2_susceptibility(xi) / c_unit / c_unit

    def rf(u, owner):
        t = v[owner] / u
        root = np.sqrt(np.maximum(1.0 - t * t, 0.0)) if s is None else s[owner]
        with np.errstate(over="ignore"):  # beyond float range: q = inf
            eps_t2 = np.where(e_inf[owner], w[owner] / u / u + t * t,
                              e_fin[owner] * t * t)
            q = np.hypot(root, np.sqrt(m_fin[owner]) * np.sqrt(eps_t2))
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
    underflows, and 1 - t^2 enters as s^2, s = c k / (c kappa0), so it
    does not cancel near t = 1.  At k = 0 (t = 1) they are the
    normal-incidence Fresnel pair; at xi = 0 a Drude metal reflects as
    (0, +1) and a plasma keeps a finite TE coefficient through
    kappa = sqrt(kappa0^2 + wp^2/c^2).
    """
    if not isinstance(point, QuadraturePoint):
        raise DomainError("point must be a QuadraturePoint")
    c_kappa0 = math.hypot(point.xi, C * point.k)
    if c_kappa0 == 0.0:
        raise DomainError("reflection is undefined at xi = k = 0")
    if c_kappa0 < math.inf:
        t, s = point.xi / c_kappa0, C * point.k / c_kappa0
    else:  # c k beyond float range; kappa0 itself is finite
        t, s = point.xi / point.kappa0 / C, point.k / point.kappa0
    rf = _reflection_by_owner(material, np.asarray(point.xi), c_kappa0, np.asarray(t),
                              np.asarray(s))
    r_te, r_tm = rf(1.0, ())
    return ReflectionPair(float(r_te), float(r_tm))


# ---------------------------------------------------------------------------
# Integrand kernels
# ---------------------------------------------------------------------------

def _stable_q(p, emy, omy):
    """1 - p e^{-y} = omy + (1-p) e^{-y}, exact to rounding for p <= 1; omy = -expm1(-y)."""
    return omy + (1.0 - p) * emy


def _ln_one_minus(p, emy, omy):
    """ln(1 - p e^{-y}): log1p where |p e^{-y}| < 0.5, and the log of the
    stable q, computed only there, elsewhere."""
    x = p * emy
    out = np.log1p(-x)
    far = np.abs(x) >= 0.5
    if far.any():
        out[far] = np.log(_stable_q(p[far] if np.ndim(p) else p, emy[far], omy[far]))
    return out


def _xi_cutoff(cfg):
    """Outer truncation: beyond it the inner lower limit y0 = 2 a xi / c
    exceeds ``_Y_CUTOFF`` and the integrand is exactly zero."""
    return _Y_CUTOFF * C / (2.0 * cfg.a)


_INNER_BUDGET = 300
# Outer seed panels per owner below rel_tol 1e-7: [0, 1e-4 c/a] and the
# geometric panels from there to the cutoff, the same 20 at every gap (in
# the unit c/a).  From rel_tol 1e-7 up the seed keeps every other edge,
# [0, 2e-4, 8e-4, 3.2e-3, ..., 40] c/a: 10 panels, which refinement splits
# where the tolerance asks for it (``_outer_edges``).
_OUTER_SEED_PANELS = geometric_edges(1e-4, 0.5 * _Y_CUTOFF, 1e-4).size
_COARSE_SEED_TOL = 1e-7
# Configurations per batched outer call (28): as many as one integrand call
# of ``_EVAL_ROWS`` panels seeds at the finer seed, so that each owner's
# seed round takes one inner quadrature at any tolerance.  It also bounds
# the working set of a round.
_CONFIGS = _EVAL_ROWS // _OUTER_SEED_PANELS


def _inner_integrals(cfgs, kinds, rel_tol, budget):
    """Inner y-integrals of the owners ``cfgs``, of kinds ``kinds``, as a
    function of outer nodes ``x`` and their owners (broadcast against
    ``x``); it returns (values, errors) shaped like ``x``, summed over
    polarizations.  Each distinct model (by identity) is evaluated once per
    distinct frequency of the nodes of the owners that use it.  Nodes whose
    lower limit y0 = 2 a xi / c reaches ``_Y_CUTOFF`` give exactly zero;
    the others refine from the seed panels ``geometric_edges(y0,
    _Y_CUTOFF, 0.25)`` to ``rel_tol`` within ``budget`` splits, the nodes of
    one owner per ``integrate_panels`` call.
    """
    two_a = 2.0 * np.array([cfg.a for cfg in cfgs])
    sides = [(id(cfg.material1), id(cfg.material2)) for cfg in cfgs]
    models = {id(m): m for cfg in cfgs for m in (cfg.material1, cfg.material2)}
    uses = {key: np.array([key in pair for pair in sides]) for key in models}

    def integrals(x, owners):
        xi = x.reshape(-1)
        own = np.broadcast_to(owners, x.shape).reshape(-1)
        y0 = two_a[own] * xi / C
        vals = np.zeros(xi.shape)
        errs = np.zeros(xi.shape)
        live = np.flatnonzero(y0 < _Y_CUTOFF)
        # models used by the same owners share one map from node to frequency
        maps, rfs, nodes = {}, {}, {}
        for key, model in models.items():
            group = uses[key].tobytes()
            if group not in maps:
                used = live[uses[key][own[live]]]
                node = np.empty(xi.size, dtype=np.intp)
                distinct, node[used] = np.unique(xi[used], return_inverse=True)
                maps[group] = node, distinct
            nodes[key], distinct = maps[group]
            # lengths in metres: u = kappa0 (1/m), v = xi / c
            rfs[key] = _reflection_by_owner(model, distinct, C, distinct / C)
        for k, ((i, j), kind) in enumerate(zip(sides, kinds)):
            idx = live[own[live] == k]
            if idx.size:
                vals[idx], errs[idx] = _inner_block(
                    two_a[k], kind, rfs[i], rfs[j], nodes[i][idx], nodes[j][idx],
                    y0[idx], rel_tol, budget)
        return vals.reshape(x.shape), errs.reshape(x.shape)

    return integrals


def _inner_block(two_a, kind, rf1, rf2, node1, node2, y0, rel_tol, budget):
    """One owner's inner integrals; ``node1``/``node2`` index ``rf1``/``rf2``."""

    # a function of its own so that the four coefficient arrays are freed
    # before the kernel below makes its temporaries
    def products(kappa0, owner):
        r1te, r1tm = rf1(kappa0, node1[owner])
        r2te, r2tm = (r1te, r1tm) if rf2 is rf1 else rf2(kappa0, node2[owner])
        return r1te * r2te, r1tm * r2tm

    def term(p, emy, omy):
        if kind == "energy":
            return _ln_one_minus(p, emy, omy)
        return p * emy / _stable_q(p, emy, omy)

    def g(y, owner):
        pte, ptm = products(y / two_a, owner)
        emy = np.exp(-y)
        omy = -np.expm1(-y)
        t_te = term(pte, emy, omy)
        # the ideal mirrors give both polarizations one float product
        t_tm = t_te if isinstance(pte, float) and pte == ptm else term(ptm, emy, omy)
        return y * (t_te + t_tm) if kind == "energy" else y * y * (t_te + t_tm)

    lo, hi, owner = geometric_panels(y0, _Y_CUTOFF, 0.25)
    res = integrate_panels(g, lo, hi, owner, y0.size, rel_tol=rel_tol,
                           max_subdivisions=budget)
    return res.value, res.error


def _outer_edges(cfg, rel_tol):
    """Seed edges of one owner's outer axis, as ``_OUTER_SEED_PANELS`` says."""
    s = 1e-4 * C / cfg.a
    edges = np.concatenate([[0.0], geometric_edges(s, _xi_cutoff(cfg), s)])
    return np.append(edges[:-1:2], edges[-1]) if rel_tol >= _COARSE_SEED_TOL else edges


def _integrate_batch(items, quad):
    """One batch of ``_outcomes``: up to ``_CONFIGS`` items, one outer owner each."""
    cfgs, kinds = zip(*items)
    edges = [_outer_edges(cfg, quad.rel_tol) for cfg in cfgs]
    prefs = np.array([HBAR / (16.0 * np.pi ** 2 * c.a ** (2 if k == "energy" else 3))
                      for c, k in items])
    inner = _inner_integrals(cfgs, kinds, 0.1 * quad.rel_tol,
                             min(quad.max_subdivisions, _INNER_BUDGET))
    # each owner's largest xi |F(xi)| so far and the first node reaching it
    peak = np.zeros(len(items))
    peak_xi = np.zeros(len(items))

    def outer(x, owners):
        vals, errs = inner(x, owners)
        xi = x.reshape(-1)
        own = np.broadcast_to(owners, x.shape).reshape(-1)
        weight = xi * np.abs(vals.reshape(-1))
        top = np.zeros(len(items))
        np.maximum.at(top, own, weight)
        hits = np.flatnonzero(weight == top[own])
        k, first = np.unique(own[hits], return_index=True)
        rise = top[k] > peak[k]
        peak[k[rise]] = top[k[rise]]
        peak_xi[k[rise]] = xi[hits[first[rise]]]
        return vals, errs

    res = integrate_panels(outer, np.concatenate([e[:-1] for e in edges]),
                           np.concatenate([e[1:] for e in edges]),
                           np.repeat(range(len(edges)), [e.size - 1 for e in edges]),
                           len(items), quad.rel_tol, _ABS_FLOOR / prefs,
                           quad.max_subdivisions, with_errors=True)
    for k, kind in enumerate(kinds):
        dominant = float(peak_xi[k]) if peak[k] > 0.0 else None
        pref = prefs[k] if kind == "energy" else -prefs[k]
        result = (EnergyResult if kind == "energy" else PressureResult)(
            float(pref * res.value[k]), float(prefs[k] * res.error[k]), dominant)
        yield result if res.converged[k] else ConvergenceError(
            f"{kind} quadrature did not converge within "
            f"{quad.max_subdivisions} subdivisions", best=result)


def _outcomes(items, quad):
    """Each item's result, or its ConvergenceError unraised, batch by batch."""
    for start in range(0, len(items), _CONFIGS):
        yield from _integrate_batch(items[start:start + _CONFIGS], quad)


def integrate_gaps(items, quad=None):
    """Energy or pressure of each (GapConfig, kind "energy" or "pressure")
    item, in order, as owners of one outer ``integrate_panels`` call per
    ``_CONFIGS`` items, whatever their material pairs.  Each result has
    the bits of its single-item call.  The first item that does not
    converge raises its ConvergenceError.
    """
    results = []
    for result in _outcomes(items, quad or QuadratureConfig()):
        if isinstance(result, ConvergenceError):
            raise result
        results.append(result)
    return results


def energy_per_area(cfg, quad=None):
    """Casimir energy per unit area of the gap configuration, J/m^2.

    Negative values bind the plates.  The error estimate satisfies
    ``error <= rel_tol*|value| + 1e-30 J/m^2`` on success; otherwise a
    ConvergenceError carrying the best estimate is raised.  The integral is
    truncated as ``QuadratureConfig`` describes.
    """
    return integrate_gaps([(cfg, "energy")], quad)[0]


def pressure(cfg, quad=None):
    """Casimir pressure on the plates, Pa; negative = attraction."""
    return integrate_gaps([(cfg, "pressure")], quad)[0]


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
    vals, _ = _inner_integrals([cfg], ["energy"], 1e-6, _INNER_BUDGET)(grid, 0)
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

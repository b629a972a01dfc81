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
vectorized adaptive Gauss-Kronrod panels.  The inner integrand works in
place, skips the mu u product where a model's mu is 1 at every node, and
forms the pressure's r1 r2 e^{-y} / (1 - r1 r2 e^{-y}) as
r1 r2 / (expm1(y) + 1 - r1 r2), within 1 ulp.  The outer axis runs in y0
(dxi = c / (2a) dy0), so its nodes are the same at every gap, and refines
the (gap, kind) integrals of any material pairs together, one owner each
(``integrate_gaps``), from a seed that follows the tolerance: 10 geometric
panels in y0 from rel_tol 1e-7 up, 15 below it, where the panels that hold
a metal's integral are halved.  Each round hands its y0 nodes to the inner
axis: each model's eps and mu are evaluated once per distinct frequency
xi = y0 c / (2a) of the owners that use it, as arrays.  Owners whose nodes
are the same at one gap (an attraction check's pairings, a sweep's energy
and pressure) share one seed round of geometric panels in y, graded toward
y0 at any tolerance, and its reflection calls; then each owner's nodes
refine in one ``integrate_panels`` call per round, each node to its own
tolerance and budget.  A seed round's panels, Kronrod points and kernel
factors in y depend on its y0 nodes alone, so three grids are built once
per process, at first use, and shared read-only: the coarse and fine outer
seeds' (``_seed``) and the dispersive ``dominant_frequency`` scan's
(``_scan_grid``), 1.0, 1.5 and 0.9 MB with both kinds' factors.
Refinement rounds build theirs afresh.  Inner-integral error estimates are
propagated into the outer total in quadrature sum.

Pairs of frequency-independent media (``PerfectConductor``,
``InfinitelyPermeable`` and ``ConstantEpsMu``) skip that double quadrature.
Their coefficients depend on t = xi / (c kappa0) = y0 / y alone, so the
y-integral at fixed t is a polylogarithm and

    E(a) = -hbar c J / (16 pi^2 a^3),  P(a) = 3 E(a) / a,
    J = \int_0^1 dt sum_p Li4(r1_p r2_p(t)),

with J a function of the pair alone.  It is solved once per unordered pair
(by type and parameters) and QuadratureConfig, and so are the index of the
seed node that is ``dominant_xi``, from the inner integrals of every node
on the seed's kept grid, and ``dominant_frequency`` in the unit c/a, on a
scan grid built for the solve and freed after it (``_peak_weights``); each
gap rescales them and checks its own tolerance.

A side that reflects nothing, the vacuum among them, makes either path's
integrand an exact zero: an exact, converged 0.0 with no ``dominant_xi``.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from math import factorial
from typing import NamedTuple, Optional

import numpy as np

from .constants import C, HBAR
from .errors import (ContinuumModelWarning, ConvergenceError,
                     DegenerateIntegrandError, DomainError)
from .materials import (ConstantEpsMu, InfinitelyPermeable, MaterialResponse,
                        PerfectConductor)
# integrate_adaptive stays bound here for the benchmark's tracer to patch
from .quadrature import (_EVAL_ROWS, geometric_panels, integrate_adaptive,
                         integrate_panels, kronrod_nodes, panel_sums)


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


# Widest gap, m.  There the ideal mirrors' pressure is ~1e-267 Pa; it leaves
# the normal floats from ~1e70 m, and the prefactors' a^3 overflow from
# ~1e103 m.
_MAX_GAP = 1e60
# Narrowest gap, m.  Below ~3e-23 m a Drude pair's pressure is an exact -0.0,
# the ideal mirrors' overflows to -inf by 1e-100 m, and the prefactors' a^3
# underflow to 0 by 1e-150 m; down to here a^3 P holds to 5 digits.
_MIN_GAP = 1e-18


@dataclass(frozen=True)
class GapConfig:
    """Two material half-spaces separated by a vacuum gap of width a (m),
    1e-18 <= a <= 1e60, kept as a Python float."""

    a: float
    material1: MaterialResponse
    material2: MaterialResponse

    def __post_init__(self):
        if not isinstance(self.material1, MaterialResponse) or \
           not isinstance(self.material2, MaterialResponse):
            raise DomainError("material1/material2 must be MaterialResponse instances")
        if not np.isfinite(self.a) or self.a <= 0.0:
            raise DomainError("gap must be finite and positive")
        object.__setattr__(self, "a", float(self.a))
        if self.a > _MAX_GAP:
            raise DomainError(f"gap must be at most {_MAX_GAP:g} m, got {self.a!r}")
        if self.a < _MIN_GAP:
            raise DomainError(f"gap must be at least {_MIN_GAP:g} m, got {self.a!r}")
        if self.a < 1e-9:
            warnings.warn("separation below 1 nm: continuum material response "
                          "is questionable at this scale", ContinuumModelWarning,
                          stacklevel=3)  # past the dataclass's __init__

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
    own unit (J/m^2 for energies, Pa for pressures).  max_subdivisions, an
    integer >= 1, budgets the outer adaptive axis.  The inner integrals at
    the outer nodes refine together, but each keeps its own budget of
    min(max_subdivisions, 300) splits and its own tolerance, so one that
    exhausts its budget stops alone; each starts from geometric panels in y,
    the first 4 y0 wide within [1e-5, 0.25] at any tolerance.  The outer
    axis runs in y0 = 2 a xi / c and starts from 10 geometric panels,
    [0, 4e-4, 1.6e-3, 6.4e-3, ..., 26.2144, 80] at every gap, when
    rel_tol >= 1e-7, and refinement splits the panels it needs; below that,
    from 15: the same with [0, 4e-4] and the four panels from 0.1024 to
    26.2144 halved.  Each outer seed's inner seed grid is built once per
    process and shared by every gap.  The truncation is fixed: the inner
    axis ends at y = 80, and the outer axis where y0 reaches 80, at
    xi = 40 c/a.  A pair of frequency-independent media takes one adaptive
    axis instead, t = xi / (c kappa0) in [0, 1], from 4 panels, to the same
    tolerance within the same max_subdivisions.
    """

    rel_tol: float = 1e-8
    max_subdivisions: int = 4000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError("rel_tol must lie in (0, 1)")
        m = self.max_subdivisions
        if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
            raise DomainError("max_subdivisions must be an integer >= 1")


@dataclass(frozen=True)
class EnergyResult:
    """Signed Casimir energy per unit area.

    dominant_xi is the outer node, of those the quadrature sampled, where
    the per-log-frequency contribution xi*|F(xi)| peaks (None when the
    integrand vanishes identically); 2 pi c / dominant_xi is the
    wavelength doing most of the work, of order the separation.  For a
    pair of frequency-independent media, which is integrated over t, it is
    the node of the outer seed where xi*|F(xi)| peaks, F being the 2-D
    engine's inner integral at every seed node (``_peak_weights``), the 2-D
    engine's own answer whenever it converges on its seed; its index in the
    seed is found once per pair, kind and seed, and holds at every gap.
    """

    value: float          # J/m^2, negative = attraction
    error_estimate: float  # J/m^2
    dominant_xi: Optional[float] = None  # rad/s


@dataclass(frozen=True)
class PressureResult:
    """Signed Casimir pressure; negative pulls the plates together.

    dominant_xi is defined, and found for frequency-independent media, as
    for ``EnergyResult``, with F the pressure's outer integrand.
    """

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
    inf.  Infinite values, the ideal mirrors' among them, and an eps mu v^2
    beyond float range go through ``_reflection_at_limits``.  Either way the
    coefficients are arrays shaped like the points.

    ``s``, given where u = 1 (``reflection`` and the constant-media
    t-integral), is each owner's in-plane part c k / (c kappa0) =
    sqrt(1 - v^2).  Then q = kappa / kappa0 = sqrt(s^2 + eps mu v^2), which
    keeps the 1 - v^2 that cancels as v -> 1 where eps mu << 1.  Where x
    and q both lie near 1, x - q is formed as (x - 1) - (q - 1) with
    q - 1 = (eps mu - 1) v^2 / (q + 1), which does not cancel as q -> 1
    (k >> xi / c) and is exactly 0 for the vacuum.
    """
    e = np.asarray(material.eps(xi), dtype=float)
    m = np.asarray(material.mu(xi), dtype=float)
    # an upper bound of eps mu v^2 in Python floats, which overflow to inf
    # without a warning
    v_max = max(float(v.max(initial=0.0)), 1.0)
    if float(e.max(initial=0.0)) * float(m.max(initial=0.0)) * v_max * v_max == math.inf:
        return _reflection_at_limits(material, xi, c_unit, v, e, m, s)
    w = (e * m - 1.0) * (v * v)
    if s is not None:
        q = np.sqrt(s * s + e * m * (v * v))
        q_minus_1 = w / (q + 1.0)
        q_near = np.abs(q_minus_1) <= 0.5

        def ratio(x):
            x_minus_1 = x - 1.0
            return np.where(q_near & (np.abs(x_minus_1) <= 0.5), x_minus_1 - q_minus_1,
                            x - q) / (x + q)

        r = ratio(m), ratio(e)
        return lambda u, owner: (r[0][owner], r[1][owner])

    unit_mu = bool((m == 1.0).all())  # every model but DebyeMagnetic

    def rf(u, owner):
        # in place on arrays of its own: the caller may overwrite them
        kappa = u * u
        kappa += w[owner]
        np.sqrt(np.maximum(kappa, 0.0, out=kappa), out=kappa)
        eps_u = e[owner] * u
        r_tm = eps_u - kappa
        eps_u += kappa
        r_tm /= eps_u
        mu_u = u if unit_mu else m[owner] * u
        r_te = mu_u - kappa
        kappa += mu_u
        r_te /= kappa
        return r_te, r_tm

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
    eps is infinite, its weight enters instead: eps t^2 is
    w / u^2 + t^2 with w = xi^2 (eps - 1) / c_unit^2 from
    ``xi2_susceptibility``.  Where mu or that weight is infinite, so is q,
    even where c_unit is: the infinitely permeable plate reflects as
    (+1, -1) and the perfect conductor as (-1, +1).  An infinite q reflects
    as -1.  Where q is infinite at every owner, each owner's pair is formed
    once here and copied to the points, since the inner integrand asks for
    it at every node.
    """
    e_inf = np.isinf(e)
    m_inf = np.isinf(m)
    e_fin = np.where(e_inf, 1.0, e)
    m_fin = np.where(m_inf, 1.0, m)
    q_inf = m_inf
    w = np.zeros(e.shape)
    if e_inf.any():
        with np.errstate(over="ignore"):  # beyond float range: q = inf
            weight = material.xi2_susceptibility(xi)
            q_inf = m_inf | (e_inf & np.isinf(weight))
            w = np.where(q_inf, 0.0, weight) / c_unit / c_unit
    if q_inf.all():  # the ideal mirrors: each owner's pair at any u
        r = np.where(m_inf, 1.0, -1.0), np.where(e_inf, 1.0, -1.0)

        def rf_ideal(u, owner):
            r_te, r_tm = r[0][owner], r[1][owner]
            out = np.empty((2,) + np.broadcast(u, r_te).shape)
            out[0], out[1] = r_te, r_tm
            return out[0], out[1]

        return rf_ideal

    def rf(u, owner):
        t = v[owner] / u
        root = np.sqrt(np.maximum(1.0 - t * t, 0.0)) if s is None else s[owner]
        with np.errstate(over="ignore"):  # beyond float range: q = inf
            eps_t2 = np.where(e_inf[owner], w[owner] / u / u + t * t,
                              e_fin[owner] * t * t)
            q = np.hypot(root, np.sqrt(m_fin[owner]) * np.sqrt(eps_t2))
        q = np.where(q_inf[owner], np.inf, q)
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

def _ln_one_minus(p, emy, omy):
    """ln(1 - p e^{-y}): log1p where |p e^{-y}| < 0.5, elsewhere the log of
    1 - p e^{-y} = omy + (1-p) e^{-y}, exact to rounding for p <= 1 and
    formed only there; emy = e^{-y}, omy = -expm1(-y)."""
    x = p * emy
    out = np.log1p(-x)
    far = np.abs(x) >= 0.5
    if far.any():
        out[far] = np.log(omy[far] + (1.0 - p[far]) * emy[far])
    return out


def _occupation(p, em1):
    """p e^{-y} / (1 - p e^{-y}) = p / (expm1(y) + (1 - p)), written over p;
    em1 = expm1(y).  Within 1 ulp for y > 0 and |p| <= 1."""
    q = 1.0 - p
    q += em1
    p /= q
    return p


def _xi_per_y0(a):
    """c / (2a): the frequency xi, in rad/s, of the outer node y0 = 1 at the gap a."""
    return C / (2.0 * a)


_INNER_BUDGET = 300
# Outer seed edges in y0 = 2 a xi / c, the same at every gap: 0, 2e-4 2^k for
# these k, and the cutoff 80.  From rel_tol 1e-7 up the odd k alone make 10
# panels, [0, 4e-4, 1.6e-3, ..., 26.2144, 80], split where the tolerance
# asks; below it k = 0 and 10, 12, 14, 16 halve the first, where a conductor
# is not analytic in xi, and the four from 0.1024 to 26.2144, which hold ~97 %
# of a metal's integral: 15 panels.
_SEED_EXPONENTS = np.r_[0, 1:9:2, 9:18]
_SEED_POWERS = 2.0 ** _SEED_EXPONENTS
_OUTER_SEED_PANELS = _SEED_POWERS.size + 1
_COARSE_SEED_TOL = 1e-7
# Configurations per batched outer call (38): as many as one integrand call
# of ``_EVAL_ROWS`` panels seeds at the finer seed, so that each owner's
# seed round takes one inner quadrature at any tolerance.  It also bounds
# the working set of a round.
_CONFIGS = _EVAL_ROWS // _OUTER_SEED_PANELS


def _read_only(*arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _kernel_factors(kind, y):
    """A kernel's factors at the points y: e^{-y}, -expm1(-y) and y for the
    energy, expm1(y) and y^2 for the pressure, each formed in place."""
    if kind != "energy":
        return np.expm1(y), np.multiply(y, y)
    emy, omy = np.negative(y), np.negative(y)
    np.exp(emy, out=emy)
    np.expm1(omy, out=omy)
    return emy, np.negative(omy, out=omy), y


class _InnerGrid:
    """The inner seed round's points for the outer nodes ``y0``: the seed
    panels ``geometric_panels(y0, _Y_CUTOFF, w)`` with their Kronrod points
    ``y`` and half-widths, and each kind's ``_kernel_factors`` there, formed
    at the kind's first use.  w = clip(4 y0, 1e-5, 0.25) at any tolerance:
    where y0 << 1 and r1 r2 -> 1 the integrand goes as y ln y, which a first
    panel graded toward y0 resolves at once.  A node at or beyond the cutoff
    has no panel.  Every array is read-only, so that the calls that read a
    kept grid (``_seed``, ``_scan_grid``) share it."""

    def __init__(self, y0):
        width = np.clip(4.0 * y0, 1e-5, 0.25)
        self.lo, self.hi, self.owner = geometric_panels(y0, _Y_CUTOFF, width)
        self.y, self.half = kronrod_nodes(self.lo, self.hi)
        self.y0 = np.array(y0)
        _read_only(self.y0, self.lo, self.hi, self.owner, self.y, self.half)
        self._factors = {}

    def factors(self, kind):
        if kind not in self._factors:
            self._factors[kind] = _read_only(*_kernel_factors(kind, self.y))
        return self._factors[kind]


@functools.cache
def _seed(coarse):
    """The outer seed's edges in y0, as ``_SEED_EXPONENTS`` says: 0, 2e-4 2^k,
    exact in floating point, and the cutoff; and the ``_InnerGrid`` of their
    Kronrod nodes, the outer integrand's first round at every gap.  Built at
    first use, kept for the process."""
    powers = _SEED_POWERS[_SEED_EXPONENTS % 2 == 1] if coarse else _SEED_POWERS
    edges = np.concatenate([[0.0], 2e-4 * powers, [_Y_CUTOFF]])
    nodes = kronrod_nodes(edges[:-1], edges[1:])[0].reshape(-1)
    return _read_only(edges)[0], _InnerGrid(nodes)


@functools.cache
def _scan_grid():
    """The dispersive ``dominant_frequency`` scan's ``_InnerGrid``, kept for the process."""
    return _InnerGrid(2.0 * _SCAN)


def _inner_integrals(cfgs, kinds, rel_tol, budget, grid):
    """Inner y-integrals of the owners ``cfgs``, of kinds ``kinds``, as a
    function of outer nodes ``x``, values of y0 = 2 a xi / c, and their
    owners (broadcast against ``x``); it returns (values, errors) shaped like
    ``x``, summed over polarizations.  Each distinct model (by identity) is
    evaluated once per distinct frequency xi = y0 c / (2a) of the nodes of
    the owners that use it.  The integrals refine to ``rel_tol`` within
    ``budget`` splits, with one seed round per group of owners at one gap:
    those whose nodes are the same at one 2a.  A group whose nodes are those
    of the seed ``grid`` reads it; any other builds its own.  Nodes at or
    beyond ``_Y_CUTOFF`` give exactly zero.
    """
    two_a = 2.0 * np.array([cfg.a for cfg in cfgs])
    xi_per_y0 = np.array([_xi_per_y0(cfg.a) for cfg in cfgs])
    seed_nodes = grid.y0.tobytes()
    sides = [(id(cfg.material1), id(cfg.material2)) for cfg in cfgs]
    models = {id(m): m for cfg in cfgs for m in (cfg.material1, cfg.material2)}
    uses = {key: np.array([key in pair for pair in sides]) for key in models}

    def integrals(x, owners):
        y0 = x.reshape(-1)
        own = np.broadcast_to(owners, x.shape).reshape(-1)
        xi = y0 * xi_per_y0[own]
        vals = np.zeros(y0.shape)
        errs = np.zeros(y0.shape)
        # models used by the same owners share one map from node to frequency
        maps, rfs, nodes = {}, {}, {}
        for key, model in models.items():
            group = uses[key].tobytes()
            if group not in maps:
                used = np.flatnonzero(uses[key][own])
                node = np.empty(xi.size, dtype=np.intp)
                distinct, node[used] = np.unique(xi[used], return_inverse=True)
                maps[group] = node, distinct
            nodes[key], distinct = maps[group]
            # lengths in metres: u = kappa0 (1/m), v = xi / c
            rfs[key] = _reflection_by_owner(model, distinct, C, distinct / C)
        groups = {}
        for k in range(len(cfgs)):
            idx = np.flatnonzero(own == k)
            if idx.size:
                groups.setdefault((two_a[k], y0[idx].tobytes()), []).append((k, idx))
        for (gap, group_nodes), group in groups.items():
            # each side's node map is filled at the nodes of the owners using it
            coeffs = {key: (rfs[key], nodes[key][idx]) for k, idx in group for key in sides[k]}
            own_grid = grid if group_nodes == seed_nodes else _InnerGrid(y0[group[0][1]])
            results = _inner_group(gap, [(kinds[k], sides[k]) for k, _ in group], coeffs,
                                   own_grid, rel_tol, budget)
            for (_, idx), (v, e) in zip(group, results):
                vals[idx], errs[idx] = v, e
        return vals.reshape(x.shape), errs.reshape(x.shape)

    return integrals


def _inner_group(two_a, members, coeffs, grid, rel_tol, budget, peak_floor=False):
    """Yields the inner integrals (values, errors) of ``members``, (kind,
    (key1, key2)) owners whose nodes are those of ``grid`` at one gap 2a,
    each key's closure and node index in ``coeffs``.  In the seed round
    each closure runs once per call, of ``_EVAL_ROWS`` panels over the
    models of a group, whose arrays outlive a product; then each refines.
    With ``peak_floor`` each node's absolute floor is rel_tol max_k(y0_k
    |F_k|) / y0, F being the seed round's sums: what a search for the node
    where y0 |F| peaks needs."""
    # the sides no later member reads, whose arrays a member may overwrite
    drops = [{key for key in pair if all(key not in p for _, p in members[k + 1:])}
             for k, (_, pair) in enumerate(members)]
    factors = {kind: grid.factors(kind) for kind, _ in members}
    seeds = np.zeros((len(members), 3, grid.half.size))
    step = _EVAL_ROWS // min(len(members), len(coeffs))
    for start in range(0, grid.half.size, step):
        rows = slice(start, start + step)
        held = _coefficients(grid.y[rows], grid.owner[rows, None], two_a, coeffs)
        for seed, (kind, pair), drop in zip(seeds, members, drops):
            seed[0, rows], seed[1, rows] = panel_sums(
                _member_terms(kind, pair, held, drop, [f[rows] for f in factors[kind]]),
                grid.half[rows])
    for (kind, pair), seed in zip(members, seeds):
        def g(y, own, kind=kind, pair=pair, mine={key: coeffs[key] for key in pair}):
            return _member_terms(kind, pair, _coefficients(y, own, two_a, mine), set(pair),
                                 _kernel_factors(kind, y))

        floor = 0.0
        if peak_floor:
            weight = grid.y0 * np.abs(np.bincount(grid.owner, seed[0], grid.y0.size))
            floor = rel_tol * weight.max() / grid.y0
        res = integrate_panels(g, grid.lo, grid.hi, grid.owner, grid.y0.size, rel_tol,
                               floor, budget, seed=seed)
        yield res.value, res.error


def _coefficients(y, owner, two_a, coeffs):
    """Each model's (r_te, r_tm) at the points ``y`` of the inner owners ``owner``."""
    kappa0 = y / two_a
    return {key: rf(kappa0, node[owner]) for key, (rf, node) in coeffs.items()}


def _member_terms(kind, pair, held, drop, factors):
    """One member's sum over polarizations of y ln(1 - p e^{-y}) or, with
    one expm1 per point, y^2 p / (expm1(y) + 1 - p), from its kind's
    ``_kernel_factors``.  p = r1 r2 overwrites a side in ``drop``, which
    leaves ``held``, so that a lone member works in place and lets the other
    side go before its kernel's temporaries."""
    r1, r2 = held[pair[0]], held[pair[1]]
    for key in drop:
        del held[key]
    if pair[0] not in drop:
        r1, r2 = r2, r1
    pte, ptm = r1 if drop else (r1[0].copy(), r1[1].copy())
    pte *= r2[0]
    ptm *= r2[1]
    del r1, r2
    if kind == "energy":
        emy, omy, y = factors
        terms = _ln_one_minus(pte, emy, omy)
        terms += _ln_one_minus(ptm, emy, omy)
        terms *= y
    else:
        em1, y2 = factors
        terms = _occupation(pte, em1)
        terms += _occupation(ptm, em1)
        terms *= y2
    return terms


def _integrate_batch(items, quad):
    """One batch of ``_outcomes``: up to ``_CONFIGS`` items, one outer owner
    each, every one integrated in y0 = 2 a xi / c from the same seed edges."""
    cfgs, kinds = zip(*items)
    n = len(items)
    edges, grid = _seed(quad.rel_tol >= _COARSE_SEED_TOL)
    units = np.array([_xi_per_y0(cfg.a) for cfg in cfgs])
    # dxi = c / (2a) dy0
    prefs = units * np.array([HBAR / (16.0 * np.pi ** 2 * c.a ** (2 if k == "energy" else 3))
                              for c, k in items])
    inner = _inner_integrals(cfgs, kinds, 0.1 * quad.rel_tol,
                             min(quad.max_subdivisions, _INNER_BUDGET), grid)
    # each owner's largest y0 |F(y0)| so far and the first node reaching it
    peak = np.zeros(n)
    peak_y0 = np.zeros(n)

    def outer(x, owners):
        vals, errs = inner(x, owners)
        y0 = x.reshape(-1)
        own = np.broadcast_to(owners, x.shape).reshape(-1)
        weight = y0 * np.abs(vals.reshape(-1))
        top = np.zeros(n)
        np.maximum.at(top, own, weight)
        hits = np.flatnonzero(weight == top[own])
        k, first = np.unique(own[hits], return_index=True)
        rise = top[k] > peak[k]
        peak[k[rise]] = top[k[rise]]
        peak_y0[k[rise]] = y0[hits[first[rise]]]
        return vals, errs

    res = integrate_panels(outer, np.tile(edges[:-1], n), np.tile(edges[1:], n),
                           np.repeat(np.arange(n), edges.size - 1), n, quad.rel_tol,
                           _ABS_FLOOR / prefs, quad.max_subdivisions, with_errors=True)
    for k, kind in enumerate(kinds):
        dominant = float(peak_y0[k] * units[k]) if peak[k] > 0.0 else None
        pref = prefs[k] if kind == "energy" else -prefs[k]
        # + 0.0 turns the -0.0 of a medium that reflects nothing into 0.0
        yield _outcome(kind, pref * res.value[k] + 0.0, prefs[k] * res.error[k], dominant,
                       res.converged[k], quad)


def _outcome(kind, value, error, dominant, converged, quad):
    """The result of one item, or its ConvergenceError carrying it."""
    result = (EnergyResult if kind == "energy" else PressureResult)(
        float(value), float(error), dominant)
    return result if converged else ConvergenceError(
        f"{kind} quadrature did not converge within "
        f"{quad.max_subdivisions} subdivisions", best=result)


# ---------------------------------------------------------------------------
# Frequency-independent media: the closed-form angular integral
# ---------------------------------------------------------------------------

# Media whose reflection coefficients depend on t = xi / (c kappa0) alone.
_CONSTANT_MEDIA = (PerfectConductor, InfinitelyPermeable, ConstantEpsMu)
_ZETA2 = 1.6449340668482264365
_ZETA3 = 1.2020569031595942854
_ZETA4 = 1.0823232337111381915
# 1 / k^4 for k = 40, 39, ..., 1: the power series of Li4 where |x| <= 1/2
_LI4_SERIES = 1.0 / np.arange(40.0, 0.0, -1.0) ** 4
# zeta(1 - 2m) = -B_2m / 2m for m = 1 .. 12, from the Bernoulli numbers B_2 .. B_24,
# and the coefficients of mu^(3 + 2m), highest m first, in the expansions of
# Li4(e^mu), zeta(1 - 2m) / (3 + 2m)!, and of -Li4(-e^mu), eta(1 - 2m) / (3 + 2m)!
# with eta(s) = (1 - 2^(1 - s)) zeta(s)
_M = np.arange(1, 13)
_ZETA_NEGATIVE = -np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6,
                            -3617 / 510, 43867 / 798, -174611 / 330, 854513 / 138,
                            -236364091 / 2730]) / (2 * _M)
_ODD_TERMS = _ZETA_NEGATIVE / np.array([float(factorial(k)) for k in 3 + 2 * _M])
_LI4_ABOVE_ODD = _ODD_TERMS[6::-1]
_LI4_BELOW_ODD = ((1.0 - 4.0 ** _M) * _ODD_TERMS)[::-1]
# Seed panels of the t-integral, and each node's rounding error relative to
# |Li4(r1 r2)| of each polarization: the 4 ulp ``_li4`` keeps to.  Summed in
# quadrature over the nodes it stays below the error the 2-D engine reaches
# on the ideal mirrors (3.7e-15 relative), so it puts no tolerance that
# engine meets out of reach.
_T_EDGES = np.linspace(0.0, 1.0, 5)
_LI4_ROUNDING = 4.0 * np.finfo(float).eps


def _li4_series(x):
    """Li4(x) = sum_k x^k / k^4 for |x| <= 1/2, the smallest terms first."""
    powers = np.cumprod(np.broadcast_to(x[:, None], (x.size, _LI4_SERIES.size)), axis=1)
    return np.einsum("ij,j->i", powers[:, ::-1], _LI4_SERIES)


def _odd_powers(mu, coefficients):
    """sum_m c_m mu^(3 + 2m) for the coefficients c ordered m = n, ..., 1."""
    mu2 = mu * mu
    powers = np.cumprod(np.broadcast_to(mu2[:, None], (mu.size, coefficients.size)), axis=1)
    return mu * mu2 * np.einsum("ij,j->i", powers[:, ::-1], coefficients)


def _li4_above(x):
    """Li4(x) for 1/2 < x <= 1, expanded in mu = ln x: zeta(4) + zeta(3) mu
    + zeta(2) mu^2 / 2 + (11/6 - ln(-mu)) mu^3 / 6 - mu^4 / 48
    + sum_{odd k >= 5} zeta(4 - k) mu^k / k!."""
    mu = np.log(x)
    with np.errstate(divide="ignore", invalid="ignore"):  # mu = 0 at x = 1
        cubic = np.where(mu < 0.0, mu ** 3 * (11.0 / 6.0 - np.log(-mu)) / 6.0, 0.0)
    tail = mu ** 4 * (-1.0 / 48.0) + _odd_powers(mu, _LI4_ABOVE_ODD)
    return _ZETA4 + (mu * (_ZETA3 + mu * (0.5 * _ZETA2)) + (tail + cubic))


def _li4_below(x):
    """Li4(x) for -1 <= x < -1/2: the duplication formula Li4(x) =
    Li4(x^2) / 8 - Li4(-x) applied term by term to the expansion in
    mu = ln(-x), where the logarithms of -mu cancel: -[eta(4) + eta(3) mu
    + eta(2) mu^2 / 2 + ln 2 mu^3 / 6 + mu^4 / 48
    + sum_{odd k >= 5} eta(4 - k) mu^k / k!]."""
    mu = np.log(-x)
    tail = mu ** 3 * (math.log(2.0) / 6.0) + mu ** 4 / 48.0 + _odd_powers(mu, _LI4_BELOW_ODD)
    return -(0.875 * _ZETA4 + (mu * (0.75 * _ZETA3 + mu * (0.25 * _ZETA2)) + tail))


def _li4(x):
    """The polylogarithm Li4 on [-1, 1], elementwise, to a few ulp."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    for part, li4 in ((np.abs(x) <= 0.5, _li4_series), (x > 0.5, _li4_above),
                      (x < -0.5, _li4_below)):
        if part.any():
            out[part] = li4(x[part])
    return out


def _angular_reflection(material, t):
    """``_reflection_by_owner`` of ``material`` at u = 1, v = t and
    s = sqrt(1 - t^2) with 1 - t kept exact: (r_te, r_tm) at the points t.
    These media do not depend on xi, which is passed as t in the unit c = 1."""
    return _reflection_by_owner(material, t, 1.0, t, np.sqrt((1.0 - t) * (1.0 + t)))(1.0, ())


def _angular_products(pairs, pair_of, t):
    """r1 r2 of each polarization at the rows of points ``t``, each row of
    the pair ``pairs[pair_of]``: an array of shape (2,) + t.shape."""
    r = np.empty((2,) + t.shape)
    for k in np.flatnonzero(np.bincount(pair_of)):
        at = pair_of == k
        m1, m2 = pairs[k]
        r1 = _angular_reflection(m1, t[at])
        r2 = r1 if m2 is m1 else _angular_reflection(m2, t[at])
        r[0][at], r[1][at] = r1[0] * r2[0], r1[1] * r2[1]
    return r


def _angular_batch(items, quad, peaks):
    """``_outcomes`` of frequency-independent items, each a rescaled J.

    With r depending on t = xi / (c kappa0) alone, the y-integral of each
    polarization is -2 Li4(r1 r2) for the energy and 6 Li4(r1 r2) for the
    pressure, so E = -hbar c J / (16 pi^2 a^3) and P = 3 E / a, with
    J = int_0^1 sum_p Li4(r1p r2p(t)) dt a function of the pair alone.  J
    is solved once per pair and QuadratureConfig (``_cached``) to the
    relative test alone, the pairs a batch misses as owners of one
    ``integrate_panels`` call over t.  Each node's Li4 values carry a
    rounding error, which the quadrature adds in quadrature sum.  Each item
    applies the contract of ``QuadratureConfig`` to its rescaled numbers.
    ``dominant_xi`` comes from ``_dominant_xi`` where ``peaks`` is true.
    """
    keys = [_pair_key(cfg) for cfg, _ in items]
    solved = {key: _SOLVED.get((key, quad)) for key in keys}
    misses = {key: (cfg.material1, cfg.material2)
              for key, (cfg, _) in zip(keys, items) if solved[key] is None}
    pairs = list(misses.values())

    def f(t, owners):
        li = _li4(_angular_products(pairs, owners[:, 0], t))  # (TE, TM)
        return li[0] + li[1], _LI4_ROUNDING * (np.abs(li[0]) + np.abs(li[1]))

    n = len(pairs)
    if n:
        res = integrate_panels(f, np.tile(_T_EDGES[:-1], n), np.tile(_T_EDGES[1:], n),
                               np.repeat(np.arange(n), _T_EDGES.size - 1), n, quad.rel_tol,
                               0.0, quad.max_subdivisions, with_errors=True)
        for key, answer in zip(misses, zip(res.value, res.error, res.converged)):
            solved[key] = _cached((key, quad), lambda: answer)
    for (cfg, kind), key in zip(items, keys):
        j, err, converged = solved[key]
        pref = HBAR * C / (16.0 * np.pi ** 2 * cfg.a ** 3) * (
            1.0 if kind == "energy" else 3.0 / cfg.a)
        # + 0.0 turns the -0.0 of a medium that reflects nothing into 0.0
        value, error = -pref * j + 0.0, pref * err
        peak = _dominant_xi(cfg, kind, key, quad.rel_tol) if peaks else None
        yield _outcome(kind, value, error, peak, converged or
                       error <= quad.rel_tol * abs(value) + _ABS_FLOOR, quad)


# Scale-free solves by key: J (pair, quad), seed peak (pair, kind, coarse
# seed), scan (pair,).  A full cache starts afresh; racing threads solve twice.
_SOLVED = {}
_SOLVED_ENTRIES = 4096


def _cached(key, solve):
    try:
        return _SOLVED[key]
    except KeyError:
        if len(_SOLVED) >= _SOLVED_ENTRIES:
            _SOLVED.clear()
        value = _SOLVED[key] = solve()
        return value


def _pair_key(cfg):
    """The unordered pair of media by exact type and parameters, not label."""
    return tuple(sorted((type(m).__name__, tuple(m.parameters.values()))
                        for m in (cfg.material1, cfg.material2)))


def _dominant_xi(cfg, kind, key, rel_tol):
    """The outer seed's node at the index where its ``_peak_weights`` peak,
    found once, the same at every gap, in rad/s at this gap as the 2-D engine
    reports it: y0 c / (2a).  The nodes are weighed on the seed's kept grid,
    the one the 2-D engine reads there."""
    coarse = rel_tol >= _COARSE_SEED_TOL
    grid = _seed(coarse)[1]

    def peak():
        weight = _peak_weights(kind, (cfg.material1, cfg.material2), grid, peak_floor=True)
        return int(np.argmax(weight)) if weight.max() > 0.0 else None

    index = _cached((key, kind, coarse), peak)
    return None if index is None else float(grid.y0[index] * _xi_per_y0(cfg.a))


def _peak_weights(kind, pair, grid, peak_floor=False):
    """y0 |F(y0)| at the nodes y0 (values of 2 a xi / c) of the
    ``_InnerGrid`` ``grid``, F being the inner integral of a
    frequency-independent pair; the peak is where xi |F| peaks at any gap.
    One ``_inner_group`` call (unit c = 2 a = 1, xi = y0, rel_tol 1e-10)
    on that grid weighs every node, each to 1e-10 of its own weight or,
    with ``peak_floor``, for a caller that reads only where they peak, of
    the largest: then a node where TE and TM cancel stops early.  Its
    y-axis refines where r varies as sqrt(1 - t) at t = 1 (eps mu << 1).
    """
    y0 = grid.y0
    each = np.arange(y0.size)
    coeffs = {id(m): (_reflection_by_owner(m, y0, 1.0, y0), each) for m in pair}
    [(vals, _)] = _inner_group(1.0, [(kind, tuple(map(id, pair)))], coeffs, grid, 1e-10,
                               _INNER_BUDGET, peak_floor)
    return y0 * np.abs(vals)


def _frequency_independent(cfg):
    return type(cfg.material1) in _CONSTANT_MEDIA and type(cfg.material2) in _CONSTANT_MEDIA


def _outcomes(items, quad, peaks=True):
    """Each item's result, or its ConvergenceError unraised, in order.  The
    frequency-independent items take the angular integral, all in one call;
    the rest, a vacuum side facing a dispersive medium among them, go to
    ``_integrate_batch``, ``_CONFIGS`` at a time.  With ``peaks`` false the frequency-independent
    items leave ``dominant_xi`` None, for callers that read the value alone."""
    constant = [_frequency_independent(cfg) for cfg, _ in items]
    closed = _angular_batch([it for it, c in zip(items, constant) if c], quad, peaks)
    dispersive = [it for it, c in zip(items, constant) if not c]
    batches = (r for start in range(0, len(dispersive), _CONFIGS)
               for r in _integrate_batch(dispersive[start:start + _CONFIGS], quad))
    for c in constant:
        yield next(closed if c else batches)


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


# The scan of ``dominant_frequency``: xi in the unit c/a, 25 nodes per
# decade from 1e-4 to the cutoff
_SCAN = np.geomspace(1e-4, 0.5 * _Y_CUTOFF, 140)


def dominant_frequency(cfg):
    """Imaginary frequency dominating the energy integral, rad/s.

    Defined as the peak of the per-log-frequency contribution
    xi * |F(xi)| of the outer integrand F; located on a logarithmic scan
    and refined by a parabolic fit.  Raises DegenerateIntegrandError when
    the integrand vanishes everywhere, as it does where a side reflects
    nothing.  A pair of constant media is scanned once, in the unit c/a, by
    ``_peak_weights``: every node takes its inner integral at rel_tol 1e-10.
    """
    unit = C / cfg.a
    if _frequency_independent(cfg):
        # y0 |F| on y0 = 2 xi, halved: xi |F| to the bit; on a fresh grid,
        # freed once ``_SOLVED`` holds the weights, not the kept ``_scan_grid()``
        weight = _cached((_pair_key(cfg),), lambda: 0.5 * _peak_weights(
            "energy", (cfg.material1, cfg.material2), _InnerGrid(2.0 * _SCAN)))
    else:
        grid = _scan_grid()
        vals, _ = _inner_integrals([cfg], ["energy"], 1e-6, _INNER_BUDGET, grid)(grid.y0, 0)
        weight = _SCAN * np.abs(vals)
    if not np.any(weight > 0.0):
        raise DegenerateIntegrandError("outer integrand vanishes everywhere; "
                                       "no dominant frequency exists")
    m = int(np.argmax(weight))
    shift = 0.0  # node steps from m to the parabolic vertex, in log xi
    if 0 < m < _SCAN.size - 1:
        s = weight[m - 1:m + 2]
        denom = s[0] - 2.0 * s[1] + s[2]
        shift = 0.5 * (s[0] - s[2]) / denom if denom < 0.0 else 0.0
    return float(unit * np.exp(math.log(_SCAN[m]) + shift * math.log(_SCAN[1] / _SCAN[0])))

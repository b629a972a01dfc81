"""Force-sign classification and the parameter sweeps behind it.

The non-dispersive constant-(eps, mu) sweeps reproduce the disputed
repulsion claims; they inherit the models' "unphysical: non-dispersive"
flag into every emitted row.  They take the engine's closed-form angular
integral, one adaptive axis in t = xi / (c kappa0), not its 2-D
quadrature.  The dispersive sweeps demonstrate that realistic
frequency-dependent response with mu ~ 1 yields attraction at every
tested separation.
"""

import csv
import io
import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

# pressure stays bound here for the benchmark's tracer to patch
from .engine import _CONSTANT_MEDIA, GapConfig, QuadratureConfig, _outcomes, pressure
from .errors import ConvergenceError, DomainError, InconclusiveConfigurationError
from .materials import ConstantEpsMu, DebyeMagnetic, MaterialResponse, _real_number


class Verdict(str, Enum):
    ATTRACTIVE = "Attractive"
    REPULSIVE = "Repulsive"
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class SignVerdict:
    """Sign of the force with the threshold that produced the call.

    Attractive iff pressure < -threshold, Repulsive iff pressure >
    +threshold, Indeterminate otherwise.
    """

    verdict: Verdict
    pressure: float   # Pa
    error: float      # Pa, quadrature error estimate
    threshold: float  # Pa


@dataclass(frozen=True)
class ImpedancePoint:
    """One corner of the constant-(eps, mu) grid; z = sqrt(mu/eps)."""

    eps1: float
    mu1: float
    eps2: float
    mu2: float

    def __post_init__(self):
        for name in ("eps1", "mu1", "eps2", "mu2"):
            v = _real_number(getattr(self, name), DomainError, name)
            if not np.isfinite(v) or v < 1.0:
                raise DomainError(f"{name} must be a finite constant >= 1")
            object.__setattr__(self, name, v)

    @property
    def z1(self):
        return float(np.sqrt(self.mu1 / self.eps1))

    @property
    def z2(self):
        return float(np.sqrt(self.mu2 / self.eps2))


@dataclass(frozen=True)
class SignMapRow:
    eps1: float
    mu1: float
    eps2: float
    mu2: float
    z1: float
    z2: float
    pressure: float
    error: float
    verdict: Verdict
    unphysical: str


@dataclass
class SignMap:
    """A classified grid plus the refined sign boundaries found on it."""

    rows: list
    a: float
    kind: str                      # "signmap" | "uvlmap"
    assumption: Optional[str] = None
    boundaries: list = field(default_factory=list)
    uvl_mode: Optional[str] = None
    eps_mu_product: float = 1.0

    def counts(self):
        out = {v.value: 0 for v in Verdict}
        for row in self.rows:
            out[row.verdict.value] += 1
        return out

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["eps1", "mu1", "eps2", "mu2", "z1", "z2",
                         "pressure_Pa", "error_Pa", "verdict", "unphysical"])
        for r in self.rows:
            writer.writerow([f"{r.eps1:.16e}", f"{r.mu1:.16e}",
                             f"{r.eps2:.16e}", f"{r.mu2:.16e}",
                             f"{r.z1:.16e}", f"{r.z2:.16e}",
                             f"{r.pressure:.16e}", f"{r.error:.16e}",
                             r.verdict.value, r.unphysical])
        return buf.getvalue()

    def summary(self):
        return {
            "kind": self.kind,
            "a_m": self.a,
            "counts": self.counts(),
            "boundaries": list(self.boundaries),
            "counterexamples": [],
            "assumption": self.assumption,
        }


#: Floor of the indeterminate band for a pressure verdict, Pa.
VERDICT_FLOOR_PA = 1e-12


def verdict_for(value, error, floor=VERDICT_FLOOR_PA, threshold=None):
    """Sign verdict on ``value`` and the threshold that produced it.

    Attractive iff value < -threshold, Repulsive iff value > +threshold,
    Indeterminate otherwise.  With threshold=None the band defaults to
    max(10 * error, floor), so the verdict always out-resolves the
    numerics.  ``error``, ``floor`` and ``threshold`` are in the unit of
    ``value``.  The floor is 1e-12 Pa for a pressure; carried over at the
    gap a it is 1e-12 Pa * a for an energy per area (J/m^2 = Pa m), and
    2 pi R * 1e-12 Pa * a for a proximity-rule force on a sphere of
    radius R (N), the factor ``pfa_force`` applies to the energy.
    """
    if threshold is None:
        threshold = max(10.0 * error, floor)
    if value < -threshold:
        return Verdict.ATTRACTIVE, threshold
    if value > threshold:
        return Verdict.REPULSIVE, threshold
    return Verdict.INDETERMINATE, threshold


def _classify_all(configs, quad=None, threshold=None):
    """``classify`` of each configuration, in order, all refined in the
    batches of ``engine.integrate_gaps``.  The first configuration that
    fails raises what its own ``classify`` call would.  A threshold that is
    not finite and >= 0 raises DomainError before any quadrature."""
    if threshold is not None and not 0.0 <= threshold < np.inf:
        raise DomainError(f"threshold must be finite and >= 0, got {threshold!r}")
    quad = quad or QuadratureConfig()
    # a verdict reads no dominant frequency
    for res in _outcomes([(cfg, "pressure") for cfg in configs], quad, peaks=False):
        if isinstance(res, ConvergenceError):
            raise res
        err = res.error_estimate
        if threshold is not None and threshold < err:
            raise InconclusiveConfigurationError(
                f"threshold {threshold:g} Pa is below the quadrature error "
                f"{err:g} Pa; tighten rel_tol or raise the threshold")
        verdict, band = verdict_for(res.value, err, threshold=threshold)
        yield SignVerdict(verdict, res.value, err, band)


def classify(cfg, quad=None, threshold=None):
    """Classify the sign of the force for one gap configuration.

    The verdict follows ``verdict_for`` on the pressure: with
    threshold=None the indeterminate band defaults to
    max(10 * quadrature error, 1e-12 Pa).  An explicit threshold (Pa)
    must be finite and >= 0 (else DomainError); one below the achieved
    quadrature error raises InconclusiveConfigurationError.
    """
    return next(_classify_all([cfg], quad, threshold))


def _map_rows(params, a, quad, threshold):
    """Classify every (eps1, mu1, eps2, mu2) of ``params`` at gap ``a``.

    One flagged ConstantEpsMu pair per tuple, in the order given, all
    refined in one batch; the impedances are z = sqrt(mu / eps).
    """
    if not params:
        raise DomainError("empty grid")
    verdicts = _classify_all([GapConfig(a, ConstantEpsMu(e1, m1), ConstantEpsMu(e2, m2))
                              for e1, m1, e2, m2 in params], quad, threshold)
    return [SignMapRow(e1, m1, e2, m2,
                       float(np.sqrt(m1 / e1)), float(np.sqrt(m2 / e2)),
                       v.pressure, v.error, v.verdict, "non-dispersive")
            for (e1, m1, e2, m2), v in zip(params, verdicts)]


def sign_map(eps1_values, mu1_values, eps2_values, mu2_values, a,
             quad=None, threshold=None):
    """Force sign over a Cartesian grid of non-dispersive constants >= 1.

    Every grid point is evaluated with flagged ConstantEpsMu materials,
    all refined in one batch; the rows are ordered by itertools.product
    over the four value lists, so repeated runs emit byte-identical tables.
    """
    grid = list(itertools.product(eps1_values, mu1_values, eps2_values, mu2_values))
    for point in grid:
        ImpedancePoint(*point)  # rejects constants below 1
    return SignMap(_map_rows(grid, a, quad, threshold), a, "signmap")


_UVL_MODES = ("vacuum-matched", "equal-eps-mu")


def _uvl_eps(mode, eps_mu_product, mu):
    """A uvl map medium's eps from its mu: eps_mu_product / mu in the
    "vacuum-matched" mode, mu in "equal-eps-mu"."""
    return eps_mu_product / mu if mode == "vacuum-matched" else mu


def uvl_map(mu1_values, mu2_values, a, quad=None, threshold=None,
            mode="vacuum-matched", eps_mu_product=1.0):
    """Force sign over a (mu1, mu2) grid in the uniform-light-speed case.

    In the default "vacuum-matched" mode eps_j = product/mu_j with
    product = 1, so eps*mu matches the gap and the light speed is uniform
    across all three regions; the impedance of medium j is then mu_j and
    the verdict is a function of the mu pair alone.  The literal
    "equal-eps-mu" alternative sets eps_j = mu_j (impedance 1 in both
    media), which never produces repulsion; it is kept as a mode switch
    for comparison.  mu values below 1 are accepted: they are no more
    fictitious than frequency-independence itself and the sign structure
    lives on both sides of mu = 1.
    """
    if mode not in _UVL_MODES:
        raise DomainError(f"mode must be one of {_UVL_MODES}")
    eps_mu_product = _real_number(eps_mu_product, DomainError, "eps_mu_product")
    if eps_mu_product <= 0.0 or not np.isfinite(eps_mu_product):
        raise DomainError("eps_mu_product must be finite and positive")
    mu1_values = [_real_number(m, DomainError, "mu value") for m in mu1_values]
    mu2_values = [_real_number(m, DomainError, "mu value") for m in mu2_values]
    for m in itertools.chain(mu1_values, mu2_values):
        if not np.isfinite(m) or m <= 0.0:
            raise DomainError("mu values must be finite and positive")

    params = [(_uvl_eps(mode, eps_mu_product, m1), m1, _uvl_eps(mode, eps_mu_product, m2), m2)
              for m1, m2 in itertools.product(mu1_values, mu2_values)]
    rows = _map_rows(params, a, quad, threshold)
    assumption = (f"uniform light speed read as eps_j*mu_j = {eps_mu_product:g} "
                  "in all media (matching the vacuum gap)"
                  if mode == "vacuum-matched"
                  else "eps_j = mu_j in each medium")
    return SignMap(rows, a, "uvlmap", assumption=assumption,
                   uvl_mode=mode, eps_mu_product=eps_mu_product)


#: Relative width of the bracket at which sign-boundary bisection stops.
_REL_RESOLUTION = 1e-3
#: Loosest rel_tol a bisection step runs at: it reads only the sign.
_SIGN_REL_TOL = 1e-3


def find_sign_boundary(make_config, lo, hi, quad=None):
    """Bisect a 1-D parameter slice for the attraction/repulsion flip.

    ``make_config(t)`` builds the GapConfig at parameter value t; the
    pressures at lo and hi must have opposite signs.  Bisection runs on a
    logarithmic axis down to a relative resolution of 1e-3 and returns
    the crossing parameter.  Each step reads only the sign of the
    pressure, which a converged result carries at any tolerance, so the
    pressures run at rel_tol max(quad.rel_tol, 1e-3): near the crossing
    TE and TM cancel, and a tight tolerance on their small net can stall.
    """
    quad = quad or QuadratureConfig()
    sign_quad = QuadratureConfig(max(quad.rel_tol, _SIGN_REL_TOL),
                                 quad.max_subdivisions)

    def sign_at(t):
        return classify(make_config(t), sign_quad).pressure > 0.0

    lo = float(lo)
    hi = float(hi)
    if not (0.0 < lo < hi):
        raise DomainError("need 0 < lo < hi")
    s_lo = sign_at(lo)
    if s_lo == sign_at(hi):
        raise DomainError("no sign change between the bracket endpoints")
    while (hi - lo) > _REL_RESOLUTION * 0.5 * (hi + lo):
        mid = float(np.sqrt(lo * hi))
        if sign_at(mid) == s_lo:
            lo = mid
        else:
            hi = mid
    return float(np.sqrt(lo * hi))


def boundary_points(sign_map_result, axis, quad=None):
    """Refine every verdict flip along ``axis`` of a sign map by bisection.

    Scans grid lines (the other three parameters fixed) for adjacent
    Attractive/Repulsive pairs, bisects each crossing, and returns one
    record per boundary point.  For uvl maps only the mu axes exist and
    the constant-eps reconstruction follows the map's assumption.
    """
    is_uvl = sign_map_result.kind == "uvlmap"
    axes = ("mu1", "mu2") if is_uvl else ("eps1", "mu1", "eps2", "mu2")
    if axis not in axes:
        raise DomainError(f"axis must be one of {axes}")
    # On uvl maps eps co-varies with mu, so grid lines are keyed by the
    # free axes only; eps is re-derived when bisecting.
    fixed_names = tuple(name for name in axes if name != axis)

    lines = {}
    for row in sign_map_result.rows:
        key = tuple(getattr(row, name) for name in fixed_names)
        lines.setdefault(key, []).append(row)

    a = sign_map_result.a

    def make_config(axis_value, fixed):
        params = dict(fixed)
        params[axis] = axis_value
        if is_uvl:
            for side, mu_name in (("eps1", "mu1"), ("eps2", "mu2")):
                params[side] = _uvl_eps(sign_map_result.uvl_mode,
                                        sign_map_result.eps_mu_product, params[mu_name])
        return GapConfig(a, ConstantEpsMu(params["eps1"], params["mu1"]),
                         ConstantEpsMu(params["eps2"], params["mu2"]))

    found = []
    for key, rows in lines.items():
        rows.sort(key=lambda r: getattr(r, axis))
        fixed = dict(zip(fixed_names, key))
        for r_lo, r_hi in zip(rows[:-1], rows[1:]):
            if {r_lo.verdict, r_hi.verdict} != {Verdict.ATTRACTIVE, Verdict.REPULSIVE}:
                continue
            crossing = find_sign_boundary(
                lambda t: make_config(t, fixed),
                getattr(r_lo, axis), getattr(r_hi, axis), quad)
            record = {"axis": axis, "crossing": crossing}
            record.update(fixed)
            found.append(record)
    return found


# ---------------------------------------------------------------------------
# Dispersive attraction report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttractionRow:
    label1: str
    label2: str
    a: float
    pressure: float
    error: float
    verdict: Verdict
    asserted: bool


@dataclass
class AttractionReport:
    """All-pairs attraction check over dispersive models.

    ``counterexamples`` lists every asserted row that failed to come out
    Attractive; an empty list means the claim held on the whole grid.
    Rows with ``asserted=False`` (ferrite relaxation pushed into a range
    no known material reaches) are recorded for inspection only.
    """

    rows: list
    counterexamples: list

    @property
    def all_attractive(self):
        return not self.counterexamples

    def to_csv(self):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["material1", "material2", "a_m", "pressure_Pa",
                         "error_Pa", "verdict", "asserted"])
        for r in self.rows:
            writer.writerow([r.label1, r.label2, f"{r.a:.16e}",
                             f"{r.pressure:.16e}", f"{r.error:.16e}",
                             r.verdict.value, str(r.asserted).lower()])
        return buf.getvalue()

    def summary(self):
        return {
            "kind": "attraction-report",
            "counts": {"rows": len(self.rows),
                       "asserted": sum(r.asserted for r in self.rows)},
            "boundaries": [],
            "counterexamples": [
                {"material1": r.label1, "material2": r.label2, "a_m": r.a,
                 "pressure_Pa": r.pressure} for r in self.counterexamples],
            "all_attractive": self.all_attractive,
        }


#: Largest delta_mu * omega_m of a ferrite asserted to attract, rad/s.
_SNOEK_PRODUCT_MAX = 1e14


def dispersion_restores_attraction(models, separations=None, quad=None,
                                   threshold=None):
    """Check that dispersive models attract at every pairing and separation.

    Models must all be dispersive; constant models are rejected (use
    sign_map for the non-dispersive regime).  Every (pair, separation)
    configuration is refined in one batch.  Ferrite-class models whose
    delta_mu * omega_m exceeds 1e14 rad/s describe no known material: by
    Snoek's law (J. L. Snoek, Physica 14, 207 (1948)) real ferrites trade
    permeability for relaxation frequency at a product near 1e10-1e11
    rad/s, and 1e14 is delta_mu = 1e3 at omega_m = 1e11.  Their rows are
    recorded but excluded from the assertion and the counterexample list.
    """
    for m in models:
        if type(m) in _CONSTANT_MEDIA:
            raise DomainError(f"{m.label!r} is not dispersive; "
                              "use sign_map for the non-dispersive regime")
        if not isinstance(m, MaterialResponse):
            raise DomainError(f"not a material model: {m!r}")
    if separations is None:
        separations = np.geomspace(0.05e-6, 5e-6, 20)

    configs = [GapConfig(a, m1, m2)
               for m1, m2 in itertools.combinations_with_replacement(models, 2)
               for a in separations]
    if not configs:
        raise DomainError("empty grid")
    asserted = {id(m): not isinstance(m, DebyeMagnetic)
                or m.delta_mu * m.omega_m <= _SNOEK_PRODUCT_MAX for m in models}
    rows = [AttractionRow(c.material1.label, c.material2.label, c.a, v.pressure, v.error,
                          v.verdict, asserted[id(c.material1)] and asserted[id(c.material2)])
            for c, v in zip(configs, _classify_all(configs, quad, threshold))]
    counterexamples = [r for r in rows if r.asserted and r.verdict != Verdict.ATTRACTIVE]
    return AttractionReport(rows, counterexamples)

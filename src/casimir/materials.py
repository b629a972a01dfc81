"""Material response functions on the positive imaginary frequency axis.

Causality makes eps(i xi) and mu(i xi) real, smooth and monotonically
decreasing toward 1, so everything here works in real arithmetic.  Models
accept scalar or ndarray frequencies (rad/s) and evaluate them as arrays;
a scalar frequency gives a float.

A response that diverges is inf: the Drude and plasma permittivities (and
tabulated data with a conductor-like low-frequency tail) at xi = 0 and
wherever they leave float range at tiny xi, and the ideal mirrors at every
xi.  Reflection code takes the finite weight xi^2 (eps - 1) of an infinite
eps from ``xi2_susceptibility``.

Tabulated absorption data reach the imaginary axis through the
Kramers-Kronig integral of a piecewise-linear eps''.  Its sampled part is
split per node xi into a near and a far field, as in a fast multipole
method (Greengard & Rokhlin, J. Comput. Phys. 73, 325 (1987)): the
intervals go in blocks of 64, the blocks that meet rho xi < w < xi/rho
(rho = 1/4) are summed interval by interval in closed form, and every other
block adds a 14-term series in (w/xi)^2 or (xi/w)^2 from moments the table
builds once, at its first transform.  The series is exact to 1.4e-17 of a
block's part and its moments have non-negative integrands, so the far
field is more accurate than the direct sum it replaces.
"""

import numpy as np
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import DomainError, IngestionError, InvalidModelError
from .quadrature import _GK_NODES as _TAIL_NODES, _GK_WEIGHTS as _TAIL_WEIGHTS


# eps is taken at min(xi, _XI_FLAT), where xi^2 is finite and eps = 1 to rounding
_XI_FLAT = 1e150  # for every model with its frequencies below ~1e140 rad/s


def _as_xi(xi):
    """Validate an imaginary frequency (scalar or array) and return it as ndarray."""
    arr = np.asarray(xi, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("imaginary frequency must be finite")
    if (arr < 0.0).any():
        raise DomainError("imaginary frequency must be non-negative")
    return arr


def _finite(name, value):
    value = float(value)
    if not np.isfinite(value):
        raise InvalidModelError(f"{name} must be finite, got {value!r}")
    return value


def _positive(name, value):
    value = _finite(name, value)
    if value <= 0.0:
        raise InvalidModelError(f"{name} must be positive, got {value!r}")
    return value


def _nonnegative(name, value):
    value = _finite(name, value)
    if value < 0.0:
        raise InvalidModelError(f"{name} must be non-negative, got {value!r}")
    return value


def _constant(xi, value):
    """``value`` at every validated xi: an array of xi's shape, a float for a scalar."""
    return np.full(_as_xi(xi).shape, value)[()]


class MaterialResponse:
    """Base class for all material models.

    Instances are immutable after construction and safe to share across
    threads; evaluation is a pure function of (model, xi).  ``eps`` and
    ``mu`` are inf where the response diverges, and ``xi2_susceptibility``
    gives the finite weight of an infinite eps.  A model file stores
    ``kind`` (the class name) and ``parameters``; ``from_parameters``
    rebuilds the model from them.
    """

    #: set on models whose frequency independence is physically wrong
    unphysical = None

    @property
    def kind(self):
        return type(self).__name__

    @property
    def parameters(self):
        """JSON-ready constructor parameters, the model-file format."""
        return {}

    @classmethod
    def from_parameters(cls, params, label=None):
        """Inverse of ``parameters``; a missing parameter raises KeyError."""
        return cls(label=label)

    def eps(self, xi):
        raise NotImplementedError

    def mu(self, xi):
        """Relative permeability; 1 for every electric-only model."""
        return _constant(xi, 1.0)

    def xi2_susceptibility(self, xi):
        """xi^2 (eps(i xi) - 1) at xi >= 0 (scalar or array), rad^2/s^2.

        Where eps is infinite, reflection code takes this weight instead.  The
        default is 0 at xi = 0 (eps growing more slowly than 1/xi^2); closed
        forms override it, as a scalar where it is the same at every xi (inf
        for the ideal conductor).
        """
        arr = _as_xi(xi)
        live = arr > 0.0
        out = np.zeros(arr.shape)
        out[live] = (self.eps(arr[live]) - 1.0) * arr[live] * arr[live]
        return out[()]

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r})"


class PerfectConductor(MaterialResponse):
    """Ideal mirror: reflects TE with -1 and TM with +1 at every frequency.

    ``eps`` is inf at every xi (TM +1), and so is its weight
    xi^2 (eps - 1): an infinite decay constant, TE -1.
    """

    def __init__(self, label=None):
        self.label = label or "perfect conductor"

    def eps(self, xi):
        return _constant(xi, np.inf)

    def xi2_susceptibility(self, xi):
        _as_xi(xi)
        return np.inf


class InfinitelyPermeable(MaterialResponse):
    """Ideal magnetic mirror: (r_te, r_tm) = (+1, -1) at every frequency.

    The idealized counterpart of the perfect conductor; the classic
    analytically repulsive partner for it.  No real material approaches
    this behaviour, which is exactly why it is kept as an explicit
    idealization rather than a limit of a constant-mu medium.  ``mu`` is
    inf at every xi: TE +1, and an infinite decay constant: TM -1.
    """

    def __init__(self, label=None):
        self.label = label or "infinitely permeable plate"

    def eps(self, xi):
        return _constant(xi, 1.0)

    def mu(self, xi):
        return _constant(xi, np.inf)


class ConstantEpsMu(MaterialResponse):
    """Non-dispersive medium with frequency-independent eps and mu.

    This is the assumption under scrutiny: real response functions vary
    with frequency, so every instance carries the ``unphysical`` flag and
    every table derived from it inherits the flag.  Values below 1 are
    permitted (they are no less fictitious than frequency independence
    itself) because the idealized uniform-light-speed constructions need
    them.
    """

    unphysical = "non-dispersive"

    def __init__(self, eps=1.0, mu=1.0, label=None):
        self.eps_const = _positive("eps", eps)
        self.mu_const = _positive("mu", mu)
        self.label = label or f"const(eps={self.eps_const:g}, mu={self.mu_const:g})"

    @property
    def parameters(self):
        return {"eps": self.eps_const, "mu": self.mu_const}

    @classmethod
    def from_parameters(cls, params, label=None):
        return cls(params["eps"], params["mu"], label=label)

    def eps(self, xi):
        return _constant(xi, self.eps_const)

    def mu(self, xi):
        return _constant(xi, self.mu_const)


def vacuum():
    """The trivial medium eps = mu = 1."""
    return ConstantEpsMu(1.0, 1.0, label="vacuum")


class Drude(MaterialResponse):
    """Metal with scattering: eps(i xi) = 1 + wp^2 / (xi (xi + gamma)).

    Diverges like 1/xi at zero frequency (dc conductor): inf at xi = 0 and
    at tiny xi where the value leaves float range.
    """

    def __init__(self, omega_p, gamma, label=None):
        self.omega_p = _positive("omega_p", omega_p)
        self.gamma = _positive("gamma", gamma)
        self.label = label or f"Drude(wp={self.omega_p:.3g}, gamma={self.gamma:.3g})"

    @property
    def parameters(self):
        return {"omega_p": self.omega_p, "gamma": self.gamma}

    @classmethod
    def from_parameters(cls, params, label=None):
        return cls(params["omega_p"], params["gamma"], label=label)

    def eps(self, xi):
        arr = np.minimum(_as_xi(xi), _XI_FLAT)
        with np.errstate(divide="ignore", over="ignore"):  # diverging: inf
            return (1.0 + self.omega_p ** 2 / (arr * (arr + self.gamma)))[()]

    def xi2_susceptibility(self, xi):
        # wp^2 / (1 + gamma/xi) above gamma, where wp^2 xi may overflow, and
        # wp^2 xi / (xi + gamma) below it, where gamma/xi may
        xi = _as_xi(xi)
        g = self.gamma
        return np.where(xi > g, self.omega_p ** 2 / (1.0 + g / np.maximum(xi, g)),
                        self.omega_p ** 2 * np.minimum(xi, g) / (np.minimum(xi, g) + g))[()]


class Plasma(MaterialResponse):
    """Dissipationless plasma: eps(i xi) = 1 + wp^2 / xi^2, inf at xi = 0."""

    def __init__(self, omega_p, label=None):
        self.omega_p = _positive("omega_p", omega_p)
        self.label = label or f"plasma(wp={self.omega_p:.3g})"

    @property
    def parameters(self):
        return {"omega_p": self.omega_p}

    @classmethod
    def from_parameters(cls, params, label=None):
        return cls(params["omega_p"], label=label)

    def eps(self, xi):
        with np.errstate(divide="ignore", over="ignore"):  # diverging: inf
            r = self.omega_p / _as_xi(xi)
            return (1.0 + r * r)[()]

    def xi2_susceptibility(self, xi):
        _as_xi(xi)
        return self.omega_p ** 2  # at every xi


class LorentzOscillators(MaterialResponse):
    """Dielectric as a sum of bound resonances.

    eps(i xi) = 1 + sum_j f_j wp_j^2 / (w0_j^2 + xi^2 + g_j xi)

    ``oscillators`` is an iterable of (f, omega_p, omega0, gamma) tuples;
    strengths f_j >= 0, the three frequencies positive.
    """

    def __init__(self, oscillators, label=None):
        terms = []
        for j, osc in enumerate(oscillators):
            try:
                f, wp, w0, g = osc
            except (TypeError, ValueError):
                raise InvalidModelError(
                    f"oscillator {j}: expected (f, omega_p, omega0, gamma)")
            terms.append((_nonnegative(f"f[{j}]", f),
                          _positive(f"omega_p[{j}]", wp),
                          _positive(f"omega0[{j}]", w0),
                          _positive(f"gamma[{j}]", g)))
        if not terms:
            raise InvalidModelError("at least one oscillator is required")
        self.oscillators = tuple(terms)
        self.label = label or f"Lorentz({len(terms)} osc)"

    @property
    def parameters(self):
        return {"oscillators": [{"f": f, "omega_p": wp, "omega0": w0, "gamma": g}
                                for f, wp, w0, g in self.oscillators]}

    @classmethod
    def from_parameters(cls, params, label=None):
        return cls([(o["f"], o["omega_p"], o["omega0"], o["gamma"])
                    for o in params["oscillators"]], label=label)

    def eps(self, xi):
        arr = np.minimum(_as_xi(xi), _XI_FLAT)
        total = np.zeros(arr.shape)
        for f, wp, w0, g in self.oscillators:
            total = total + f * wp ** 2 / (w0 ** 2 + arr ** 2 + g * arr)
        result = 1.0 + total
        return result[()]


class DebyeMagnetic(MaterialResponse):
    """Ferrite/garnet-class material: relaxing permeability plus an
    ordinary dielectric resonance.

        mu(i xi)  = 1 + dmu / (1 + xi/omega_m)
        eps(i xi) = 1 + deps * omega_e^2 / (omega_e^2 + xi^2)

    The Debye form is the simplest causal monotone choice for the
    magnetic relaxation; omega_m is the relaxation frequency (real
    ferrites: GHz range, i.e. ~1e9..1e11 rad/s).  The dielectric part
    defaults to a garnet-like static permittivity of 12 with an
    infrared resonance; a magnetic material with no dielectric response
    at all would be as fictitious as an ideal mirror.
    """

    def __init__(self, delta_mu, omega_m, delta_eps=11.0, omega_e=2.0e14,
                 label=None):
        self.delta_mu = _nonnegative("delta_mu", delta_mu)
        self.omega_m = _positive("omega_m", omega_m)
        self.delta_eps = _nonnegative("delta_eps", delta_eps)
        self.omega_e = _positive("omega_e", omega_e)
        self.label = label or (f"Debye ferrite(dmu={self.delta_mu:g}, "
                               f"wm={self.omega_m:.3g})")

    @property
    def parameters(self):
        return {"delta_mu": self.delta_mu, "omega_m": self.omega_m,
                "delta_eps": self.delta_eps, "omega_e": self.omega_e}

    @classmethod
    def from_parameters(cls, params, label=None):
        return cls(params["delta_mu"], params["omega_m"],
                   delta_eps=params.get("delta_eps", 11.0),
                   omega_e=params.get("omega_e", 2.0e14), label=label)

    def eps(self, xi):
        arr = np.minimum(_as_xi(xi), _XI_FLAT)
        result = 1.0 + self.delta_eps * self.omega_e ** 2 / (self.omega_e ** 2 + arr ** 2)
        return result[()]

    def mu(self, xi):
        arr = _as_xi(xi)
        result = 1.0 + self.delta_mu / (1.0 + arr / self.omega_m)
        return result[()]


# ---------------------------------------------------------------------------
# Tabulated absorption data and the transform to the imaginary axis
# ---------------------------------------------------------------------------

_LOW_TAIL_MODELS = ("constant", "linear", "zero")


@dataclass(frozen=True)
class LowTail:
    """Extrapolation of eps''(w) from the first sample down to w=0."""

    model: str = "constant"

    def __post_init__(self):
        if self.model not in _LOW_TAIL_MODELS:
            raise IngestionError(f"unknown low-frequency tail model {self.model!r}; "
                                 f"choose from {_LOW_TAIL_MODELS}")


@dataclass(frozen=True)
class HighTail:
    """Extrapolation eps''(w) ~ (w_n/w)^exponent above the last sample.

    exponent >= 1 keeps the transform integrand decaying at least as
    1/w^2; anything slower is rejected as divergent for this purpose.
    """

    model: str = "power"
    exponent: float = 3.0

    def __post_init__(self):
        if self.model not in ("power", "zero"):
            raise IngestionError(f"unknown high-frequency tail model {self.model!r}; "
                                 "choose 'power' or 'zero'")
        if self.model == "power":
            if not np.isfinite(self.exponent) or self.exponent < 1.0:
                raise IngestionError(
                    "high-frequency tail exponent must be >= 1 "
                    f"(got {self.exponent!r}): slower decay makes the "
                    "transform tail divergent")


def tails_from_dict(doc):
    """(LowTail, HighTail) from a document's optional "low_tail" and
    "high_tail" entries, as model files and table sidecars give them."""
    low = doc.get("low_tail", {})
    high = doc.get("high_tail", {})
    return (LowTail(model=low.get("model", "constant")),
            HighTail(model=high.get("model", "power"),
                     exponent=float(high.get("exponent", 3.0))))


class TabulatedAbsorption:
    """Measured (or synthesized) absorption spectrum eps''(omega).

    Samples must be strictly increasing in omega (rad/s, all positive)
    with non-negative eps''.  Between samples eps'' is taken piecewise
    linear; outside, the configured tails apply.
    """

    def __init__(self, omega, eps_imag, low_tail=None, high_tail=None):
        omega = np.asarray(omega, dtype=float)
        eps_imag = np.asarray(eps_imag, dtype=float)
        if omega.ndim != 1 or omega.shape != eps_imag.shape:
            raise IngestionError("omega and eps_imag must be 1-D arrays of equal length")
        if omega.size < 2:
            raise IngestionError("at least 2 samples are required")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(eps_imag))):
            raise IngestionError("samples must be finite")
        if omega[0] <= 0.0:
            raise IngestionError("omega samples must be positive")
        if np.any(np.diff(omega) <= 0.0):
            raise IngestionError("omega samples must be strictly increasing")
        if np.any(eps_imag < 0.0):
            raise IngestionError("eps_imag samples must be non-negative")
        self.omega = omega.copy()
        self.eps_imag = eps_imag.copy()
        self.omega.flags.writeable = False
        self.eps_imag.flags.writeable = False
        self.low_tail = low_tail or LowTail()
        self.high_tail = high_tail or HighTail()
        # per-interval linear coefficients eps'' = slope*w + offset and the
        # xi-independent factors of _kk_sampled, formed once per table
        w1, w2 = omega[:-1], omega[1:]
        s1, s2 = eps_imag[:-1], eps_imag[1:]
        dw = w2 - w1
        slope = (s2 - s1) / dw
        offset = s1 - slope * w1
        w1w2 = w1 * w2
        self._factors = np.array([slope, dw, dw * w1w2, w1w2, 0.5 * offset,
                                  dw * (w2 + w1), w1 * w1])
        self._halved = None

    @cached_property
    def _blocks(self):
        """The near/far split of the transform (``_KK_BLOCK``), built at
        the first transform: the data of ``_kk_blocks``."""
        return _kk_blocks(self)

    @property
    def n_samples(self):
        return self.omega.size

    def halved(self):
        """Every-other-sample copy (endpoints kept) for error estimation,
        made once per table."""
        if self._halved is None:
            idx = np.unique(np.r_[np.arange(0, self.omega.size, 2), self.omega.size - 1])
            self._halved = TabulatedAbsorption(self.omega[idx], self.eps_imag[idx],
                                               self.low_tail, self.high_tail)
        return self._halved


def _atan_series(x2):
    """(x - arctan x) / x^3 from its series in x^2, for x < 0.05."""
    return 1.0 / 3.0 - x2 / 5.0 + x2 * x2 / 7.0 - x2 * x2 * x2 / 9.0


def _x_minus_atan(x):
    """x - arctan(x), stable for small x (series) and exact for large.

    Each element takes one branch only: the series below 0.05, where
    x - arctan(x) cancels, and arctan at or above it.  When no element
    reaches 0.05 (the common case inside the transform) the series is the
    whole result and no arctan or mask scatter runs.
    """
    x = np.asarray(x, dtype=float)
    small = x < 0.05
    if small.all():
        x2 = x * x
        return x * x2 * _atan_series(x2)
    out = np.empty(x.shape)
    big = ~small
    out[big] = x[big] - np.arctan(x[big])
    out[small] = _x_minus_atan(x[small])
    return out


def _kk_interval_sums(x, factors):
    """Sum over intervals of the integral of w*eps''(w)/(w^2+x^2) over each,
    at frequencies ``x`` (one per row) from the table's ``_factors`` or a
    gather of them, each row's intervals along the trailing axes.

    Exact for the piecewise-linear eps'' model.  Each of the two terms of
    the per-interval antiderivative is rearranged to be free of
    cancellation even for x far above the interval, but where eps'' is
    steep (a large negative offset) the two terms cancel each other: on a
    Q = 100 Lorentz table their magnitudes sum to ~200 times the result,
    which costs up to ~2e-14 relative.
    """
    slope, dw, dw_w1w2, w1w2, half_offset, sq_diff, w1_sq = factors
    x2 = x * x
    denom = x2 + w1w2
    v = x * dw / denom
    # alpha * (dw - xi*(atan(w2/xi)-atan(w1/xi))), cancellation-free form
    term_a = slope * (dw_w1w2 / denom + x * _x_minus_atan(v))
    term_b = half_offset * np.log1p(sq_diff / (w1_sq + x2))
    return (term_a + term_b).reshape(x.shape[0], -1).sum(axis=1)


def _kk_sampled(table, xi):
    """Integral of w*eps''(w)/(w^2+xi^2) over the sampled range: the direct
    sum over every interval."""
    return _kk_interval_sums(xi[:, None], table._factors)


# Below xi = w1 * _FAR the low tails take their xi -> 0 forms: (w1/xi)^2
# would overflow, and the terms they drop are below rounding.
_FAR = 1e-150


def _kk_low_tail(table, xi):
    s1 = table.eps_imag[0]
    w1 = table.omega[0]
    kind = table.low_tail.model
    if kind == "zero" or s1 == 0.0:
        return np.zeros_like(xi)
    out = np.empty_like(xi)
    far = xi < w1 * _FAR
    near = ~far
    if kind == "constant":
        # 0.5 log1p((w1/xi)^2), which is log(w1/xi) far below w1
        out[near] = 0.5 * np.log1p((w1 / xi[near]) ** 2)
        out[far] = np.log(w1) - np.log(xi[far])
        return s1 * out
    # linear: eps'' = s1 * w/w1 below w1, integrating to
    # s1 * (1 - u atan(1/u)), u = xi/w1, which tends to s1
    out[near] = (s1 / w1) * xi[near] * _x_minus_atan(w1 / xi[near])
    u = xi[far] / w1
    out[far] = s1 * (1.0 - u * (0.5 * np.pi - np.arctan(u)))
    return out


_HIGH_TAIL_T_EDGES = np.concatenate([[0.0], np.geomspace(2.0 ** -16, 1.0, 9)])


def _kk_high_tail(table, xi):
    sn = table.eps_imag[-1]
    wn = table.omega[-1]
    tail = table.high_tail
    if tail.model == "zero" or sn == 0.0:
        return np.zeros_like(xi)
    p = tail.exponent
    if p == 3.0:
        # sn * (u - atan u) / u^3, u = xi/wn; the series below u = 0.05
        # never forms (wn/xi)^3, which overflows at tiny xi
        u = xi / wn
        small = u < 0.05
        big = ~small
        out = np.empty_like(xi)
        out[small] = _atan_series(u[small] ** 2)
        out[big] = (wn / xi[big]) ** 3 * _x_minus_atan(u[big])
        return sn * out
    # generic power law: sn * wn^2 * \int_0^1 t^{p-1} / (wn^2 + xi^2 t^2) dt
    lo = _HIGH_TAIL_T_EDGES[:-1]
    hi = _HIGH_TAIL_T_EDGES[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    t = (mid[:, None] + np.outer(half, _TAIL_NODES)).reshape(-1)
    w = (np.outer(half, _TAIL_WEIGHTS)).reshape(-1)
    integrand = t ** (p - 1.0) / (wn ** 2 + np.multiply.outer(xi ** 2, t ** 2))
    # a row sum, not a matrix product: BLAS may round a row differently
    # depending on how many rows come with it
    return sn * wn ** 2 * (integrand * w).sum(axis=1)


# The near/far split of the sampled part.  Intervals go in blocks of
# _KK_BLOCK; a block meeting a node's window rho xi < w < xi / rho is near
# and summed interval by interval, every other block is far and adds
# _KK_TERMS terms of its moment series, whose ratio is at most rho^2: the
# truncation is rho^(2 _KK_TERMS) ~ 1.4e-17 of the block's part.
_KK_BLOCK = 64
_KK_TERMS = 14
_KK_RHO = 0.25
# The 15-point Gauss-Legendre rule on [-1, 1] (numpy's leggauss(15), kept
# here so that no transform imports numpy.polynomial): exact to degree 29,
# and the moments' integrands are polynomials of degree 2 _KK_TERMS at most.
_GL_HALF_NODES = np.array([0.0, 0.20119409399743451, 0.3941513470775634,
                           0.5709721726085388, 0.7244177313601701, 0.8482065834104272,
                           0.9372733924007058, 0.9879925180204854])
_GL_HALF_WEIGHTS = np.array([0.2025782419255613, 0.1984314853271116, 0.1861610000155622,
                             0.16626920581699398, 0.13957067792615444,
                             0.10715922046717141, 0.0703660474881084,
                             0.030753241996117203])
_GL_NODES = np.concatenate([-_GL_HALF_NODES[:0:-1], _GL_HALF_NODES])
_GL_WEIGHTS = np.concatenate([_GL_HALF_WEIGHTS[:0:-1], _GL_HALF_WEIGHTS])
# (xi x interval) and (xi x block) elements per pass of the near and far
# sums: bounds the size of their 2-D temporaries however many frequencies
# are asked for.  The 1-D tails run once on the whole xi array.  A pass
# holds ~12 temporaries of up to 40 KB.  glibc gives freed heap back to the
# system once its trim threshold (128 KiB by default) lies free at the
# top, and a pass then faults its temporaries in afresh.  Freeing the
# moment build's whole-table arrays (~300 KB at 2,500 samples) raises that
# threshold, so a large table's passes reuse the heap: with the moments
# built eight blocks at a time, an attraction check of the benchmark's
# dispersive-attraction workload took ~6,500 page faults and 40 rather
# than 29 ms on a 2-core VM.  At 16384 elements each temporary was mapped
# afresh: ~9,000 faults per 600-node transform.
_KK_CHUNK = 5120


class _KKBlocks(NamedTuple):
    """A table's blocks: bottom and top samples ``lo``/``hi``, the most
    blocks one node's window meets (``width``), the interval factors
    blocked as (7, n_blocks + 1, _KK_BLOCK) with zero intervals as padding
    and as the last block, and the moments ``p``/``q`` (_KK_TERMS, n_blocks).

    p[k] = int (w/hi)^(2k+1) eps'' dw / hi and q[k] = int (lo/w)^(2k) eps''/w dw
    over the block, so that a block wholly below rho xi adds
    sum_k (-1)^k t^(k+1) p[k] with t = (hi/xi)^2, and one wholly above
    xi/rho adds sum_k (-t)^k q[k] with t = (xi/lo)^2.
    """

    lo: np.ndarray
    hi: np.ndarray
    width: int
    near: np.ndarray
    p: np.ndarray
    q: np.ndarray


def _log_mean_weights(w1, w2):
    """(c1, c2): the integral of eps''/w over [w1, w2] is s1 c1 + s2 c2 for
    eps'' linear from s1 to s2.  Both are positive, formed without
    cancellation from z = (w2-w1)/(w2+w1) and
    S = (atanh(z)/z - 1)/z^2 = sum_j z^(2j)/(2j+3) as
    c1 = z (1 + z (1+z) S) and c2 = z (1 - z (1-z) S)."""
    total = w1 + w2
    z = (w2 - w1) / total
    s = np.empty(z.shape)
    small = z < 0.5
    z2 = z[small] ** 2
    acc = np.full(z2.shape, 1.0 / 57.0)
    for j in range(26, -1, -1):  # to z^54/57; z^56/59 < 1e-18 S
        acc = 1.0 / (2 * j + 3) + z2 * acc
    s[small] = acc
    big = ~small  # w2 >= 3 w1: atanh(z) = log(w2/w1)/2, and atanh(z)/z - 1 >= 0.098
    zb = z[big]
    s[big] = (0.5 * np.log(w2[big] / w1[big]) / zb - 1.0) / (zb * zb)
    c1 = z * (1.0 + z * (2.0 * w2 / total) * s)
    c2 = z * (1.0 - z * (2.0 * w1 / total) * s)
    return c1, c2


def _kk_blocks(table):
    """The blocks and moments of ``table`` (a ``_KKBlocks``).

    Every moment integrand is non-negative: eps'' is the convex combination
    s1 (1-tau) + s2 tau on each interval.  p and q[k >= 1] take the
    Gauss-Legendre rule per interval in w and in u = 1/w respectively,
    where they are polynomials; q[0] takes the closed form of
    ``_log_mean_weights``.
    """
    w, s = table.omega, table.eps_imag
    n_int = w.size - 1
    n_blocks = -(-n_int // _KK_BLOCK)
    lo = w[:-1:_KK_BLOCK]
    hi = w[np.minimum(np.arange(1, n_blocks + 1) * _KK_BLOCK, n_int)]
    # a window (y, y/rho^2) meets the most blocks with y just below some hi
    width = int(np.max(np.searchsorted(lo * _KK_RHO ** 2, hi, side="left")
                       - np.arange(n_blocks)))
    zero = np.array([[0.0], [0.0], [0.0], [1.0], [0.0], [0.0], [1.0]])
    pad = np.repeat(zero, (n_blocks + 1) * _KK_BLOCK - n_int, axis=1)
    near = np.concatenate([table._factors, pad], axis=1).reshape(7, n_blocks + 1, _KK_BLOCK)

    block = np.arange(n_int) // _KK_BLOCK
    w1, w2 = w[:-1, None], w[1:, None]
    s1, s2 = s[:-1, None], s[1:, None]
    l, h = lo[block, None], hi[block, None]
    dw = w2 - w1
    x = _GL_NODES
    # in w: node (w1 (1-x) + w2 (1+x))/2, eps'' = (s1 (1-x) + s2 (1+x))/2
    wn = 0.5 * (w1 * (1.0 - x) + w2 * (1.0 + x))
    y = wn / h
    p_term = 0.25 * dw * (s1 * (1.0 - x) + s2 * (1.0 + x)) * y / h
    # in u = 1/w: node u = wn / (w1 w2), so w = w1 w2 / wn and
    # (lo u)^(2k) eps''/u du = (lo u)^(2k-2) (lo/w1)(lo/w2) dw/4 *
    # (s1 (1+x)/w1 + s2 (1-x)/w2) times the rule's weight
    z2 = (l * wn / (w1 * w2)) ** 2
    q_term = 0.25 * dw * (l / w1) * (l / w2) * (s1 * (1.0 + x) / w1 + s2 * (1.0 - x) / w2)

    def block_sums(a):
        return np.bincount(block, weights=a, minlength=n_blocks)

    p = np.empty((_KK_TERMS, n_blocks))
    q = np.empty((_KK_TERMS, n_blocks))
    c1, c2 = _log_mean_weights(w1[:, 0], w2[:, 0])
    q[0] = block_sums(s1[:, 0] * c1 + s2[:, 0] * c2)
    y2 = y * y
    for k in range(_KK_TERMS):
        p[k] = block_sums(p_term @ _GL_WEIGHTS)
        p_term *= y2
        if k:
            q[k] = block_sums(q_term @ _GL_WEIGHTS)
            q_term *= z2
    return _KKBlocks(lo, hi, width, near, p, q)


def _kk_window(blocks, xi):
    """Each node's first near block and number of near blocks: the blocks
    that meet rho xi < w < xi / rho, never more than ``width``."""
    first = np.searchsorted(blocks.hi, _KK_RHO * xi, side="right")
    stop = np.searchsorted(blocks.lo, xi / _KK_RHO, side="left")
    return first, np.minimum(stop - first, blocks.width)


def _kk_near(blocks, xi):
    """The near blocks' part of the sampled integral, interval by interval.

    Each node sums a row of ``width`` blocks from its first near one, the
    blocks past its near ones replaced by zero intervals, so its bits do
    not depend on the other nodes.
    """
    first, count = _kk_window(blocks, xi)
    out = np.zeros(xi.shape)
    live = np.flatnonzero(count)
    if live.size:
        j = np.arange(blocks.width)
        idx = np.where(j < count[live, None], first[live, None] + j, blocks.hi.size)
        out[live] = _kk_interval_sums(xi[live, None, None], [f[idx] for f in blocks.near])
    return out


def _alternating(c, t):
    """sum_k c[k] (-t)^k, by Horner's rule."""
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = ck - t * acc
    return acc


def _kk_far(blocks, xi):
    """The far blocks' part of the sampled integral, from their moments."""
    first, count = _kk_window(blocks, xi)
    b = np.arange(blocks.hi.size)
    x = xi[:, None]
    # the minimum keeps t <= rho^2 (and finite) on the blocks it masks off
    t = (np.minimum(blocks.hi, _KK_RHO * x) / x) ** 2 * (b < first[:, None])
    below = t * _alternating(blocks.p, t)
    t = (np.minimum(x, _KK_RHO * blocks.lo) / blocks.lo) ** 2
    above = _alternating(blocks.q, t) * (b >= (first + count)[:, None])
    return (below + above).sum(axis=1)


def _by_rows(part, blocks, xi, width):
    """``part(blocks, xi)`` over chunks of ``_KK_CHUNK // width`` nodes."""
    rows = max(1, _KK_CHUNK // width)
    out = np.empty(xi.shape)
    for start in range(0, xi.size, rows):
        out[start:start + rows] = part(blocks, xi[start:start + rows])
    return out


def _kk_near_far(table, xi):
    """The integral ``_kk_sampled`` sums directly, as the near blocks'
    direct sum plus the far blocks' moment series, each chunk by chunk
    (``_KK_CHUNK``).  The table's ``_blocks`` are built at its first call.
    """
    blocks = table._blocks
    return (_by_rows(_kk_near, blocks, xi, blocks.width * _KK_BLOCK)
            + _by_rows(_kk_far, blocks, xi, blocks.hi.size))


def _kk_value(table, xi):
    """eps(i xi) - operates on a validated positive 1-D array.

    The sampled part comes from ``_kk_near_far``; the two tails run once
    on all of xi.  Each node's value does not depend on the other nodes of
    the array.
    """
    xi = np.minimum(xi, _XI_FLAT)
    core = (_kk_near_far(table, xi) + _kk_low_tail(table, xi)) + _kk_high_tail(table, xi)
    return 1.0 + (2.0 / np.pi) * core


@dataclass(frozen=True)
class PermittivityEstimate:
    """Transform result with its grid-halving error estimate."""

    value: float
    error_estimate: float
    warning: str = None


def kramers_kronig(table, xi, tol=1e-6):
    r"""Permittivity on the imaginary axis from tabulated absorption data.

        eps(i xi) = 1 + (2/pi) \int_0^inf w eps''(w) / (w^2 + xi^2) dw

    The sampled range integrates in closed form (piecewise-linear eps'');
    the configured tails contribute analytically.  The error estimate is
    the change under halving the sample grid; when it exceeds
    ``tol * |value|`` an accuracy warning is attached rather than raising,
    since the data, not the algorithm, limits the result.

    Parameters
    ----------
    table : TabulatedAbsorption
    xi : float or array, > 0 (rad/s)
    tol : float
        Requested relative accuracy.

    Returns
    -------
    PermittivityEstimate
    """
    arr = _as_xi(xi)
    if np.any(arr <= 0.0):
        raise DomainError("the transform needs xi > 0")
    flat = arr.reshape(-1)
    value = _kk_value(table, flat)
    value_h = _kk_value(table.halved(), flat)
    err = np.abs(value - value_h)
    warning = None
    bad = err > tol * np.abs(value)
    if np.any(bad):
        warning = (f"requested tolerance {tol:g} not reached at "
                   f"{int(bad.sum())}/{flat.size} frequencies; "
                   "denser sampling of eps'' is needed")
    return PermittivityEstimate(value.reshape(arr.shape)[()],
                                err.reshape(arr.shape)[()], warning)


class Tabulated(MaterialResponse):
    """Material whose eps(i xi) comes from a measured absorption table."""

    def __init__(self, table, label=None):
        if not isinstance(table, TabulatedAbsorption):
            raise InvalidModelError("Tabulated needs a TabulatedAbsorption")
        self.table = table
        self.label = label or f"tabulated({table.n_samples} samples)"

    @property
    def parameters(self):
        t = self.table
        return {"omega_rad_s": t.omega.tolist(), "eps_imag": t.eps_imag.tolist(),
                "low_tail": asdict(t.low_tail), "high_tail": asdict(t.high_tail)}

    @classmethod
    def from_parameters(cls, params, label=None):
        table = TabulatedAbsorption(params["omega_rad_s"], params["eps_imag"],
                                    *tails_from_dict(params))
        return cls(table, label=label)

    def eps(self, xi):
        arr = _as_xi(xi)
        live = arr > 0.0
        out = np.empty(arr.shape)
        out[live] = _kk_value(self.table, arr[live])
        if not live.all():
            out[~live] = self._eps_at_zero()
        return out[()]

    def _eps_at_zero(self):
        t = self.table
        if t.low_tail.model == "constant" and t.eps_imag[0] > 0.0:
            return np.inf  # integral of eps''/w diverges logarithmically
        low = t.eps_imag[0] if t.low_tail.model == "linear" else 0.0
        high = t.eps_imag[-1] / 3.0 if t.high_tail.model == "power" and t.high_tail.exponent == 3.0 else None
        if high is None:
            high = float(_kk_high_tail(t, np.array([t.omega[0] * 1e-12]))[0])
        # the sampled part at xi = 0 is the integral of eps''/w: the q[0] moments
        return 1.0 + (2.0 / np.pi) * (float(t._blocks.q[0].sum()) + low + high)

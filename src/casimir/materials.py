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
"""

import numpy as np
from dataclasses import asdict, dataclass

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
        # per-interval linear coefficients eps'' = slope*w + offset
        w1, w2 = omega[:-1], omega[1:]
        s1, s2 = eps_imag[:-1], eps_imag[1:]
        self._dw = w2 - w1
        self._slope = (s2 - s1) / self._dw
        self._offset = s1 - self._slope * w1
        # the xi-independent factors of _kk_sampled, formed once per table
        self._w1w2 = w1 * w2
        self._dw_w1w2 = self._dw * self._w1w2
        self._sq_diff = self._dw * (w2 + w1)
        self._w1_sq = w1 * w1
        self._half_offset = 0.5 * self._offset

    @property
    def n_samples(self):
        return self.omega.size

    def halved(self):
        """Every-other-sample copy (endpoints kept) for error estimation."""
        idx = np.unique(np.r_[np.arange(0, self.omega.size, 2), self.omega.size - 1])
        return TabulatedAbsorption(self.omega[idx], self.eps_imag[idx],
                                   self.low_tail, self.high_tail)


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


def _kk_sampled(table, xi):
    """Integral of w*eps''(w)/(w^2+xi^2) over the sampled range.

    Exact for the piecewise-linear eps'' model; the per-interval
    antiderivative is rearranged so no term suffers cancellation even for
    xi far above the sampled range.
    """
    x = xi[:, None]
    x2 = x * x
    denom = x2 + table._w1w2
    v = x * table._dw / denom
    # alpha * (dw - xi*(atan(w2/xi)-atan(w1/xi))), cancellation-free form
    term_a = table._slope * (table._dw_w1w2 / denom + x * _x_minus_atan(v))
    term_b = table._half_offset * np.log1p(table._sq_diff / (table._w1_sq + x2))
    return (term_a + term_b).sum(axis=1)


def _kk_sampled_at_zero(table):
    """xi = 0 limit of the sampled part: integral of eps''(w)/w."""
    w1 = table.omega[:-1]
    w2 = table.omega[1:]
    return float(np.sum(table._slope * (w2 - w1)
                        + table._offset * np.log(w2 / w1)))


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


# (xi x interval) elements per pass of _kk_sampled: bounds the size of its
# 2-D temporaries however many frequencies are asked for.  Only the sampled
# part runs per chunk; the 1-D tails run once on the whole xi array.
# Larger chunks (65536, 262144) measured 10-25 % slower.
_KK_CHUNK = 16384


def _kk_value(table, xi):
    """eps(i xi) - operates on a validated positive 1-D array.

    The sampled part runs chunk by chunk (``_KK_CHUNK``) from factors the
    table formed at construction; the two tails run once on all of xi.
    Each node's value does not depend on the other nodes of the array.
    """
    rows = max(1, _KK_CHUNK // table.n_samples)
    xi = np.minimum(xi, _XI_FLAT)
    core = np.empty(xi.shape)
    for start in range(0, xi.size, rows):
        core[start:start + rows] = _kk_sampled(table, xi[start:start + rows])
    core = (core + _kk_low_tail(table, xi)) + _kk_high_tail(table, xi)
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
        return 1.0 + (2.0 / np.pi) * (_kk_sampled_at_zero(t) + low + high)

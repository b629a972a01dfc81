"""Material response functions on the positive imaginary frequency axis.

Causality makes eps(i xi) and mu(i xi) real, smooth and monotonically
decreasing toward 1, so everything here works in real arithmetic.  Models
accept scalar or 1-D ndarray frequencies (rad/s) and broadcast.

Zero frequency is special: the Drude and plasma permittivities (and
tabulated data with a conductor-like low-frequency tail) grow without
bound there.  Scalar evaluation at xi=0 then returns the ``DIVERGENT``
sentinel instead of an infinity, and the Drude and plasma forms return
inf at tiny xi > 0 where the value leaves float range.  Reflection code
resolves both through ``xi2_susceptibility``, the finite weight
xi^2 (eps - 1).
"""

import numpy as np
from dataclasses import dataclass

from .errors import DomainError, IngestionError, InvalidModelError
from .quadrature import _GK_NODES as _TAIL_NODES, _GK_WEIGHTS as _TAIL_WEIGHTS


class _Divergent:
    """Sentinel for a response that grows without bound at zero frequency."""

    __slots__ = ()

    def __repr__(self):
        return "divergent"


DIVERGENT = _Divergent()


def _as_xi(xi):
    """Validate an imaginary frequency (scalar or array) and return it as ndarray."""
    arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("imaginary frequency must be finite")
    if np.any(arr < 0.0):
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


def _match_shape(xi_arr, value):
    if xi_arr.ndim == 0:
        return float(value)
    return np.full(xi_arr.shape, float(value))


class MaterialResponse:
    """Base class for all material models.

    Instances are immutable after construction and safe to share across
    threads; evaluation is a pure function of (model, xi).
    """

    kind = "abstract"
    #: set on models whose frequency independence is physically wrong
    unphysical = None

    def eps(self, xi):
        raise NotImplementedError

    def mu(self, xi):
        """Relative permeability; 1 for every electric-only model."""
        return _match_shape(_as_xi(xi), 1.0)

    def xi2_susceptibility(self, xi):
        """xi^2 (eps(i xi) - 1) at a scalar xi >= 0, rad^2/s^2.

        Reflection code asks for this weight where eps itself is too large
        to represent.  The default vanishes at xi = 0, which holds for
        every eps that grows more slowly than 1/xi^2 there; models whose
        eps overflows at small xi > 0 override it with a closed form.
        """
        if xi == 0.0:
            return 0.0
        return (self.eps(xi) - 1.0) * xi * xi

    @property
    def resonance_scale(self):
        """Largest characteristic frequency of the model (0 if none), rad/s."""
        return 0.0

    def __repr__(self):
        return f"{type(self).__name__}({self.label!r})"


class PerfectConductor(MaterialResponse):
    """Ideal mirror: reflects TE with -1 and TM with +1 at every frequency.

    Its permittivity is unbounded, so ``eps`` returns the divergent
    sentinel for any xi; reflection code special-cases the kind.
    """

    kind = "PerfectConductor"

    def __init__(self, label="perfect conductor"):
        self.label = label

    def eps(self, xi):
        _as_xi(xi)
        return DIVERGENT


class InfinitelyPermeable(MaterialResponse):
    """Ideal magnetic mirror: (r_te, r_tm) = (+1, -1) at every frequency.

    The idealized counterpart of the perfect conductor; the classic
    analytically repulsive partner for it.  No real material approaches
    this behaviour, which is exactly why it is kept as an explicit
    idealization rather than a limit of a constant-mu medium.
    """

    kind = "InfinitelyPermeable"

    def __init__(self, label="infinitely permeable plate"):
        self.label = label

    def eps(self, xi):
        return _match_shape(_as_xi(xi), 1.0)

    def mu(self, xi):
        _as_xi(xi)
        return DIVERGENT


class ConstantEpsMu(MaterialResponse):
    """Non-dispersive medium with frequency-independent eps and mu.

    This is the assumption under scrutiny: real response functions vary
    with frequency, so every instance carries the ``unphysical`` flag and
    every table derived from it inherits the flag.  Values below 1 are
    permitted (they are no less fictitious than frequency independence
    itself) because the idealized uniform-light-speed constructions need
    them.
    """

    kind = "ConstantEpsMu"
    unphysical = "non-dispersive"

    def __init__(self, eps=1.0, mu=1.0, label=None):
        self.eps_const = _positive("eps", eps)
        self.mu_const = _positive("mu", mu)
        self.label = label or f"const(eps={self.eps_const:g}, mu={self.mu_const:g})"

    def eps(self, xi):
        return _match_shape(_as_xi(xi), self.eps_const)

    def mu(self, xi):
        return _match_shape(_as_xi(xi), self.mu_const)


def vacuum():
    """The trivial medium eps = mu = 1."""
    return ConstantEpsMu(1.0, 1.0, label="vacuum")


class Drude(MaterialResponse):
    """Metal with scattering: eps(i xi) = 1 + wp^2 / (xi (xi + gamma)).

    Diverges like 1/xi at zero frequency (dc conductor); scalar xi=0
    returns DIVERGENT.
    """

    kind = "Drude"

    def __init__(self, omega_p, gamma, label=None):
        self.omega_p = _positive("omega_p", omega_p)
        self.gamma = _positive("gamma", gamma)
        self.label = label or f"Drude(wp={self.omega_p:.3g}, gamma={self.gamma:.3g})"

    def eps(self, xi):
        arr = _as_xi(xi)
        if arr.ndim == 0:
            x = float(arr)
            if x == 0.0:
                return DIVERGENT
            d = x * (x + self.gamma)
            # beyond float range at tiny x, where d may underflow to 0
            return 1.0 + self.omega_p ** 2 / d if d > 0.0 else np.inf
        if np.any(arr == 0.0):
            raise DomainError("Drude permittivity diverges at xi=0; "
                              "evaluate scalars there to receive the sentinel")
        return 1.0 + self.omega_p ** 2 / (arr * (arr + self.gamma))

    def xi2_susceptibility(self, xi):
        return self.omega_p ** 2 * xi / (xi + self.gamma)

    @property
    def resonance_scale(self):
        return self.omega_p


class Plasma(MaterialResponse):
    """Dissipationless plasma: eps(i xi) = 1 + wp^2 / xi^2."""

    kind = "Plasma"

    def __init__(self, omega_p, label=None):
        self.omega_p = _positive("omega_p", omega_p)
        self.label = label or f"plasma(wp={self.omega_p:.3g})"

    def eps(self, xi):
        arr = _as_xi(xi)
        if arr.ndim == 0:
            x = float(arr)
            if x == 0.0:
                return DIVERGENT
            r = self.omega_p / x
            return 1.0 + r * r  # inf, not OverflowError, beyond float range
        if np.any(arr == 0.0):
            raise DomainError("plasma permittivity diverges at xi=0; "
                              "evaluate scalars there to receive the sentinel")
        return 1.0 + (self.omega_p / arr) ** 2

    def xi2_susceptibility(self, xi):
        return self.omega_p ** 2

    @property
    def resonance_scale(self):
        return self.omega_p


class LorentzOscillators(MaterialResponse):
    """Dielectric as a sum of bound resonances.

    eps(i xi) = 1 + sum_j f_j wp_j^2 / (w0_j^2 + xi^2 + g_j xi)

    ``oscillators`` is an iterable of (f, omega_p, omega0, gamma) tuples;
    strengths f_j >= 0, the three frequencies positive.
    """

    kind = "LorentzOscillators"

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

    def eps(self, xi):
        arr = _as_xi(xi)
        total = np.zeros(arr.shape)
        for f, wp, w0, g in self.oscillators:
            total = total + f * wp ** 2 / (w0 ** 2 + arr ** 2 + g * arr)
        result = 1.0 + total
        return float(result) if arr.ndim == 0 else result

    @property
    def resonance_scale(self):
        return max(max(wp, w0) for _, wp, w0, _ in self.oscillators)


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

    kind = "DebyeMagnetic"

    def __init__(self, delta_mu, omega_m, delta_eps=11.0, omega_e=2.0e14,
                 label=None):
        self.delta_mu = _nonnegative("delta_mu", delta_mu)
        self.omega_m = _positive("omega_m", omega_m)
        self.delta_eps = _nonnegative("delta_eps", delta_eps)
        self.omega_e = _positive("omega_e", omega_e)
        self.label = label or (f"Debye ferrite(dmu={self.delta_mu:g}, "
                               f"wm={self.omega_m:.3g})")

    def eps(self, xi):
        arr = _as_xi(xi)
        result = 1.0 + self.delta_eps * self.omega_e ** 2 / (self.omega_e ** 2 + arr ** 2)
        return float(result) if arr.ndim == 0 else result

    def mu(self, xi):
        arr = _as_xi(xi)
        result = 1.0 + self.delta_mu / (1.0 + arr / self.omega_m)
        return float(result) if arr.ndim == 0 else result

    @property
    def resonance_scale(self):
        # mu relaxes to 1 only once xi >> dmu * omega_m
        return max(max(self.delta_mu, 1.0) * self.omega_m, self.omega_e)


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
        self._slope = (s2 - s1) / (w2 - w1)
        self._offset = s1 - self._slope * w1

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
    """x - arctan(x), stable for small x (series) and exact for large."""
    x = np.asarray(x, dtype=float)
    out = x - np.arctan(x)
    small = x < 0.05
    if np.any(small):
        xs = x[small]
        x2 = xs * xs
        out[small] = xs * x2 * _atan_series(x2)
    return out


def _kk_sampled(table, xi):
    """Integral of w*eps''(w)/(w^2+xi^2) over the sampled range.

    Exact for the piecewise-linear eps'' model; the per-interval
    antiderivative is rearranged so no term suffers cancellation even for
    xi far above the sampled range.
    """
    w1 = table.omega[:-1][None, :]
    w2 = table.omega[1:][None, :]
    alpha = table._slope[None, :]
    beta = table._offset[None, :]
    x = xi[:, None]
    x2 = x * x
    dw = w2 - w1
    denom = x2 + w1 * w2
    v = x * dw / denom
    # alpha * (dw - xi*(atan(w2/xi)-atan(w1/xi))), cancellation-free form
    term_a = alpha * (dw * (w1 * w2) / denom + x * _x_minus_atan(v))
    term_b = 0.5 * beta * np.log1p((w2 - w1) * (w2 + w1) / (w1 * w1 + x2))
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
    return sn * wn ** 2 * (integrand @ w)


# (xi x sample) elements per pass of the transform: bounds the size of the
# temporaries of _kk_sampled however many frequencies are asked for.
_KK_CHUNK = 16384


def _kk_value(table, xi):
    """eps(i xi) - operates on a validated positive 1-D array."""
    rows = max(1, _KK_CHUNK // table.n_samples)
    core = np.empty(xi.shape)
    for start in range(0, xi.size, rows):
        part = xi[start:start + rows]
        core[start:start + rows] = (_kk_sampled(table, part) + _kk_low_tail(table, part)
                                    + _kk_high_tail(table, part))
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
    xi : float or 1-D array, > 0 (rad/s)
    tol : float
        Requested relative accuracy.

    Returns
    -------
    PermittivityEstimate
    """
    arr = _as_xi(xi)
    if np.any(np.asarray(arr) <= 0.0):
        raise DomainError("the transform needs xi > 0")
    flat = np.atleast_1d(arr)
    value = _kk_value(table, flat)
    value_h = _kk_value(table.halved(), flat)
    err = np.abs(value - value_h)
    warning = None
    bad = err > tol * np.abs(value)
    if np.any(bad):
        warning = (f"requested tolerance {tol:g} not reached at "
                   f"{int(bad.sum())}/{flat.size} frequencies; "
                   "denser sampling of eps'' is needed")
    if arr.ndim == 0:
        return PermittivityEstimate(float(value[0]), float(err[0]), warning)
    return PermittivityEstimate(value, err, warning)


class Tabulated(MaterialResponse):
    """Material whose eps(i xi) comes from a measured absorption table."""

    kind = "Tabulated"

    def __init__(self, table, label=None):
        if not isinstance(table, TabulatedAbsorption):
            raise InvalidModelError("Tabulated needs a TabulatedAbsorption")
        self.table = table
        self.label = label or f"tabulated({table.n_samples} samples)"

    def eps(self, xi):
        arr = _as_xi(xi)
        if arr.ndim == 0:
            if float(arr) == 0.0:
                return self._eps_at_zero()
            return float(_kk_value(self.table, np.atleast_1d(arr))[0])
        if np.any(arr == 0.0):
            raise DomainError("tabulated permittivity at xi=0 must be "
                              "evaluated as a scalar")
        return _kk_value(self.table, arr)

    def _eps_at_zero(self):
        t = self.table
        if t.low_tail.model == "constant" and t.eps_imag[0] > 0.0:
            return DIVERGENT  # integral of eps''/w diverges logarithmically
        low = t.eps_imag[0] if t.low_tail.model == "linear" else 0.0
        high = t.eps_imag[-1] / 3.0 if t.high_tail.model == "power" and t.high_tail.exponent == 3.0 else None
        if high is None:
            high = float(_kk_high_tail(t, np.array([t.omega[0] * 1e-12]))[0])
        return 1.0 + (2.0 / np.pi) * (_kk_sampled_at_zero(t) + low + high)

    @property
    def resonance_scale(self):
        return float(self.table.omega[-1])


# ---------------------------------------------------------------------------
# Operation-style entry points
# ---------------------------------------------------------------------------

def eval_eps(model, xi):
    """Permittivity of ``model`` at imaginary frequency ``xi`` (rad/s).

    Returns a real value >= 1 for xi > 0, or the DIVERGENT sentinel at
    xi = 0 for conductor-like models.
    """
    if not isinstance(model, MaterialResponse):
        raise InvalidModelError(f"not a material model: {model!r}")
    return model.eps(xi)


def eval_mu(model, xi):
    """Permeability of ``model``; identically 1 except for the constant
    and ferrite-class models (and the ideal permeable mirror)."""
    if not isinstance(model, MaterialResponse):
        raise InvalidModelError(f"not a material model: {model!r}")
    return model.mu(xi)

"""Material response functions on the positive imaginary frequency axis.

Causality makes eps(i xi) and mu(i xi) real, smooth and monotonically
decreasing toward 1, so everything here works in real arithmetic.  Models
accept scalar or ndarray frequencies (rad/s) and evaluate them as arrays;
a scalar frequency gives a float.

A response that diverges is inf: the Drude and plasma permittivities (and
tabulated data with a conductor-like low-frequency tail) at xi = 0 and
wherever they leave float range at tiny xi, and the ideal mirrors at every
xi.  Reflection code takes the weight xi^2 (eps - 1) of an infinite eps
from ``xi2_susceptibility``: finite for the metals, and inf, an infinite
decay constant, for the perfect conductor.

Tabulated absorption data reach the imaginary axis through the
Kramers-Kronig integral of a piecewise-linear eps'', extended below the
first sample and above the last by power laws whose parts are one integral,
``_power_tail`` (Lambrecht & Reynaud, Eur. Phys. J. D 8, 309 (2000)).  The
sampled part is split per node xi into a near and a far field, as in a fast
multipole method (Greengard & Rokhlin, J. Comput. Phys. 73, 325 (1987)):
the intervals go in blocks of 64, the blocks that meet rho xi < w < xi/rho
(rho = 1/4) are summed interval by interval in closed form, and every other
block adds a 14-term series in (w/xi)^2 or (xi/w)^2 from moments the table
builds once, at its first transform.  The series is exact to 1.4e-17 of a
block's part and its moments have non-negative integrands, so the far field
is more accurate than the direct sum it replaces.  A ``Tabulated`` model
interpolates the log of the integral on per-decade Chebyshev panels that
each table builds once.
"""

import math
import numbers

import numpy as np
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

from .errors import (DomainError, IngestionError, InvalidModelError,
                     ModelParameterTypeError)
from .quadrature import _GK_WEIGHTS as _TAIL_WEIGHTS, kronrod_nodes


# eps is taken at min(xi, _XI_FLAT), where xi^2 is finite and eps = 1 to
# rounding for every model, since the constructors keep each frequency of a
# model (and each sample of a table) at most _MAX_FREQUENCY, rad/s.  They
# keep each one at least _MIN_FREQUENCY too, so that a ratio of two model
# frequencies squared, such as (omega_p / omega0)^2 in a static Lorentz eps,
# stays below 1e300 and a table's w1 w2 stays a normal float.
_XI_FLAT = 1e150
_MAX_FREQUENCY = 1e140
_MIN_FREQUENCY = 1e-10


def _as_xi(xi):
    """Validate an imaginary frequency (scalar or array) and return it as ndarray."""
    arr = np.asarray(xi, dtype=float)
    if not np.isfinite(arr).all():
        raise DomainError("imaginary frequency must be finite")
    if (arr < 0.0).any():
        raise DomainError("imaginary frequency must be non-negative")
    return arr


def _real_number(value, error, name):
    """``value`` as a Python float if it is one real number: an int, a
    float, a numpy integer or float, or a 0-d array of one, with the bits
    ``float`` gives it; an int beyond float range is inf.  A bool, a
    string, None or any other array raises ``error``."""
    if isinstance(value, np.ndarray) and value.ndim == 0:
        value = value[()]
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _finite(name, value):
    value = _real_number(value, ModelParameterTypeError, name)
    if not np.isfinite(value):
        raise InvalidModelError(f"{name} must be finite, got {value!r}")
    return value


def _positive(name, value):
    value = _finite(name, value)
    if value <= 0.0:
        raise InvalidModelError(f"{name} must be positive, got {value!r}")
    return value


def _frequency(name, value):
    value = _positive(name, value)
    if value > _MAX_FREQUENCY:
        raise InvalidModelError(f"{name} must be at most {_MAX_FREQUENCY:g} rad/s, "
                                f"got {value!r}")
    if value < _MIN_FREQUENCY:
        raise InvalidModelError(f"{name} must be at least {_MIN_FREQUENCY:g} rad/s, "
                                f"got {value!r}")
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
    gives the weight of an infinite eps: finite for the metals, and inf for
    the perfect conductor.  A model file stores
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
        forms override it (inf for the ideal conductor).
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
        return _constant(xi, np.inf)


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
        self.omega_p = _frequency("omega_p", omega_p)
        self.gamma = _frequency("gamma", gamma)
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
        self.omega_p = _frequency("omega_p", omega_p)
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
        return _constant(xi, self.omega_p ** 2)


class LorentzOscillators(MaterialResponse):
    """Dielectric as a sum of bound resonances.

    eps(i xi) = 1 + sum_j f_j wp_j^2 / (w0_j^2 + xi^2 + g_j xi)

    ``oscillators`` is an iterable of (f, omega_p, omega0, gamma) tuples;
    strengths f_j >= 0, the three frequencies positive, and the static
    eps(0) = 1 + sum_j f_j wp_j^2 / w0_j^2, the largest eps, finite.
    """

    def __init__(self, oscillators, label=None):
        terms, static = [], 1.0
        for j, osc in enumerate(oscillators):
            try:
                f, wp, w0, g = osc
            except (TypeError, ValueError):
                raise InvalidModelError(
                    f"oscillator {j}: expected (f, omega_p, omega0, gamma)")
            f, wp, w0, g = (_nonnegative(f"f[{j}]", f), _frequency(f"omega_p[{j}]", wp),
                            _frequency(f"omega0[{j}]", w0), _frequency(f"gamma[{j}]", g))
            static += f * wp ** 2 / w0 ** 2
            if not math.isfinite(static):
                raise InvalidModelError(f"oscillator {j}: the static eps "
                                        "1 + sum f omega_p^2 / omega0^2 is not finite")
            terms.append((f, wp, w0, g))
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
        self.omega_m = _frequency("omega_m", omega_m)
        self.delta_eps = _nonnegative("delta_eps", delta_eps)
        self.omega_e = _frequency("omega_e", omega_e)
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
        with np.errstate(over="ignore"):  # xi / omega_m past float range: mu = 1
            result = 1.0 + self.delta_mu / (1.0 + arr / self.omega_m)
        return result[()]


# ---------------------------------------------------------------------------
# Tabulated absorption data and the transform to the imaginary axis
# ---------------------------------------------------------------------------

_LOW_TAIL_MODELS = ("constant", "linear", "zero")


@dataclass(frozen=True)
class LowTail:
    """Extrapolation of eps''(w) from the first sample (w1, s1) down to w = 0:
    s1 ("constant", eps(0) infinite), s1 w/w1 ("linear") or 0 ("zero")."""

    model: str = "constant"

    def __post_init__(self):
        if self.model not in _LOW_TAIL_MODELS:
            raise IngestionError(f"unknown low-frequency tail model {self.model!r}; "
                                 f"choose from {_LOW_TAIL_MODELS}")


@dataclass(frozen=True)
class HighTail:
    """Extrapolation of eps''(w) above the last sample (wn, sn):
    sn (wn/w)^exponent ("power") or 0 ("zero").

    exponent >= 1 keeps the transform integrand decaying at least as
    1/w^2; anything slower is rejected as divergent for this purpose.
    """

    model: str = "power"
    exponent: float = 3.0

    def __post_init__(self):
        if self.model not in ("power", "zero"):
            raise IngestionError(f"unknown high-frequency tail model {self.model!r}; "
                                 "choose 'power' or 'zero'")
        exponent = _real_number(self.exponent, IngestionError, "high-frequency tail exponent")
        object.__setattr__(self, "exponent", exponent)
        if self.model == "power":
            if not np.isfinite(exponent) or exponent < 1.0:
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
                     exponent=high.get("exponent", 3.0)))


class TabulatedAbsorption:
    """Measured (or synthesized) absorption spectrum eps''(omega).

    Samples must be strictly increasing in omega (rad/s, all positive)
    with non-negative eps''.  Between samples eps'' is taken piecewise
    linear; outside, the configured tails apply.
    """

    def __init__(self, omega, eps_imag, low_tail=None, high_tail=None, _halving=True):
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
        if omega[-1] > _MAX_FREQUENCY:
            raise IngestionError(f"omega samples must be at most {_MAX_FREQUENCY:g} rad/s")
        if omega[0] < _MIN_FREQUENCY:
            raise IngestionError(f"omega samples must be at least {_MIN_FREQUENCY:g} rad/s")
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
        # xi-independent factors of _kk_sampled, formed once per table, after
        # those of the copy ``halved`` makes, which checks no copy of its own
        every_other = np.r_[0:omega.size - 1:2, omega.size - 1]
        for idx in ([every_other] if _halving else []) + [slice(None)]:
            w1, w2 = omega[idx][:-1], omega[idx][1:]
            s1, s2 = eps_imag[idx][:-1], eps_imag[idx][1:]
            dw = w2 - w1
            with np.errstate(over="ignore"):  # refused below
                slope = (s2 - s1) / dw
                offset = s1 - slope * w1
                w1w2 = w1 * w2
                self._factors = np.array([slope, dw, dw * w1w2, w1w2, 0.5 * offset,
                                          dw * (w2 + w1), w1 * w1])
            if not np.isfinite(self._factors).all():
                # dw w1 w2 passes float range from samples at ~1e102 rad/s
                raise IngestionError("the table's transform overflows: samples too "
                                     "high or too steep")
        self._halved = None
        # decade -> its row of _kk_panels, built at its first node; threads
        # that build one decade together store equal arrays
        self._panels = {}

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
            idx = np.r_[0:self.omega.size - 1:2, self.omega.size - 1]
            self._halved = TabulatedAbsorption(self.omega[idx], self.eps_imag[idx],
                                               self.low_tail, self.high_tail, _halving=False)
        return self._halved


def _atan_series(x2):
    """(x - arctan x) / x^3 from its series in x^2, for x < 0.05: to x^10/13,
    the first dropped term being below 5e-17 of 1/3 there."""
    acc = x2 / -13.0
    for c in (1.0 / 11.0, -1.0 / 9.0, 1.0 / 7.0, -1.0 / 5.0):
        acc += c
        acc *= x2
    acc += 1.0 / 3.0
    return acc


def _x_minus_atan(x):
    """x - arctan(x): the series below 0.05, arctan at or above it.

    Each element takes one branch only.  Above the switch x - arctan(x)
    still cancels: its relative error is up to 8e-14 up to x = 0.2, 5e-15
    up to 1 and 3e-16 beyond.  When no element
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
    v = x * dw
    v /= denom
    # alpha * (dw - xi*(atan(w2/xi)-atan(w1/xi))), cancellation-free form
    term = _x_minus_atan(v)
    term *= x
    term += np.divide(dw_w1w2, denom, out=denom)
    term *= slope
    # plus half_offset * log1p(sq_diff / (w1_sq + x2)), in denom's memory
    np.log1p(np.divide(sq_diff, np.add(w1_sq, x2, out=denom), out=denom), out=denom)
    denom *= half_offset
    term += denom
    return term.reshape(x.shape[0], -1).sum(axis=1)


def _kk_sampled(table, xi):
    """Integral of w*eps''(w)/(w^2+xi^2) over the sampled range: the direct
    sum over every interval."""
    return _kk_interval_sums(xi[:, None], table._factors)


# Terms of the power-law tails' two series: each has a ratio of at most 1/4,
# so the first dropped term is below 4^-28 ~ 1.4e-17 of the sum.
_TAIL_TERMS = np.arange(28.0)
_LN_HALF, _LN_TWO = math.log(0.5), math.log(2.0)
_TINY = np.finfo(float).tiny


def _log_ratio(a, b):
    """ln(a / b) for a, b > 0; ln a - ln b where a / b is not a normal float."""
    with np.errstate(over="ignore", under="ignore"):
        r = a / b
    return np.log(r, out=np.log(a) - np.log(b), where=(r >= _TINY) & (r < np.inf))


def _power_tail(p, s, ln_z):
    r"""z^-s \int_0^z u^(p-1) / (1 + u^2) du at z = exp(ln_z), for p > 0 and
    s <= p: the transform beyond either end of a table.

    Below u = 1/2 the series in u^2, above u = 2 the series in 1/u^2, each
    term in closed form; between them one Kronrod panel in ln u, where the
    integrand is analytic within pi/2 of the real axis.  Every power of z
    comes from ln_z, and each part is a row sum, not a matrix product, which
    may round a row differently depending on how many rows come with it.
    """
    k = _TAIL_TERMS
    sign = (-1.0) ** k
    # on [0, c], c = min(z, 1/2): c^p z^-s sum_k (-1)^k c^{2k} / (p + 2k)
    ln_c = np.minimum(ln_z, _LN_HALF)
    out = np.exp((p - s) * ln_c + s * (ln_c - ln_z)) * (
        sign * np.power.outer(np.exp(2.0 * ln_c), k) / (p + 2.0 * k)).sum(axis=1)
    if (ln_z > _LN_HALF).any():
        # on [1/2, min(z, 2)]: z^-s u^p / (1 + u^2) d(ln u)
        ln_u, half = kronrod_nodes(_LN_HALF, np.clip(ln_z, _LN_HALF, _LN_TWO))
        f = np.exp(p * ln_u - s * np.maximum(ln_z, _LN_HALF)[:, None])
        out = out + half * (f / (1.0 + np.exp(2.0 * ln_u)) * _TAIL_WEIGHTS).sum(axis=1)
    if (ln_z > _LN_TWO).any():
        # on [2, max(z, 2)], with m = p - 2 - 2k and L = ln(z / 2):
        # z^-s sum_k (-1)^k \int_2^z u^{m-1} du, the integral being
        # max(2^m, z^m) (1 - e^{-|m| L}) / |m|, or L where m = 0
        ln_zc = np.maximum(ln_z, _LN_TWO)[:, None]
        span = ln_zc - _LN_TWO
        m = p - 2.0 - 2.0 * k
        size = np.where(m == 0.0, 1.0, np.abs(m))
        part = np.where(m == 0.0, span, -np.expm1(-span * size) / size)
        scale = np.exp(np.maximum(m * _LN_TWO - s * ln_zc, (m - s) * ln_zc))
        out = out + (sign * scale * part).sum(axis=1)
    return out


def _kk_low_tail(table, xi):
    """eps'' = s1 (w/w1)^q below w1: q = 0 "constant", 1 "linear", z = w1/xi."""
    s1, kind = table.eps_imag[0], table.low_tail.model
    if kind == "zero" or s1 == 0.0:
        return np.zeros_like(xi)
    q = 0.0 if kind == "constant" else 1.0
    return s1 * _power_tail(q + 2.0, q, _log_ratio(table.omega[0], xi))


def _kk_high_tail(table, xi):
    """eps'' = sn (wn/w)^p above wn, z = xi/wn."""
    sn, tail = table.eps_imag[-1], table.high_tail
    if tail.model == "zero" or sn == 0.0:
        return np.zeros_like(xi)
    return sn * _power_tail(tail.exponent, tail.exponent, _log_ratio(xi, table.omega[-1]))


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
# holds ~12 temporaries of up to 40 KB; at 16384 elements each was mapped
# afresh (~9,000 page faults per 600-node transform), and 15360 ran slower.
# Tabulated.eps transforms the 32 points of each decade panel it lacks, all
# in one call (288 for a 0.3 um pressure's 9 decades) and once per table;
# how its passes reuse the heap also depends on glibc's trim threshold.
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
    minus, plus = 1.0 - _GL_NODES, 1.0 + _GL_NODES
    # in w: node (w1 (1-x) + w2 (1+x))/2, eps'' = (s1 (1-x) + s2 (1+x))/2
    wn = (0.5 * w1) * minus
    wn += (0.5 * w2) * plus
    y = wn / h
    p_term = s1 * minus
    p_term += s2 * plus
    p_term *= y
    p_term *= 0.25 * dw / h
    # in u = 1/w: node u = wn / (w1 w2), so w = w1 w2 / wn and
    # (lo u)^(2k) eps''/u du = (lo u)^(2k-2) (lo/w1)(lo/w2) dw/4 *
    # (s1 (1+x)/w1 + s2 (1-x)/w2) times the rule's weight
    z2 = np.multiply(wn, l / (w1 * w2), out=wn)
    z2 *= z2
    q_term = (s1 / w1) * plus
    q_term += (s2 / w2) * minus
    q_term *= 0.25 * dw * (l / w1) * (l / w2)

    def block_sums(a):
        return np.bincount(block, weights=a, minlength=n_blocks)

    p = np.empty((_KK_TERMS, n_blocks))
    q = np.empty((_KK_TERMS, n_blocks))
    c1, c2 = _log_mean_weights(w1[:, 0], w2[:, 0])
    q[0] = block_sums(s1[:, 0] * c1 + s2[:, 0] * c2)
    y2 = np.multiply(y, y, out=y)
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


def _kk_integral(table, xi):
    """The integral of w eps''(w) / (w^2 + xi^2) over w > 0 at a validated
    positive 1-D array: the sampled part from ``_kk_near_far``, the tails
    once on all of xi.  Each node's value does not depend on the others."""
    return (_kk_near_far(table, xi) + _kk_low_tail(table, xi)) + _kk_high_tail(table, xi)


def _kk_value(table, xi):
    """eps(i xi) by the direct transform, at a validated positive 1-D array:
    the path of ``kramers_kronig``."""
    return 1.0 + (2.0 / np.pi) * _kk_integral(table, np.minimum(xi, _XI_FLAT))


# Tabulated.eps reads the transform from panels, one per decade of xi: the
# log of the integral at _PANEL_POINTS first-kind Chebyshev points in log
# xi.  Every kernel w / (w^2 + xi^2) has a positive real part for |Im ln xi|
# < pi/4, so that log is analytic there for any table: eps within 4e-14 of
# the direct transform on 600 random tables (5e-13 with 24 points).
# Barycentric form: Trefethen, Approximation Theory and Approximation
# Practice, ch. 5.
_PANEL_POINTS = 32
_CHEB_ANGLES = (2.0 * np.arange(_PANEL_POINTS) + 1.0) * np.pi / (2 * _PANEL_POINTS)
_CHEB_POINTS = np.cos(_CHEB_ANGLES)
_CHEB_WEIGHTS = (-1.0) ** np.arange(_PANEL_POINTS) * np.sin(_CHEB_ANGLES)


def _kk_panels(table, decades):
    """The log of the transform integral at the Chebyshev points of each
    decade 10^j <= xi < 10^(j+1) of ``decades``, one row each, the decades
    the table lacks built in one transform; nan where a point or an integral
    is not a positive normal float, and the decade keeps the direct transform."""
    missing = [j for j in decades if j not in table._panels]
    if missing:
        xi = 10.0 ** (np.array(missing, dtype=float)[:, None] + 0.5 + 0.5 * _CHEB_POINTS)
        logs = np.full(xi.shape, np.nan)
        normal = np.flatnonzero(xi.min(axis=1) >= _TINY)
        if normal.size:
            integral = _kk_integral(table, xi[normal].reshape(-1)).reshape(normal.size, -1)
            good = integral.min(axis=1) >= _TINY
            logs[normal[good]] = np.log(integral[good])
        table._panels.update(zip(missing, logs))
    return np.reshape([table._panels[j] for j in decades], (-1, _PANEL_POINTS))


def _barycentric(t, f):
    """The interpolant through each row of ``f`` at the Chebyshev points, at
    its t in [-1, 1], each row summed by itself; a t on a point takes f there."""
    with np.errstate(divide="ignore"):
        c = _CHEB_WEIGHTS / (t[:, None] - _CHEB_POINTS)
    hit = np.isinf(c)
    c = np.where(hit.any(axis=1, keepdims=True), hit, c)
    return (c * f).sum(axis=1) / c.sum(axis=1)


def _kk_from_panels(table, xi):
    """eps(i xi) from the table's decade panels, at a validated positive
    1-D array.  Each node's value does not depend on the other nodes."""
    xi = np.minimum(xi, _XI_FLAT)
    y = np.log10(xi)
    j = np.floor(y)
    decades, row = np.unique(j, return_inverse=True)
    logs = _kk_panels(table, decades.astype(int).tolist())
    core = np.exp(_barycentric(2.0 * (y - j) - 1.0, logs[row]))
    direct = np.isnan(core)
    if direct.any():
        core[direct] = _kk_integral(table, xi[direct])
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
    tol : float, finite and > 0
        Requested relative accuracy.

    Returns
    -------
    PermittivityEstimate
    """
    arr = _as_xi(xi)
    if np.any(arr <= 0.0):
        raise DomainError("the transform needs xi > 0")
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol!r}")
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
    """Material whose eps(i xi) comes from a measured absorption table,
    read from its decade panels (``_kk_panels``), each built once."""

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
        out[live] = _kk_from_panels(self.table, arr[live])
        if not live.all():
            out[~live] = self._eps_at_zero()
        return out[()]

    def _eps_at_zero(self):
        t = self.table
        if t.low_tail.model == "constant" and t.eps_imag[0] > 0.0:
            return np.inf  # integral of eps''/w diverges logarithmically
        low = t.eps_imag[0] if t.low_tail.model == "linear" else 0.0
        tail = t.high_tail
        # eps''/w of a power tail s_n (w_n/w)^p integrates to s_n / p
        high = t.eps_imag[-1] / tail.exponent if tail.model == "power" else 0.0
        # the sampled part at xi = 0 is the integral of eps''/w: the q[0] moments
        return 1.0 + (2.0 / np.pi) * (float(t._blocks.q[0].sum()) + low + high)

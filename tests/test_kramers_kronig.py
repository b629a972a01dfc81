"""Transform of tabulated absorption data to the imaginary axis.

Oracles: the Lorentz oscillator has the analytic pair
eps''(w) = f wp^2 g w / ((w0^2-w^2)^2 + g^2 w^2)  <->
eps(i xi) = 1 + f wp^2 / (w0^2 + xi^2 + g xi), and the Drude metal its
closed imaginary-axis form.  scipy integrates the same piecewise-linear
absorption model independently to check the closed-form interval sums.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from casimir import (DomainError, HighTail, IngestionError, LowTail,
                     QuadraturePoint, Tabulated, TabulatedAbsorption,
                     kramers_kronig, reflection)
from casimir import materials
from casimir.materials import (_GL_NODES, _GL_WEIGHTS, _KK_CHUNK, _atan_series,
                               _kk_near_far, _kk_value, _kk_window, _x_minus_atan)


def lorentz_eps_imag(w, f, wp, w0, g):
    return f * wp ** 2 * g * w / ((w0 ** 2 - w ** 2) ** 2 + (g * w) ** 2)


def lorentz_eps_imaginary_axis(xi, f, wp, w0, g):
    return 1.0 + f * wp ** 2 / (w0 ** 2 + xi ** 2 + g * xi)


F, WP, W0, G = 0.8, 6e15, 4e15, 2e14


def lorentz_table(n=3000):
    w = np.geomspace(W0 * 1e-3, W0 * 1e3, n)
    return TabulatedAbsorption(w, lorentz_eps_imag(w, F, WP, W0, G),
                               LowTail("linear"), HighTail("power", 3.0))


def test_lorentzian_pair_over_four_decades():
    table = lorentz_table()
    xi = np.geomspace(W0 * 1e-2, W0 * 1e2, 41)
    est = kramers_kronig(table, xi, tol=1e-4)
    expected = lorentz_eps_imaginary_axis(xi, F, WP, W0, G)
    assert np.max(np.abs(est.value - expected) / expected) < 1e-4
    assert est.warning is None


def test_drude_sampled_table_at_plasma_frequency():
    wp, g = 1e16, 1e14
    w = np.geomspace(g * 1e-3, wp * 1e3, 2800)
    table = TabulatedAbsorption(w, wp ** 2 * g / (w * (w ** 2 + g ** 2)))
    est = kramers_kronig(table, wp, tol=1e-3)
    expected = 1.0 + wp ** 2 / (wp * (wp + g))
    assert est.value == pytest.approx(expected, rel=1e-3)


def test_vacuum_table_is_exactly_one():
    table = TabulatedAbsorption([1e14, 5e14, 1e15], [0.0, 0.0, 0.0])
    est = kramers_kronig(table, 3e14)
    assert est.value == 1.0
    assert est.error_estimate == 0.0


def test_closed_forms_match_scipy_on_piecewise_linear_model():
    table = lorentz_table(60)
    w = table.omega
    s = table.eps_imag

    def eps2_interp(x):
        return np.interp(x, w, s)

    for xi in (W0 * 0.03, W0, W0 * 40.0):
        pieces = [scipy_quad(lambda x: x * eps2_interp(x) / (x * x + xi * xi),
                             w[i], w[i + 1], epsabs=1e-300, epsrel=1e-12)[0]
                  for i in range(len(w) - 1)]
        ref = sum(pieces)
        # strip the analytic tails from the full transform to isolate the core
        from casimir.materials import _kk_sampled
        mine = _kk_sampled(table, np.array([xi]))[0]
        assert mine == pytest.approx(ref, rel=1e-9)


def test_error_estimate_flags_coarse_tables():
    coarse = TabulatedAbsorption(np.geomspace(W0 * 1e-2, W0 * 1e2, 15),
                                 lorentz_eps_imag(
                                     np.geomspace(W0 * 1e-2, W0 * 1e2, 15),
                                     F, WP, W0, G))
    est = kramers_kronig(coarse, W0, tol=1e-8)
    assert est.warning is not None
    assert "tolerance" in est.warning


def test_transform_requires_positive_xi():
    table = lorentz_table(100)
    with pytest.raises(DomainError):
        kramers_kronig(table, 0.0)
    with pytest.raises(DomainError):
        kramers_kronig(table, -1e15)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_transform_requires_a_finite_positive_tol(tol):
    with pytest.raises(DomainError, match="tol must be finite and > 0"):
        kramers_kronig(lorentz_table(100), W0, tol=tol)


def test_table_validation():
    with pytest.raises(IngestionError):
        TabulatedAbsorption([1e15], [0.1])                      # too few
    with pytest.raises(IngestionError):
        TabulatedAbsorption([1e15, 1e15], [0.1, 0.1])           # not increasing
    with pytest.raises(IngestionError):
        TabulatedAbsorption([1e14, 1e15], [0.1, -0.1])          # negative
    with pytest.raises(IngestionError):
        TabulatedAbsorption([0.0, 1e15], [0.1, 0.1])            # omega <= 0
    with pytest.raises(IngestionError):
        TabulatedAbsorption([1e14, 1e15], [0.1, np.inf])        # non-finite


def test_divergent_tail_rejected():
    with pytest.raises(IngestionError):
        HighTail("power", 0.5)
    with pytest.raises(IngestionError):
        HighTail("exponential")
    with pytest.raises(IngestionError):
        LowTail("quadratic")


# the tails' ratios xi / w over which they are held to a 40-digit reference
TAIL_RATIOS = np.concatenate([np.geomspace(1e-12, 1e12, 97), [0.5, 1.0, 2.0]])


def worst_relative_error(got, ref):
    with mp.workdps(40):
        return max(abs(mp.mpf(g) / r - 1) for g, r in zip(got, ref))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0])
def test_generic_power_tail_against_40_digit_reference(p):
    # sn \int_0^1 t^{p-1} / (1 + z^2 t^2) dt = sn 2F1(1, p/2; 1 + p/2; -z^2) / p,
    # z = xi / wn, across the tail's turn at t = 1/z
    wn, sn = 1e16, 0.37
    table = TabulatedAbsorption([1e14, wn], [1.0, sn], high_tail=HighTail("power", p))
    got = materials._kk_high_tail(table, TAIL_RATIOS * wn)
    with mp.workdps(40):
        ref = [sn * mp.hyp2f1(1, mp.mpf(p) / 2, 1 + mp.mpf(p) / 2, -mp.mpf(z) ** 2) / p
               for z in TAIL_RATIOS]
    assert worst_relative_error(got, ref) <= 3e-14


@pytest.mark.parametrize("low", ["constant", "linear"])
def test_low_tails_against_40_digit_reference(low):
    # s1 \int_0^w1 (w/w1)^q w / (w^2 + xi^2) dw at u = xi / w1: for q = 0,
    # s1 log1p(1/u^2) / 2, and for q = 1, s1 (1 - u atan(1/u))
    w1, s1 = 1e14, 0.37
    table = TabulatedAbsorption([w1, 1e16], [s1, 1.0], LowTail(low))
    got = materials._kk_low_tail(table, TAIL_RATIOS * w1)
    with mp.workdps(40):
        u = [mp.mpf(x) for x in TAIL_RATIOS]
        ref = [s1 * (mp.log1p(1 / v ** 2) / 2 if low == "constant" else 1 - v * mp.atan(1 / v))
               for v in u]
    assert worst_relative_error(got, ref) <= 3e-14


def test_exponent_3_tail_and_panels_stay_on_the_transform_far_above_the_table():
    # sn (wn/xi)^2, up to the rounding of ln(xi/wn) in its powers, where a
    # tail formed from (wn/xi)^3 underflows to 0 from xi / wn ~ 1e108 on
    # and the decade panel across that jump errs by up to 21 %
    w = np.geomspace(1e6, 1e10, 200)
    table = TabulatedAbsorption(w, lorentz_eps_imag(w, F, WP * 1e-6, W0 * 1e-6, G * 1e-6),
                                LowTail("linear"), HighTail("power", 3.0))
    z = np.geomspace(1e100, 1e140, 161)
    xi = z * w[-1]
    np.testing.assert_allclose(materials._kk_high_tail(table, xi) * z ** 2 / table.eps_imag[-1],
                               1.0, rtol=1e-13, atol=0.0)
    direct = materials._kk_integral(table, xi)
    y = np.log10(xi)
    j = np.floor(y)
    logs = np.array([materials._kk_panels(table, [int(d)])[0] for d in j])
    panels = np.exp(materials._barycentric(2.0 * (y - j) - 1.0, logs))
    np.testing.assert_allclose(panels, direct, rtol=1e-12, atol=0.0)


def test_tabulated_model_zero_frequency():
    table_const = TabulatedAbsorption([1e14, 1e15], [0.5, 0.1])  # default constant tail
    assert Tabulated(table_const).eps(0.0) == np.inf
    table_lin = TabulatedAbsorption([1e14, 1e15], [0.5, 0.1], LowTail("linear"))
    eps0 = Tabulated(table_lin).eps(0.0)
    assert np.isfinite(eps0) and eps0 > 1.0
    # static limit bounds every positive frequency value
    assert eps0 > Tabulated(table_lin).eps(1e13)


def test_tabulated_model_matches_transform():
    table = lorentz_table(800)
    model = Tabulated(table)
    xi = np.geomspace(W0 * 1e-2, W0 * 1e2, 7)
    est = kramers_kronig(table, xi)
    assert np.allclose(model.eps(xi), est.value, rtol=1e-14)
    assert model.mu(1e15) == 1.0
    # an array holding xi = 0 takes the static limit there
    assert model.eps(np.array([0.0, 1e15])).tolist() == [model.eps(0.0), model.eps(1e15)]


@pytest.mark.parametrize("low", ["constant", "linear", "zero"])
@pytest.mark.parametrize("high", [HighTail("power", 3.0), HighTail("power", 2.0),
                                  HighTail("zero")], ids=["power3", "power2", "zero"])
def test_tails_stay_finite_at_tiny_xi(low, high):
    w = np.geomspace(W0 * 1e-3, W0 * 1e3, 300)
    table = TabulatedAbsorption(w, lorentz_eps_imag(w, F, WP, W0, G),
                                LowTail(low), high)
    model = Tabulated(table)
    at_zero = model._eps_at_zero()
    for xi in (1e-100, 1e-200, 1e-300, 5e-324):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eps = model.eps(xi)
            r_te, r_tm = reflection(model, QuadraturePoint(xi, 0.0))
        assert np.isfinite(eps) and eps >= 1.0
        assert abs(r_te) <= 1.0 and abs(r_tm) <= 1.0
        if low != "constant":
            # these tails keep eps finite at xi = 0, and tiny xi must reach it
            assert eps == pytest.approx(at_zero, rel=1e-12)


@pytest.mark.parametrize("low", ["constant", "linear", "zero"])
@pytest.mark.parametrize("high", [HighTail("power", 3.0), HighTail("power", 2.0),
                                  HighTail("zero")], ids=["power3", "power2", "zero"])
def test_tails_reach_one_at_huge_xi(low, high):
    # xi^2 overflowed from ~1e155 on, and x dw / (x^2 + w1 w2) became inf/inf
    w = np.geomspace(W0 * 1e-3, W0 * 1e3, 300)
    model = Tabulated(TabulatedAbsorption(w, lorentz_eps_imag(w, F, WP, W0, G),
                                          LowTail(low), high))
    xi = np.array([1e155, 1e200, 1e300, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(model.eps(xi) == 1.0)
        assert all(model.eps(float(x)) == 1.0 for x in xi)


def test_array_evaluation_across_chunk_boundaries():
    table = lorentz_table(2500)
    model = Tabulated(table)
    rows = _KK_CHUNK // table.n_samples
    assert rows > 1
    for size in (1, rows, rows + 1, 3 * rows + 2):
        xi = np.geomspace(W0 * 1e-4, W0 * 1e4, size)
        eps = model.eps(xi)
        est = kramers_kronig(table, xi)
        one_by_one = [kramers_kronig(table, float(x)) for x in xi]
        np.testing.assert_allclose(eps, [model.eps(float(x)) for x in xi],
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(est.value, [e.value for e in one_by_one],
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(est.error_estimate,
                                   [e.error_estimate for e in one_by_one],
                                   rtol=1e-15, atol=0.0)


def reference_x_minus_atan(x):
    """x - arctan(x) element by element: the series below 0.05."""
    out = []
    for xv in np.ravel(x):
        one = np.array([xv])
        if xv < 0.05:
            out.append((one * (one * one) * _atan_series(one * one))[0])
        else:
            out.append((one - np.arctan(one))[0])
    return np.array(out).reshape(np.shape(x))


@pytest.mark.parametrize("x", [
    np.array([0.0, 1e-300, 1e-8, 0.0499, np.nextafter(0.05, 0.0), 0.05, 0.051,
              1.0, 1e8, 1e300, 1e-3]),
    np.geomspace(1e-200, 0.049, 500),
    np.geomspace(0.05, 1e200, 500),
    np.array(0.01),
    np.array(3.0),
    np.array([]),
], ids=["straddling", "all-series", "all-arctan", "0d-series", "0d-arctan", "empty"])
def test_x_minus_atan_takes_each_element_by_its_own_branch(x):
    got = np.asarray(_x_minus_atan(x))
    assert got.shape == np.shape(x)
    np.testing.assert_array_equal(got, reference_x_minus_atan(x))


def test_x_minus_atan_series_against_40_digit_reference():
    # the series' side of the switch, up to just below it, where the first
    # dropped term is largest
    x = np.concatenate([np.geomspace(1e-4, 0.01, 50), np.linspace(0.01, 0.04999999, 400),
                        [0.0499, np.nextafter(0.05, 0.0)]])
    got = _x_minus_atan(x)
    with mp.workdps(40):
        ref = [v - mp.atan(v) for v in map(mp.mpf, x)]
        worst = max(abs(mp.mpf(g) / r - 1) for g, r in zip(got, ref))
    assert worst < 4 * np.finfo(float).eps


@pytest.mark.parametrize("high", [HighTail("power", 3.0), HighTail("power", 2.0)],
                         ids=["power3", "power2"])
@pytest.mark.parametrize("low", ["constant", "linear"])
def test_kk_value_at_a_node_does_not_depend_on_the_other_nodes(low, high):
    w = np.geomspace(W0 * 1e-3, W0 * 1e3, 2500)
    table = TabulatedAbsorption(w, lorentz_eps_imag(w, F, WP, W0, G), LowTail(low), high)
    xi = np.geomspace(W0 * 1e-6, W0 * 1e6, 301)  # not a multiple of the chunk rows
    assert xi.size % (_KK_CHUNK // table.n_samples) != 0
    together = _kk_value(table, xi)
    alone = np.array([_kk_value(table, xi[i:i + 1])[0] for i in range(xi.size)])
    np.testing.assert_array_equal(together, alone)


# ---------------------------------------------------------------------------
# near/far split of the sampled part against a 40-digit reference
# ---------------------------------------------------------------------------

def reference_sampled(w, s, xi):
    """The sampled part of the piecewise-linear model at 40 digits: per
    interval, with eps'' = a + b w, (a/2) log(w^2+xi^2) + b (w - xi atan(w/xi))
    differenced across it."""
    with mp.workdps(40):
        x = mp.mpf(float(xi))
        ws = [mp.mpf(float(v)) for v in w]
        ss = [mp.mpf(float(v)) for v in s]
        logs = [mp.log(v * v + x * x) for v in ws]
        rest = [v - x * mp.atan(v / x) for v in ws]
        total = mp.mpf(0)
        for i in range(len(ws) - 1):
            b = (ss[i + 1] - ss[i]) / (ws[i + 1] - ws[i])
            a = ss[i] - b * ws[i]
            total += a / 2 * (logs[i + 1] - logs[i]) + b * (rest[i + 1] - rest[i])
        return float(total)


def sharp_lorentz_samples(n):
    # Q = w0 / g = 100: steep flanks, where the direct sum's terms cancel
    w = np.geomspace(5e15 * 1e-3, 5e15 * 1e3, n)
    return w, lorentz_eps_imag(w, 1.0, 8e15, 5e15, 5e13)


SPLIT_TABLES = {
    "sharp-lorentz": sharp_lorentz_samples(1000),
    "300-samples": (np.geomspace(W0 * 1e-3, W0 * 1e3, 300),
                    lorentz_eps_imag(np.geomspace(W0 * 1e-3, W0 * 1e3, 300), F, WP, W0, G)),
    # one interval over a factor of 10: its block is wholly far below or above
    "two-samples": (np.array([1e14, 1e15]), np.array([0.5, 0.1])),
}


@pytest.mark.parametrize("name", sorted(SPLIT_TABLES))
def test_near_far_split_against_40_digit_reference(name):
    w, s = SPLIT_TABLES[name]
    table = TabulatedAbsorption(w, s)
    # below, inside and above the samples
    xi = np.geomspace(w[0] * 1e-4, w[-1] * 1e4, 19)
    ref = np.array([reference_sampled(w, s, x) for x in xi])
    rel = np.abs(_kk_near_far(table, xi) / ref - 1.0)
    _, count = _kk_window(table._blocks, xi)
    all_far = count == 0
    assert all_far.sum() >= 6 and (~all_far).sum() >= 3
    assert rel.max() <= 1e-14
    assert rel[all_far].max() <= 2e-15


@pytest.mark.parametrize("name", sorted(SPLIT_TABLES))
def test_near_far_switch_adds_no_error_to_the_direct_sum(name):
    # The series' truncation (1.4e-17 of a block) cannot show at a switch;
    # what the split may change there is rounding.  The direct sum itself
    # moves by up to ~90 ulps between neighbouring floats xi where its terms
    # cancel, so the split is held to the direct sum's accuracy, not to a
    # fixed number of ulps.
    w, s = SPLIT_TABLES[name]
    table = TabulatedAbsorption(w, s)
    blocks = table._blocks
    # a block turns far below where rho xi reaches its top sample, and far
    # above where xi / rho falls to its bottom one
    for switch in np.concatenate([blocks.hi / materials._KK_RHO,
                                  blocks.lo * materials._KK_RHO]):
        xi = np.array([np.nextafter(switch, 0.0), switch, np.nextafter(switch, np.inf)])
        split = _kk_near_far(table, xi)
        direct = materials._kk_sampled(table, xi)
        ref = reference_sampled(w, s, switch)  # within 2 ulps at either neighbour
        allowed = np.max(np.abs(direct - ref)) + 4.0 * np.spacing(ref)
        assert np.all(np.abs(split - ref) <= allowed)


def test_block_moments_are_built_once_per_table_and_not_at_construction(monkeypatch):
    built = []
    original = materials._kk_blocks

    def counted(table):
        built.append(table)
        return original(table)

    monkeypatch.setattr(materials, "_kk_blocks", counted)
    table = lorentz_table(500)
    model = Tabulated(table)
    assert built == []
    model.eps(np.geomspace(W0 * 1e-2, W0 * 1e2, 9))
    model.eps(W0)
    kramers_kronig(table, W0)
    kramers_kronig(table, 2.0 * W0)
    # the table and the every-other-sample copy of the error estimate
    assert built == [table, table.halved()]


def test_moment_rule_is_numpys_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(15)
    np.testing.assert_array_equal(_GL_NODES, nodes)
    np.testing.assert_array_equal(_GL_WEIGHTS, weights)


def reference_moments(w, s):
    """Every block's p[k] and q[k] (``_KKBlocks``) at 40 digits: per
    interval, with eps'' = a + b w, the antiderivatives of
    w^(2k+1) eps'' and w^(-2k-1) eps'' differenced across it."""
    n_int = len(w) - 1
    p, q = [], []
    with mp.workdps(40):
        ws = [mp.mpf(float(v)) for v in w]
        ss = [mp.mpf(float(v)) for v in s]
        for first in range(0, n_int, materials._KK_BLOCK):
            stop = min(first + materials._KK_BLOCK, n_int)
            lo, hi = ws[first], ws[stop]
            pb = [mp.mpf(0)] * materials._KK_TERMS
            qb = [mp.mpf(0)] * materials._KK_TERMS
            for i in range(first, stop):
                w1, w2 = ws[i], ws[i + 1]
                b = (ss[i + 1] - ss[i]) / (w2 - w1)
                a = ss[i] - b * w1
                for k in range(materials._KK_TERMS):
                    m = 2 * k + 2
                    pb[k] += (a * (w2 ** m - w1 ** m) / m
                              + b * (w2 ** (m + 1) - w1 ** (m + 1)) / (m + 1)) / hi ** m
                    if k == 0:
                        qb[k] += a * mp.log(w2 / w1) + b * (w2 - w1)
                    else:
                        qb[k] += lo ** (2 * k) * (a * (w1 ** -(2 * k) - w2 ** -(2 * k)) / (2 * k)
                                                  + b * (w1 ** (1 - 2 * k) - w2 ** (1 - 2 * k))
                                                  / (2 * k - 1))
            p.append(pb)
            q.append(qb)
    return p, q


def test_block_moments_against_40_digit_reference():
    # every block and every k of p and q, not only through the values of
    # the near/far split
    w, s = SPLIT_TABLES["300-samples"]
    blocks = TabulatedAbsorption(w, s)._blocks
    p, q = reference_moments(w, s)
    assert blocks.p.shape == blocks.q.shape == (materials._KK_TERMS, len(p))
    for got, ref in ((blocks.p, p), (blocks.q, q)):
        assert worst_relative_error(got.T.ravel(), [r for row in ref for r in row]) <= 4e-15


# ---------------------------------------------------------------------------
# Tabulated.eps from per-decade Chebyshev panels
# ---------------------------------------------------------------------------

# from below the tables' samples to past _XI_FLAT, and tiny xi
PANEL_XI = np.concatenate([np.geomspace(1e-30, 1e149, 2001), [1e-300, 3e-299, 1e151]])


@pytest.mark.parametrize("low", ["constant", "linear", "zero"])
@pytest.mark.parametrize("high", [HighTail("power", 3.0), HighTail("power", 2.0),
                                  HighTail("zero")], ids=["power3", "power2", "zero"])
def test_panels_match_the_direct_transform(low, high):
    w = np.geomspace(W0 * 1e-3, W0 * 1e3, 700)
    table = TabulatedAbsorption(w, lorentz_eps_imag(w, F, WP, W0, G), LowTail(low), high)
    got = materials._kk_from_panels(table, PANEL_XI)
    np.testing.assert_allclose(got, _kk_value(table, PANEL_XI), rtol=1e-12, atol=0.0)


def test_panels_match_the_direct_transform_on_random_coarse_tables():
    rng = np.random.default_rng(2022)
    tails = [HighTail("power", 3.0), HighTail("power", 1.5), HighTail("zero")]
    for k in range(30):
        w = np.unique(10.0 ** rng.uniform(8.0, 18.0, int(rng.integers(2, 40))))
        s = rng.exponential(1.0, w.size) * 10.0 ** rng.uniform(-3.0, 3.0)
        table = TabulatedAbsorption(w, s, LowTail(("constant", "linear", "zero")[k % 3]),
                                    tails[k // 3 % 3])
        xi = 10.0 ** rng.uniform(-20.0, 40.0, 200)
        np.testing.assert_allclose(materials._kk_from_panels(table, xi), _kk_value(table, xi),
                                   rtol=1e-12, atol=0.0)


def test_panel_value_at_a_node_does_not_depend_on_the_other_nodes():
    xi = np.geomspace(W0 * 1e-6, W0 * 1e6, 301)
    together = Tabulated(lorentz_table(2500)).eps(xi)
    model = Tabulated(lorentz_table(2500))
    alone = np.array([model.eps(xi[i:i + 1])[0] for i in reversed(range(xi.size))])[::-1]
    np.testing.assert_array_equal(together, alone)


def test_panels_at_their_chebyshev_points_and_at_powers_of_ten():
    table = lorentz_table(800)
    decades = range(8, 22)
    points = np.concatenate([10.0 ** (j + 0.5 + 0.5 * materials._CHEB_POINTS) for j in decades])
    tens = np.array([10.0 ** j for j in decades])
    for xi in (points, tens):
        np.testing.assert_allclose(materials._kk_from_panels(table, xi), _kk_value(table, xi),
                                   rtol=1e-13, atol=0.0)
    # a t on a point takes the point's value, bit for bit
    f = np.log(np.arange(1.0, materials._PANEL_POINTS + 1.0))
    rows = np.tile(f, (materials._PANEL_POINTS, 1))
    np.testing.assert_array_equal(materials._barycentric(materials._CHEB_POINTS, rows), f)


def test_all_zero_table_gives_exactly_one():
    model = Tabulated(TabulatedAbsorption([1e14, 5e14, 1e15], [0.0, 0.0, 0.0]))
    assert np.all(model.eps(PANEL_XI) == 1.0)
    assert model.eps(0.0) == 1.0
    assert all(np.isnan(logs).all() for logs in model.table._panels.values())


def test_underflowing_decades_keep_the_direct_transform_without_warning():
    # subnormal Chebyshev points below ~1e-308, and a weak line whose
    # integral underflows near _XI_FLAT
    table = TabulatedAbsorption([1e9, 1e10], [1e-30, 1e-30], LowTail("linear"))
    xi = np.array([5e-324, 1e-315, 3e-310, 1e120, 1e149, 1e150, 1e200])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = Tabulated(table).eps(xi)
    np.testing.assert_array_equal(got, _kk_value(table, xi))
    direct = {j for j, logs in table._panels.items() if np.isnan(logs).all()}
    assert set(np.floor(np.log10(xi[:3])).astype(int)) | {149, 150} <= direct
    assert 120 not in direct


def test_table_evaluation_never_imports_numpy_polynomial():
    # numpy.polynomial (~0.8 MB) would raise every process's peak memory
    script = """
import sys
import numpy as np
from casimir import GapConfig, LowTail, HighTail, Tabulated, TabulatedAbsorption, pressure
w = np.geomspace(1e12, 1e18, 500)
model = Tabulated(TabulatedAbsorption(w, 1e31 * w / ((1e31 - w * w) ** 2 + (1e14 * w) ** 2),
                                      LowTail("linear"), HighTail("power", 3.0)))
model.eps(np.geomspace(1e9, 1e17, 50))
pressure(GapConfig(1e-6, model, model))
assert "numpy.polynomial" not in sys.modules, "numpy.polynomial was imported"
"""
    src = str(Path(materials.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr

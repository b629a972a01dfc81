"""Transform of tabulated absorption data to the imaginary axis.

Oracles: the Lorentz oscillator has the analytic pair
eps''(w) = f wp^2 g w / ((w0^2-w^2)^2 + g^2 w^2)  <->
eps(i xi) = 1 + f wp^2 / (w0^2 + xi^2 + g xi), and the Drude metal its
closed imaginary-axis form.  scipy integrates the same piecewise-linear
absorption model independently to check the closed-form interval sums.
"""

import warnings

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


def test_generic_power_tail_agrees_with_closed_form_at_p3():
    w = np.geomspace(1e14, 1e16, 500)
    s = (1e15 / w) ** 2
    xi = np.geomspace(3e13, 3e17, 17)
    t3 = TabulatedAbsorption(w, s, high_tail=HighTail("power", 3.0))
    # p passing through the generic quadrature path, arbitrarily close to 3
    tg = TabulatedAbsorption(w, s, high_tail=HighTail("power", 3.0000001))
    v3 = _kk_value(t3, xi)
    vg = _kk_value(tg, xi)
    assert np.max(np.abs(v3 - vg) / (v3 - 1.0)) < 1e-5


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
    mp = pytest.importorskip("mpmath")
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

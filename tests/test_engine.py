"""Lifshitz engine against analytic oracles and its own invariants.

The two closed forms doing the heavy lifting:
  ideal mirrors        E = -pi^2 hbar c / (720 a^3),  P = -pi^2 hbar c / (240 a^4)
  mirror vs permeable  both scaled by -7/8 (repulsive)
obtained by summing the polarization series of the integrand; they are
recomputed here from their own constants rather than imported.
"""

import math
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from casimir import (ConstantEpsMu, ContinuumModelWarning,
                     ConvergenceError, DebyeMagnetic, DegenerateIntegrandError,
                     DomainError, Drude, GapConfig, HighTail, InfinitelyPermeable,
                     LorentzOscillators, LowTail, PerfectConductor, Plasma,
                     QuadratureConfig, QuadraturePoint, Tabulated,
                     TabulatedAbsorption, dispersion_restores_attraction,
                     dominant_frequency, energy_per_area, pressure, reflection,
                     vacuum)
from casimir import engine, materials
from casimir.engine import (_inner_integrals, _integrate_batch, _li4, _ln_one_minus,
                            _reflection_at_limits, _reflection_by_owner, integrate_gaps)
from casimir.quadrature import _EVAL_ROWS, geometric_panels

HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8


def ideal_energy(a):
    return -np.pi ** 2 * HBAR * C_LIGHT / (720.0 * a ** 3)


def ideal_pressure(a):
    return -np.pi ** 2 * HBAR * C_LIGHT / (240.0 * a ** 4)


PC = PerfectConductor()
IPP = InfinitelyPermeable()
GOLD = Drude(1.37e16, 5.3e13)
# a plasma wavelength of 1.9 nm: at 1 um its energy is within 0.15 % of the
# ideal mirrors', and it takes the 2-D quadrature
STIFF_METAL = Drude(1e18, 5.3e13)


# ---------------------------------------------------------------------------
# reflection coefficients
# ---------------------------------------------------------------------------

def test_perfect_conductor_reflects_ideally():
    # xi or k <= 1e-300, and c k beyond float range, among the points
    for point in (QuadraturePoint(0.0, 1e5), QuadraturePoint(1e15, 0.0),
                  QuadraturePoint(3e14, 2e6), QuadraturePoint(0.0, 1e-300),
                  QuadraturePoint(1e-300, 0.0), QuadraturePoint(1e15, 1e301)):
        r = reflection(PC, point)
        assert (r.r_te, r.r_tm) == (-1.0, 1.0)
        rp = reflection(IPP, point)
        assert (rp.r_te, rp.r_tm) == (1.0, -1.0)


@pytest.mark.parametrize("model, want", [(PC, (-1.0, 1.0)), (IPP, (1.0, -1.0))],
                         ids=["pc", "permeable"])
def test_ideal_mirrors_reflect_as_arrays_of_the_points_shape(model, want):
    # xi = 0, xi <= 1e-300 and c kappa0 beyond float range among the points
    xi = np.array([0.0, 5e-324, 1e-300, 1.0, 1e15, 1e300])
    kappa0 = np.hypot(np.array([1e-300, 1.0, 1e6, 1e301]), (xi / C_LIGHT)[:, None])
    owner = np.arange(xi.size)[:, None]
    two_d = _reflection_by_owner(model, xi, C_LIGHT, xi / C_LIGHT)(kappa0, owner)
    t = np.array([[0.0, 5e-324, 1e-300], [0.5, np.nextafter(1.0, 0.0), 1.0]])
    for r, shape in ((two_d, kappa0.shape), (engine._angular_reflection(model, t), t.shape)):
        for r_p, want_p in zip(r, want):
            assert isinstance(r_p, np.ndarray) and r_p.shape == shape
            assert np.all(r_p == want_p)


def test_constant_dielectric_normal_incidence():
    # eps=4, mu=1 at k=0: kappa = 2 xi/c against kappa0 = xi/c
    r = reflection(ConstantEpsMu(4.0, 1.0), QuadraturePoint(2e15, 0.0))
    assert r.r_te == pytest.approx(-1.0 / 3.0, rel=1e-14)
    assert r.r_tm == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_vacuum_does_not_reflect():
    r = reflection(vacuum(), QuadraturePoint(1e15, 3e6))
    assert r == (0.0, 0.0)


def test_drude_zero_frequency_limit():
    r = reflection(GOLD, QuadraturePoint(0.0, 4e6))
    assert r == (0.0, 1.0)


def test_plasma_zero_frequency_keeps_te():
    wp = 1e16
    k = 4e6
    r = reflection(Plasma(wp), QuadraturePoint(0.0, k))
    kappa = np.hypot(k, wp / C_LIGHT)
    assert r.r_tm == 1.0
    assert r.r_te == pytest.approx((k - kappa) / (k + kappa), rel=1e-14)
    assert -1.0 < r.r_te < 0.0


def test_reflection_rejects_degenerate_point():
    for model in (GOLD, PC, IPP):
        with pytest.raises(DomainError):
            reflection(model, QuadraturePoint(0.0, 0.0))
    with pytest.raises(DomainError):
        QuadraturePoint(-1.0, 0.0)
    with pytest.raises(DomainError):
        reflection(GOLD, (1e15, 1e6))


LORENTZ = LorentzOscillators([(1.0, 8e15, 5e15, 5e13)])
FERRITE = DebyeMagnetic(1e3, 1e9)


def small_table():
    """40 samples of a Lorentz absorption line with a conductor-like low tail."""
    w = np.geomspace(1e13, 1e17, 40)
    eps_imag = 8e31 * 5e13 * w / ((25e30 - w ** 2) ** 2 + (5e13 * w) ** 2)
    return Tabulated(TabulatedAbsorption(w, eps_imag, LowTail("constant"),
                                         HighTail("power", 3.0)), label="small table")


TABLE = small_table()
REFLECTION_MODELS = [
    PC, IPP, GOLD, Plasma(9e15), ConstantEpsMu(30.0, 1.0),
    ConstantEpsMu(2.0, 50.0), ConstantEpsMu(0.25, 1.5), LORENTZ, FERRITE, TABLE]


@settings(max_examples=120, deadline=None)
@given(model=st.sampled_from(REFLECTION_MODELS),
       xi=st.floats(min_value=0.0, max_value=1e300),
       k=st.floats(min_value=0.0, max_value=1e300))
# eps beyond float range (plasma raised OverflowError, Drude gave NaN or
# lost xi to an underflowing kappa0) and an underflowing e * kappa0
@example(model=Plasma(9e15), xi=1.3e-254, k=0.0)
@example(model=GOLD, xi=2.2250738585072014e-308, k=0.0)
@example(model=GOLD, xi=5e-324, k=0.0)
@example(model=ConstantEpsMu(0.25, 1.5), xi=0.0, k=5e-324)
# xi^2 overflowed inside eps (a RuntimeWarning, and NaN for the table)
@example(model=LORENTZ, xi=1e200, k=0.0)
@example(model=FERRITE, xi=1e200, k=0.0)
@example(model=TABLE, xi=1e300, k=0.0)
# c k beyond float range, where the ideal conductor must stay (-1, +1) and
# eps * c overflowed for a metal at tiny xi (NaN)
@example(model=PC, xi=1e300, k=1e300)
@example(model=GOLD, xi=1e-285, k=1e300)
# finite eps and mu whose product overflows (NaN)
@example(model=ConstantEpsMu(1e200, 1e200), xi=1.0, k=0.0)
def test_reflection_magnitudes_bounded(model, xi, k):
    if xi == 0.0 and k == 0.0:
        return
    r = reflection(model, QuadraturePoint(xi, k))
    assert abs(r.r_te) <= 1.0 and abs(r.r_tm) <= 1.0


def fresnel_normal_incidence(eps, mu):
    """(r_te, r_tm) at k = 0, with the ideal-mirror limits of an infinite eps or mu."""
    if math.isinf(eps):
        return (-1.0, 1.0)
    if math.isinf(mu):
        return (1.0, -1.0)
    n = math.sqrt(eps * mu)
    return ((mu - n) / (mu + n), (eps - n) / (eps + n))


@settings(max_examples=120, deadline=None)
@given(model=st.sampled_from(REFLECTION_MODELS),
       xi=st.floats(min_value=5e-324, max_value=1e18))
# (xi/c)^2 underflows here; the pair is not (1, 1) but -/+0.30719
@example(model=LORENTZ, xi=1e-170)
@example(model=Plasma(9e15), xi=1.3e-254)
@example(model=GOLD, xi=5e-324)
def test_reflection_at_normal_incidence_is_fresnel(model, xi):
    r = reflection(model, QuadraturePoint(xi, 0.0))
    want = fresnel_normal_incidence(model.eps(xi), model.mu(xi))
    assert r.r_te == pytest.approx(want[0], rel=1e-13, abs=1e-15)
    assert r.r_tm == pytest.approx(want[1], rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("model", REFLECTION_MODELS, ids=repr)
def test_integrand_coefficients_equal_reflection(model):
    # the batched integrand measures lengths in metres (u = kappa0,
    # v = xi / c); reflection() in units of 1/kappa0 (u = 1, v = xi / (c kappa0))
    xi = np.geomspace(1e10, 1e18, 9)
    k = np.outer(xi / C_LIGHT, [0.0, 0.1, 1.0, 30.0, 1e3])
    kappa0 = np.hypot(k, (xi / C_LIGHT)[:, None])
    owner = np.arange(xi.size)[:, None]
    r_te, r_tm = _reflection_by_owner(model, xi, C_LIGHT, xi / C_LIGHT)(kappa0, owner)
    for i, j in np.ndindex(k.shape):
        point = QuadraturePoint(xi[i], k[i, j])
        assert point.kappa0 == kappa0[i, j]
        r = reflection(model, point)
        assert r_te[i, j] == pytest.approx(r.r_te, rel=1e-13, abs=1e-15)
        assert r_tm[i, j] == pytest.approx(r.r_tm, rel=1e-13, abs=1e-15)


@pytest.mark.parametrize("model", REFLECTION_MODELS, ids=repr)
def test_limit_formula_matches_the_plain_one(model):
    # the overflow-safe form for infinite eps, mu or eps mu, applied to
    # finite values, against the plain one of the integrand
    xi = np.geomspace(1e10, 1e18, 9)
    e, m = model.eps(xi), model.mu(xi)
    if np.isinf(e).any() or np.isinf(m).any():
        return
    kappa0 = np.hypot(np.outer(xi / C_LIGHT, [0.0, 0.1, 1.0, 30.0, 1e3]),
                      (xi / C_LIGHT)[:, None])
    owner = np.arange(xi.size)[:, None]
    args = (model, xi, C_LIGHT, xi / C_LIGHT)
    plain = _reflection_by_owner(*args)(kappa0, owner)
    limit = _reflection_at_limits(*args, np.asarray(e), np.asarray(m))(kappa0, owner)
    for p, q in zip(plain, limit):
        np.testing.assert_allclose(q, p, rtol=1e-13, atol=1e-15)


# a table finite at xi = 0, through the generic high tail
LINEAR_TABLE = Tabulated(TabulatedAbsorption(
    np.geomspace(1e13, 1e17, 40), np.linspace(2.0, 0.1, 40), LowTail("linear"),
    HighTail("power", 2.5)), label="linear-tail table")


@pytest.mark.parametrize("model", REFLECTION_MODELS + [LINEAR_TABLE], ids=repr)
def test_scalar_and_array_evaluation_agree(model):
    # one array path: xi = 0 and values beyond float range are inf, silently
    xs = [0.0, 5e-324, 1e-300, 1.0, 1e15, 1.7e308]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (model.eps, model.mu):
            scalars = [fn(x) for x in xs]
            assert all(isinstance(v, float) for v in scalars)
            assert [v.hex() for v in fn(np.array(xs)).tolist()] == \
                [float(v).hex() for v in scalars]


@pytest.mark.parametrize("eps, mu", [(1e200, 1e200), (1e300, 1.0), (1.0, 1e300),
                                     (1e308, 1e10)])
def test_reflection_of_extreme_constant_media(eps, mu):
    # eps mu leaves float range for two of these; n = sqrt(eps) sqrt(mu) does not
    n = math.sqrt(eps) * math.sqrt(mu)
    for xi, k in ((1.0, 0.0), (1e15, 0.0), (1e15, 2e6), (0.0, 3e6)):
        r = reflection(ConstantEpsMu(eps, mu), QuadraturePoint(xi, k))
        t = xi / math.hypot(xi, C_LIGHT * k)
        ratio = math.hypot(math.sqrt(1.0 - t * t), n * t)
        assert r.r_te == pytest.approx((mu - ratio) / (mu + ratio), rel=1e-13, abs=1e-15)
        assert r.r_tm == pytest.approx((eps - ratio) / (eps + ratio), rel=1e-13, abs=1e-15)


def test_huge_constant_eps_or_mu_acts_as_an_ideal_mirror():
    # eps mu (xi/c)^2 leaves float range inside the integrand here
    a = 1e-6
    e = energy_per_area(GapConfig(a, ConstantEpsMu(1e300, 1.0), PC)).value
    assert e == pytest.approx(ideal_energy(a), rel=1e-6)
    e = energy_per_area(GapConfig(a, ConstantEpsMu(1.0, 1e300), PC)).value
    assert e == pytest.approx(-7.0 / 8.0 * ideal_energy(a), rel=1e-6)


@pytest.mark.parametrize("xi", [1e-250, 1e-300, 1e-320])
def test_reflection_where_eps_overflows_meets_the_static_limit(xi):
    # eps of both metals leaves float range around here; at k > 0 the pair
    # must still be the xi = 0 limit, not the eps -> infinity one
    k = 4e6
    for model in (GOLD, Plasma(9e15)):
        r = reflection(model, QuadraturePoint(xi, k))
        static = reflection(model, QuadraturePoint(0.0, k))
        assert r == pytest.approx(static, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("eps, mu", [(1e-300, 1.0), (1.0, 1e-300), (1e-200, 3.0), (5e-324, 1.0),
                                     (1e-16, 1.0), (1e-6, 1.0), (1e-8, 1e-8), (0.25, 1.5),
                                     (2.0, 50.0), (40.0, 1.0)])
def test_reflection_of_constant_media_matches_a_50_digit_reference(eps, mu):
    # where eps mu << 1 and c k << xi, 1 - t^2 cancelled: at eps mu = 1e-300
    # TM came out +1 instead of -1, at 1e-16 TE was off by 7e-9.  Up to
    # c k = 1e20 xi, q = kappa / kappa0 differs from 1 in the 40th digit,
    # so the reference carries 90.
    model = ConstantEpsMu(eps, mu)
    with mp.workdps(90):
        for xi in (1.0, 1e15):
            for ratio in np.append(0.0, np.geomspace(1e-20, 1e20, 41)):
                k = ratio * xi / C_LIGHT
                r = reflection(model, QuadraturePoint(xi, k))
                x = mp.mpf(xi) / mp.mpf(C_LIGHT)
                kk, e, m = (mp.mpf(float(v)) for v in (k, eps, mu))
                q = mp.sqrt(kk ** 2 + e * m * x ** 2) / mp.sqrt(kk ** 2 + x ** 2)
                assert abs(r.r_te - (m - q) / (m + q)) <= 4e-16
                assert abs(r.r_tm - (e - q) / (e + q)) <= 4e-16


@pytest.mark.parametrize("xi", [1.0, 1e15])
@pytest.mark.parametrize("ratio", [1e3, 1e20])
def test_te_reflection_keeps_its_digits_where_k_dwarfs_xi_over_c(xi, ratio):
    # (mu - q) / (mu + q) cancelled as q -> 1: at xi = 1e15 it gave
    # -9.749800130118583e-06 (9.7e-12 relative) at c k = 1e3 xi, and 0 at
    # 1e20 xi, where r_te is -9.75e-40
    k = ratio * xi / C_LIGHT
    r = reflection(ConstantEpsMu(40.0, 1.0), QuadraturePoint(xi, k))
    with mp.workdps(90):
        x, kk = mp.mpf(xi) / mp.mpf(C_LIGHT), mp.mpf(k)
        q = mp.sqrt(kk ** 2 + 40 * x ** 2) / mp.sqrt(kk ** 2 + x ** 2)
        want = float((1 - q) / (1 + q))
    assert abs(r.r_te - want) <= 4 * np.spacing(abs(want))


# ---------------------------------------------------------------------------
# energy and pressure oracles
# ---------------------------------------------------------------------------

def test_ideal_conductor_energy_and_pressure():
    a = 1e-6
    e = energy_per_area(GapConfig(a, PC, PC))
    p = pressure(GapConfig(a, PC, PC))
    assert e.value == pytest.approx(ideal_energy(a), rel=1e-6)
    assert p.value == pytest.approx(ideal_pressure(a), rel=1e-6)
    assert e.error_estimate <= 1e-8 * abs(e.value) + 1e-30
    assert ideal_energy(a) == pytest.approx(-4.333e-10, rel=1e-3)
    assert ideal_pressure(a) == pytest.approx(-1.300e-3, rel=1e-3)


def test_boyer_configuration_repels():
    a = 1e-6
    e = energy_per_area(GapConfig(a, PC, IPP))
    p = pressure(GapConfig(a, PC, IPP))
    assert e.value == pytest.approx(-7.0 / 8.0 * ideal_energy(a), rel=1e-5)
    assert p.value == pytest.approx(-7.0 / 8.0 * ideal_pressure(a), rel=1e-5)
    assert e.value > 0.0 and p.value > 0.0


def test_vacuum_side_gives_exact_zero():
    for other in (PC, GOLD, ConstantEpsMu(10.0, 3.0)):
        e = energy_per_area(GapConfig(1e-6, vacuum(), other))
        assert e.value == 0.0
        assert e.error_estimate == 0.0
        assert e.dominant_xi is None
        assert pressure(GapConfig(2e-6, other, vacuum())).value == 0.0


VACUUM_PARTNERS = [GOLD, Plasma(9e15), LORENTZ, TABLE, FERRITE, PC, IPP,
                   ConstantEpsMu(10.0, 3.0), vacuum()]
# media that reflect nothing: eps = mu = 1 at every frequency, constant or not
NULL_MEDIA = [vacuum(), LorentzOscillators([(0.0, 8e15, 5e15, 5e13)]),
              DebyeMagnetic(0.0, 1e10, delta_eps=0.0)]
NULL_PAIRS = [pair for null in NULL_MEDIA for m in VACUUM_PARTNERS
              for pair in ((null, m), (m, null))]


@pytest.mark.parametrize("rel_tol, splits", [(1e-8, 4000), (1e-3, 4000), (1e-15, 1)],
                         ids=["1e-08", "0.001", "1e-15-one-split"])
def test_a_side_that_reflects_nothing_is_a_converged_positive_zero(rel_tol, splits):
    quad = QuadratureConfig(rel_tol=rel_tol, max_subdivisions=splits)
    items = [(GapConfig(a, *pair), kind) for pair in NULL_PAIRS for a in BATCH_GAPS
             for kind in ("energy", "pressure")]
    batched = integrate_gaps(items, quad)
    for (cfg, kind), r in zip(items, batched):
        assert type(r).__name__ == ("EnergyResult" if kind == "energy"
                                    else "PressureResult")
        # +0.0, not -0.0, and no dominant_xi: alone as in the batch
        assert bits(r) == bits(integrate_gaps([(cfg, kind)], quad)[0]) == \
            [(0.0).hex(), (0.0).hex(), None]


def test_dominant_frequency_of_a_side_that_reflects_nothing_raises(fresh_engine_caches):
    for pair in NULL_PAIRS:
        with pytest.raises(DegenerateIntegrandError):
            dominant_frequency(GapConfig(1e-6, *pair))


def test_a_mixed_batch_keeps_its_vacuum_items_in_order(monkeypatch):
    handed = []

    def recorded(items, quad):
        handed.extend(items)
        return _integrate_batch(items, quad)

    side = vacuum()
    pairs = [(GOLD, side), (GOLD, GOLD), (side, TABLE), (PC, IPP), (side, PC), (LORENTZ, PC)]
    items = [(GapConfig(a, m1, m2), kind) for m1, m2 in pairs for a in BATCH_GAPS
             for kind in ("energy", "pressure")]
    alone = [(energy_per_area if kind == "energy" else pressure)(cfg)
             for cfg, kind in items]
    monkeypatch.setattr(engine, "_integrate_batch", recorded)
    batched = integrate_gaps(items)
    assert [bits(r) for r in batched] == [bits(r) for r in alone]
    # a vacuum side facing a dispersive medium takes the 2-D engine
    assert handed == [(cfg, kind) for cfg, kind in items
                      if (cfg.material1, cfg.material2) in (pairs[:3] + pairs[5:])]
    for (cfg, _), r in zip(items, batched):
        assert (r.value == 0.0) == (side in (cfg.material1, cfg.material2))


def test_scale_law_for_constant_materials():
    m = ConstantEpsMu(4.0, 1.0)
    for a in (0.3e-6, 1e-6):
        e1 = energy_per_area(GapConfig(a, m, m))
        e2 = energy_per_area(GapConfig(2 * a, m, m))
        assert 8.0 * e2.value == pytest.approx(e1.value, rel=1e-6)
        p1 = pressure(GapConfig(a, m, m))
        p2 = pressure(GapConfig(2 * a, m, m))
        assert 16.0 * p2.value == pytest.approx(p1.value, rel=1e-6)


def test_swap_symmetry():
    lor = LorentzOscillators([(1.0, 8e15, 5e15, 5e13)])
    e12 = energy_per_area(GapConfig(0.7e-6, GOLD, lor))
    e21 = energy_per_area(GapConfig(0.7e-6, lor, GOLD))
    tol = e12.error_estimate + e21.error_estimate
    assert abs(e12.value - e21.value) <= max(tol, 1e-14 * abs(e12.value))


def test_pressure_is_energy_derivative():
    for m1, m2 in ((PC, PC), (GOLD, GOLD)):
        a = 1e-6
        h = 1e-4 * a
        p = pressure(GapConfig(a, m1, m2)).value
        e_plus = energy_per_area(GapConfig(a + h, m1, m2)).value
        e_minus = energy_per_area(GapConfig(a - h, m1, m2)).value
        finite_diff = -(e_plus - e_minus) / (2.0 * h)
        assert p == pytest.approx(finite_diff, rel=1e-4)


def test_ideal_mirrors_bound_all_electric_materials():
    a = 0.5e-6
    bound = abs(ideal_energy(a))
    for m in (GOLD, Plasma(9e15), ConstantEpsMu(100.0, 1.0),
              LorentzOscillators([(1.0, 8e15, 5e15, 5e13)])):
        e = energy_per_area(GapConfig(a, m, m))
        assert abs(e.value) <= bound * (1.0 + 1e-9)


def test_mu_one_pairs_attract_everywhere():
    quad = QuadratureConfig(rel_tol=1e-6)
    models = [GOLD, Plasma(9e15), LorentzOscillators([(1.0, 8e15, 5e15, 5e13)])]
    for a in (0.1e-6, 1e-6, 4e-6):
        for i, m1 in enumerate(models):
            for m2 in models[i:]:
                p = pressure(GapConfig(a, m1, m2), quad)
                assert p.value < 0.0
                assert abs(p.value) <= abs(ideal_pressure(a)) * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# diagnostics and failure modes
# ---------------------------------------------------------------------------

def test_dominant_frequency_tracks_separation():
    m = ConstantEpsMu(4.0, 1.0)
    a = 1e-6
    xi1 = dominant_frequency(GapConfig(a, m, m))
    xi2 = dominant_frequency(GapConfig(2 * a, m, m))
    assert 0.1 < xi1 * a / C_LIGHT < 10.0
    assert xi2 / xi1 == pytest.approx(0.5, rel=2e-2)


def test_dominant_frequency_matches_energy_diagnostic():
    cfg = GapConfig(1e-6, PC, PC)
    scan = dominant_frequency(cfg)
    sampled = energy_per_area(cfg).dominant_xi
    assert sampled == pytest.approx(scan, rel=0.3)


def test_dominant_frequency_undefined_for_vacuum():
    with pytest.raises(DegenerateIntegrandError):
        dominant_frequency(GapConfig(1e-6, vacuum(), PC))


def test_convergence_error_carries_best_estimate():
    quad = QuadratureConfig(rel_tol=1e-10, max_subdivisions=1)
    with pytest.raises(ConvergenceError) as exc_info:
        energy_per_area(GapConfig(1e-6, STIFF_METAL, STIFF_METAL), quad)
    best = exc_info.value.best
    assert best is not None
    assert best.value == pytest.approx(ideal_energy(1e-6), rel=1e-2)
    assert best.error_estimate > 1e-10 * abs(best.value)


def test_gap_validation():
    with pytest.raises(DomainError):
        GapConfig(0.0, PC, PC)
    with pytest.raises(DomainError):
        GapConfig(-1e-6, PC, PC)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="^gap must be finite and positive$"):
            GapConfig(bad, PC, PC)
    with pytest.raises(DomainError):
        GapConfig(1e-6, PC, "gold")
    with pytest.warns(ContinuumModelWarning) as record:
        GapConfig(5e-10, PC, PC)
    # the warning names the line that built the configuration
    assert [w.filename for w in record] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GapConfig(2e-9, PC, PC)  # above the warning threshold: silent


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_a_numpy_float_gap_is_kept_as_the_python_float_it_holds(dtype):
    # no overflow warning at the widest-gap check, and the bits of that float
    a = dtype(1e-6)
    cfg, plain = GapConfig(a, GOLD, GOLD), GapConfig(float(a), GOLD, GOLD)
    assert type(cfg.a) is float
    for fn in (energy_per_area, pressure):
        assert bits(fn(cfg)) == bits(fn(plain))


def test_gaps_beyond_1e60_m_are_refused_and_the_widest_gap_is_finite():
    for pair in ((PC, PC), (GOLD, GOLD)):
        for a in (1e100, 1e103, 1e155, 1e300, math.nextafter(1e60, math.inf)):
            for f in (energy_per_area, pressure):
                with pytest.raises(DomainError, match="at most"):
                    f(GapConfig(a, *pair))
        cfg = GapConfig(1e60, *pair)
        e, p = energy_per_area(cfg), pressure(cfg)
        assert -math.inf < e.value < 0.0 and -math.inf < p.value < 0.0
    assert pressure(GapConfig(1e60, PC, PC)).value == pytest.approx(ideal_pressure(1e60),
                                                                  rel=1e-8)


def test_gaps_below_1e_18_m_are_refused_and_the_narrowest_gap_keeps_its_scale_law():
    # below the bound a Drude pair's pressure rounds to -0.0 from ~3e-23 m, the
    # ideal mirrors' overflows by 1e-100 m and the prefactors underflow by
    # 1e-150 m
    for pair in ((PC, PC), (GOLD, GOLD)):
        for a in (1e-150, 1e-100, 1e-22, math.nextafter(1e-18, 0.0)):
            with pytest.raises(DomainError, match="at least"):
                GapConfig(a, *pair)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ContinuumModelWarning)
        # non-retarded metals keep a^3 P, the ideal mirrors a^4 P
        for pair, power in (((GOLD, GOLD), 3), ((PC, LORENTZ), 3), ((PC, PC), 4)):
            near, far = (pressure(GapConfig(a, *pair)).value * a ** power
                         for a in (1e-18, 1e-14))
            assert near == pytest.approx(far, rel=1e-5)
        assert pressure(GapConfig(1e-18, PC, PC)).value == \
            pytest.approx(ideal_pressure(1e-18), rel=1e-8)


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=2.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)


@pytest.mark.parametrize("budget", [float("nan"), float("inf"), 2.5, True, np.True_,
                                    "10", 0, -3])
def test_max_subdivisions_must_be_an_integer_of_at_least_one(budget):
    # a NaN budget once let a PC-PC solve at rel_tol 1e-15 run on unbounded
    with pytest.raises(DomainError, match="max_subdivisions"):
        QuadratureConfig(max_subdivisions=budget)
    assert QuadratureConfig(max_subdivisions=np.int64(7)).max_subdivisions == 7
    assert QuadratureConfig(max_subdivisions=1).max_subdivisions == 1


def test_engine_speed_ideal_mirrors():
    cfg = GapConfig(1e-6, PC, PC)
    energy_per_area(cfg)  # warm
    t0 = time.perf_counter()
    energy_per_area(cfg)
    pressure(cfg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0


@pytest.mark.parametrize("fn", [energy_per_area, pressure])
def test_one_model_on_both_sides_gives_the_bits_of_two_equal_models(fn):
    shared = fn(GapConfig(4e-7, TABLE, TABLE))
    distinct = fn(GapConfig(4e-7, TABLE, small_table()))
    assert [x.hex() for x in (shared.value, shared.error_estimate, shared.dominant_xi)] \
        == [x.hex() for x in (distinct.value, distinct.error_estimate, distinct.dominant_xi)]


def test_one_model_on_both_sides_is_transformed_once_per_node(kk_nodes):
    # a table transforms the Chebyshev points of each decade panel it needs
    # once; fresh tables, since a table keeps its panels
    quad = QuadratureConfig(rel_tol=1e-6)
    table = small_table()
    pressure(GapConfig(4e-7, table, table), quad)
    # each call builds the panels of whole decades, each decade once
    nodes = np.concatenate(kk_nodes)
    assert nodes.size > 0
    assert np.unique(nodes).size == nodes.size
    assert all(x.size % materials._PANEL_POINTS == 0 for x in kk_nodes)
    _, per_decade = np.unique(np.floor(np.log10(nodes)), return_counts=True)
    assert set(per_decade) == {materials._PANEL_POINTS}
    kk_nodes.clear()
    pressure(GapConfig(4e-7, small_table(), small_table()), quad)
    assert sum(x.size for x in kk_nodes) == 2 * nodes.size


# ---------------------------------------------------------------------------
# configurations batched as owners of one outer quadrature
# ---------------------------------------------------------------------------

BATCH_GAPS = (1e-7, 4e-7, 2e-6)


def bits(result):
    return [None if x is None else x.hex()
            for x in (result.value, result.error_estimate, result.dominant_xi)]


@pytest.mark.parametrize("m1, m2", [(LORENTZ, TABLE), (TABLE, TABLE), (PC, IPP)],
                         ids=["lorentz-table", "table-table", "pc-permeable"])
def test_batched_call_gives_the_bits_of_one_configuration_calls(m1, m2):
    items = [(GapConfig(a, m1, m2), kind) for a in BATCH_GAPS
             for kind in ("energy", "pressure")]
    alone = [(energy_per_area if kind == "energy" else pressure)(cfg)
             for cfg, kind in items]
    assert [bits(r) for r in integrate_gaps(items)] == [bits(r) for r in alone]


def test_batched_convergence_error_is_the_first_owner_in_gap_order():
    # with two splits the pressures at 1e-5 and 2e-5 m fail, the one at 1e-6 m does not
    quad = QuadratureConfig(rel_tol=1e-10, max_subdivisions=2)
    items = [(GapConfig(a, GOLD, GOLD), "pressure") for a in (1e-6, 1e-5, 2e-5)]
    assert pressure(items[0][0], quad).value < 0.0
    with pytest.raises(ConvergenceError, match="^pressure quadrature") as batched:
        integrate_gaps(items, quad)
    with pytest.raises(ConvergenceError) as alone:
        pressure(items[1][0], quad)
    assert bits(batched.value.best) == bits(alone.value.best)


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
@pytest.mark.parametrize("m2", [GOLD, PC], ids=["drude-drude", "drude-pc"])
def test_batched_gap_sweep_gives_the_bits_of_one_configuration_calls(m2, rel_tol):
    # at rel_tol 1e-10 the outer axis refines, and the owners' child panels
    # are evaluated together
    quad = QuadratureConfig(rel_tol=rel_tol)
    items = [(GapConfig(a, GOLD, m2), kind) for a in np.geomspace(1e-6, 2e-5, 8)
             for kind in ("energy", "pressure")]
    alone = [(energy_per_area if kind == "energy" else pressure)(cfg, quad)
             for cfg, kind in items]
    assert [bits(r) for r in integrate_gaps(items, quad)] == [bits(r) for r in alone]


MIXED_PAIRS = [(LORENTZ, TABLE), (TABLE, TABLE), (LORENTZ, LORENTZ), (PC, IPP)]


@pytest.mark.parametrize("gaps", [[BATCH_GAPS] * 4, [(1e-7,), (4e-7,), (2e-6,), (1e-7,)]],
                         ids=["every-gap", "one-gap-each"])
def test_mixed_material_pairs_batched_give_the_bits_of_one_configuration_calls(gaps):
    # with one gap per pair, the owners of the Lorentz model and of the
    # table lie at different gaps, so each model has its own nodes
    items = [(GapConfig(a, m1, m2), kind) for (m1, m2), pair_gaps in zip(MIXED_PAIRS, gaps)
             for a in pair_gaps for kind in ("energy", "pressure")]
    alone = [(energy_per_area if kind == "energy" else pressure)(cfg)
             for cfg, kind in items]
    assert [bits(r) for r in integrate_gaps(items)] == [bits(r) for r in alone]


def test_attraction_check_transforms_each_node_once(kk_nodes):
    gaps = (1e-7, 2e-6)
    table = small_table()
    dispersion_restores_attraction([LORENTZ, table], gaps)
    nodes = np.concatenate(kk_nodes)
    assert nodes.size > 0
    assert np.unique(nodes).size == nodes.size
    kk_nodes.clear()
    # the table keeps its decade panels: a second check transforms nothing
    dispersion_restores_attraction([LORENTZ, table], gaps)
    assert kk_nodes == []
    # one configuration at a time, (Lorentz, table) and (table, table)
    # build the same panels of an equal table once
    fresh = small_table()
    for a in gaps:
        for m1 in (LORENTZ, fresh):
            pressure(GapConfig(a, m1, fresh))
    np.testing.assert_array_equal(np.sort(np.concatenate(kk_nodes)), np.sort(nodes))


@pytest.mark.parametrize("rel_tol, nodes", [(1e-8, 225), (1e-6, 150)])
def test_outer_seed_keeps_every_other_edge_from_rel_tol_1e_7(monkeypatch, rel_tol, nodes):
    # Drude-Drude converges on its seed panels, 15 Kronrod nodes each: from
    # rel_tol 1e-7 up every other geometric edge, 10 panels; below it 15
    # panels, those 10 with the first one and the four from 0.0512 to
    # 13.1072 c/a halved, edges in y0 = 2 a xi / c
    cfg = GapConfig(1e-6, GOLD, GOLD)
    fine = engine._seed(False)[0]
    coarse = engine._seed(True)[0]
    assert fine.size == engine._OUTER_SEED_PANELS + 1 == 16
    assert coarse.size == 11
    assert set(coarse.tolist()) <= set(fine.tolist())
    halved = [k for k in range(coarse.size - 1)
              if np.any((fine > coarse[k]) & (fine < coarse[k + 1]))]
    assert halved == [0, 5, 6, 7, 8]
    assert fine[np.isin(fine, coarse, invert=True)] / 2.0 == \
        pytest.approx([1e-4, 0.1024, 0.4096, 1.6384, 6.5536], rel=1e-15)
    sampled = []

    def recorded(*args):
        integrals = _inner_integrals(*args)

        def f(x, owners):
            sampled.append(x.size)
            return integrals(x, owners)
        return f

    monkeypatch.setattr(engine, "_inner_integrals", recorded)
    pressure(cfg, QuadratureConfig(rel_tol=rel_tol))
    assert sum(sampled) == nodes


def test_outer_seed_edges_are_the_geometric_edges():
    # 0, s 2^k for these k and the cutoff 80, in y0 = 2 a xi / c at every gap,
    # s = 2e-4 (1e-4 c/a): the odd k from rel_tol 1e-7 up, and k = 0 and 10,
    # 12, 14, 16 with them below it
    fine_k = [0, 1, 3, 5, 7, 9, 10, 11, 12, 13, 14, 15, 16, 17]
    coarse_k = [1, 3, 5, 7, 9, 11, 13, 15, 17]
    # 0, then s 2^k for k = 0 .. 18, then the cutoff
    full = np.concatenate([[0.0], geometric_panels([2e-4], 80.0, 2e-4)[0], [80.0]])
    assert full.size == 21
    for coarse, k in ((False, fine_k), (True, coarse_k)):
        want = np.concatenate([[0.0], full[1:-1][k], [80.0]])
        assert engine._seed(coarse)[0].tolist() == want.tolist()


@pytest.fixture
def inner_seeds(monkeypatch, fresh_engine_caches):
    """(y0, first width) of every inner seed grid the engine builds."""
    seeds = []
    real = engine.geometric_panels

    def recorded(starts, stop, first_width):
        seeds.append((starts, first_width))
        return real(starts, stop, first_width)

    monkeypatch.setattr(engine, "geometric_panels", recorded)
    return seeds


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-6, 1e-7, 9.9e-8])
def test_inner_seed_is_graded_toward_y0_at_every_tolerance(inner_seeds, rel_tol):
    quad = QuadratureConfig(rel_tol=rel_tol)
    for m2 in (GOLD, PC, TABLE):
        energy_per_area(GapConfig(1e-6, GOLD, m2), quad)
        pressure(GapConfig(1e-7, GOLD, m2), quad)
    dominant_frequency(GapConfig(1e-6, GOLD, GOLD))
    assert inner_seeds
    for y0, width in inner_seeds:
        assert width.tolist() == np.clip(4.0 * y0, 1e-5, 0.25).tolist()
    assert min(width.min() for _, width in inner_seeds) < 0.25


@pytest.mark.parametrize("fn", [energy_per_area, pressure])
@pytest.mark.parametrize("pair", [(GOLD, GOLD), (Plasma(9e15), Plasma(9e15))],
                         ids=["drude", "plasma"])
def test_metals_converge_every_inner_integral_in_its_seed_round(monkeypatch, pair, fn):
    # per inner quadrature: whether the seed round's sums of all its seed
    # panels came with it, and the integrand calls it made to refine
    calls = []
    real = engine.integrate_panels

    def counted(f, lo, *args, with_errors=False, seed=None, **kwargs):
        if with_errors:
            return real(f, lo, *args, with_errors=True, **kwargs)
        n = [0]

        def g(x, owner):
            n[0] += 1
            return f(x, owner)
        result = real(g, lo, *args, seed=seed, **kwargs)
        calls.append((seed.shape == (3, lo.size), n[0]))
        return result

    monkeypatch.setattr(engine, "integrate_panels", counted)
    for rel_tol in (1e-8, 1e-7, 1e-6, 1e-3):
        fn(GapConfig(1e-6, *pair), QuadratureConfig(rel_tol=rel_tol))
    assert calls
    assert calls == [(True, 0)] * len(calls)


@pytest.mark.parametrize("fn", [energy_per_area, pressure])
@pytest.mark.parametrize("pair", [(GOLD, GOLD), (Plasma(9e15), Plasma(9e15))],
                         ids=["drude", "plasma"])
def test_metals_converge_in_one_outer_integrand_call_of_225_nodes(monkeypatch, pair, fn):
    # the 15 seed panels of rel_tol 1e-8, 15 Kronrod nodes each, and no split
    nodes = []
    real = engine.integrate_panels

    def counted(f, *args, with_errors=False, **kwargs):
        if not with_errors:
            return real(f, *args, **kwargs)

        def outer(x, owners):
            nodes.append(x.size)
            return f(x, owners)
        return real(outer, *args, with_errors=True, **kwargs)

    monkeypatch.setattr(engine, "integrate_panels", counted)
    fn(GapConfig(1e-6, *pair))
    assert nodes == [225]


# the ferrites span Delta mu omega_m from 1e11 to 1e14 rad/s; a Drude metal of
# gamma = 1e10 rad/s reflects like a plasma down to far lower xi
GRADED_PAIRS = [(GOLD, GOLD), (Plasma(9e15), Plasma(9e15)), (LORENTZ, LORENTZ),
                (GOLD, FERRITE), (LORENTZ, TABLE), (LORENTZ, PC),
                (GOLD, DebyeMagnetic(1e3, 1e11)), (GOLD, DebyeMagnetic(10.0, 1e10)),
                (Drude(1.37e16, 1e10), Drude(1.37e16, 1e10))]


def test_graded_inner_seed_keeps_its_error_bounds():
    # against references at rel_tol 1e-11: the inner seeds graded toward y0
    # on the outer seed of 15 panels (rel_tol 1e-8) and of 10 (1e-6, 1e-3)
    items = [(GapConfig(a, m1, m2), kind) for m1, m2 in GRADED_PAIRS
             for a in (7e-8, 8e-7, 6e-6) for kind in ("energy", "pressure")]
    refs = integrate_gaps(items, QuadratureConfig(rel_tol=1e-11))
    for rel_tol in (1e-8, 1e-6, 1e-3):
        for ref, r in zip(refs, integrate_gaps(items, QuadratureConfig(rel_tol=rel_tol))):
            err = abs(r.value - ref.value)
            assert err <= r.error_estimate
            assert err <= rel_tol * abs(ref.value)


ACCURACY_PAIRS = [(PC, PC), (PC, IPP), (GOLD, FERRITE), (LORENTZ, TABLE),
                  (LINEAR_TABLE, LORENTZ), (ConstantEpsMu(2.0, 50.0), ConstantEpsMu(40.0, 1.0))]


def test_loose_tolerances_on_the_coarse_seed_keep_their_error_bounds(rng):
    # against references at rel_tol 1e-11, on the 10-panel seed
    gaps = np.sort(np.exp(rng.uniform(np.log(5e-8), np.log(5e-6), 2)))
    items = [(GapConfig(float(a), m1, m2), kind) for m1, m2 in ACCURACY_PAIRS
             for a in gaps for kind in ("energy", "pressure")]
    refs = integrate_gaps(items, QuadratureConfig(rel_tol=1e-11))
    for rel_tol in (1e-7, 1e-3):
        for ref, r in zip(refs, integrate_gaps(items, QuadratureConfig(rel_tol=rel_tol))):
            err = abs(r.value - ref.value)
            assert err <= r.error_estimate
            assert err <= rel_tol * abs(ref.value)


def test_a_full_batch_takes_one_inner_quadrature_per_owner_in_its_seed_round(monkeypatch):
    # every owner seeds the same number of outer panels, and a full batch's
    # seed panels fit one integrand call, so none is split across two
    assert engine._CONFIGS * engine._OUTER_SEED_PANELS <= _EVAL_ROWS
    assert engine._seed(False)[0].size == engine._OUTER_SEED_PANELS + 1
    gaps = np.geomspace(1e-7, 1e-5, engine._CONFIGS + 4)
    rounds = []  # per outer integrand call, the gap of each inner seed round
    inner_group = engine._inner_group

    def counted(two_a, members, *args):
        rounds[-1].append(two_a / 2.0)
        assert len(members) == 1  # one owner per gap
        return inner_group(two_a, members, *args)

    def recorded(*args):
        integrals = _inner_integrals(*args)

        def f(x, owners):
            rounds.append([])
            return integrals(x, owners)
        return f

    monkeypatch.setattr(engine, "_inner_group", counted)
    monkeypatch.setattr(engine, "_inner_integrals", recorded)
    integrate_gaps([(GapConfig(a, GOLD, GOLD), "pressure") for a in gaps])
    # a full batch and the rest, each converging on its seed panels
    assert sorted(rounds[0]) == sorted(gaps[:engine._CONFIGS])
    assert sorted(rounds[1]) == sorted(gaps[engine._CONFIGS:])
    assert len(rounds) == 2


def test_each_model_reflects_once_per_seed_chunk_whatever_the_owners(monkeypatch):
    # (Lorentz, Lorentz), (Lorentz, table) and (table, table) at one gap: in
    # the seed round one group of three owners and two models
    groups = []  # per seed round: owners, seed panel sums, each model's calls
    refining = []
    real_group, real_sums, real_quad = (engine._inner_group, engine.panel_sums,
                                        engine.integrate_panels)

    def group(two_a, members, coeffs, *args):
        calls = dict.fromkeys(coeffs, 0)

        def counted(key, rf):
            def call(u, owner):
                calls[key] += not refining
                return rf(u, owner)
            return call
        groups.append((len(members), [0], calls))
        yield from real_group(two_a, members, {key: (counted(key, rf), node)
                                               for key, (rf, node) in coeffs.items()}, *args)

    def sums(fx, half):
        groups[-1][1][0] += 1
        return real_sums(fx, half)

    def quad(f, *args, with_errors=False, **kwargs):
        if with_errors:
            return real_quad(f, *args, with_errors=True, **kwargs)
        refining.append(1)
        try:
            return real_quad(f, *args, **kwargs)
        finally:
            refining.pop()

    monkeypatch.setattr(engine, "_inner_group", group)
    monkeypatch.setattr(engine, "panel_sums", sums)
    monkeypatch.setattr(engine, "integrate_panels", quad)
    dispersion_restores_attraction([LORENTZ, small_table()], [4e-7])
    assert (3, 2) in [(owners, len(calls)) for owners, _, calls in groups]
    # each owner sums each seed chunk once
    for owners, (summed,), calls in groups:
        assert summed >= owners
        assert all(n * owners == summed for n in calls.values())


@pytest.mark.parametrize("pair", [(GOLD, TABLE), (TABLE, TABLE), (PC, LORENTZ),
                                  (FERRITE, GOLD)],
                         ids=["drude-table", "table-table", "pc-lorentz", "ferrite-drude"])
def test_energy_and_pressure_at_one_gap_keep_their_solo_bits(monkeypatch, pair):
    # the sweep's items: one seed round serves both kinds at one gap
    quad = QuadratureConfig(rel_tol=1e-6)
    cfg = GapConfig(3e-7, *pair)
    alone = [energy_per_area(cfg, quad), pressure(cfg, quad)]
    kinds = []
    real = engine._inner_group

    def recorded(two_a, members, *args):
        kinds.append([kind for kind, _ in members])
        return real(two_a, members, *args)

    monkeypatch.setattr(engine, "_inner_group", recorded)
    batched = integrate_gaps([(cfg, "energy"), (cfg, "pressure")], quad)
    assert [bits(r) for r in batched] == [bits(r) for r in alone]
    assert kinds[0] == ["energy", "pressure"]


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12], ids=["seed-panels", "outer-refines"])
def test_batched_dominant_xi_is_each_owners_first_largest_sampled_weight(monkeypatch,
                                                                          rel_tol):
    quad = QuadratureConfig(rel_tol=rel_tol)
    vacuum_side = vacuum()
    items = [(GapConfig(a, m1, m2), kind)
             for m1, m2 in [(GOLD, IPP), (LORENTZ, TABLE), (PC, vacuum_side)]
             for a in BATCH_GAPS for kind in ("energy", "pressure")]
    # every (node y0, owner, outer integrand value) the batched call samples,
    # in evaluation order
    seen = []

    def recorded(*args):
        integrals = _inner_integrals(*args)

        def f(x, owners):
            vals, errs = integrals(x, owners)
            seen.append((x.reshape(-1), np.broadcast_to(owners, x.shape).reshape(-1),
                         vals.reshape(-1)))
            return vals, errs
        return f

    monkeypatch.setattr("casimir.engine._inner_integrals", recorded)
    batched = integrate_gaps(items, quad)
    monkeypatch.undo()
    # one round on the seed panels at 1e-8; at 1e-12 the outer axis refines
    assert (len(seen) == 1) == (rel_tol == 1e-8)
    alone = [(energy_per_area if kind == "energy" else pressure)(cfg, quad)
             for cfg, kind in items]
    assert [bits(r) for r in batched] == [bits(r) for r in alone]
    y0, owner, vals = (np.concatenate(a) for a in zip(*seen))
    weight = y0 * np.abs(vals)
    for k, ((cfg, _), result) in enumerate(zip(items, batched)):
        mine = owner == k
        if cfg.material2 is vacuum_side:
            assert result.value == 0.0 and result.error_estimate == 0.0
            assert result.dominant_xi is None
            assert not weight[mine].any()
        else:
            assert result.value != 0.0
            assert result.dominant_xi == \
                y0[mine][np.argmax(weight[mine])] * (C_LIGHT / (2.0 * cfg.a))


# ---------------------------------------------------------------------------
# inner quadrature calls and the integrand kernel
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12], ids=["seed-panels", "outer-refines"])
def test_one_inner_call_per_owner_per_outer_round(monkeypatch, rel_tol):
    # per outer integrand call: the owners of its nodes, and the inner calls made
    rounds = []
    real = engine.integrate_panels

    def counted(f, *args, with_errors=False, **kwargs):
        if not with_errors:
            rounds[-1][1].append(1)
            return real(f, *args, **kwargs)

        def outer(x, owners):
            rounds.append((np.unique(np.broadcast_to(owners, x.shape)), []))
            return f(x, owners)
        return real(outer, *args, with_errors=True, **kwargs)

    monkeypatch.setattr(engine, "integrate_panels", counted)
    quad = QuadratureConfig(rel_tol=rel_tol)
    pressure(GapConfig(1e-6, GOLD, GOLD), quad)
    if rel_tol == 1e-8:
        assert [len(calls) for _, calls in rounds] == [1]
    rounds.clear()
    integrate_gaps([(GapConfig(1e-6, GOLD, GOLD), "pressure"),
                    (GapConfig(4e-7, GOLD, GOLD), "energy"),
                    (GapConfig(2e-6, GOLD, IPP), "energy")], quad)
    assert [len(calls) for _, calls in rounds] == [owners.size for owners, _ in rounds]
    assert rounds[0][0].tolist() == [0, 1, 2]
    assert (len(rounds) > 1) == (rel_tol == 1e-12)


def test_ln_one_minus_takes_each_elements_own_branch_bit_for_bit():
    y = np.geomspace(1e-12, 80.0, 3001)
    # |p e^{-y}| exactly 0.5 and one ulp either side
    emy = np.append(np.exp(-y), [0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0)])
    omy = np.append(-np.expm1(-y), [0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)])
    p_array = np.random.default_rng(5).uniform(-1.0, 1.0, emy.size)
    p_array[-3:] = 1.0
    near = np.append(y > 1.0, [False] * 3)
    for p in (np.ones(emy.size), -np.ones(emy.size), p_array):
        # every element, and the elements where |p e^{-y}| < 0.5 alone
        for part in (np.ones(emy.size, dtype=bool), near):
            pp = p[part]
            x = pp * emy[part]
            expected = np.where(np.abs(x) < 0.5, np.log1p(-x),
                                np.log(omy[part] + (1.0 - pp) * emy[part]))
            got = _ln_one_minus(pp, emy[part], omy[part])
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()]


def test_pressure_occupation_is_within_one_ulp_of_a_40_digit_reference():
    # p e^{-y} / (1 - p e^{-y}) as p / (expm1(y) + (1 - p)), over the inner axis
    y = np.geomspace(1e-12, 80.0, 2000)
    p = np.random.default_rng(24).uniform(-1.0, 1.0, y.size)
    p[:9] = p[-9:] = [1.0, -1.0, 1.0 - 1e-16, 0.0, 0.5, -0.5, 1e-300, 0.999, -0.999]
    got = engine._occupation(p.copy(), np.expm1(y))
    with mp.workdps(40):
        want = np.array([float(mp.mpf(pk) * mp.exp(-mp.mpf(yk))
                               / (1 - mp.mpf(pk) * mp.exp(-mp.mpf(yk))))
                         for pk, yk in zip(p.tolist(), y.tolist())])
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def textbook_reflection(model, xi, kappa0, owner):
    """(x u - kappa) / (x u + kappa), x = mu for TE and eps for TM, u = kappa0."""
    e, m = model.eps(xi), model.mu(xi)
    w = (e * m - 1.0) * ((xi / C_LIGHT) * (xi / C_LIGHT))
    kappa = np.sqrt(np.maximum(kappa0 * kappa0 + w[owner], 0.0))
    return tuple((x[owner] * kappa0 - kappa) / (x[owner] * kappa0 + kappa) for x in (m, e))


@pytest.mark.parametrize("model, unit_mu", [
    (GOLD, True), (Plasma(9e15), True), (LORENTZ, True), (TABLE, True), (FERRITE, False),
    (ConstantEpsMu(2.0, 50.0), False)], ids=repr)
def test_integrand_coefficients_are_the_textbook_ones_bit_for_bit(model, unit_mu):
    # mu = 1 at every node skips the mu u product, which is u to the bit
    xi = np.geomspace(1e10, 1e18, 9)
    assert bool(np.all(model.mu(xi) == 1.0)) == unit_mu
    kappa0 = np.hypot(np.outer(xi / C_LIGHT, [0.0, 0.1, 1.0, 30.0, 1e3]),
                      (xi / C_LIGHT)[:, None])
    owner = np.arange(xi.size)[:, None]
    got = _reflection_by_owner(model, xi, C_LIGHT, xi / C_LIGHT)(kappa0, owner)
    for r, want in zip(got, textbook_reflection(model, xi, kappa0, owner)):
        assert r.tobytes() == want.tobytes()


def test_coefficient_arrays_are_the_callers_to_overwrite():
    # the integrand squares and multiplies what each call returns in place
    xi = np.array([0.0, 1e12, 1e15, 1e17])
    kappa0 = np.hypot(np.outer(xi / C_LIGHT, [0.0, 1.0, 30.0]) + 1.0, (xi / C_LIGHT)[:, None])
    owner = np.arange(xi.size)[:, None]
    t = np.array([0.0, 0.3, 0.9, 1.0])
    s_path = _reflection_by_owner(GOLD, xi + 1.0, 1.0, t, np.sqrt(1.0 - t * t))
    calls = [(_reflection_by_owner(m, xi, C_LIGHT, xi / C_LIGHT), kappa0, owner)
             for m in (PC, IPP, GOLD, FERRITE)]  # ideal, ideal, at limits (xi = 0), plain
    calls += [(_reflection_by_owner(GOLD, xi[1:], C_LIGHT, xi[1:] / C_LIGHT),
               kappa0[1:], owner[:-1]), (s_path, 1.0, np.arange(xi.size))]
    for rf, u, own in calls:
        first = rf(u, own)
        want = [r.tobytes() for r in first]
        for r in first:
            r *= r
        assert [r.tobytes() for r in rf(u, own)] == want


def test_inner_integrand_of_a_mirror_and_a_metal_keeps_its_bits(monkeypatch):
    integrands = []
    real = engine.integrate_panels

    def recorded(f, *args, **kwargs):
        integrands.append(f)
        return real(f, *args, **kwargs)

    monkeypatch.setattr(engine, "integrate_panels", recorded)
    seed = engine._seed(True)[1]  # not these nodes' grid: each call builds its own
    for kind in ("energy", "pressure"):
        # y0 of xi = 1e13, 1e14 and 1e15 rad/s at 1 um
        _inner_integrals([GapConfig(1e-6, PC, GOLD)], [kind], 1e-8, 300, seed)(
            2e-6 / C_LIGHT * np.array([[1e13, 1e14, 1e15]]), 0)
    y = np.linspace(0.5, 70.0, 45).reshape(3, 15)
    owner = np.array([[0], [1], [2]])
    for g in integrands:
        assert g(y, owner).tobytes() == g(y, owner).tobytes()


# ---------------------------------------------------------------------------
# the inner seed grids kept for the process
# ---------------------------------------------------------------------------

def kept_grids():
    """The inner seed grids the engine keeps, checked to be the three named
    ones, the coarse and fine seeds' and the scan's, each node's first panel
    graded toward it: clip(4 y0, 1e-5, 0.25) wide, or up to the cutoff."""
    assert (engine._seed.cache_info().currsize, engine._scan_grid.cache_info().currsize) \
        == (2, 1)
    grids = engine._seed(True)[1], engine._seed(False)[1], engine._scan_grid()
    for grid in grids:
        first = np.flatnonzero(np.diff(grid.owner, prepend=-1))
        y0 = grid.y0[grid.owner[first]]
        want = np.minimum(np.clip(4.0 * y0, 1e-5, 0.25), 80.0 - y0)
        assert grid.hi[first] - grid.lo[first] == pytest.approx(want, rel=1e-12)
    return grids


@pytest.mark.parametrize("rel_tol", [1e-6, 1e-8])
@pytest.mark.parametrize("pair", [(GOLD, TABLE), (LORENTZ, PC),
                                  (ConstantEpsMu(4.0, 1.0), ConstantEpsMu(1.0, 9.0))],
                         ids=["drude-table", "lorentz-pc", "constant-pair"])
def test_a_warm_grid_gives_the_bits_of_a_cold_one(fresh_engine_caches, pair, rel_tol):
    quad = QuadratureConfig(rel_tol=rel_tol)
    for a in (1e-7, 1e-6):
        for fn in (energy_per_area, pressure):
            cfg = GapConfig(a, *pair)
            cold = fresh_engine_caches(lambda: bits(fn(cfg, quad)))
            assert bits(fn(cfg, quad)) == cold
    cfg = GapConfig(1e-6, *pair)
    cold = fresh_engine_caches(lambda: dominant_frequency(cfg))
    assert dominant_frequency(cfg).hex() == cold.hex()


def test_each_seed_grid_is_built_once_for_every_gap_and_kind(inner_seeds):
    for rel_tol in (1e-6, 1e-8):
        for a in np.geomspace(1e-7, 1e-5, 20):
            for fn in (energy_per_area, pressure):
                fn(GapConfig(float(a), GOLD, GOLD), QuadratureConfig(rel_tol=rel_tol))
    seeds = [engine._seed(coarse)[1].y0.tobytes() for coarse in (True, False)]
    built = [y0.tobytes() for y0, _ in inner_seeds if y0.tobytes() in seeds]
    # the coarse seed from rel_tol 1e-7 up, the fine one below it
    assert built == seeds


def test_every_kept_grid_array_is_read_only(fresh_engine_caches):
    for rel_tol in (1e-6, 1e-8):
        integrate_gaps([(GapConfig(3e-7, GOLD, TABLE), kind) for kind in ("energy", "pressure")],
                       QuadratureConfig(rel_tol=rel_tol))
    dominant_frequency(GapConfig(1e-6, GOLD, GOLD))
    dominant_frequency(GapConfig(1e-6, PC, IPP))
    edges = [engine._seed(coarse)[0] for coarse in (True, False)]
    for grid in kept_grids():
        arrays = [v for v in vars(grid).values() if isinstance(v, np.ndarray)]
        arrays += [f for kind in ("energy", "pressure") for f in grid.factors(kind)]
        assert len(arrays) == 11
        for array in arrays + edges:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


def test_the_kept_grids_are_seed_definitions_alone(inner_seeds):
    pairs = [(GOLD, IPP), (LORENTZ, TABLE), (PC, IPP), (ConstantEpsMu(6.0, 1.5), PC)]
    # the constant pairs' peak searches among them, on either seed
    for rel_tol in (1e-3, 1e-6, 1e-8, 1e-10, 1e-12):
        integrate_gaps([(GapConfig(a, *pair), kind) for pair in pairs for a in (1e-7, 2e-6)
                        for kind in ("energy", "pressure")], QuadratureConfig(rel_tol=rel_tol))
    for pair in pairs:
        dominant_frequency(GapConfig(1e-6, *pair))
    named = {grid.y0.tobytes() for grid in kept_grids()}
    # the outer axis refined, and the grids of its rounds were built
    assert any(y0.tobytes() not in named for y0, _ in inner_seeds)
    # every grid built, kept or not, is graded toward its nodes
    for y0, width in inner_seeds:
        assert width.tolist() == np.clip(4.0 * y0, 1e-5, 0.25).tolist()


def test_a_constant_pair_keeps_no_grid_of_its_own(fresh_engine_caches):
    pair = (ConstantEpsMu(4.0, 1.0), ConstantEpsMu(1.0, 9.0))
    dominant_frequency(GapConfig(1e-6, *pair))
    assert engine._seed.cache_info().currsize == engine._scan_grid.cache_info().currsize == 0
    for rel_tol in (1e-6, 1e-8):
        pressure(GapConfig(1e-6, *pair), QuadratureConfig(rel_tol=rel_tol))
    assert engine._scan_grid.cache_info().currsize == 0
    # each seed's kept grid weighs its nodes
    assert list(engine._seed(True)[1]._factors) == ["pressure"]
    assert list(engine._seed(False)[1]._factors) == ["pressure"]


def test_the_peak_search_holds_each_node_to_the_peaks_floor(monkeypatch, fresh_engine_caches):
    # TE and TM cancel at some seed nodes of this pair: held to 1e-10 of its
    # own weight each took up to 300 splits, 205,365 inner points in all
    points = []
    real = engine.integrate_panels

    def counted(f, *args, with_errors=False, **kwargs):
        res = real(f, *args, with_errors=with_errors, **kwargs)
        points.append(0 if with_errors else res.n_evals)
        return res

    monkeypatch.setattr(engine, "integrate_panels", counted)
    pair = (ConstantEpsMu(4.0, 1.0), ConstantEpsMu(1.0, 9.0))
    cfg = GapConfig(1e-6, *pair)
    result = pressure(cfg, QuadratureConfig(rel_tol=1e-10))
    assert sum(points) < 40_000
    monkeypatch.undo()
    # the node of each node held to its own weight
    grid = engine._seed(False)[1]
    weight = engine._peak_weights("pressure", pair, grid)
    assert result.dominant_xi == grid.y0[np.argmax(weight)] * (C_LIGHT / (2.0 * cfg.a))


# ---------------------------------------------------------------------------
# frequency-independent media: the closed-form angular integral
# ---------------------------------------------------------------------------

def test_li4_matches_a_40_digit_reference():
    x = np.linspace(-1.0, 1.0, 2001)
    # the ends of each branch and their neighbouring floats
    for edge in (-1.0, -0.5, 0.0, 0.5, 1.0):
        x = np.append(x, [edge, np.nextafter(edge, -2.0), np.nextafter(edge, 2.0)])
    x = x[np.abs(x) <= 1.0]
    with mp.workdps(40):
        want = np.array([float(mp.polylog(4, mp.mpf(float(v)))) for v in x])
    assert np.all(np.abs(_li4(x) - want) <= 4 * np.spacing(np.abs(want)))
    assert _li4(np.array([1.0, -1.0])).tolist() == pytest.approx(
        [np.pi ** 4 / 90.0, -7.0 * np.pi ** 4 / 720.0], rel=4e-16)


def constant_pairs():
    """30 seeded pairs of frequency-independent media, eps mu < 1 among them."""
    rng = np.random.default_rng(15)
    pairs = [tuple(ConstantEpsMu(*10.0 ** rng.uniform(-2.0, 3.0, 2)) for _ in range(2))
             for _ in range(24)]
    return pairs + [(ConstantEpsMu(1e-300, 1.0), ConstantEpsMu(5.0, 2.0)),
                    (ConstantEpsMu(1.0, 1e-300), PC),
                    (ConstantEpsMu(1e300, 1.0), ConstantEpsMu(3.0, 3.0)),
                    (ConstantEpsMu(1.0, 1e300), ConstantEpsMu(0.5, 0.5)),
                    (ConstantEpsMu(1e300, 1e300), IPP), (PC, IPP)]


def two_dimensional(items, quad):
    """The items by the 2-D quadrature, ``_CONFIGS`` to a batch."""
    return [r for start in range(0, len(items), engine._CONFIGS)
            for r in _integrate_batch(items[start:start + engine._CONFIGS], quad)]


def test_constant_pairs_agree_with_the_2d_engine():
    quad = QuadratureConfig(rel_tol=1e-10)
    gaps = (5e-8, 3e-7, 1.2e-6, 5e-6)
    items = [(GapConfig(a, m1, m2), kind) for m1, m2 in constant_pairs() for a in gaps
             for kind in ("energy", "pressure")]
    for (cfg, kind), closed, ref in zip(items, integrate_gaps(items, quad),
                                        two_dimensional(items, quad)):
        assert np.isfinite(closed.value) and np.isfinite(closed.error_estimate)
        bound = abs(ideal_energy(cfg.a) if kind == "energy" else ideal_pressure(cfg.a))
        assert abs(closed.value) <= bound
        assert closed.value == pytest.approx(ref.value, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-6])
def test_closed_form_dominant_xi_is_the_2d_engines(rel_tol):
    quad = QuadratureConfig(rel_tol=rel_tol)
    items = [(GapConfig(a, m1, m2), kind) for m1, m2 in constant_pairs()
             for a in (5e-8, 5e-6) for kind in ("energy", "pressure")]
    assert [r.dominant_xi for r in integrate_gaps(items, quad)] == \
        [r.dominant_xi for r in two_dimensional(items, quad)]


def test_angular_integral_that_cannot_converge_carries_best_estimate():
    # the Kronrod and Gauss weights sum to 2 within 3.4e-15 of each other,
    # which bounds the error estimate of a constant integrand from below
    quad = QuadratureConfig(rel_tol=1e-15)
    with pytest.raises(ConvergenceError, match="^energy quadrature") as exc_info:
        energy_per_area(GapConfig(1e-6, PC, PC), quad)
    best = exc_info.value.best
    assert best.value == pytest.approx(ideal_energy(1e-6), rel=1e-14)
    assert best.error_estimate > 1e-15 * abs(best.value)
    assert best.dominant_xi == energy_per_area(GapConfig(1e-6, PC, PC)).dominant_xi


def test_a_batch_of_constant_items_takes_no_inner_integral(monkeypatch):
    def refuse(*args):
        raise AssertionError("the 2-D inner quadrature was called")

    monkeypatch.setattr(engine, "_inner_integrals", refuse)
    items = [(GapConfig(a, m1, m2), kind) for m1, m2 in
             [(PC, PC), (PC, IPP), (ConstantEpsMu(6.0, 1.5), ConstantEpsMu(2.0, 50.0)),
              (vacuum(), PC)] for a in BATCH_GAPS for kind in ("energy", "pressure")]
    results = integrate_gaps(items)
    assert all(r.value != 0.0 for (cfg, _), r in zip(items, results)
               if cfg.material1.label != "vacuum")


def test_a_mixed_batch_hands_the_2d_engine_only_its_dispersive_items(monkeypatch):
    handed = []

    def recorded(items, quad):
        handed.extend(items)
        return _integrate_batch(items, quad)

    items = [(GapConfig(a, m1, m2), kind) for m1, m2 in
             [(PC, IPP), (GOLD, GOLD), (ConstantEpsMu(6.0, 1.5), PC), (GOLD, PC)]
             for a in BATCH_GAPS for kind in ("energy", "pressure")]
    alone = [(energy_per_area if kind == "energy" else pressure)(cfg)
             for cfg, kind in items]
    monkeypatch.setattr(engine, "_integrate_batch", recorded)
    assert [bits(r) for r in integrate_gaps(items)] == [bits(r) for r in alone]
    assert handed == [(cfg, kind) for cfg, kind in items if GOLD in
                      (cfg.material1, cfg.material2)]


# ---------------------------------------------------------------------------
# frequency-independent media: one scale-free solve per pair
# ---------------------------------------------------------------------------

SCALE_GAPS = 10.0 ** np.random.default_rng(16).uniform(-8.0, -4.0, 10)


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-6])
def test_constant_pairs_are_solved_once_for_every_gap_and_either_order(rel_tol,
                                                                        fresh_engine_caches):
    quad = QuadratureConfig(rel_tol=rel_tol)
    cold = fresh_engine_caches
    for m1, m2 in constant_pairs():
        for a in SCALE_GAPS:
            for kind in ("energy", "pressure"):
                def result(*pair):
                    return bits(integrate_gaps([(GapConfig(a, *pair), kind)], quad)[0])

                fresh = cold(lambda: result(m1, m2))
                assert result(m1, m2) == fresh
                assert result(m2, m1) == fresh
                assert cold(lambda: result(m2, m1)) == fresh


def test_dominant_frequency_of_constant_pairs_is_solved_once_for_either_order(
        fresh_engine_caches):
    cold = fresh_engine_caches
    for m1, m2 in constant_pairs():
        for a in SCALE_GAPS[:4]:
            fresh = cold(lambda: dominant_frequency(GapConfig(a, m1, m2)))
            assert dominant_frequency(GapConfig(a, m1, m2)) == fresh
            assert dominant_frequency(GapConfig(a, m2, m1)) == fresh
            assert cold(lambda: dominant_frequency(GapConfig(a, m2, m1))) == fresh


def test_a_batch_of_repeated_and_swapped_pairs_gives_the_bits_of_its_solo_calls(
        fresh_engine_caches):
    cold = fresh_engine_caches
    pairs = constant_pairs()[::3]
    items = [(GapConfig(a, *(pair[::-1] if k % 2 else pair)), kind)
             for k, pair in enumerate(pairs + pairs + pairs) for a in (3e-8, 2e-6)
             for kind in ("energy", "pressure")]
    batch = cold(lambda: integrate_gaps(items))
    assert [bits(r) for r in batch] == [bits(cold(lambda: integrate_gaps([it])[0]))
                                        for it in items]


def test_an_unconverged_solve_raises_again_when_warm(fresh_engine_caches):
    quad = QuadratureConfig(rel_tol=1e-15)
    cfg = GapConfig(1e-6, PC, PC)
    best = []
    for _ in range(2):
        with pytest.raises(ConvergenceError) as exc_info:
            energy_per_area(cfg, quad)
        best.append(bits(exc_info.value.best))
    assert best[0] == best[1]


def test_vacuum_pairs_have_no_dominant_frequency_warm_or_cold(fresh_engine_caches):
    for cfg in (GapConfig(1e-6, vacuum(), PC),
                GapConfig(3e-7, ConstantEpsMu(5.0, 2.0), vacuum())):
        for _ in range(2):
            with pytest.raises(DegenerateIntegrandError):
                dominant_frequency(cfg)


def test_a_changed_medium_is_solved_afresh(fresh_engine_caches):
    cold = fresh_engine_caches
    medium = ConstantEpsMu(6.0, 1.5)
    cfg = GapConfig(1e-6, medium, PC)
    before = (bits(energy_per_area(cfg)), dominant_frequency(cfg))
    medium.eps_const = 2.0
    after = (bits(energy_per_area(cfg)), dominant_frequency(cfg))
    fresh = GapConfig(1e-6, ConstantEpsMu(2.0, 1.5), PC)
    assert after != before
    assert after == cold(lambda: (bits(energy_per_area(fresh)), dominant_frequency(fresh)))


def test_the_solves_stop_growing_at_their_bound(monkeypatch, fresh_engine_caches):
    cold = fresh_engine_caches
    monkeypatch.setattr(engine, "_SOLVED_ENTRIES", 8)
    media = [ConstantEpsMu(2.0 + k, 1.0) for k in range(12)]
    items = [(GapConfig(1e-6, m, PC), "pressure") for m in media]
    # a batch with more pairs than the bound still reads each of its solves
    batch = cold(lambda: integrate_gaps(items))
    sizes = [len(engine._SOLVED)]
    for item, result in zip(items, batch):
        assert bits(integrate_gaps([item])[0]) == bits(result)
        sizes.append(len(engine._SOLVED))
    assert max(sizes) == 8


def scan_at_rel_tol_1e_12(cfg):
    """``dominant_frequency`` by the 2-D scan, inner integrals at rel_tol 1e-12."""
    grid = C_LIGHT / cfg.a * engine._SCAN
    # at the nodes y0 = 2 a xi / c
    scan = engine._InnerGrid(2.0 * engine._SCAN)
    vals, _ = _inner_integrals([cfg], ["energy"], 1e-12, 4000, scan)(scan.y0, 0)
    weight = grid * np.abs(vals)
    m = int(np.argmax(weight))
    s = weight[m - 1:m + 2]
    shift = 0.5 * (s[0] - s[2]) / (s[0] - 2.0 * s[1] + s[2])
    return float(np.exp(np.log(grid[m]) + shift * np.log(grid[m + 1] / grid[m])))


@pytest.mark.parametrize("index", [0, 8, 24, 25, 29])
def test_dominant_frequency_of_constant_pairs_matches_a_tight_2d_scan(index):
    # pairs 24 and 25 hold eps mu = 1e-300, where r varies as sqrt(1 - t) at t = 1
    cfg = GapConfig(1e-6, *constant_pairs()[index])
    assert dominant_frequency(cfg) == pytest.approx(scan_at_rel_tol_1e_12(cfg), rel=1e-11)

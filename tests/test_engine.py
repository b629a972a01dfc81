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
from casimir import engine
from casimir.engine import (_inner_integrals, _ln_one_minus, _reflection_at_limits,
                            _reflection_by_owner, integrate_gaps)
from casimir.quadrature import _EVAL_ROWS

HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8


def ideal_energy(a):
    return -np.pi ** 2 * HBAR * C_LIGHT / (720.0 * a ** 3)


def ideal_pressure(a):
    return -np.pi ** 2 * HBAR * C_LIGHT / (240.0 * a ** 4)


PC = PerfectConductor()
IPP = InfinitelyPermeable()
GOLD = Drude(1.37e16, 5.3e13)


# ---------------------------------------------------------------------------
# reflection coefficients
# ---------------------------------------------------------------------------

def test_perfect_conductor_reflects_ideally():
    for point in (QuadraturePoint(0.0, 1e5), QuadraturePoint(1e15, 0.0),
                  QuadraturePoint(3e14, 2e6)):
        r = reflection(PC, point)
        assert (r.r_te, r.r_tm) == (-1.0, 1.0)
        rp = reflection(IPP, point)
        assert (rp.r_te, rp.r_tm) == (1.0, -1.0)


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
    rf = _reflection_by_owner(model, xi, C_LIGHT, xi / C_LIGHT)
    # the ideal mirrors give float constants
    r_te, r_tm = (np.broadcast_to(r, k.shape) for r in rf(kappa0, owner))
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
        energy_per_area(GapConfig(1e-6, PC, PC), quad)
    best = exc_info.value.best
    assert best is not None
    assert best.value == pytest.approx(ideal_energy(1e-6), rel=1e-2)
    assert best.error_estimate > 1e-10 * abs(best.value)


def test_gap_validation():
    with pytest.raises(DomainError):
        GapConfig(0.0, PC, PC)
    with pytest.raises(DomainError):
        GapConfig(-1e-6, PC, PC)
    with pytest.raises(DomainError):
        GapConfig(np.inf, PC, PC)
    with pytest.raises(DomainError):
        GapConfig(1e-6, PC, "gold")
    with pytest.warns(ContinuumModelWarning):
        GapConfig(5e-10, PC, PC)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        GapConfig(2e-9, PC, PC)  # above the warning threshold: silent


def test_quadrature_config_validation():
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureConfig(rel_tol=2.0)
    with pytest.raises(DomainError):
        QuadratureConfig(max_subdivisions=0)


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
    quad = QuadratureConfig(rel_tol=1e-6)
    pressure(GapConfig(4e-7, TABLE, TABLE), quad)
    nodes = np.concatenate(kk_nodes)
    assert nodes.size > 0
    assert np.unique(nodes).size == nodes.size
    calls = len(kk_nodes)
    kk_nodes.clear()
    pressure(GapConfig(4e-7, TABLE, small_table()), quad)
    assert len(kk_nodes) == 2 * calls
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
    # with one split the pressures at 1e-5 and 2e-5 m fail, the one at 1e-6 m does not
    quad = QuadratureConfig(rel_tol=1e-10, max_subdivisions=1)
    items = [(GapConfig(a, GOLD, GOLD), "pressure") for a in (1e-6, 1e-5, 2e-5)]
    with pytest.raises(ConvergenceError, match="^pressure quadrature") as batched:
        integrate_gaps(items, quad)
    with pytest.raises(ConvergenceError) as alone:
        pressure(items[1][0], quad)
    best, expected = batched.value.best, alone.value.best
    assert best.value == pytest.approx(expected.value, rel=1e-13, abs=0.0)
    assert best.error_estimate == pytest.approx(expected.error_estimate,
                                                rel=1e-6, abs=0.0)
    assert best.dominant_xi == expected.dominant_xi


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
    dispersion_restores_attraction([LORENTZ, TABLE], gaps)
    nodes = np.concatenate(kk_nodes)
    assert nodes.size > 0
    assert np.unique(nodes).size == nodes.size
    kk_nodes.clear()
    # one configuration at a time, (Lorentz, table) and (table, table)
    # transform the table at the same nodes twice
    for a in gaps:
        for m1 in (LORENTZ, TABLE):
            pressure(GapConfig(a, m1, TABLE))
    assert sum(x.size for x in kk_nodes) == 2 * nodes.size


def test_a_full_batch_takes_one_inner_quadrature_per_owner_in_its_seed_round(monkeypatch):
    # every owner seeds the same number of outer panels, and a full batch's
    # seed panels fit one integrand call, so none is split across two
    assert engine._CONFIGS * engine._OUTER_SEED_PANELS <= _EVAL_ROWS
    gaps = np.geomspace(1e-7, 1e-5, engine._CONFIGS + 4)
    for a in gaps:
        xi_lo = 1e-4 * C_LIGHT / a
        cutoff = engine._xi_cutoff(GapConfig(a, PC, PC))
        assert engine.geometric_edges(xi_lo, cutoff, xi_lo).size == engine._OUTER_SEED_PANELS
    rounds = []  # per outer integrand call, the gap of each inner quadrature
    inner_block = engine._inner_block

    def counted(two_a, *args):
        rounds[-1].append(two_a / 2.0)
        return inner_block(two_a, *args)

    def recorded(*args):
        integrals = _inner_integrals(*args)

        def f(x, owners):
            rounds.append([])
            return integrals(x, owners)
        return f

    monkeypatch.setattr(engine, "_inner_block", counted)
    monkeypatch.setattr(engine, "_inner_integrals", recorded)
    integrate_gaps([(GapConfig(a, PC, PC), "pressure") for a in gaps])
    # a full batch and the rest, each converging on its seed panels
    assert sorted(rounds[0]) == sorted(gaps[:engine._CONFIGS])
    assert sorted(rounds[1]) == sorted(gaps[engine._CONFIGS:])
    assert len(rounds) == 2


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12], ids=["seed-panels", "outer-refines"])
def test_batched_dominant_xi_is_each_owners_first_largest_sampled_weight(monkeypatch,
                                                                          rel_tol):
    quad = QuadratureConfig(rel_tol=rel_tol)
    vacuum_side = vacuum()
    items = [(GapConfig(a, m1, m2), kind)
             for m1, m2 in [(PC, IPP), (LORENTZ, TABLE), (PC, vacuum_side)]
             for a in BATCH_GAPS for kind in ("energy", "pressure")]
    # every (node, owner, outer integrand value) the batched call samples,
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
    if rel_tol == 1e-8:
        # where the outer axis refines, BLAS may round an owner's panel sums
        # differently in the last bit (see integrate_gaps)
        alone = [(energy_per_area if kind == "energy" else pressure)(cfg, quad)
                 for cfg, kind in items]
        assert [bits(r) for r in batched] == [bits(r) for r in alone]
    xi, owner, vals = (np.concatenate(a) for a in zip(*seen))
    weight = xi * np.abs(vals)
    for k, ((cfg, _), result) in enumerate(zip(items, batched)):
        mine = owner == k
        if cfg.material2 is vacuum_side:
            assert result.value == 0.0 and result.error_estimate == 0.0
            assert result.dominant_xi is None
            assert not weight[mine].any()
        else:
            assert result.value != 0.0
            assert result.dominant_xi == xi[mine][np.argmax(weight[mine])]


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
    pressure(GapConfig(1e-6, PC, PC), quad)
    if rel_tol == 1e-8:
        assert [len(calls) for _, calls in rounds] == [1]
    rounds.clear()
    integrate_gaps([(GapConfig(1e-6, PC, PC), "pressure"),
                    (GapConfig(4e-7, GOLD, GOLD), "energy"),
                    (GapConfig(2e-6, PC, IPP), "energy")], quad)
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
    for p in (1.0, -1.0, p_array):
        # every element, and the elements where |p e^{-y}| < 0.5 alone
        for part in (np.ones(emy.size, dtype=bool), near):
            pp = p if np.ndim(p) == 0 else p[part]
            x = pp * emy[part]
            expected = np.where(np.abs(x) < 0.5, np.log1p(-x),
                                np.log(omy[part] + (1.0 - pp) * emy[part]))
            got = _ln_one_minus(pp, emy[part], omy[part])
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in expected.tolist()]


@pytest.mark.parametrize("m2", [PC, IPP], ids=["pc-pc", "pc-permeable"])
def test_equal_polarizations_share_one_term_bit_for_bit(monkeypatch, m2):
    cfg = GapConfig(1e-6, PC, m2)
    xi = np.geomspace(1e11, 1.2e16, 97)

    def inner():
        return [[v.hex() for a in _inner_integrals([cfg], [kind], 1e-9, 300)(xi, 0)
                 for v in a.tolist()] for kind in ("energy", "pressure")]

    shared = inner()
    real = _reflection_by_owner

    def as_arrays(*args):
        # float coefficients as arrays: the two polarizations are formed apart
        rf = real(*args)
        return lambda u, owner: tuple(np.full(np.shape(u), r) for r in rf(u, owner))

    monkeypatch.setattr(engine, "_reflection_by_owner", as_arrays)
    assert inner() == shared

"""Dispersion model behaviour on the imaginary axis."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir import (ConstantEpsMu, DebyeMagnetic, DomainError, Drude, HighTail,
                     InfinitelyPermeable, IngestionError, InvalidModelError,
                     LorentzOscillators, LowTail, PerfectConductor, Plasma,
                     Tabulated, TabulatedAbsorption, kramers_kronig, vacuum)


def test_constant_model_is_constant():
    m = ConstantEpsMu(4.0, 1.0)
    for xi in (0.0, 1e10, 1e15, 1e20):
        assert m.eps(xi) == 4.0
        assert m.mu(xi) == 1.0


def test_constant_model_carries_unphysical_flag():
    assert ConstantEpsMu(2.0, 3.0).unphysical == "non-dispersive"
    assert Drude(1e16, 1e14).unphysical is None


def test_plasma_direct_substitution():
    # eps = 1 + (wp/xi)^2 at xi = wp
    assert Plasma(1e16).eps(1e16) == pytest.approx(2.0, rel=1e-12)


def test_drude_transparent_at_high_frequency():
    m = Drude(1e16, 1e14)
    assert m.eps(1e6 * m.omega_p) == pytest.approx(1.0, abs=1e-6)


def test_zero_frequency_sentinels():
    assert Drude(1e16, 1e14).eps(0.0) == np.inf
    assert Plasma(1e16).eps(0.0) == np.inf
    assert PerfectConductor().eps(1e15) == np.inf
    assert InfinitelyPermeable().mu(1e15) == np.inf
    # finite-at-zero models stay finite
    assert LorentzOscillators([(1.0, 1e16, 5e15, 1e14)]).eps(0.0) == \
        pytest.approx(1.0 + 1e32 / 25e30)


def test_responses_reach_one_at_huge_xi():
    # xi^2 (and x (x + gamma)) overflowed from ~1e155 on
    xi = np.array([1e155, 1e200, 1e300, 1.7e308])
    models = [Drude(1e16, 1e14), Plasma(1e16),
              LorentzOscillators([(1.0, 1e16, 5e15, 1e14)]), DebyeMagnetic(1e3, 1e9)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m in models:
            for fn in (m.eps, m.mu):
                assert np.all(fn(xi) == 1.0)
                assert all(fn(float(x)) == 1.0 for x in xi)


def test_xi2_susceptibility_takes_arrays():
    xi = np.array([0.0, 1e14, 1e16])
    lor = LorentzOscillators([(1.0, 1e16, 5e15, 1e14)])
    np.testing.assert_allclose(lor.xi2_susceptibility(xi), (lor.eps(xi) - 1.0) * xi * xi,
                               rtol=1e-15, atol=0.0)
    assert lor.xi2_susceptibility(0.0) == 0.0
    # eps is inf at xi = 0, the weight is 0
    w = np.geomspace(1e13, 1e17, 20)
    table = Tabulated(TabulatedAbsorption(w, np.ones_like(w), LowTail("constant")))
    assert table.eps(0.0) == np.inf
    np.testing.assert_allclose(table.xi2_susceptibility(xi),
                               [0.0] + [(table.eps(x) - 1.0) * x * x for x in xi[1:]],
                               rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(Drude(1e16, 1e14).xi2_susceptibility(xi),
                               1e32 * xi / (xi + 1e14), rtol=1e-15, atol=0.0)
    assert np.all(PerfectConductor().xi2_susceptibility(xi) == np.inf)


@pytest.mark.parametrize("model", [
    PerfectConductor(), Plasma(9e15), Drude(1.37e16, 5.3e13),
    Tabulated(TabulatedAbsorption(np.geomspace(1e13, 1e17, 20), np.ones(20),
                                  LowTail("constant")))], ids=repr)
def test_xi2_susceptibility_is_a_float_or_shaped_like_xi(model):
    xi = np.append([0.0, 5e-324, 1e-300], np.geomspace(1e-3, 1e15, 15)).reshape(3, 6)
    weights = model.xi2_susceptibility(xi)
    assert isinstance(weights, np.ndarray) and weights.shape == xi.shape
    for x, w in zip(xi.ravel().tolist(), weights.ravel().tolist()):
        scalar = model.xi2_susceptibility(x)
        assert isinstance(scalar, float) and scalar.hex() == w.hex()


def test_drude_weight_reaches_the_plasma_weight_at_huge_xi():
    drude = Drude(1.37e16, 5.3e13)
    wp2 = 1.37e16 ** 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for xi in (1e290, 1.7e308):
            assert drude.xi2_susceptibility(xi) == pytest.approx(wp2, rel=1e-15, abs=0.0)
        np.testing.assert_allclose(drude.xi2_susceptibility(np.array([1e290, 1.7e308])),
                                   wp2, rtol=1e-15, atol=0.0)
        assert drude.xi2_susceptibility(0.0) == 0.0
    # it agrees with the direct form wp^2 xi / (xi + gamma) wherever that is finite
    xi = np.concatenate([[0.0, 1e-320, 1e-300, 5.3e13], np.geomspace(1e-10, 1e300, 700)])
    with np.errstate(over="ignore"):
        old = wp2 * xi / (xi + 5.3e13)
    finite = np.isfinite(old)
    assert not finite.all()
    np.testing.assert_allclose(drude.xi2_susceptibility(xi)[finite], old[finite],
                               rtol=1e-15, atol=0.0)


def test_debye_magnetic_static_and_optical_limits():
    m = DebyeMagnetic(99.0, 1e9)
    assert m.mu(0.0) == pytest.approx(100.0, rel=1e-14)
    # at optical xi the permeability has collapsed to 1
    mu_opt = m.mu(1e15)
    assert mu_opt == pytest.approx(1.0 + 99.0 / (1.0 + 1e6), rel=1e-12)
    assert mu_opt == pytest.approx(1.0, abs=1e-4)


def test_electric_models_have_unit_permeability():
    for m in (Drude(1e16, 1e14), Plasma(1e16),
              LorentzOscillators([(0.5, 1e16, 5e15, 1e13)]), vacuum()):
        assert m.mu(3e14) == 1.0
        assert m.mu(np.array([1e13, 1e16])).tolist() == [1.0, 1.0]


def test_invalid_parameters_rejected():
    with pytest.raises(InvalidModelError):
        Drude(-1e16, 1e14)
    with pytest.raises(InvalidModelError):
        Drude(np.nan, 1e14)
    with pytest.raises(InvalidModelError):
        Plasma(0.0)
    with pytest.raises(InvalidModelError):
        ConstantEpsMu(0.0, 1.0)
    with pytest.raises(InvalidModelError):
        LorentzOscillators([])
    with pytest.raises(InvalidModelError):
        LorentzOscillators([(-0.1, 1e16, 5e15, 1e13)])
    with pytest.raises(InvalidModelError):
        DebyeMagnetic(10.0, -1e9)


def test_model_frequencies_reach_1e140_rad_s_and_no_further():
    makers = [lambda w: Drude(w, 1e14), lambda w: Drude(1e16, w), Plasma,
              lambda w: LorentzOscillators([(1.0, w, 5e15, 1e13)]),
              lambda w: LorentzOscillators([(1.0, 1e16, w, 1e13)]),
              lambda w: LorentzOscillators([(1.0, 1e16, 5e15, w)]),
              lambda w: DebyeMagnetic(10.0, w), lambda w: DebyeMagnetic(10.0, 1e9, omega_e=w),
              lambda w: Tabulated(TabulatedAbsorption([1e13, w], [1.0, 0.5]))]
    xi = np.array([0.0, 1e-300, 1.0, 1e15, 1e140, 1e150, 1e300])
    past = math.nextafter(1e140, math.inf)
    for make in makers:
        model = make(1e140)
        for response in (model.eps(xi), model.mu(xi), model.xi2_susceptibility(xi)):
            assert not np.isnan(response).any()
        with pytest.raises((InvalidModelError, IngestionError), match="at most 1e\\+140"):
            make(past)


def test_model_frequencies_reach_1e_minus_10_rad_s_and_no_further():
    # with every frequency from 1e-10 to 1e140 rad/s, (omega_p / omega0)^2
    # of a static Lorentz eps stays finite
    makers = [lambda w: Drude(w, 1e14), lambda w: Drude(1e16, w), Plasma,
              lambda w: LorentzOscillators([(1.0, w, 5e15, 1e13)]),
              lambda w: LorentzOscillators([(1.0, 1e140, w, 1e13)]),
              lambda w: LorentzOscillators([(1.0, 1e16, 5e15, w)]),
              lambda w: DebyeMagnetic(10.0, w), lambda w: DebyeMagnetic(10.0, 1e9, omega_e=w),
              lambda w: Tabulated(TabulatedAbsorption([w, 1e13], [1.0, 0.5]))]
    xi = np.array([0.0, 1e-300, 1.0, 1e15, 1e140, 1e150, 1e300])
    short = math.nextafter(1e-10, 0.0)
    for make in makers:
        model = make(1e-10)
        for response in (model.eps(xi), model.mu(xi), model.xi2_susceptibility(xi)):
            assert not np.isnan(response).any()
        with pytest.raises((InvalidModelError, IngestionError), match="at least 1e-10"):
            make(short)


@pytest.mark.parametrize("make", [
    lambda: DebyeMagnetic(10.0, 1e-300).mu(1e9),
    lambda: DebyeMagnetic(10.0, 1e9, omega_e=1e-200).eps(0.0),
    lambda: LorentzOscillators([(1.0, 1e140, 1e-20, 1e13)]).eps(0.0),
] + [lambda low=low, high=high: Tabulated(TabulatedAbsorption(
        np.geomspace(1e-170, 1e-160, 20), np.full(20, 0.5), LowTail(low),
        HighTail(*high))).eps(1e9)
     for low in ("constant", "linear", "zero") for high in (("power", 3.0), ("power", 2.0),
                                                            ("zero",))],
    ids=["debye-omega_m", "debye-omega_e", "lorentz-omega0"]
        + [f"table-{low}-{high}" for low in ("constant", "linear", "zero")
           for high in ("power3", "power2", "zero")])
def test_frequencies_below_1e_minus_10_rad_s_are_refused(make):
    # each overflowed or gave nan, with a warning, when it was accepted
    with pytest.raises((InvalidModelError, IngestionError), match="at least 1e-10"):
        make()


@pytest.mark.parametrize("oscillator", [(1e300, 1e16, 5e15, 1e13), (1e9, 1e140, 1e-10, 1e13)],
                         ids=["f-wp2-overflows", "ratio-overflows"])
def test_lorentz_oscillator_with_an_infinite_static_eps_is_refused(oscillator):
    # each was accepted with eps = inf at every xi, a dielectric reflecting
    # like a perfect conductor
    with pytest.raises(InvalidModelError, match="static eps .* not finite"):
        LorentzOscillators([oscillator])


def test_lorentz_strengths_whose_sum_overflows_are_refused():
    strong = (1e300, 1e4, 1.0, 1.0)  # static eps 1e308, the float maximum's order
    model = LorentzOscillators([strong])
    assert model.eps(0.0) == 1e308 and np.isfinite(model.xi2_susceptibility(1e3))
    with pytest.raises(InvalidModelError, match="oscillator 1: the static eps"):
        LorentzOscillators([strong, strong])


def test_table_whose_transform_overflows_is_refused():
    # dw w1 w2 of the transform overflowed with a warning, and eps was inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestionError, match="transform overflows"):
            TabulatedAbsorption([1e103, 2e103], [1.0, 2.0], LowTail("zero"), HighTail("zero"))
        table = TabulatedAbsorption([1e100, 2e100], [1.0, 2.0], LowTail("zero"),
                                    HighTail("zero"))
        eps = Tabulated(table).eps(np.array([1e99, 1.5e100, 1e101]))
    assert np.isfinite(eps).all() and (eps > 1.0).all()


def test_table_whose_every_other_sample_transform_overflows_is_refused():
    # the error estimate's copy spans two intervals at a time: its dw w1 w2
    # overflowed in kramers_kronig for a table the constructor accepted
    w = np.array([1.0, 1.5, 2.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IngestionError, match="transform overflows"):
            TabulatedAbsorption(4.6e102 * w, [1.0, 2.0, 3.0], LowTail("zero"), HighTail("zero"))
        table = TabulatedAbsorption(4.2e102 * w, [1.0, 2.0, 3.0], LowTail("zero"),
                                    HighTail("zero"))
        assert np.isfinite(kramers_kronig(table, 5.5e102).value)
        # the copy's own copy, of wider intervals still, is never checked:
        # here its dw w1 w2 alone leaves float range
        scale = (np.finfo(float).max / 2.06) ** (1.0 / 3.0)
        w = scale * np.array([1.0, 2.0, 2.01, 2.02, 2.03])
        table = TabulatedAbsorption(w, [1.0, 2.0, 3.0, 2.0, 1.0], LowTail("zero"),
                                    HighTail("zero"))
        first, last = float(w[0]), float(w[-1])
        assert (last - first) * first * last == math.inf
        estimate = kramers_kronig(table, np.array([0.5, 1.0, 3.0]) * scale)
    assert np.isfinite(estimate.value).all() and np.isfinite(estimate.error_estimate).all()


def test_negative_frequency_rejected():
    with pytest.raises(DomainError):
        Drude(1e16, 1e14).eps(-1.0)
    with pytest.raises(DomainError):
        DebyeMagnetic(10.0, 1e9).mu(np.array([1e15, -1e10]))
    with pytest.raises(DomainError):
        Plasma(1e16).eps(np.inf)
    # the weight of an infinite eps checks its frequency as eps does; the
    # constant-eps model takes the base-class default
    for model in (Drude(1e16, 1e14), Plasma(1e16), PerfectConductor(),
                  ConstantEpsMu(4.0, 2.0)):
        for xi in (-1.0, np.nan, np.inf):
            with pytest.raises(DomainError):
                model.xi2_susceptibility(xi)
        np.testing.assert_array_equal(model.xi2_susceptibility([1.0, 2.0]),
                                      model.xi2_susceptibility(np.array([1.0, 2.0])))


def test_vectorized_matches_scalar():
    models = [Drude(1.37e16, 5.3e13), Plasma(9e15),
              LorentzOscillators([(0.7, 8e15, 4e15, 2e14), (0.3, 2e16, 1.2e16, 4e14)]),
              DebyeMagnetic(500.0, 1e10), ConstantEpsMu(7.0, 2.0)]
    xi = np.geomspace(1e10, 1e18, 9)
    for m in models:
        eps_vec = m.eps(xi)
        mu_vec = m.mu(xi)
        for i, x in enumerate(xi):
            assert eps_vec[i] == m.eps(float(x))
            assert mu_vec[i] == m.mu(float(x))


_dispersive = st.sampled_from([
    Drude(1.37e16, 5.3e13),
    Drude(4e15, 2e14),
    Plasma(9e15),
    Plasma(2e16),
    LorentzOscillators([(1.0, 8e15, 5e15, 5e13)]),
    LorentzOscillators([(0.6, 6e15, 3e15, 1e14), (0.4, 1.5e16, 9e15, 3e14)]),
    DebyeMagnetic(1e3, 1e9),
    DebyeMagnetic(10.0, 1e11),
])


@settings(max_examples=60, deadline=None)
@given(model=_dispersive,
       xi1=st.floats(min_value=1e8, max_value=1e18),
       ratio=st.floats(min_value=1.0, max_value=1e6))
def test_response_decays_monotonically_to_one(model, xi1, ratio):
    xi2 = xi1 * ratio
    e1, e2 = model.eps(xi1), model.eps(xi2)
    m1, m2 = model.mu(xi1), model.mu(xi2)
    slack = 1e-12 * abs(e1)
    assert e1 + slack >= e2 >= 1.0
    assert m1 + 1e-12 * abs(m1) >= m2 >= 1.0


def test_high_frequency_vacuum_limit():
    cases = [
        (Drude(1e16, 1e14), 1e16),
        (Plasma(2e16), 2e16),
        (LorentzOscillators([(1.0, 8e15, 5e15, 5e13)]), 8e15),
        # the Debye permeability relaxes on the scale dmu * omega_m
        (DebyeMagnetic(1e3, 1e10), 1e3 * 1e10),
    ]
    for model, scale in cases:
        xi = 1e6 * scale
        assert abs(model.eps(xi) - 1.0) < 1e-6
        assert abs(model.mu(xi) - 1.0) < 1e-6

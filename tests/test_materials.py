"""Dispersion model behaviour on the imaginary axis."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casimir import (ConstantEpsMu, DebyeMagnetic, DomainError, Drude,
                     InfinitelyPermeable, InvalidModelError,
                     LorentzOscillators, LowTail, PerfectConductor, Plasma,
                     Tabulated, TabulatedAbsorption, vacuum)


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


def test_negative_frequency_rejected():
    with pytest.raises(DomainError):
        Drude(1e16, 1e14).eps(-1.0)
    with pytest.raises(DomainError):
        DebyeMagnetic(10.0, 1e9).mu(np.array([1e15, -1e10]))
    with pytest.raises(DomainError):
        Plasma(1e16).eps(np.inf)


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


def test_resonance_scale_exposed():
    assert Drude(1e16, 1e14).resonance_scale == 1e16
    assert ConstantEpsMu(4.0, 1.0).resonance_scale == 0.0
    assert DebyeMagnetic(1e3, 1e9).resonance_scale >= 1e12

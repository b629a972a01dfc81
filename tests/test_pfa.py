"""Sphere-plate proximity force against the plate-plate oracle."""

import numpy as np
import pytest

from casimir import (DomainError, GapConfig, InfinitelyPermeable,
                     PerfectConductor, SpherePlate, energy_per_area, pfa_force,
                     vacuum)

HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8

PC = PerfectConductor()


def test_ideal_conductor_sphere_plate_force():
    R, a = 100e-6, 1e-6
    result = pfa_force(SpherePlate(R, a), PC, PC)
    ideal = 2.0 * np.pi * R * (-np.pi ** 2 * HBAR * C_LIGHT / (720.0 * a ** 3))
    assert result.force == pytest.approx(ideal, rel=1e-6)
    assert ideal == pytest.approx(-2.723e-13, rel=1e-3)
    assert result.warning is None
    assert result.aspect == pytest.approx(0.01)


def test_boyer_sphere_plate_repels():
    R, a = 100e-6, 1e-6
    result = pfa_force(SpherePlate(R, a), PC, InfinitelyPermeable())
    ideal = 2.0 * np.pi * R * (7.0 / 8.0) * \
        (np.pi ** 2 * HBAR * C_LIGHT / (720.0 * a ** 3))
    assert result.force == pytest.approx(ideal, rel=1e-5)
    assert ideal == pytest.approx(2.382e-13, rel=1e-3)
    assert result.force > 0.0


def test_pfa_is_exactly_proportional_to_plate_energy():
    R, a = 50e-6, 0.8e-6
    result = pfa_force(SpherePlate(R, a), PC, PC)
    independent = energy_per_area(GapConfig(a, PC, PC))
    assert result.force == 2.0 * np.pi * R * independent.value
    assert result.energy.value == independent.value


def test_linear_in_radius():
    a = 1e-6
    f1 = pfa_force(SpherePlate(50e-6, a), PC, PC).force
    f2 = pfa_force(SpherePlate(100e-6, a), PC, PC).force
    assert f2 == 2.0 * f1


@pytest.mark.parametrize("dtype", [np.float32, np.float16])
def test_numpy_float_lengths_are_kept_as_the_python_floats_they_hold(dtype):
    radius, gap = dtype(1e-4), dtype(1e-6)
    geom = SpherePlate(radius, gap)
    assert (type(geom.radius), type(geom.gap)) == (float, float)
    result = pfa_force(geom, PC, PC)
    plain = pfa_force(SpherePlate(float(radius), float(gap)), PC, PC)
    assert type(result.force) is float
    assert (result.force.hex(), result.aspect.hex()) == (plain.force.hex(), plain.aspect.hex())


def test_vacuum_plate_gives_zero():
    assert pfa_force(SpherePlate(100e-6, 1e-6), PC, vacuum()).force == 0.0


def test_validity_warning_far_from_contact():
    result = pfa_force(SpherePlate(5e-6, 1e-6), PC, PC)
    assert result.warning is not None
    assert "a/R" in result.warning


def test_geometry_validation():
    with pytest.raises(DomainError):
        SpherePlate(0.0, 1e-6)
    with pytest.raises(DomainError):
        SpherePlate(100e-6, -1e-6)
    for bad in (np.nan, np.inf):
        with pytest.raises(DomainError, match="^sphere radius must be finite and positive$"):
            SpherePlate(bad, 1e-6)
        with pytest.raises(DomainError, match="^gap must be finite and positive$"):
            SpherePlate(100e-6, bad)

"""Sign classification, parameter maps, and the dispersive-attraction report."""

import itertools

import numpy as np
import pytest

from casimir import (ConstantEpsMu, ConvergenceError, DebyeMagnetic, DomainError,
                     Drude, GapConfig, ImpedancePoint,
                     InconclusiveConfigurationError, InfinitelyPermeable,
                     LorentzOscillators, PerfectConductor, Plasma,
                     QuadratureConfig, Verdict, boundary_points, classify,
                     dispersion_restores_attraction, find_sign_boundary,
                     sign_map, uvl_map, vacuum)
from casimir import engine

PC = PerfectConductor()
GOLD = Drude(1.37e16, 5.3e13)
A = 1e-6


def test_classify_oracle_configurations(quad_fast):
    assert classify(GapConfig(A, PC, PC), quad_fast, threshold=1e-8).verdict \
        == Verdict.ATTRACTIVE
    assert classify(GapConfig(A, PC, InfinitelyPermeable()), quad_fast).verdict \
        == Verdict.REPULSIVE
    assert classify(GapConfig(A, vacuum(), PC), quad_fast).verdict \
        == Verdict.INDETERMINATE


def test_classify_is_deterministic(quad_fast):
    cfg = GapConfig(A, GOLD, GOLD)
    v1 = classify(cfg, quad_fast)
    v2 = classify(cfg, quad_fast)
    assert v1 == v2


def test_classify_attaches_numbers(quad_fast):
    v = classify(GapConfig(A, PC, PC), quad_fast)
    assert v.pressure < 0.0
    assert v.error >= 0.0
    assert v.threshold >= 1e-12
    assert v.pressure < -v.threshold


def test_threshold_below_error_is_inconclusive(quad_fast):
    with pytest.raises(InconclusiveConfigurationError):
        classify(GapConfig(A, PC, PC), quad_fast, threshold=1e-30)


@pytest.mark.parametrize("threshold", [float("nan"), -1e-9, float("inf")])
def test_a_threshold_not_finite_and_nonnegative_is_refused_before_quadrature(
        monkeypatch, threshold):
    def refuse(*args, **kwargs):
        raise AssertionError("a quadrature ran")

    monkeypatch.setattr(engine, "integrate_panels", refuse)
    calls = [lambda: classify(GapConfig(A, PC, PC), threshold=threshold),
             lambda: sign_map([1.0, 4.0], [1.0], [1.0], [2.0], A, threshold=threshold),
             lambda: uvl_map([0.5], [2.0], A, threshold=threshold),
             lambda: dispersion_restores_attraction([GOLD], [A], threshold=threshold)]
    for call in calls:
        with pytest.raises(DomainError, match="threshold"):
            call()


def test_mirror_pairs_attract(quad_fast):
    for m in (ConstantEpsMu(7.0, 2.0), GOLD, DebyeMagnetic(100.0, 1e10)):
        v = classify(GapConfig(A, m, m), quad_fast)
        assert v.verdict == Verdict.ATTRACTIVE


def test_impedance_point():
    p = ImpedancePoint(4.0, 1.0, 1.0, 9.0)
    assert p.z1 == 0.5 and p.z2 == 3.0
    with pytest.raises(DomainError):
        ImpedancePoint(0.5, 1.0, 1.0, 1.0)


def test_sign_map_structure(quad_fast):
    table = sign_map([1.0, 100.0], [1.0, 100.0], [1.0, 100.0], [1.0, 100.0],
                     A, quad=quad_fast)
    assert len(table.rows) == 16
    assert all(r.unphysical == "non-dispersive" for r in table.rows)
    by_key = {(r.eps1, r.mu1, r.eps2, r.mu2): r.verdict for r in table.rows}
    # mirror pairs on the grid attract (or vanish identically for vacuum)
    for e, m in ((100.0, 1.0), (1.0, 100.0), (100.0, 100.0)):
        assert by_key[(e, m, e, m)] == Verdict.ATTRACTIVE
    # verdicts are swap-symmetric
    for (e1, m1, e2, m2), v in by_key.items():
        assert by_key[(e2, m2, e1, m1)] == v
    # impedances straddling 1 produce repulsion
    assert by_key[(100.0, 1.0, 1.0, 100.0)] == Verdict.REPULSIVE


def test_sign_map_spec_point(quad_fast):
    table = sign_map([100.0], [1.0], [1.01], [100.0], A, quad=quad_fast)
    row = table.rows[0]
    assert row.z1 < 1.0 < row.z2
    assert row.verdict == Verdict.REPULSIVE


def test_sign_map_csv(quad_fast):
    table = sign_map([1.0, 10.0], [1.0], [1.0], [1.0], A, quad=quad_fast)
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ("eps1,mu1,eps2,mu2,z1,z2,pressure_Pa,error_Pa,"
                        "verdict,unphysical")
    assert len(lines) == 3
    assert lines[1].endswith("non-dispersive")
    counts = table.counts()
    assert counts["Indeterminate"] == 2  # both rows have a vacuum side
    summary = table.summary()
    assert summary["counts"] == counts
    assert summary["counterexamples"] == []


def test_sign_map_rejects_bad_grid(quad_fast):
    with pytest.raises(DomainError):
        sign_map([], [1.0], [1.0], [1.0], A, quad=quad_fast)
    with pytest.raises(DomainError):
        sign_map([0.5], [1.0], [1.0], [1.0], A, quad=quad_fast)
    with pytest.raises(DomainError):
        uvl_map([], [1.0], A, quad=quad_fast)
    for mu in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="mu values must be finite and positive"):
            uvl_map([1.0], [mu], A, quad=quad_fast)
    for product in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(DomainError, match="eps_mu_product must be finite and positive"):
            uvl_map([1.0], [1.0], A, quad=quad_fast, eps_mu_product=product)


def test_uvl_vacuum_matched_sign_structure(quad_fast):
    mus = [0.5, 2.0]
    table = uvl_map(mus, mus, A, quad=quad_fast)
    verdicts = {(r.mu1, r.mu2): r.verdict for r in table.rows}
    assert verdicts[(0.5, 0.5)] == Verdict.ATTRACTIVE
    assert verdicts[(2.0, 2.0)] == Verdict.ATTRACTIVE
    assert verdicts[(0.5, 2.0)] == Verdict.REPULSIVE
    assert verdicts[(2.0, 0.5)] == Verdict.REPULSIVE
    # the impedance in this mode is mu itself
    for r in table.rows:
        assert r.z1 == pytest.approx(r.mu1, rel=1e-12)
        assert r.eps1 == pytest.approx(1.0 / r.mu1, rel=1e-12)


def test_uvl_both_vacuum_is_indeterminate(quad_fast):
    table = uvl_map([1.0], [1.0], A, quad=quad_fast)
    assert table.rows[0].verdict == Verdict.INDETERMINATE


def test_uvl_equal_eps_mu_mode_never_repels(quad_fast):
    table = uvl_map([1.0, 2.0, 5.0], [1.0, 2.0, 5.0], A, quad=quad_fast,
                    mode="equal-eps-mu")
    assert all(r.verdict != Verdict.REPULSIVE for r in table.rows)
    with pytest.raises(DomainError):
        uvl_map([1.0], [1.0], A, mode="isorefractive")


def test_uvl_boundaries_sit_at_unit_mu(quad_fast):
    table = uvl_map([0.5, 2.0], [0.5, 2.0], A, quad=quad_fast)
    for axis in ("mu1", "mu2"):
        found = boundary_points(table, axis, quad=quad_fast)
        assert found, f"no boundary along {axis}"
        for rec in found:
            assert rec["crossing"] == pytest.approx(1.0, rel=5e-3)


def test_find_sign_boundary_conductor_sweep(quad_fast):
    def make(t):
        return GapConfig(A, ConstantEpsMu(2.0, t), PC)

    crossing = find_sign_boundary(make, 1.0, 400.0, quad=quad_fast)
    assert 1.0 < crossing < 400.0
    assert classify(make(crossing * 0.9), quad_fast).verdict == Verdict.ATTRACTIVE
    assert classify(make(crossing * 1.1), quad_fast).verdict == Verdict.REPULSIVE


def test_find_sign_boundary_through_cancelling_polarizations():
    # TE and TM cancel to 1e-4 of either near eps1 = 32.7, where a
    # pressure at the default rel_tol 1e-8 stalls; a sign needs far less
    def make(t):
        return GapConfig(A, ConstantEpsMu(t, 10.0), ConstantEpsMu(1.0, 10.0))

    crossing = find_sign_boundary(make, 10.0, 100.0)
    assert crossing == pytest.approx(32.68, rel=2e-3)


def test_find_sign_boundary_needs_a_flip(quad_fast):
    def make(t):
        return GapConfig(A, ConstantEpsMu(t, 1.0), ConstantEpsMu(4.0, 1.0))

    with pytest.raises(DomainError):
        find_sign_boundary(make, 2.0, 50.0, quad=quad_fast)


def test_dispersion_restores_attraction(quad_fast):
    models = [GOLD, Plasma(9e15), DebyeMagnetic(1e3, 1e9)]
    report = dispersion_restores_attraction(
        models, separations=np.geomspace(0.1e-6, 5e-6, 4), quad=quad_fast)
    assert report.all_attractive
    assert not report.counterexamples
    assert len(report.rows) == 6 * 4  # pairs with replacement x separations
    assert all(r.asserted for r in report.rows)
    text = report.to_csv()
    assert text.splitlines()[0] == \
        "material1,material2,a_m,pressure_Pa,error_Pa,verdict,asserted"
    assert report.summary()["all_attractive"] is True


def test_hypothetical_optical_ferrite_recorded_not_asserted(quad_fast):
    # relaxation pushed into the optical range: no known material does this,
    # so the repulsion it produces is recorded without failing the report
    models = [GOLD, DebyeMagnetic(1e3, 1e16)]
    report = dispersion_restores_attraction(models, separations=[0.5e-6],
                                            quad=quad_fast)
    assert report.all_attractive
    unasserted = [r for r in report.rows if not r.asserted]
    assert unasserted
    assert any(r.verdict == Verdict.REPULSIVE for r in unasserted)


def test_ferrite_beyond_snoeks_bound_recorded_not_asserted(quad_fast):
    # delta_mu * omega_m = 1e16 rad/s, 100x the bound; the corner of
    # acceptance criterion 4, 1e3 * 1e11 = 1e14 rad/s, stays asserted
    beyond, corner = DebyeMagnetic(1e5, 1e11), DebyeMagnetic(1e3, 1e11)
    report = dispersion_restores_attraction([GOLD, beyond, corner], separations=[0.1e-6, 1e-6],
                                            quad=quad_fast)
    assert report.all_attractive
    for r in report.rows:
        assert r.asserted == (beyond.label not in (r.label1, r.label2))
    assert any(r.verdict == Verdict.REPULSIVE for r in report.rows if not r.asserted)


def test_constant_models_rejected_from_dispersive_report(quad_fast):
    with pytest.raises(DomainError, match="sign_map"):
        dispersion_restores_attraction([GOLD, ConstantEpsMu(4.0, 1.0)],
                                       quad=quad_fast)
    # every medium the engine solves as frequency-independent, and no other
    for m in (PC, InfinitelyPermeable(), ConstantEpsMu(4.0, 1.0)):
        assert engine._frequency_independent(GapConfig(A, m, m))
        with pytest.raises(DomainError, match="not dispersive"):
            dispersion_restores_attraction([GOLD, m], quad=quad_fast)


@pytest.mark.parametrize("models, separations", [([], None), ([GOLD, Plasma(9e15)], []),
                                                ([GOLD, Plasma(9e15)], np.array([]))])
def test_attraction_check_on_an_empty_grid_is_a_domain_error(quad_fast, models, separations):
    # no row would read as a confirmed all_attractive
    with pytest.raises(DomainError, match="empty grid"):
        dispersion_restores_attraction(models, separations=separations, quad=quad_fast)


# ---------------------------------------------------------------------------
# reports longer than one batch of configurations
# ---------------------------------------------------------------------------

LORENTZ = LorentzOscillators([(1.0, 8e15, 5e15, 5e13)])
SEPARATIONS = np.geomspace(0.05e-6, 5e-6, 20)   # the report's default


def one_at_a_time(models, quad, threshold=None):
    """The report's configurations, in its order, each classified alone:
    the verdicts, or the first exception raised."""
    verdicts = []
    for (m1, m2), a in itertools.product(
            itertools.combinations_with_replacement(models, 2), SEPARATIONS):
        try:
            verdicts.append(classify(GapConfig(float(a), m1, m2), quad, threshold))
        except (ConvergenceError, InconclusiveConfigurationError) as exc:
            return exc
    return verdicts


def test_report_of_several_batches_gives_the_bits_of_one_classify_each(quad_fast):
    # 3 pairs x 20 separations: 60 configurations, two batched outer calls
    report = dispersion_restores_attraction([LORENTZ, GOLD], quad=quad_fast)
    alone = one_at_a_time([LORENTZ, GOLD], quad_fast)
    assert len(report.rows) == len(alone) == 60
    assert [(r.pressure.hex(), r.error.hex(), r.verdict) for r in report.rows] == \
        [(v.pressure.hex(), v.error.hex(), v.verdict) for v in alone]


def test_report_raises_the_first_nonconverged_configuration_in_order():
    # with one split, rows 40, 58 and 59 of 60 fail (the second batch)
    quad = QuadratureConfig(rel_tol=1e-10, max_subdivisions=1)
    expected = one_at_a_time([LORENTZ, GOLD], quad)
    assert isinstance(expected, ConvergenceError)
    with pytest.raises(ConvergenceError) as batched:
        dispersion_restores_attraction([LORENTZ, GOLD], quad=quad)
    assert str(batched.value) == str(expected)
    best, solo = batched.value.best, expected.best
    assert [best.value.hex(), best.error_estimate.hex(), best.dominant_xi.hex()] == \
        [solo.value.hex(), solo.error_estimate.hex(), solo.dominant_xi.hex()]


def test_report_raises_the_first_inconclusive_configuration_in_order(quad_fast):
    errors = [v.error for v in one_at_a_time([LORENTZ, GOLD], quad_fast)]
    # no row of the first batch of 32 exceeds the threshold; a later one does
    threshold = max(errors[:32])
    assert max(errors) > threshold
    expected = one_at_a_time([LORENTZ, GOLD], quad_fast, threshold)
    assert isinstance(expected, InconclusiveConfigurationError)
    with pytest.raises(InconclusiveConfigurationError) as batched:
        dispersion_restores_attraction([LORENTZ, GOLD], quad=quad_fast,
                                       threshold=threshold)
    assert str(batched.value) == str(expected)

"""The adaptive Gauss-Kronrod integrator against scipy and closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from casimir.quadrature import (geometric_edges, geometric_panels,
                                integrate_adaptive, integrate_panels)


@pytest.mark.parametrize("f, lo, hi, exact", [
    (lambda x: np.exp(-x) * np.cos(3 * x), 0.0, 10.0, None),
    (lambda x: x ** 1.5 * np.log(np.maximum(x, 1e-300)), 0.0, 1.0, None),
    # scipy's quad warns that roundoff may hide its error on these two, so
    # their closed forms are the reference
    (lambda x: np.exp(-0.5 * x * x), 0.0, 8.0,
     math.sqrt(math.pi / 2) * math.erf(8 / math.sqrt(2))),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 50.0, math.atan(50.0)),
], ids=["<lambda>-0.0-10.0", "<lambda>-0.0-1.0", "<lambda>-0.0-8.0", "<lambda>-0.0-50.0"])
def test_matches_scipy(f, lo, hi, exact):
    if exact is None:
        ref, _ = scipy_quad(f, lo, hi, epsabs=1e-14, epsrel=1e-14, limit=500)
    else:
        ref = exact
    res = integrate_adaptive(f, np.linspace(lo, hi, 9), rel_tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(ref, rel=1e-9, abs=1e-13)
    assert abs(res.value - ref) <= max(res.error, 1e-13)


def test_zero_integrand_converges_immediately():
    res = integrate_adaptive(lambda x: np.zeros_like(x), [0.0, 1.0, 2.0],
                             rel_tol=1e-12)
    assert res.converged
    assert res.value == 0.0
    assert res.error == 0.0


def test_empty_interval():
    res = integrate_adaptive(lambda x: x, [1.0, 1.0], rel_tol=1e-10)
    assert res.value == 0.0 and res.converged


def test_budget_exhaustion_reports_nonconvergence():
    # a needle the seed panels cannot see until heavily refined
    f = lambda x: 1.0 / (1e-8 + (x - 0.31830989) ** 2)
    res = integrate_adaptive(f, [0.0, 1.0], rel_tol=1e-12, max_subdivisions=3)
    assert not res.converged
    assert res.error > 0.0
    ref, _ = scipy_quad(f, 0.0, 1.0, limit=500)
    good = integrate_adaptive(f, [0.0, 1.0], rel_tol=1e-10,
                              max_subdivisions=2000)
    assert good.converged
    assert good.value == pytest.approx(ref, rel=1e-8)


def test_foreign_errors_propagate():
    def f(x):
        return np.sin(x), np.full_like(x, 1e-4)

    res = integrate_adaptive(f, np.linspace(0, np.pi, 5), rel_tol=1e-10,
                             abs_floor=1.0, with_errors=True)
    assert res.value == pytest.approx(2.0, rel=1e-10)
    # quadrature-sum of per-point contributions is well below the linear sum
    assert 0.0 < res.error < np.pi * 1e-4
    clean = integrate_adaptive(np.sin, np.linspace(0, np.pi, 5), rel_tol=1e-10)
    assert res.error > clean.error


def test_samples_are_recorded():
    res = integrate_adaptive(np.exp, [0.0, 1.0], rel_tol=1e-10)
    assert res.points.size == res.n_evals
    assert np.allclose(res.values, np.exp(res.points))


def test_geometric_edges():
    edges = geometric_edges(2.0, 80.0, 0.25)
    assert edges[0] == 2.0 and edges[-1] == 80.0
    assert np.all(np.diff(edges) > 0)
    widths = np.diff(edges)[:-1]
    assert np.all(widths[1:] == 2 * widths[:-1])


def test_geometric_panels_match_geometric_edges():
    starts = np.array([0.0, 1e-3, 0.3, 2.0, 17.7, 79.9, 80.0, 95.0])
    lo, hi, owner = geometric_panels(starts, 80.0, 0.25)
    for i, start in enumerate(starts):
        mine = owner == i
        if start >= 80.0:
            assert not mine.any()
            continue
        edges = geometric_edges(start, 80.0, 0.25)
        np.testing.assert_array_equal(lo[mine], edges[:-1])
        np.testing.assert_array_equal(hi[mine], edges[1:])


# (integrand, seed edges) per owner: different seed-panel counts, one
# identically zero, and a needle that needs far more splits than allowed
_OWNERS = [
    (lambda x: np.exp(-x) * np.cos(3 * x), np.linspace(0.0, 10.0, 9)),
    (lambda x: np.zeros_like(x), np.array([0.0, 1.0, 2.0])),
    (lambda x: 1.0 / (1e-8 + (x - 0.31830989) ** 2), np.array([0.0, 1.0])),
    (lambda x: 1.0 / (1.0 + x * x), geometric_edges(0.0, 50.0, 0.25)),
    (lambda x: np.exp(-0.5 * x * x), np.array([0.0, 3.0, 8.0])),
]


def test_batched_refinement_matches_each_owner_alone():
    budget = 20
    alone = [integrate_adaptive(f, edges, rel_tol=1e-10, max_subdivisions=budget)
             for f, edges in _OWNERS]

    def f(x, owner):
        out = np.empty_like(x)
        for k, (fk, _) in enumerate(_OWNERS):
            rows = owner[:, 0] == k
            out[rows] = fk(x[rows])
        return out

    lo = np.concatenate([edges[:-1] for _, edges in _OWNERS])
    hi = np.concatenate([edges[1:] for _, edges in _OWNERS])
    owner = np.repeat(np.arange(len(_OWNERS)), [e.size - 1 for _, e in _OWNERS])
    batch = integrate_panels(f, lo, hi, owner, len(_OWNERS), rel_tol=1e-10,
                             max_subdivisions=budget)

    assert [r.converged for r in alone] == [True, True, False, True, True]
    assert batch.converged.tolist() == [r.converged for r in alone]
    np.testing.assert_allclose(batch.value, [r.value for r in alone], rtol=1e-14)
    np.testing.assert_allclose(batch.error, [r.error for r in alone], rtol=1e-14)
    assert batch.value[1] == 0.0 and batch.error[1] == 0.0
    assert batch.n_evals == sum(r.n_evals for r in alone)


def test_owner_without_panels_is_an_exact_zero():
    res = integrate_panels(lambda x, owner: np.exp(-x), [0.0], [1.0], [2], 3,
                           rel_tol=1e-10)
    assert res.converged.tolist() == [True, True, True]
    assert res.value[0] == 0.0 and res.value[1] == 0.0
    assert res.value[2] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)

"""The adaptive Gauss-Kronrod integrator against scipy and closed forms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad

from casimir import quadrature
from casimir.quadrature import (_EVAL_ROWS, _GK_NODES, _eval_panels, geometric_panels,
                                integrate_adaptive, integrate_panels)


def hexes(a):
    return [float(v).hex() for v in np.ravel(a)]


def geometric_edges(start, stop, first_width):
    """Reference edges, one at a time: each edge below ``stop`` is the
    previous one plus the next width, the widths doubling, then ``stop``."""
    edges, width = [float(start)], float(first_width)
    while edges[-1] + width < stop:
        edges.append(edges[-1] + width)
        width *= 2.0
    return np.array(edges + [float(stop)])


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


def test_foreign_errors_alone_split_the_owners_worst_panel(monkeypatch):
    # a constant integrand: no panel's own error reaches its share of the
    # tolerance, but the foreign errors do until the panels are narrow
    bare = []

    def worst_first(owner, errs, sel, inner=quadrature._worst_first):
        bare.append(int(sel.sum()))
        return inner(owner, errs, sel)

    monkeypatch.setattr(quadrature, "_worst_first", worst_first)
    res = integrate_panels(lambda x, o: (np.ones_like(x), np.full(x.shape, 1e-3)),
                           [0.0], [1.0], [0], 1, rel_tol=1e-4, with_errors=True)
    assert res.converged[0] and res.value[0] == pytest.approx(1.0, rel=1e-14)
    assert 0.0 < res.error[0] <= 1e-4 * res.value[0]
    # eight rounds, each splitting the worst of the owner's panels in two
    assert bare == list(range(1, 9))
    assert res.n_evals == 15 + 8 * 30


def test_geometric_edges():
    lo, hi, owner = geometric_panels([2.0], 80.0, 0.25)
    assert owner.tolist() == [0] * lo.size
    assert hexes(hi[:-1]) == hexes(lo[1:])
    edges = np.append(lo, hi[-1])
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


def test_geometric_panels_take_one_first_width_per_start():
    starts = np.array([0.0, 3e-6, 1e-3, 0.02, 0.3, 2.0, 79.9, 80.0, 95.0])
    widths = np.clip(4.0 * starts, 1e-5, 0.25)
    lo, hi, owner = geometric_panels(starts, 80.0, widths)
    for i, (start, width) in enumerate(zip(starts, widths)):
        mine = owner == i
        if start >= 80.0:
            assert not mine.any()
            continue
        edges = geometric_edges(start, 80.0, width)
        assert hexes(lo[mine]) == hexes(edges[:-1])
        assert hexes(hi[mine]) == hexes(edges[1:])


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
    # the abscissae each owner's integrand receives, batched and alone
    seen_alone = [[] for _ in _OWNERS]
    seen_batched = [[] for _ in _OWNERS]

    def recorded(k, fk):
        def f(x):
            seen_alone[k].append(x)
            return fk(x)
        return f

    alone = [integrate_adaptive(recorded(k, f), edges, rel_tol=1e-10,
                                max_subdivisions=budget)
             for k, (f, edges) in enumerate(_OWNERS)]

    def f(x, owner):
        out = np.empty_like(x)
        for k, (fk, _) in enumerate(_OWNERS):
            rows = owner[:, 0] == k
            seen_batched[k].append(x[rows].reshape(-1))
            out[rows] = fk(x[rows])
        return out

    lo = np.concatenate([edges[:-1] for _, edges in _OWNERS])
    hi = np.concatenate([edges[1:] for _, edges in _OWNERS])
    owner = np.repeat(np.arange(len(_OWNERS)), [e.size - 1 for _, e in _OWNERS])
    batch = integrate_panels(f, lo, hi, owner, len(_OWNERS), rel_tol=1e-10,
                             max_subdivisions=budget)

    assert [r.converged for r in alone] == [True, True, False, True, True]
    assert batch.converged.tolist() == [r.converged for r in alone]
    assert hexes(batch.value) == hexes([r.value for r in alone])
    assert hexes(batch.error) == hexes([r.error for r in alone])
    assert batch.value[1] == 0.0 and batch.error[1] == 0.0
    assert batch.n_evals == sum(r.n_evals for r in alone)
    for k in range(len(_OWNERS)):
        np.testing.assert_array_equal(np.concatenate(seen_batched[k]),
                                      np.concatenate(seen_alone[k]))


def test_each_panels_sums_have_the_same_bits_alone_as_in_a_block():
    rng = np.random.default_rng(40)
    lo = rng.uniform(0.0, 10.0, 40)
    hi = lo + rng.uniform(1e-3, 3.0, 40)
    owner = rng.integers(0, 5, 40)

    def f(x, own):
        # values and foreign errors, both varying from panel to panel
        vals = np.exp(-x / (1.0 + own)) * np.cos(3.0 * x)
        return vals, 1e-3 * vals * np.sin(x)

    alone = [hexes(_eval_panels(f, lo[i:i + 1], hi[i:i + 1], owner[i:i + 1], True))
             for i in range(lo.size)]
    for n in range(1, lo.size + 1):
        block = _eval_panels(f, lo[:n], hi[:n], owner[:n], True)
        assert [hexes(block[:, i]) for i in range(n)] == alone[:n]


@pytest.mark.parametrize("with_errors", [False, True])
@pytest.mark.parametrize("rel_tol", [1e-3, 1e-12], ids=["seed-round", "refines"])
def test_seed_sums_given_by_the_caller_keep_every_bit(with_errors, rel_tol):
    rng = np.random.default_rng(25)
    lo = rng.uniform(0.0, 10.0, 30)
    hi = lo + rng.uniform(1e-2, 3.0, 30)
    owner = np.sort(rng.integers(0, 6, 30))
    calls = []

    def f(x, own):
        calls.append(x.shape[0])
        vals = np.exp(-x / (1.0 + own)) * np.cos(3.0 * x)
        return (vals, 1e-14 * vals * np.sin(x)) if with_errors else vals

    evaluated = integrate_panels(f, lo, hi, owner, 7, rel_tol, 1e-30, 200, with_errors)
    n_evaluated = len(calls)
    seed = _eval_panels(f, lo, hi, owner, with_errors)
    calls.clear()
    given = integrate_panels(f, lo, hi, owner, 7, rel_tol, 1e-30, 200, with_errors,
                             seed=seed)
    for field in ("value", "error", "converged"):
        assert hexes(getattr(given, field)) == hexes(getattr(evaluated, field))
    assert given.n_evals == evaluated.n_evals
    # the integrand sees the refined panels alone
    assert len(calls) == n_evaluated - 1
    assert given.converged.all() and (rel_tol == 1e-3) == (calls == [])


def test_owner_without_panels_is_an_exact_zero():
    res = integrate_panels(lambda x, owner: np.exp(-x), [0.0], [1.0], [2], 3,
                           rel_tol=1e-10)
    assert res.converged.tolist() == [True, True, True]
    assert res.value[0] == 0.0 and res.value[1] == 0.0
    assert res.value[2] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)


def test_integrand_sees_at_most_eval_rows_panels_per_call(monkeypatch):
    # one float temporary of a call stays below glibc's 128 KiB mmap threshold
    assert _EVAL_ROWS * _GK_NODES.size * 8 < 128 * 1024
    # exp(-c x) on [0, 1], five seed panels per owner, over 3 * _EVAL_ROWS in all
    rate = np.linspace(0.5, 20.0, 3 * _EVAL_ROWS // 5 + 7)
    edges = np.linspace(0.0, 1.0, 6)
    lo, hi = np.tile(edges[:-1], rate.size), np.tile(edges[1:], rate.size)
    owner = np.repeat(np.arange(rate.size), 5)
    assert owner.size > 3 * _EVAL_ROWS
    rows = []

    def f(x, own):
        rows.append(x.shape[0])
        return np.exp(-rate[own] * x)

    res = integrate_panels(f, lo, hi, owner, rate.size, rel_tol=1e-13)
    assert max(rows) <= _EVAL_ROWS and len(rows) > 3
    np.testing.assert_allclose(res.value, -np.expm1(-rate) / rate, rtol=1e-14, atol=0.0)
    monkeypatch.setattr(quadrature, "_EVAL_ROWS", 10 * owner.size)
    whole = integrate_panels(lambda x, own: np.exp(-rate[own] * x), lo, hi, owner,
                             rate.size, rel_tol=1e-13)
    assert res.converged.tolist() == whole.converged.tolist()
    # the owners refine past their seed panels
    assert res.converged.all() and res.n_evals > owner.size * _GK_NODES.size
    assert res.n_evals == whole.n_evals

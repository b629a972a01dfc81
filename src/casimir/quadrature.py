"""Adaptive Gauss-Kronrod quadrature on vectorized integrands.

One refinement loop, ``integrate_panels``, refines many independent
integrals together.  Every panel carries the index of the integral it
belongs to (its owner), and the per-owner totals, errors and split counts
that steer refinement come from ``np.bincount``.  Each round calls the
integrand once on the nodes of all pending panels of all owners, so the
Python overhead per round is the same for one integral or a thousand.

Each owner is bisected until its summed Kronrod error estimate meets
``rel_tol * |value| + abs_floor``, by the same rule and within the same
split budget as if it were integrated alone, and the sums it reports are
the ones it would report alone; ``integrate_adaptive`` is the one-owner
case.

An integrand may also return a per-point error array (``with_errors``);
those foreign errors are propagated into the total in quadrature sum.
This is how inner-integral uncertainties reach the outer result in the
nested double integrals of the engine.
"""

import numpy as np
from dataclasses import dataclass

# 15-point Kronrod rule with embedded 7-point Gauss rule on [-1, 1].
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# Gauss nodes sit at the odd Kronrod indices.
_G_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


@dataclass
class QuadResult:
    """Outcome of an adaptive integration.

    From ``integrate_panels``, ``value``, ``error`` and ``converged`` are
    arrays indexed by owner; ``integrate_adaptive`` returns them as
    scalars.  ``error`` already includes foreign (integrand-supplied)
    errors.  ``n_evals`` counts every integrand point of every owner, and
    ``points``/``values`` hold those abscissae and integrand values in
    evaluation order; they are kept so callers can locate the peak of the
    integrand without extra work.
    """

    value: object
    error: object
    converged: object
    n_evals: int
    points: np.ndarray
    values: np.ndarray


def _eval_panels(f, lo, hi, owner, with_errors):
    """Apply the GK15 rule to every [lo_i, hi_i] panel in one integrand call."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = mid[:, None] + np.outer(half, _GK_NODES)
    out = f(x, owner[:, None])
    if with_errors:
        fx, fe = out
        fe = np.asarray(fe, dtype=float).reshape(x.shape)
    else:
        fx = out
        fe = None
    fx = np.asarray(fx, dtype=float).reshape(x.shape)
    kron = (fx @ _GK_WEIGHTS) * half
    gauss = (fx[:, 1::2] @ _G_WEIGHTS) * half
    err = np.abs(kron - gauss)
    if with_errors:
        foreign_sq = ((fe * _GK_WEIGHTS) ** 2).sum(axis=1) * half * half
    else:
        foreign_sq = np.zeros_like(kron)
    return kron, err, foreign_sq, x.reshape(-1), fx.reshape(-1)


def _worst_first(owner, errs, sel):
    """Indices of the ``sel`` panels grouped by owner, largest error first
    (ties in panel order), and each one's rank within its owner."""
    idx = np.flatnonzero(sel)
    idx = idx[np.lexsort((-errs[idx], owner[idx]))]
    own = owner[idx]
    first = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
    rank = np.arange(idx.size) - np.repeat(first, np.diff(np.r_[first, idx.size]))
    return idx, rank


def _sums_by_owner(owner, n_owners, *arrays):
    """Per-owner sums of each array, taken over that owner's panels alone
    in numpy's own (pairwise) order, so that a batch reports what
    integrating each owner separately reports, to the last bit."""
    counts = np.bincount(owner, minlength=n_owners)
    starts = np.cumsum(counts) - counts
    order = np.argsort(owner, kind="stable")
    out = np.zeros((len(arrays), n_owners))
    # (np.unique would import numpy.ma, a megabyte of resident memory)
    for c in np.flatnonzero(np.bincount(counts)[1:]) + 1:
        own = np.flatnonzero(counts == c)
        rows = order[starts[own, None] + np.arange(c)]
        for j, a in enumerate(arrays):
            # a C-contiguous (owners, c) block sums each row as a 1-D array
            out[j, own] = a[rows].sum(axis=1)
    return out


def integrate_panels(f, lo, hi, owner, n_owners, rel_tol, abs_floor=0.0,
                     max_subdivisions=1000, with_errors=False):
    """Integrate ``n_owners`` functions at once, each over its own panels.

    Parameters
    ----------
    f : callable
        Vectorized integrand ``f(x, owner)``: ``x`` holds the abscissae
        of the pending panels, one row of Kronrod nodes per panel, and
        ``owner`` is the column of their owners, which broadcasts against
        ``x``.  It returns values shaped like ``x``, or ``(values,
        errors)`` when ``with_errors`` is true.
    lo, hi, owner : array_like
        Seed panels [lo_i, hi_i] and the integral (0 .. n_owners-1) each
        belongs to.  Seeding matters: panels should roughly track the
        scale of variation of the integrand.  An owner without panels
        integrates to an exact, converged zero.
    rel_tol, abs_floor : float
        Per-owner convergence target ``err <= rel_tol*|value| + abs_floor``.
    max_subdivisions : int
        Panel-split budget of each owner.  On exhaustion that owner keeps
        its best estimate with ``converged`` False (no exception: the
        caller decides whether that is fatal); the others go on.

    Returns
    -------
    QuadResult with per-owner arrays.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    vals, errs, fsq, pts, fvs = _eval_panels(f, lo, hi, owner, with_errors)
    all_pts = [pts]
    all_fvs = [fvs]
    n_evals = pts.size
    splits = np.zeros(n_owners, dtype=np.intp)
    active = np.ones(n_owners, dtype=bool)
    converged = np.zeros(n_owners, dtype=bool)

    def per_owner(weights):
        return np.bincount(owner, weights=weights, minlength=n_owners)

    while True:
        total = per_owner(vals)
        error = per_owner(errs) + np.sqrt(per_owner(fsq))
        tol = rel_tol * np.abs(total) + abs_floor
        done = active & (error <= tol)
        converged |= done
        active &= ~done
        if not active.any():
            break
        # Refine every panel holding more than its share of its owner's
        # budget; always at least the owner's worst one.
        cutoff = tol / (2.0 * np.maximum(np.bincount(owner, minlength=n_owners), 1))
        mask = active[owner] & (errs > cutoff[owner])
        bare = active & (per_owner(mask) == 0)
        if bare.any():
            idx, rank = _worst_first(owner, errs, bare[owner])
            mask[idx[rank == 0]] = True
        # panels narrower than a few ulps cannot be split further
        mask &= (hi - lo) > 16 * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        n_split = per_owner(mask).astype(np.intp)
        over = splits + n_split > max_subdivisions
        if over.any():
            # split only the worst panels that still fit in the budget
            idx, rank = _worst_first(owner, errs, mask & over[owner])
            room = max_subdivisions - splits
            mask[idx[rank >= room[owner[idx]]]] = False
            n_split = per_owner(mask).astype(np.intp)
        active &= n_split > 0
        if not active.any():
            break
        splits += n_split

        mid = 0.5 * (lo[mask] + hi[mask])
        child_lo = np.concatenate([lo[mask], mid])
        child_hi = np.concatenate([mid, hi[mask]])
        child_owner = np.concatenate([owner[mask], owner[mask]])
        cv, ce, cf, cp, cfx = _eval_panels(f, child_lo, child_hi, child_owner,
                                           with_errors)
        all_pts.append(cp)
        all_fvs.append(cfx)
        n_evals += cp.size

        keep = ~mask
        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        owner = np.concatenate([owner[keep], child_owner])
        vals = np.concatenate([vals[keep], cv])
        errs = np.concatenate([errs[keep], ce])
        fsq = np.concatenate([fsq[keep], cf])

    total, err_sum, fsq_sum = _sums_by_owner(owner, n_owners, vals, errs, fsq)
    return QuadResult(total, err_sum + np.sqrt(fsq_sum), converged, n_evals,
                      np.concatenate(all_pts), np.concatenate(all_fvs))


def integrate_adaptive(f, edges, rel_tol, abs_floor=0.0, max_subdivisions=1000,
                       with_errors=False):
    """Integrate ``f`` over the interval spanned by ``edges``.

    The one-owner case of ``integrate_panels``.

    Parameters
    ----------
    f : callable
        Vectorized integrand; maps a 1-D array of abscissae to values.
        When ``with_errors`` is true it must return ``(values, errors)``.
    edges : array_like
        Increasing panel edges seeding the subdivision; the integral runs
        from ``edges[0]`` to ``edges[-1]``.
    rel_tol, abs_floor, max_subdivisions, with_errors
        As for ``integrate_panels``.

    Returns
    -------
    QuadResult with scalar value, error and converged.
    """
    edges = np.asarray(edges, dtype=float)
    if edges.size < 2 or edges[-1] <= edges[0]:
        return QuadResult(0.0, 0.0, True, 0,
                          np.empty(0), np.empty(0))
    res = integrate_panels(lambda x, _owner: f(x.reshape(-1)), edges[:-1], edges[1:],
                           np.zeros(edges.size - 1, dtype=np.intp), 1, rel_tol,
                           abs_floor, max_subdivisions, with_errors)
    return QuadResult(float(res.value[0]), float(res.error[0]),
                      bool(res.converged[0]), res.n_evals,
                      res.points, res.values)


def geometric_panels(starts, stop, first_width):
    """``geometric_edges(start, stop, first_width)`` for every start at once.

    Returns the panels flattened as ``(lo, hi, owner)`` for
    ``integrate_panels``, ``owner`` being the index into ``starts``; each
    owner's panels are contiguous and in increasing order.
    Starts at or beyond ``stop`` get no panel.  The edges are the same
    floating-point numbers ``geometric_edges`` gives.
    """
    starts = np.asarray(starts, dtype=float)
    span = (stop - starts.min()) / first_width if starts.size else 0.0
    # enough doublings to pass stop from the lowest start, one spare
    n_steps = int(np.ceil(np.log2(max(span, 1.0) + 1.0))) + 1
    widths = first_width * 2.0 ** np.arange(n_steps)
    # each edge is the previous edge plus the next width, rounded per step
    edges = np.cumsum(np.column_stack(
        [starts, np.broadcast_to(widths, (starts.size, n_steps))]), axis=1)
    inside = edges < stop
    nxt = np.where(inside[:, 1:], edges[:, 1:], stop)
    nxt = np.column_stack([nxt, np.full(starts.size, float(stop))])
    owner = np.nonzero(inside)[0]
    return edges[inside], nxt[inside], owner


def geometric_edges(start, stop, first_width):
    """Panel edges from ``start`` to ``stop`` with geometrically growing widths.

    Suits integrands that decay on a scale comparable to ``first_width``
    near ``start`` and ever more slowly (in relative terms) beyond.
    """
    if stop <= start:
        return np.array([start, stop])
    lo, _, _ = geometric_panels([start], stop, first_width)
    return np.append(lo, float(stop))

"""Adaptive Gauss-Kronrod quadrature on vectorized integrands.

One refinement loop, ``integrate_panels``, refines many independent
integrals together.  Every panel carries the index of the integral it
belongs to (its owner), and the per-owner totals, errors and split counts
that steer refinement come from ``np.bincount``.  Each round evaluates the
pending panels of all owners together, so the Python overhead per round is
nearly the same for one integral or a thousand; an owner that converges or
stops leaves the working arrays.  The integrand sees at most
``_EVAL_ROWS`` panels per call: a float temporary of that many panels
(69 KB) stays below glibc's 128 KiB mmap threshold, above which every
round would map and page-fault its arrays afresh.  The engine's inner seed
rounds (``panel_sums``) take chunks of the same size, one reflection call
per model each, however many integrands share a round.

Each owner is bisected until its summed Kronrod error estimate meets
``rel_tol * |value| + abs_floor``, by the same rule and within the same
split budget as if it were integrated alone.  A panel's sums do not
depend on the panels evaluated alongside, and ``np.bincount`` adds each
owner's panels in their own order, so an owner's result has the bits of
its solo integration.  ``integrate_adaptive`` is the one-owner case.
Like QUADPACK's QAG (Piessens et al. 1983), a call returns the sums its
convergence test saw and keeps no sample: per-owner values, errors and
convergence flags, and the evaluation count.

An integrand may also return a per-point error array (``with_errors``);
those foreign errors are propagated into the total in quadrature sum.
This is how inner-integral uncertainties reach the outer result in the
nested double integrals of the engine.  A caller may also sum the seed
panels itself (``panel_sums``), say for integrands that share their points
and much of their arithmetic: the loop refines from them to the same bits.
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
# Panels per integrand call; keep _EVAL_ROWS * 15 * 8 bytes below 128 KiB.
_EVAL_ROWS = 576


@dataclass
class QuadResult:
    """Outcome of an adaptive integration.

    From ``integrate_panels``, ``value``, ``error`` and ``converged`` are
    arrays indexed by owner; ``integrate_adaptive`` returns them as
    scalars.  ``value`` and ``error`` are the sums of the round the owner
    stopped in, the ones its convergence test compared.  ``error`` already
    includes foreign (integrand-supplied) errors.  ``n_evals`` counts every
    integrand point of every owner.  No sample is kept: a caller that wants
    one (say, the peak of an owner's integrand) records it in its integrand.
    """

    value: object
    error: object
    converged: object
    n_evals: int


def kronrod_nodes(lo, hi):
    """The 15 Kronrod nodes of each panel [lo_i, hi_i], one row per panel,
    and the panels' half-widths: the points ``integrate_panels`` samples."""
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _GK_NODES)
    x += (0.5 * (lo + hi))[:, None]
    return x, half


def panel_sums(fx, half):
    """Kronrod sums and errors |Kronrod - Gauss| of panels of half-widths
    ``half`` from their values ``fx`` at ``kronrod_nodes``, one row each."""
    # einsum, not a matrix product: a row's sums keep their bits in any block
    kronrod = np.einsum("ij,j->i", fx, _GK_WEIGHTS) * half
    return kronrod, np.abs(kronrod - np.einsum("ij,j->i", fx[:, 1::2], _G_WEIGHTS) * half)


def _eval_panels(f, lo, hi, owner, with_errors):
    """Kronrod sums, errors and foreign squared errors of every [lo_i, hi_i]
    panel by the GK15 rule, ``_EVAL_ROWS`` panels per integrand call."""
    out = np.zeros((3, lo.size))
    for start in range(0, lo.size, _EVAL_ROWS):
        rows = slice(start, start + _EVAL_ROWS)
        x, half = kronrod_nodes(lo[rows], hi[rows])
        fx = f(x, owner[rows, None])
        if with_errors:
            fx, fe = fx
            fe = np.asarray(fe, dtype=float).reshape(x.shape)
            out[2, rows] = ((fe * _GK_WEIGHTS) ** 2).sum(axis=1) * half * half
        out[0, rows], out[1, rows] = panel_sums(np.asarray(fx, dtype=float).reshape(x.shape),
                                                half)
    return out


def _worst_first(owner, errs, sel):
    """Indices of the ``sel`` panels grouped by owner, largest error first
    (ties in panel order), and each one's rank within its owner."""
    idx = np.flatnonzero(sel)
    idx = idx[np.lexsort((-errs[idx], owner[idx]))]
    own = owner[idx]
    first = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
    rank = np.arange(idx.size) - np.repeat(first, np.diff(np.r_[first, idx.size]))
    return idx, rank


def integrate_panels(f, lo, hi, owner, n_owners, rel_tol, abs_floor=0.0,
                     max_subdivisions=1000, with_errors=False, seed=None):
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
    rel_tol : float
    abs_floor : float or array_like
        Per-owner convergence target ``err <= rel_tol*|value| + abs_floor``;
        an array gives each owner its own floor.
    max_subdivisions : int
        Panel-split budget of each owner.  On exhaustion that owner keeps
        its best estimate with ``converged`` False (no exception: the
        caller decides whether that is fatal); the others go on.
    seed : array_like, optional
        The seed panels' sums, shaped (3, n_panels) as ``_eval_panels``
        returns them, from the caller; ``f`` then sees refined panels alone.

    Returns
    -------
    QuadResult with per-owner arrays.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    owner = np.asarray(owner, dtype=np.intp)
    vals, errs, fsq = _eval_panels(f, lo, hi, owner, with_errors) if seed is None else seed
    n_panels = owner.size
    splits = np.zeros(n_owners, dtype=np.intp)
    active = np.ones(n_owners, dtype=bool)
    converged = np.zeros(n_owners, dtype=bool)
    value = np.zeros(n_owners)
    value_err = np.zeros(n_owners)

    def per_owner(weights):
        return np.bincount(owner, weights=weights, minlength=n_owners)

    while True:
        total = per_owner(vals)
        error = per_owner(errs) + np.sqrt(per_owner(fsq))
        tol = rel_tol * np.abs(total) + abs_floor
        # an owner's numbers of the round it stops in are its result
        value[active] = total[active]
        value_err[active] = error[active]
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
        cand = np.flatnonzero(mask)
        mask[cand] = (hi[cand] - lo[cand]) > 16 * np.spacing(
            np.maximum(np.abs(lo[cand]), np.abs(hi[cand])))
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
        # finished owners leave the working arrays
        keep = active[owner] & ~mask

        mid = 0.5 * (lo[mask] + hi[mask])
        child_lo = np.concatenate([lo[mask], mid])
        child_hi = np.concatenate([mid, hi[mask]])
        child_owner = np.concatenate([owner[mask], owner[mask]])
        cv, ce, cf = _eval_panels(f, child_lo, child_hi, child_owner, with_errors)
        n_panels += child_owner.size

        lo = np.concatenate([lo[keep], child_lo])
        hi = np.concatenate([hi[keep], child_hi])
        owner = np.concatenate([owner[keep], child_owner])
        vals = np.concatenate([vals[keep], cv])
        errs = np.concatenate([errs[keep], ce])
        fsq = np.concatenate([fsq[keep], cf])

    return QuadResult(value, value_err, converged, n_panels * _GK_NODES.size)


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
        return QuadResult(0.0, 0.0, True, 0)
    res = integrate_panels(lambda x, _owner: f(x.reshape(-1)), edges[:-1], edges[1:],
                           np.zeros(edges.size - 1, dtype=np.intp), 1, rel_tol,
                           abs_floor, max_subdivisions, with_errors)
    return QuadResult(float(res.value[0]), float(res.error[0]),
                      bool(res.converged[0]), res.n_evals)


def geometric_panels(starts, stop, first_width):
    """Panels from each start to ``stop`` with geometrically growing widths.

    The first panel of each start is ``first_width`` wide (a float, or one
    width per start) and each next one twice as wide; each edge is the
    previous edge plus its width, and the last panel ends at ``stop``.
    Suits integrands that decay on a scale comparable to ``first_width``
    near the start and ever more slowly (in relative terms) beyond.
    Returns the panels flattened as ``(lo, hi, owner)`` for
    ``integrate_panels``, ``owner`` being the index into ``starts``; each
    owner's panels are contiguous and in increasing order.  Starts at or
    beyond ``stop`` get no panel.
    """
    starts = np.asarray(starts, dtype=float)
    span = (stop - starts.min()) / np.min(first_width) if starts.size else 0.0
    # enough doublings to pass stop from the lowest start, one spare
    n_steps = int(np.ceil(np.log2(max(span, 1.0) + 1.0))) + 1
    widths = np.multiply.outer(first_width, 2.0 ** np.arange(n_steps))
    # each edge is the previous edge plus the next width, rounded per step
    edges = np.cumsum(np.column_stack(
        [starts, np.broadcast_to(widths, (starts.size, n_steps))]), axis=1)
    inside = edges < stop
    nxt = np.where(inside[:, 1:], edges[:, 1:], stop)
    nxt = np.column_stack([nxt, np.full(starts.size, float(stop))])
    owner = np.nonzero(inside)[0]
    return edges[inside], nxt[inside], owner

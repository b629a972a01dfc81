"""Span recording around the public functions of each ``casimir`` layer.

The benchmark never edits the package: ``installed(tracer, casimir)``
rebinds module attributes (the names each module imported and calls
through) and the ``eps``/``mu`` methods of the material classes to thin
wrappers, and restores the originals on exit.  Every wrapped call becomes
one span holding its name, start, end, parent span, op id and thread.
Spans stay in memory until the run ends.

Layer self time is a span's duration minus the part of that interval its
child spans cover.  Children can run concurrently on pool threads (the
CLI ``sweep`` maps gaps over a thread pool), so the covered part is the
length of the union of the child intervals, not their sum.
"""

import contextlib
import gzip
import inspect
import itertools
import statistics
import threading
import time
from dataclasses import dataclass

# Span names, one per layer boundary the benchmark observes.
OP = "op"
CLI = "cli"
IO = "io"
SIGN = "sign_analysis"
CLASSIFY = "sign_analysis.classify"
BISECT = "sign_analysis.bisect"
ENGINE = "engine"
QUAD_OUTER = "quadrature.outer"
QUAD_INNER = "quadrature.inner"
INTEGRAND_OUTER = "engine.integrand.outer"
INTEGRAND_INNER = "engine.integrand.inner"
MATERIALS = "materials"
TABULATED = "materials.tabulated"

# Kronrod points per panel of the quadrature rule; integrand calls carry
# 15 points per panel evaluated.
_POINTS_PER_PANEL = 15


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    op: int
    thread: int
    attrs: dict = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans from any thread.

    A span opened on a thread with no open span of its own (a pool
    worker) takes as parent the innermost open span of the thread that
    opened the current op, which is the call that handed it the work.
    """

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._buffers = []
        self._buffers_lock = threading.Lock()
        self._origin = None
        self.op_id = -1

    def _state(self):
        st = getattr(self._local, "state", None)
        if st is None:
            st = ([], [])  # (open stack, finished spans)
            self._local.state = st
            with self._buffers_lock:
                self._buffers.append(st[1])
        return st

    @contextlib.contextmanager
    def span(self, name):
        stack, done = self._state()
        if stack:
            parent = stack[-1].id
        elif self._origin:
            parent = self._origin[-1].id
        else:
            parent = 0
        s = Span(next(self._ids), name, time.perf_counter(), 0.0, parent,
                 self.op_id, threading.get_ident())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            stack.pop()
            done.append(s)

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span of one benchmark op; worker spans inherit from it."""
        self.op_id = op_id
        self._origin = self._state()[0]
        try:
            with self.span(OP):
                yield
        finally:
            self._origin = None

    def spans(self):
        with self._buffers_lock:
            out = [s for buf in self._buffers for s in buf]
        out.sort(key=lambda s: s.id)
        return out


def write_spans(spans, path):
    """Write spans as gzip-compressed tab-separated lines."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("id\tname\tstart\tend\tparent\top\tthread\n")
        for s in spans:
            fh.write(f"{s.id}\t{s.name}\t{s.start!r}\t{s.end!r}\t"
                     f"{s.parent}\t{s.op}\t{s.thread}\n")


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------

def _wrap_call(tracer, name, fn):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_quadrature(tracer, fn):
    sig = inspect.signature(fn)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        outer = bool(a["with_errors"])
        integrand_name = INTEGRAND_OUTER if outer else INTEGRAND_INNER
        f = a["f"]
        panels = []

        def traced_f(x):
            panels.append(x.size // _POINTS_PER_PANEL)
            with tracer.span(integrand_name):
                return f(x)

        a["f"] = traced_f
        with tracer.span(QUAD_OUTER if outer else QUAD_INNER) as s:
            res = fn(*bound.args, **bound.kwargs)
            # the first call seeds the panels; each later call holds two
            # children per split, and a split adds one panel net
            final = panels[0] + sum(p // 2 for p in panels[1:]) if panels else 0
            s.attrs = dict(n_evals=res.n_evals, converged=res.converged,
                           error=res.error,
                           target=a["rel_tol"] * abs(res.value) + a["abs_floor"],
                           panels_final=final, panels_evaluated=sum(panels))
        return res

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap_method(tracer, name, method):
    def wrapper(self, xi):
        with tracer.span(name):
            return method(self, xi)
    wrapper.__wrapped__ = method
    return wrapper


@contextlib.contextmanager
def installed(tracer, casimir):
    """Wrap every observed layer boundary of ``casimir`` for the duration."""
    from casimir import cli, engine, materials, pfa, sign_analysis

    patches = [
        # entry points the benchmark itself calls
        (casimir, "energy_per_area", ENGINE), (casimir, "pressure", ENGINE),
        (casimir, "dominant_frequency", ENGINE),
        (casimir, "sign_map", SIGN), (casimir, "uvl_map", SIGN),
        (casimir, "boundary_points", SIGN),
        (casimir, "dispersion_restores_attraction", SIGN),
        (cli, "main", CLI),
        # bindings the package modules call through
        (sign_analysis, "pressure", ENGINE),
        (sign_analysis, "classify", CLASSIFY),
        (sign_analysis, "find_sign_boundary", BISECT),
        (cli, "energy_per_area", ENGINE), (cli, "pressure", ENGINE),
        (pfa, "energy_per_area", ENGINE),
        (cli, "load_material", IO), (cli, "material_digest", IO),
        (cli, "load_absorption_table", IO),
    ]
    saved = []
    try:
        for module, attr, name in patches:
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, _wrap_call(tracer, name, original))
        original = engine.integrate_adaptive
        saved.append((engine, "integrate_adaptive", original))
        engine.integrate_adaptive = _wrap_quadrature(tracer, original)
        for cls in _material_classes(materials.MaterialResponse):
            for meth in ("eps", "mu"):
                if meth in vars(cls):
                    original = vars(cls)[meth]
                    saved.append((cls, meth, original))
                    name = TABULATED if cls is materials.Tabulated else MATERIALS
                    setattr(cls, meth, _wrap_method(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _material_classes(base):
    out = [base]
    for sub in base.__subclasses__():
        out.extend(_material_classes(sub))
    return out


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def union_length(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - union_length(children.get(s.id, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) from one traced pass."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def self_sum(*names):
        return sum(own[s.id] for s in named(*names))

    def under(s, name):
        p = by_id.get(s.parent)
        while p is not None:
            if p.name == name:
                return True
            p = by_id.get(p.parent)
        return False

    # an integration that raised carries no result to count
    inner = [s for s in named(QUAD_INNER) if s.attrs]
    outer = [s for s in named(QUAD_OUTER) if s.attrs]
    outer_nodes = sum(s.attrs["n_evals"] for s in outer)
    live = sum(1 for s in inner
               if by_id.get(s.parent) is not None
               and by_id[s.parent].name == INTEGRAND_OUTER)
    panels_eval = sum(s.attrs["panels_evaluated"] for s in inner)
    engine_calls = named(ENGINE)
    bisect = named(BISECT)
    classify = named(CLASSIFY)
    cli_wall = sum(s.duration for s in named(CLI))
    cli_engine = sum(s.duration for s in engine_calls if under(s, CLI))

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "materials.eps_mu.calls": (len(named(MATERIALS, TABULATED)), "count"),
        "materials.eps_mu.self_s": (self_sum(MATERIALS, TABULATED), "s"),
        "materials.tabulated.self_s": (self_sum(TABULATED), "s"),
        "quadrature.inner.calls": (len(inner), "count"),
        "quadrature.inner.points": (sum(s.attrs["n_evals"] for s in inner), "count"),
        "quadrature.inner.self_s": (self_sum(QUAD_INNER), "s"),
        "quadrature.inner.kept_ratio": (
            ratio(sum(s.attrs["panels_final"] for s in inner), panels_eval), "ratio"),
        "quadrature.inner.unconverged": (
            sum(1 for s in inner if not s.attrs["converged"]), "count"),
        "quadrature.outer.calls": (len(outer), "count"),
        "quadrature.outer.nodes": (outer_nodes, "count"),
        "quadrature.outer.live_ratio": (ratio(live, outer_nodes), "ratio"),
        "quadrature.outer.err_over_tol": (
            statistics.median(ratio(s.attrs["error"], s.attrs["target"])
                              for s in outer) if outer else 0.0, "ratio"),
        "engine.calls": (len(engine_calls), "count"),
        "engine.call_ms_p50": (
            1e3 * statistics.median(s.duration for s in engine_calls)
            if engine_calls else 0.0, "ms"),
        "engine.integrand.inner.self_s": (self_sum(INTEGRAND_INNER), "s"),
        "engine.integrand.outer.self_s": (self_sum(INTEGRAND_OUTER), "s"),
        "sign_analysis.classify.calls": (len(classify), "count"),
        "sign_analysis.self_s": (self_sum(SIGN, CLASSIFY, BISECT), "s"),
        "sign_analysis.bisect.classify_per_boundary": (
            ratio(sum(1 for s in classify if under(s, BISECT)), len(bisect)),
            "ratio"),
        "io.calls": (len(named(IO)), "count"),
        "io.self_s": (self_sum(IO), "s"),
        "cli.self_s": (self_sum(CLI), "s"),
        "cli.concurrency": (ratio(cli_engine, cli_wall), "ratio"),
        "trace.unattributed_s": (self_sum(OP), "s"),
    }

"""Benchmark of the ``casimir`` package: seeded workloads, end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload point-oracle --seed 1 --seconds 20 --trace 0

``--trace 0`` runs ops in a closed loop (one client; the next op starts
when the previous one returns) for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed deck of whole op cycles
twice, untraced and then with a span on every layer boundary, and
reports the per-layer metrics plus the tracing overhead.  Every op's
output is checked; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs every workload in turn and prints one table.

Time figures are reported at a fixed machine speed.  Shared machines
change speed by +-20 % from one minute to the next, so right after each
op (and each set-up) the run times a fixed calibration kernel and
scales that op's time by ``reference kernel time / kernel time``.  Each
workload names the kernel its ops follow (``Workload.calibration``):
``loop``, small numpy arrays driven from Python like the engine's inner
loop, or ``arrays``, whole-array work on 2500-point tables like the
Kramers-Kronig transform.  A workload whose ops follow neither reports
raw op times; set-up is always scaled by ``loop``.  The raw figures and
the median scale factor are printed as well.

The benchmark imports ``casimir`` from ``src/`` of the checkout it sits
in and fails when that is missing.  It sets no program knob:
``CASIMIR_THREADS`` is left as found and quadrature settings are the
defaults apart from the rel_tol each workload names.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("point-oracle", "const-signmap", "dispersive-attraction",
                  "cli-sweep", "cli-unit-floor")
# fresh interpreters timed for setup_s, besides the run's own set-up
SETUP_PROBES = 10
P90_MIN_OPS = 100
END_TO_END = ("setup_s", "op_ms_p50", "results_per_s", "peak_rss_mb")
# Layer self times that are zero by construction on the workloads that
# never enter the layer.  The trace table prints them; the JSON result
# carries only layer metrics every workload measures.
TABLE_ONLY = frozenset({"materials.tabulated.self_s", "sign_analysis.self_s",
                        "io.self_s", "cli.self_s"})
ORACLE_METRICS = ("engine.oracle_rel_err_max", "engine.err_est_over_true")
# Share of busy time spent re-timing a calibration kernel.
CALIBRATION_SHARE = 0.03


def _import_casimir():
    """Import casimir from this checkout's src/, timing the import.

    numpy is imported before the clock starts: its import is a fixed cost
    that no change to casimir moves, and it would dominate the noise.
    """
    if not (SRC / "casimir" / "__init__.py").is_file():
        raise SystemExit(f"error: no casimir package under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    t0 = time.perf_counter()
    import casimir
    elapsed = time.perf_counter() - t0
    if Path(casimir.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: casimir imported from {casimir.__file__}, not {SRC}")
    return casimir, elapsed


def _timed_setup(workload, casimir, import_s):
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    t0 = time.perf_counter()
    ctx = workload.setup(casimir, workdir)
    return ctx, workdir, import_s + time.perf_counter() - t0


def _probe_setup(name):
    """Setup time of a fresh interpreter: import casimir, build the models."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                           "--probe-setup", "--workload", name],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb():
    """Current resident set of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def _environment():
    import numpy
    from casimir import cli
    threads = cli._thread_count() if hasattr(cli, "_thread_count") else "n/a"
    return (f"env: cpus={os.cpu_count()} numpy={numpy.__version__} "
            f"python={platform.python_version()} cli_threads={threads} "
            f"CASIMIR_THREADS={os.environ.get('CASIMIR_THREADS', 'unset')}")


def loop_kernel_ms():
    """Time one pass of a fixed kernel: 200 rounds of numpy work on
    300-point arrays, the shape of one inner-quadrature integrand call."""
    import numpy as np
    x = np.linspace(0.1, 80.0, 300)
    t0 = time.perf_counter()
    total = 0.0
    for i in range(200):
        y = x * (1.0 + 1e-3 * i)
        total += float((y * np.log1p(-0.5 * np.exp(-y))).sum())
    return 1e3 * (time.perf_counter() - t0)


def array_kernel_ms():
    """Time one pass of a fixed kernel: 20 trapezoid integrals over
    2500-point arrays, the shape of a Kramers-Kronig transform of a
    tabulated absorption spectrum."""
    import numpy as np
    w = np.geomspace(1e12, 1e18, 2500)
    eps2 = w / (1.0 + w ** 2 / 1e30)
    dw = np.diff(w)
    t0 = time.perf_counter()
    total = 0.0
    for xi in np.geomspace(1e13, 1e17, 20):
        y = w * eps2 / (w ** 2 + xi ** 2)
        total += float((0.5 * (y[1:] + y[:-1]) * dw).sum())
    return 1e3 * (time.perf_counter() - t0)


#: kernel name -> (timer, kernel time in ms that defines the reference speed)
CALIBRATION_KERNELS = {"loop": (loop_kernel_ms, 2.0),
                       "arrays": (array_kernel_ms, 0.4)}


def calibration_scale(busy_s, min_passes=1, kernel="loop"):
    """Factor taking a time measured now to the reference machine speed.

    Times the named kernel for CALIBRATION_SHARE of ``busy_s``, at least
    ``min_passes`` times, and compares the median with its reference time.
    """
    timer, ref_ms = CALIBRATION_KERNELS[kernel]
    samples = []
    while len(samples) < min_passes or sum(samples) < 1e3 * CALIBRATION_SHARE * busy_s:
        samples.append(timer())
    return ref_ms / statistics.median(samples)


@dataclass
class OpRecord:
    kind: tuple
    latency_s: float
    results: int
    rss_start_mb: float = 0.0
    rss_peak_mb: float = 0.0
    #: to the reference speed, from the kernel timed right after the op
    scale: float = 1.0


class RssSampler:
    """Resident set size sampled every few milliseconds on a helper thread.

    getrusage only gives the peak of the whole process, so one op that
    briefly holds large arrays would set the figure for the entire run;
    sampling lets each op report its own peak.
    """

    period_s = 0.005

    def __init__(self):
        self._lock = threading.Lock()
        self._peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(self.period_s):
            rss = rss_mb()
            with self._lock:
                self._peak = max(self._peak, rss)

    def reset(self):
        """Start a new peak; returns the current resident set."""
        rss = rss_mb()
        with self._lock:
            self._peak = rss
        return rss

    def peak(self):
        rss = rss_mb()
        with self._lock:
            return max(self._peak, rss)

    def __enter__(self):
        self.reset()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)


class Tally:
    """Checked outcomes of the ops of one run."""

    def __init__(self, rss=None):
        self.rss = rss
        self.attempted = 0
        self.failed = 0
        self.records = []
        self.messages = []

    def run_op(self, workload, ctx, op, wrap=None):
        """Run and check one op; returns its latency in seconds."""
        self.attempted += 1
        start_rss = self.rss.reset() if self.rss else 0.0
        t0 = time.perf_counter()
        try:
            with wrap(op.index) if wrap else contextlib.nullcontext():
                out = workload.run(ctx, op)
            failures = None
        except Exception:
            failures = [traceback.format_exc().strip().splitlines()[-1]]
        latency = time.perf_counter() - t0
        record = OpRecord(op.kind, latency, 0, start_rss,
                          self.rss.peak() if self.rss else 0.0)
        if failures is None:
            record.results, failures = workload.check(ctx, op, out)
        self.records.append(record)
        if failures:
            self.failed += 1
            self.messages.append(f"op {op.index} {op.kind}: " + "; ".join(failures))
        return record


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(records, by_kind, baseline_rss_mb, scaled=True):
    """End-to-end figures from the OpRecords of one run.

    ``op_ms_p50`` is the median op latency.  Where op kinds differ in cost
    by up to 5x (``by_kind``), a median over all ops lands on whichever
    kind sits in the middle and jumps between kinds from run to run; each
    kind then gets its own median and ``op_ms_p50`` is their mean, the
    per-op time of a typical round of one op of every kind.
    ``results_per_s`` is the results of that typical op or round over its
    time.  Medians also ignore the rare op that costs many times the
    usual (a sign-boundary bisection whose midpoint lands next to the
    zero of the pressure).  With ``scaled`` each latency is taken to the
    reference machine speed first.

    ``peak_rss_mb`` is the resident set after set-up plus the median
    growth of the resident set during an op.  Memory that one large op
    frees stays with the process, so the peak of the whole process would
    record that op (or a large warm-up op) in every later figure.
    """
    groups = {}
    for r in records:
        latency = r.latency_s * (r.scale if scaled else 1.0)
        groups.setdefault(r.kind if by_kind else None, []).append((latency, r.results))
    lat = [statistics.median(t for t, _ in v) for v in groups.values()]
    res = [statistics.median(n for _, n in v) for v in groups.values()]
    growth = statistics.median(r.rss_peak_mb - r.rss_start_mb for r in records)
    return {"op_ms_p50": _metric(1e3 * statistics.fmean(lat), "ms"),
            "results_per_s": _metric(sum(res) / sum(lat), "1/s"),
            "peak_rss_mb": _metric(baseline_rss_mb + growth, "MB")}


def run_untraced(workload, ctx, seed, seconds, baseline_rss_mb):
    with RssSampler() as rss:
        tally = Tally(rss)
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds:
            record = tally.run_op(workload, ctx, workload.op(seed, i))
            if workload.calibration:
                record.scale = calibration_scale(record.latency_s,
                                                 kernel=workload.calibration)
            i += 1
    records = tally.records
    latencies = [r.latency_s for r in records]
    raw = summarize(records, workload.by_kind, baseline_rss_mb, scaled=False)
    lines = [f"ops_total {tally.attempted}", f"ops_failed {tally.failed}",
             f"op kinds {len({r.kind for r in records})}, results "
             f"{sum(r.results for r in records)} in {sum(latencies):.3f} s of ops",
             f"time figures scaled to the reference speed by a median "
             f"{statistics.median(r.scale for r in records):.4f}",
             f"raw op_ms_p50 {raw['op_ms_p50']['value']:.6g} ms, "
             f"raw results_per_s {raw['results_per_s']['value']:.6g} 1/s",
             f"raw op_ms_median_all_ops {1e3 * statistics.median(latencies):.6g} ms",
             f"process_peak_rss_mb {_peak_rss_mb():.6g} MB"]
    if len(latencies) >= P90_MIN_OPS:
        lines.append(f"raw op_ms_p90_all_ops {1e3 * _percentile(latencies, 90):.6g} ms "
                     f"(n={len(latencies)})")
    else:
        lines.append(f"op_ms_p90 omitted (n={len(latencies)} < {P90_MIN_OPS})")
    return tally, summarize(records, workload.by_kind, baseline_rss_mb), lines


def run_traced(workload, ctx, seed, casimir):
    import spans
    deck = [workload.op(seed, i) for i in range(workload.trace_ops)]
    tally = Tally()
    untraced = sum(tally.run_op(workload, ctx, op).latency_s for op in deck)
    tracer = spans.Tracer()
    with spans.installed(tracer, casimir):
        traced = sum(tally.run_op(workload, ctx, op, wrap=tracer.op).latency_s
                     for op in deck)
    recorded = tracer.spans()
    layers = traced_layers(recorded, traced / untraced, workload.record(ctx))
    spans.write_spans(recorded, OUT_DIR / f"spans-{workload.name}.tsv.gz")
    lines = [f"ops_total {tally.attempted}", f"ops_failed {tally.failed}",
             f"traced ops {len(deck)}: untraced {untraced:.3f} s, traced {traced:.3f} s, "
             f"{len(recorded)} spans"]
    lines += [f"  {name:<44} {value:>14.6g} {unit}"
              for name, (value, unit) in sorted(layers.items())]
    return tally, json_layer_metrics(layers), lines


def traced_layers(recorded, overhead, record):
    """Every per-layer figure of a traced pass: name -> (value, unit)."""
    import spans
    layers = spans.layer_metrics(recorded)
    layers["trace.overhead_ratio"] = (overhead, "ratio")
    for name in ORACLE_METRICS:
        layers[name] = (record.get(name, 0.0), "ratio")
    return layers


def json_layer_metrics(layers):
    return {name: _metric(value, unit) for name, (value, unit) in layers.items()
            if name not in TABLE_ONLY}


def _setup_seconds(workload, own_setup):
    """Median set-up time over this run and fresh interpreters, each taken
    to the reference speed by kernel passes timed right after it."""
    raw = [own_setup] + [None] * SETUP_PROBES
    scaled = [own_setup * calibration_scale(own_setup, min_passes=5)]
    for i in range(1, SETUP_PROBES + 1):
        raw[i] = _probe_setup(workload.name)
        scaled.append(raw[i] * calibration_scale(raw[i], min_passes=5))
    return statistics.median(scaled), f"raw setup_s {statistics.median(raw):.6g} s"


def run_one(args):
    from workloads import WORKLOADS
    casimir, import_s = _import_casimir()
    workload = WORKLOADS[args.workload]
    ctx, workdir, own_setup = _timed_setup(workload, casimir, import_s)
    try:
        if not args.trace:
            setup_s, setup_line = _setup_seconds(workload, own_setup)
        workload.prepare(ctx)
        baseline_rss = rss_mb()
        try:
            workload.run(ctx, workload.warmup_op(args.seed))
        except Exception:
            # the program's failures are counted on timed ops only
            print("warm-up op failed: "
                  + traceback.format_exc().strip().splitlines()[-1], file=sys.stderr)
        print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}")
        print(_environment())
        if args.trace:
            tally, metrics, lines = run_traced(workload, ctx, args.seed, casimir)
        else:
            tally, metrics, lines = run_untraced(workload, ctx, args.seed, args.seconds,
                                                 baseline_rss)
            metrics["setup_s"] = _metric(setup_s, "s")
            lines.append(setup_line)
        record = workload.record(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    for name, value in record.items():
        print(f"{name} {value:.6g}")
    if not args.trace:
        for name in END_TO_END:
            print(f"{name} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for msg in tally.messages[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Every workload in its own interpreter, then one summary table."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    names = sorted({m for r in results.values() for m in r["metrics"]})
    print(f"{'metric':<44}" + "".join(f"{w:>24}" for w in results))
    for key, label in (("attempted", "ops_total"), ("failed", "ops_failed")):
        print(f"{label:<44}" + "".join(f"{r[key]:>24}" for r in results.values()))
    for m in names:
        cells = []
        for r in results.values():
            v = r["metrics"].get(m)
            cells.append(f"{v['value']:>18.6g} {v['unit']:<5}" if v else f"{'-':>24}")
        print(f"{m:<44}" + "".join(cells))
    print(json.dumps({"workloads": results}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        from workloads import WORKLOADS
        casimir, import_s = _import_casimir()
        _, workdir, setup_s = _timed_setup(WORKLOADS[args.workload], casimir, import_s)
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(setup_s))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

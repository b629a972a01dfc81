"""Tests of the benchmark's own logic: span arithmetic, seeded inputs, checks.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import casimir  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span  # noqa: E402


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def test_union_length_merges_overlaps_and_clips():
    assert spans.union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert spans.union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert spans.union_length([], 0, 10) == 0


def test_self_time_of_nested_spans():
    tree = [Span(1, "op", 0.0, 10.0, 0, 0, 1),
            Span(2, "engine", 1.0, 4.0, 1, 0, 1),
            Span(3, "quadrature.inner", 2.0, 3.0, 2, 0, 1),
            Span(4, "engine", 5.0, 6.0, 1, 0, 1)]
    own = spans.self_times(tree)
    assert own == {1: pytest.approx(6.0), 2: pytest.approx(2.0),
                   3: pytest.approx(1.0), 4: pytest.approx(1.0)}


def test_self_time_counts_overlapping_pool_children_once():
    # two workers run children of span 1 at the same time
    tree = [Span(1, "cli", 0.0, 10.0, 0, 0, 1),
            Span(2, "engine", 1.0, 6.0, 1, 0, 2),
            Span(3, "engine", 2.0, 8.0, 1, 0, 3)]
    own = spans.self_times(tree)
    assert own[1] == pytest.approx(3.0)   # 10 - |[1, 8]|, not 10 - 11
    metrics = spans.layer_metrics(tree)
    assert metrics["cli.concurrency"][0] == pytest.approx(11.0 / 10.0)
    assert metrics["cli.self_s"][0] == pytest.approx(3.0)


def test_tracer_parents_pool_spans_on_the_op_thread():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        with tracer.span(spans.ENGINE):
            barrier.wait()

    with tracer.op(7):
        with tracer.span(spans.CLI) as cli_span:
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, range(2), timeout=10))
    recorded = tracer.spans()
    engine = [s for s in recorded if s.name == spans.ENGINE]
    assert len(engine) == 2
    assert {s.parent for s in engine} == {cli_span.id}
    assert {s.op for s in recorded} == {7}
    assert len({s.thread for s in engine}) == 2
    assert all(s.thread != cli_span.thread for s in engine)
    own = spans.self_times(recorded)
    covered = spans.union_length([(s.start, s.end) for s in engine],
                                 cli_span.start, cli_span.end)
    assert own[cli_span.id] == pytest.approx(cli_span.duration - covered)


def test_installed_wrappers_trace_one_call_and_restore_originals():
    from casimir import engine, materials
    original = engine.integrate_adaptive
    original_eps = materials.Drude.eps
    tracer = spans.Tracer()
    drude = casimir.Drude(1.37e16, 5.3e13)
    cfg = casimir.GapConfig(1e-6, drude, drude)
    quad = casimir.QuadratureConfig(rel_tol=1e-6)
    with spans.installed(tracer, casimir):
        with tracer.op(0):
            casimir.pressure(cfg, quad)
    assert engine.integrate_adaptive is original
    assert materials.Drude.eps is original_eps
    m = spans.layer_metrics(tracer.spans())
    assert m["engine.calls"][0] == 1
    assert m["quadrature.outer.calls"][0] == 1
    live = m["quadrature.outer.live_ratio"][0] * m["quadrature.outer.nodes"][0]
    assert live == pytest.approx(m["quadrature.inner.calls"][0])
    assert m["materials.eps_mu.calls"][0] > 0
    assert 0.0 < m["quadrature.inner.kept_ratio"][0] <= 1.0
    assert m["trace.unattributed_s"][0] >= 0.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_a_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    n = 2 * len(w.cycle)
    first = [w.op(11, i) for i in range(n)]
    assert first == [w.op(11, i) for i in range(n)]
    assert [op.params for op in first] != [w.op(12, i).params for i in range(n)]
    assert w.warmup_op(11) == w.warmup_op(11)
    # op i does not depend on which ops were generated before it
    assert w.op(11, n - 1) == first[-1]
    # every cycle holds each op kind once
    for c in range(2):
        kinds = sorted(op.kind for op in first[c * len(w.cycle):(c + 1) * len(w.cycle)])
        assert kinds == sorted(w.cycle)


def test_signmap_inputs_stay_inside_their_strata():
    w = workloads.WORKLOADS["const-signmap"]
    for seed in range(20):
        for i in range(2):
            p = w.op(seed, i).params
            assert 3e-7 <= p["gap"] <= 3e-6
            if "eps" in p:
                assert all(1.0 <= v <= 1000.0 for v in p["eps"] + p["mu"])
            else:
                lo, hi = p["mu"]
                assert lo < 1.0 < hi


# ---------------------------------------------------------------------------
# correctness checks reject corrupted results
# ---------------------------------------------------------------------------

def test_point_oracle_check_rejects_a_sign_flipped_pressure():
    a = 1e-6
    exact = workloads.ideal_pressure(casimir, a)
    check = workloads.point_oracle_failures
    assert check(casimir, "pressure", "pc-pc", a, exact * (1 + 1e-12), {}) == []
    assert check(casimir, "pressure", "pc-pc", a, -exact, {})
    boyer = -7.0 / 8.0 * exact
    assert check(casimir, "pressure", "pc-permeable", a, boyer, {}) == []
    assert check(casimir, "pressure", "pc-permeable", a, -boyer, {})
    assert check(casimir, "pressure", "drude", a, 0.9 * exact, {}) == []
    assert check(casimir, "pressure", "drude", a, -0.9 * exact, {})
    assert check(casimir, "energy", "plasma", a, math.nan, {})
    refs = {("pressure", "const"): 2.0e-27}
    assert check(casimir, "pressure", "const", 2e-6, 2.0e-27 / 16e-24, refs) == []
    assert check(casimir, "pressure", "const", 2e-6, -2.0e-27 / 16e-24, refs)


def _row(eps1, mu1, eps2, mu2, verdict):
    return SimpleNamespace(eps1=eps1, mu1=mu1, eps2=eps2, mu2=mu2,
                           z1=math.sqrt(mu1 / eps1), z2=math.sqrt(mu2 / eps2),
                           verdict=verdict)


def _uvl_rows(mus, flip=None):
    rows = []
    for m1 in mus:
        for m2 in mus:
            v = "Repulsive" if (m1 - 1) * (m2 - 1) < 0 else "Attractive"
            if (m1, m2) == flip:
                v = "Attractive" if v == "Repulsive" else "Repulsive"
            rows.append(_row(1 / m1, m1, 1 / m2, m2, v))
    return rows


def test_signmap_check_rejects_unstraddled_repulsion_and_asymmetry():
    good = [_row(30, 5, 1, 800, "Repulsive"), _row(1, 800, 30, 5, "Repulsive"),
            _row(30, 5, 30, 5, "Attractive"), _row(1, 800, 1, 800, "Attractive")]
    assert workloads.signmap_failures(good, 4) == []
    flipped = good[:2] + [_row(30, 5, 30, 5, "Repulsive")] + good[3:]
    assert workloads.signmap_failures(flipped, 4)
    asymmetric = [good[0], _row(1, 800, 30, 5, "Attractive")] + good[2:]
    assert workloads.signmap_failures(asymmetric, 4)
    assert workloads.signmap_failures(good[:3], 4)


def test_uvl_check_rejects_a_wrong_verdict_or_a_stray_crossing():
    mus = [0.5, 2.0]
    crossings = [{"crossing": 1.0 + 1e-4}, {"crossing": 1.0 - 2e-4}]
    assert workloads.uvl_failures(_uvl_rows(mus), crossings, 4, 2) == []
    assert workloads.uvl_failures(_uvl_rows(mus, flip=(0.5, 2.0)), crossings, 4, 2)
    stray = crossings[:1] + [{"crossing": 1.01}]
    assert workloads.uvl_failures(_uvl_rows(mus), stray, 4, 2)
    assert workloads.uvl_failures(_uvl_rows(mus), crossings[:1], 4, 2)


def test_attraction_check_rejects_a_sign_flipped_pressure():
    def row(p, verdict="Attractive", asserted=True):
        return SimpleNamespace(label1="a", label2="b", a=1e-6, pressure=p,
                               verdict=verdict, asserted=asserted)
    good = [row(-1e-3), row(-2e-4)]
    assert workloads.attraction_failures(good, True, 2) == []
    assert workloads.attraction_failures([row(-1e-3), row(2e-4)], True, 2)
    assert workloads.attraction_failures(good, False, 2)
    assert workloads.attraction_failures(good, True, 3)
    assert workloads.attraction_failures([row(-1e-3), row(3.0, "Repulsive", False)],
                                         True, 2) == []


def _sweep_output(rows):
    return "\n".join([workloads.SWEEP_HEADER] + [
        f"{a:.16e},{e:.16e},{p:.16e},{err:.16e},{v}" for a, e, p, err, v in rows]) + "\n"


def test_cli_check_rejects_a_wrong_verdict():
    rows = [(1e-7, -1e-3, -1.0, 1e-9, "Attractive"),
            (2e-7, -1e-4, -0.1, 1e-10, "Attractive")]
    ok = workloads.cli_failures("sweep", 0, _sweep_output(rows), points=2)
    assert ok.failures == [] and ok.results == 2
    wrong = rows[:1] + [(2e-7, -1e-4, -0.1, 1e-10, "Repulsive")]
    assert workloads.cli_failures("sweep", 0, _sweep_output(wrong), points=2).failures
    assert workloads.cli_failures("sweep", 0, _sweep_output(rows), points=3).failures
    assert workloads.cli_failures("sweep", 3, _sweep_output(rows), points=2).failures
    assert workloads.cli_failures("sweep", 0, "a,b\n", points=2).failures
    nan = rows[:1] + [(2e-7, math.nan, -0.1, 1e-10, "Attractive")]
    assert workloads.cli_failures("sweep", 0, _sweep_output(nan), points=2).failures


def test_cli_check_flags_the_unit_floor_verdict():
    doc = {"value": -4.3e-13, "error_estimate": 1e-23, "verdict": "Indeterminate"}
    out = workloads.cli_failures("energy", 0, json.dumps(doc))
    assert out.failures and out.unit_floor
    doc["verdict"] = "Attractive"
    assert workloads.cli_failures("energy", 0, json.dumps(doc)).failures == []
    pfa = {"force_N": -2.7e-13, "energy_error_J_m2": 1e-25, "verdict": "Indeterminate"}
    out = workloads.cli_failures("pfa", 0, json.dumps(pfa), radius=1e-4)
    assert out.failures and out.unit_floor
    # a value inside 10x its error may print Indeterminate
    unresolved = {"value": -1e-13, "error_estimate": 1e-13, "verdict": "Indeterminate"}
    assert workloads.cli_failures("energy", 0, json.dumps(unresolved)).failures == []
    csv = workloads.SCALAR_CSV_HEADER + "\n-1.0e-3,1.0e-12,Pa,,Repulsive,true\n"
    assert workloads.cli_failures("pressure", 0, csv).failures


# ---------------------------------------------------------------------------
# the metric names agree with BENCHMARK.json
# ---------------------------------------------------------------------------

def test_emitted_metrics_match_the_benchmark_definition():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    layer_names = set(run.json_layer_metrics(run.traced_layers([], 1.0, {})))
    assert {m["name"] for m in spec["per_layer"]} == layer_names
    # const-signmap and cli-unit-floor run on request but are not listed:
    # see ConstSignmap and CliUnitFloor
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - \
        workloads.UNLISTED
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_summary_takes_medians_per_kind_or_over_all_ops():
    # kind b is 10x dearer than kind a; one op of kind a costs 100x and
    # leaves 50 MB behind
    rec = run.OpRecord
    records = [rec("a", 0.01, 1, 40.0, 40.5), rec("b", 0.1, 2, 40.0, 41.0),
               rec("a", 0.011, 1, 40.0, 40.2), rec("b", 0.12, 2, 40.0, 41.5),
               rec("a", 1.0, 1, 40.0, 90.0), rec("a", 0.012, 1, 90.0, 90.1)]
    m = run.summarize(records, by_kind=True, baseline_rss_mb=40.0)
    assert m["op_ms_p50"]["value"] == pytest.approx(1e3 * (0.0115 + 0.11) / 2)
    assert m["results_per_s"]["value"] == pytest.approx(3 / (0.0115 + 0.11))
    assert m["peak_rss_mb"]["value"] == pytest.approx(40.0 + 0.75)
    for r in records:
        r.scale = 2.0
    pooled = run.summarize(records, by_kind=False, baseline_rss_mb=40.0)
    assert pooled["op_ms_p50"]["value"] == pytest.approx(2e3 * (0.012 + 0.1) / 2)
    assert pooled["results_per_s"]["value"] == pytest.approx(1.0 / 0.112)
    raw = run.summarize(records, by_kind=False, baseline_rss_mb=40.0, scaled=False)
    assert raw["op_ms_p50"]["value"] == pytest.approx(1e3 * (0.012 + 0.1) / 2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_names_a_known_calibration_kernel(name):
    kernel = workloads.WORKLOADS[name].calibration
    assert kernel is None or kernel in run.CALIBRATION_KERNELS
    if kernel:
        assert run.calibration_scale(0.0, kernel=kernel) > 0.0

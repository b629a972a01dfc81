"""Command-line interface: exit codes, document shapes, determinism."""

import csv
import io
import json
import re
import threading

import numpy as np
import pytest

from casimir import cli
from casimir.cli import main
from casimir.engine import GapConfig, QuadratureConfig, energy_per_area, pressure
from casimir.io import load_material, save_material
from casimir.errors import ConvergenceError
from casimir.materials import (Drude, HighTail, LorentzOscillators, LowTail, Tabulated,
                               TabulatedAbsorption)

IDEAL_E = -4.3337528e-10  # ideal-mirror energy at 1 um, J/m^2


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_ideal_conductors(capsys):
    code, out, err = run(capsys, "energy", "--material1", "pc",
                         "--material2", "pc", "--gap", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(IDEAL_E, rel=1e-6)
    assert doc["units"] == "J/m^2"
    assert doc["verdict"] == "Attractive"
    assert doc["converged"] is True
    manifest = doc["manifest"]
    assert manifest["command"] == "energy"
    assert manifest["constants_version"] == "codata-2018"
    assert len(manifest["materials"]) == 2
    assert all(len(m["digest"]) == 64 for m in manifest["materials"])


def test_manifests_identical_apart_from_timestamp(capsys):
    _, out1, _ = run(capsys, "energy", "--material1", "pc", "--material2", "pc",
                     "--gap", "1e-6")
    _, out2, _ = run(capsys, "energy", "--material1", "pc", "--material2", "pc",
                     "--gap", "1e-6")
    d1, d2 = json.loads(out1), json.loads(out2)
    d1["manifest"].pop("timestamp")
    d2["manifest"].pop("timestamp")
    assert d1 == d2


def test_pressure_command(capsys):
    code, out, _ = run(capsys, "pressure", "--material1", "pc",
                       "--material2", "pc", "--gap", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == pytest.approx(-1.3001255e-3, rel=1e-6)
    assert doc["units"] == "Pa"


def test_zero_gap_is_usage_error(capsys):
    code, out, err = run(capsys, "energy", "--material1", "pc",
                         "--material2", "pc", "--gap", "0")
    assert code == 2
    assert "gap must be finite and positive" in err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, name", [
    (["pressure", "--material1", "pc", "--material2", "pc", "--gap"], "gap"),
    (["pfa", "--sphere", "pc", "--plate", "pc", "--gap", "1e-6", "--radius"], "sphere radius")],
    ids=["pressure-gap", "pfa-radius"])
def test_non_finite_length_is_usage_error(capsys, command, name, value):
    code, out, err = run(capsys, *command, value)
    assert (code, out) == (2, "")
    assert err == f"error: {name} must be finite and positive\n"


@pytest.mark.parametrize("command", [["energy", "--gap", "1e-19"],
                                     ["sweep", "--gap-min", "1e-19", "--gap-max", "1e-6"]],
                         ids=["energy", "sweep"])
def test_gap_below_1e_18_m_is_usage_error(capsys, command):
    code, _, err = run(capsys, *command, "--material1", "pc", "--material2", "pc")
    assert code == 2
    assert "gap must be at least 1e-18 m" in err


def test_unknown_material_is_usage_error(capsys):
    code, _, err = run(capsys, "energy", "--material1", "unobtainium",
                       "--material2", "pc", "--gap", "1e-6")
    assert code == 2
    assert "neither a builtin" in err


def test_malformed_model_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "Drude", "parameters": {"omega_p": "abc", "gamma": 1e14}}')
    code, _, err = run(capsys, "energy", "--material1", str(path),
                       "--material2", "pc", "--gap", "1e-6")
    assert code == 2
    assert "'Drude' has malformed parameters" in err


def test_model_file_with_a_value_that_is_no_real_number_is_usage_error(capsys, tmp_path):
    # a string omega_p and a bool gamma are not read as 1.37e16 and 1 rad/s
    path = tmp_path / "strings.json"
    path.write_text('{"kind": "Drude", "parameters": {"omega_p": "1.37e16", "gamma": true}}')
    code, out, err = run(capsys, "pressure", "--material1", str(path),
                         "--material2", "pc", "--gap", "1e-6")
    assert (code, out) == (2, "")
    assert "'Drude' has malformed parameters" in err
    assert "omega_p must be a real number, got '1.37e16'" in err


def test_model_file_with_an_infinite_static_lorentz_eps_is_usage_error(capsys, tmp_path):
    path = tmp_path / "strong.json"
    path.write_text('{"kind": "LorentzOscillators", "parameters": {"oscillators": '
                    '[{"f": 1e300, "omega_p": 1e16, "omega0": 5e15, "gamma": 1e13}]}}')
    code, out, err = run(capsys, "energy", "--material1", str(path),
                         "--material2", "pc", "--gap", "1e-6")
    assert code == 2
    assert out == ""
    assert "static eps" in err and "not finite" in err


def test_model_file_with_a_frequency_beyond_1e140_rad_s_is_usage_error(capsys, tmp_path):
    path = tmp_path / "fast.json"
    path.write_text('{"kind": "Drude", "parameters": {"omega_p": 1e300, "gamma": 1e-300}}')
    code, out, err = run(capsys, "energy", "--material1", str(path),
                         "--material2", "pc", "--gap", "1e-6")
    assert code == 2
    assert out == ""
    assert "omega_p must be at most 1e+140 rad/s" in err


@pytest.mark.parametrize("name, content, args, message", [
    ("slow.json", '{"kind": "DebyeMagnetic", "parameters": {"delta_mu": 10, "omega_m": 1e-300}}',
     ("energy", "--material2", "pc", "--gap", "1e-6", "--material1"),
     "omega_m must be at least 1e-10 rad/s"),
    ("slow.csv", "omega_rad_s,eps_imag\n1e-170,0.5\n1e-160,0.5\n", ("kk", "--table"),
     "omega samples must be at least 1e-10 rad/s")], ids=["model-file", "table-csv"])
def test_input_with_a_frequency_below_1e_minus_10_rad_s_is_usage_error(capsys, tmp_path,
                                                                        name, content,
                                                                        args, message):
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run(capsys, *args, str(path))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("name, content, args", [
    ("high.json", '{"kind": "Tabulated", "parameters": {"omega_rad_s": [1e103, 2e103], '
     '"eps_imag": [1.0, 2.0]}}', ("energy", "--material2", "pc", "--gap", "1e-6", "--material1")),
    ("high.csv", "omega_rad_s,eps_imag\n1e103,1.0\n2e103,2.0\n", ("kk", "--table")),
    # only the every-other-sample copy of the transform's error estimate overflows
    ("wide.csv", "omega_rad_s,eps_imag\n4.6e102,1.0\n6.9e102,2.0\n9.2e102,3.0\n",
     ("kk", "--table"))],
    ids=["model-file", "table-csv", "halved-table-csv"])
def test_input_whose_transform_overflows_is_usage_error(capsys, tmp_path, name, content, args):
    path = tmp_path / name
    path.write_text(content)
    code, out, err = run(capsys, *args, str(path))
    assert code == 2
    assert out == ""
    assert "transform overflows" in err


def test_table_row_of_three_fields_is_usage_error(capsys, tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("omega_rad_s,eps_imag\n1e14,0.5,junk\n1e15,0.1\n")
    code, out, err = run(capsys, "kk", "--table", str(path))
    assert code == 2
    assert out == ""
    assert f"{path}:2: bad sample row" in err


@pytest.mark.parametrize("name, content, args", [
    ("model.json", b"\xff{}", ("energy", "--material2", "pc", "--gap", "1e-6", "--material1")),
    ("table.csv", b"omega_rad_s,eps_imag\n1e14,0.5\xff\n", ("kk", "--table"))])
def test_undecodable_input_file_is_usage_error(capsys, tmp_path, name, content, args):
    path = tmp_path / name
    path.write_bytes(content)
    code, out, err = run(capsys, *args, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and name in err


def test_vacuum_is_indeterminate(capsys):
    code, out, _ = run(capsys, "energy", "--material1", "pc",
                       "--material2", "vacuum", "--gap", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 0.0
    assert doc["verdict"] == "Indeterminate"
    assert doc["dominant_xi_rad_s"] is None


def test_a_metal_facing_vacuum_prints_a_positive_zero_pressure(capsys, tmp_path):
    path, null = tmp_path / "gold.json", tmp_path / "null.json"
    save_material(Drude(1.37e16, 5.3e13, label="gold"), path)
    # a Lorentz model of zero strength reflects nothing, as the vacuum does
    save_material(LorentzOscillators([(0.0, 8e15, 5e15, 5e13)], label="null"), null)
    for side in ("vacuum", str(null)):
        for pair in ((str(path), side), (side, str(path))):
            materials = ("--material1", pair[0], "--material2", pair[1])
            code, out, _ = run(capsys, "pressure", *materials, "--gap", "1e-6", "--csv")
            assert code == 0
            assert list(csv.reader(io.StringIO(out)))[1] == [
                "0.0000000000000000e+00", "0.0000000000000000e+00", "Pa", "",
                "Indeterminate", "true"]
            code, out, _ = run(capsys, "sweep", *materials, "--points", "3")
            assert code == 0
            rows = list(csv.reader(io.StringIO(out)))[1:]
            assert [r[1:] for r in rows] == [["0.0000000000000000e+00"] * 3
                                             + ["Indeterminate"]] * 3


def test_nonconvergence_exits_3_with_best_estimate(capsys, tmp_path):
    # a Drude metal of plasma wavelength 1.9 nm, within 0.15 % of the ideal
    # mirrors at 1 um, which the 2-D quadrature integrates
    path = tmp_path / "stiff-metal.json"
    save_material(Drude(1e18, 5.3e13, label="stiff metal"), path)
    code, out, err = run(capsys, "energy", "--material1", str(path),
                         "--material2", str(path), "--gap", "1e-6",
                         "--rel-tol", "1e-12", "--max-subdivisions", "1")
    assert code == 3
    doc = json.loads(out)
    assert doc["converged"] is False
    assert doc["value"] == pytest.approx(IDEAL_E, rel=1e-2)
    assert "converge" in err


def test_sweep_that_does_not_converge_exits_3_without_rows(capsys, tmp_path):
    # a sweep prints no partial table: main reports the error itself
    path = tmp_path / "stiff-metal.json"
    save_material(Drude(1e18, 5.3e13, label="stiff metal"), path)
    code, out, err = run(capsys, "sweep", "--material1", str(path), "--material2", "pc",
                         "--points", "2", "--rel-tol", "1e-13", "--max-subdivisions", "1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "converge" in err


def test_csv_output_mode(capsys):
    code, out, err = run(capsys, "energy", "--material1", "pc",
                         "--material2", "pc", "--gap", "1e-6", "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("value,error_estimate,units")
    assert "J/m^2" in lines[1]
    json.loads(err.strip())  # manifest rides on stderr


def test_energy_verdict_floor_is_in_joules_per_square_metre(capsys):
    # -4.33e-13 J/m^2 known to ~1e-23: below 1e-12 but far above the
    # energy floor of 1e-12 Pa x 1e-5 m
    code, out, _ = run(capsys, "energy", "--material1", "pc",
                       "--material2", "pc", "--gap", "1e-5", "--csv")
    assert code == 0
    value, error, units, _, verdict, _ = out.strip().split("\n")[1].split(",")
    assert float(value) == pytest.approx(IDEAL_E * 1e-3, rel=1e-6)
    assert float(error) < 1e-18
    assert units == "J/m^2"
    assert verdict == "Attractive"


def test_sweep_csv_shape_and_determinism(capsys):
    args = ("sweep", "--material1", "pc", "--material2", "pc",
            "--gap-min", "5e-7", "--gap-max", "2e-6", "--points", "3",
            "--rel-tol", "1e-6")
    code, out1, err = run(capsys, *args)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out1)))
    assert rows[0] == ["a_m", "energy_J_m2", "pressure_Pa", "error", "verdict"]
    assert len(rows) == 4
    gaps = [float(r[0]) for r in rows[1:]]
    assert gaps == sorted(gaps)
    assert all(r[4] == "Attractive" for r in rows[1:])
    json.loads(err.strip())

    code, out2, _ = run(capsys, *args)
    assert code == 0
    assert out2 == out1  # byte-identical body whatever order the pool ran in


def test_sweep_prints_the_library_numbers(capsys, tmp_path):
    path = tmp_path / "gold.json"
    save_material(Drude(1.37e16, 5.3e13, label="gold-like"), path)
    quad = QuadratureConfig(rel_tol=1e-6)
    m1, m2 = load_material(str(path)), load_material("pc")
    # 17 gaps are 34 configurations, more than one batched call holds
    for points in (4, 17):
        code, out, _ = run(capsys, "sweep", "--material1", str(path),
                           "--material2", "pc", "--gap-min", "2e-7",
                           "--gap-max", "3e-6", "--points", str(points),
                           "--rel-tol", "1e-6")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        gaps = np.geomspace(2e-7, 3e-6, points).tolist()
        assert [float(r[0]) for r in rows] == gaps
        for r in rows:
            cfg = GapConfig(float(r[0]), m1, m2)
            p = pressure(cfg, quad)
            expected = [energy_per_area(cfg, quad).value, p.value, p.error_estimate]
            assert [float(x) for x in r[1:4]] == expected


def test_casimir_starts_no_threads(capsys, monkeypatch):
    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    code, out, _ = run(capsys, "sweep", "--material1", "pc", "--material2", "pc",
                       "--points", "3")
    assert code == 0
    assert len(out.splitlines()) == 1 + 3


@pytest.mark.parametrize("flag, value", [("--gap-min", "0"), ("--gap-max", "inf"),
                                         ("--points", "0"), ("--points", "-1")])
def test_sweep_bad_range_is_usage_error(capsys, flag, value):
    code, out, err = run(capsys, "sweep", "--material1", "pc",
                         "--material2", "pc", flag, value)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_signmap_command(capsys, tmp_path):
    summary_path = tmp_path / "summary.json"
    code, out, _ = run(capsys, "signmap",
                       "--eps1", "1", "100", "--mu1", "1",
                       "--eps2", "1", "--mu2", "1", "100",
                       "--gap", "1e-6", "--rel-tol", "1e-6",
                       "--summary", str(summary_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["eps1", "mu1", "eps2", "mu2"]
    assert rows[0][-1] == "unphysical"
    assert len(rows) == 5
    assert all(r[-1] == "non-dispersive" for r in rows[1:])
    summary = json.loads(summary_path.read_text())
    assert summary["kind"] == "signmap"
    assert sum(summary["counts"].values()) == 4
    assert "manifest" in summary


@pytest.mark.parametrize("threshold", ["nan", "-1e-9"])
def test_signmap_refuses_a_threshold_not_finite_and_nonnegative(capsys, threshold):
    code, out, err = run(capsys, "signmap", "--eps1", "1", "100", "--mu1", "1",
                         "--eps2", "1", "--mu2", "1", "--gap", "1e-6",
                         f"--threshold={threshold}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: threshold must be finite")


def test_signmap_summary_that_cannot_be_written_is_usage_error(capsys, tmp_path):
    path = tmp_path / "nonexistent" / "s.json"
    code, out, err = run(capsys, "signmap", "--eps1", "1", "100", "--mu1", "1",
                         "--eps2", "1", "--mu2", "1", "--no-refine-boundaries",
                         "--summary", str(path))
    assert code == 2
    assert out.startswith("eps1,mu1,eps2,mu2")  # the map went out before the summary
    assert err.startswith("error: ") and str(path) in err


def test_uvlmap_command(capsys, tmp_path):
    summary_path = tmp_path / "uvl.json"
    code, out, _ = run(capsys, "uvlmap", "--mu1", "0.5", "2", "--mu2", "0.5", "2",
                       "--gap", "1e-6", "--rel-tol", "1e-6",
                       "--summary", str(summary_path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 5
    verdicts = {(r[1], r[3]): r[8] for r in rows[1:]}
    assert verdicts[("5.0000000000000000e-01", "2.0000000000000000e+00")] == "Repulsive"
    summary = json.loads(summary_path.read_text())
    assert summary["boundaries"], "refined boundaries expected in summary"
    assert "eps_j*mu_j" in summary["assumption"]


def test_kk_emits_loadable_model(capsys, tmp_path):
    # gold-ish Drude absorption sampled onto a table
    wp, g = 1e16, 1e14
    w = np.geomspace(g * 1e-3, wp * 1e3, 1200)
    table_path = tmp_path / "gold.csv"
    lines = ["omega_rad_s,eps_imag"]
    lines += [f"{wi:.16e},{si:.16e}"
              for wi, si in zip(w, wp ** 2 * g / (w * (w ** 2 + g ** 2)))]
    table_path.write_text("\n".join(lines) + "\n")

    code, out, _ = run(capsys, "kk", "--table", str(table_path),
                       "--label", "gold from table")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "Tabulated"
    assert doc["label"] == "gold from table"

    # round-trip: the emitted model is accepted by every other command
    model_path = tmp_path / "gold_model.json"
    doc.pop("manifest")
    model_path.write_text(json.dumps(doc))
    model = load_material(str(model_path))
    assert model.eps(wp) == pytest.approx(Drude(wp, g).eps(wp), rel=1e-3)

    code, out, _ = run(capsys, "pressure", "--material1", str(model_path),
                       "--material2", "pc", "--gap", "5e-7",
                       "--rel-tol", "1e-6")
    assert code == 0
    assert json.loads(out)["verdict"] == "Attractive"


def test_kk_bad_table_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("frequency,loss\n1,2\n")
    code, _, err = run(capsys, "kk", "--table", str(bad))
    assert code == 2
    assert "header" in err


@pytest.mark.parametrize("sidecar", ['{"low_tail": "linear"}', "[1, 2]",
                                     '{"high_tail": {"exponent": "abc"}}'])
def test_kk_malformed_sidecar_is_usage_error(capsys, tmp_path, sidecar):
    table = tmp_path / "t.csv"
    table.write_text("omega_rad_s,eps_imag\n1e14,0.5\n1e15,0.1\n")
    (tmp_path / "t.json").write_text(sidecar)
    code, out, err = run(capsys, "kk", "--table", str(table))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "t.json" in err


def test_pfa_command(capsys):
    code, out, _ = run(capsys, "pfa", "--radius", "100e-6", "--gap", "1e-6",
                       "--sphere", "pc", "--plate", "pc")
    assert code == 0
    doc = json.loads(out)
    assert doc["force_N"] == pytest.approx(-2.7230e-13, rel=1e-4)
    assert doc["aspect_a_over_R"] == pytest.approx(0.01)
    assert doc["warning"] is None
    assert doc["verdict"] == "Attractive"


@pytest.mark.parametrize("argv", [
    ("energy", "--material1", "pc", "--material2", "pc", "--gap", "1e-6"),
    ("sweep", "--material1", "pc", "--material2", "pc", "--gap-min", "5e-7",
     "--gap-max", "2e-6", "--points", "2"),
    ("signmap", "--eps1", "1", "100", "--mu1", "1", "--eps2", "1", "--mu2", "1",
     "--gap", "1e-6", "--no-refine-boundaries"),
    ("uvlmap", "--mu1", "0.5", "--mu2", "2", "--gap", "1e-6", "--no-refine-boundaries"),
    ("pfa", "--radius", "100e-6", "--gap", "1e-6", "--sphere", "pc", "--plate", "pc"),
], ids=lambda argv: argv[0])
def test_every_manifest_records_the_quadrature_it_ran_with(capsys, argv):
    code, out, err = run(capsys, *argv, "--rel-tol", "1e-6", "--max-subdivisions", "123")
    assert code == 0
    if argv[0] in ("energy", "pfa"):
        manifest = json.loads(out)["manifest"]
    elif argv[0] == "sweep":
        manifest = json.loads(err)
    else:
        manifest = json.loads(err)["manifest"]
    assert manifest["command"] == argv[0]
    assert manifest["parameters"]["rel_tol"] == 1e-6
    assert manifest["parameters"]["max_subdivisions"] == 123


def test_saved_models_feed_the_cli(capsys, tmp_path):
    path = tmp_path / "gold.json"
    save_material(Drude(1.37e16, 5.3e13, label="gold-like"), path)
    code, out, _ = run(capsys, "energy", "--material1", str(path),
                       "--material2", str(path), "--gap", "1e-6",
                       "--rel-tol", "1e-6")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "Attractive"
    assert abs(doc["value"]) < abs(IDEAL_E)


def test_signmap_keeps_the_map_when_a_bisection_fails(capsys, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise ConvergenceError("pressure quadrature did not converge")

    monkeypatch.setattr(cli, "boundary_points", fail)
    summary_path = tmp_path / "summary.json"
    code, out, err = run(capsys, "signmap",
                         "--eps1", "1", "100", "--mu1", "1", "100",
                         "--eps2", "1", "100", "--mu2", "1", "100",
                         "--gap", "1e-6", "--rel-tol", "1e-6",
                         "--summary", str(summary_path))
    assert code == 3
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 16
    summary = json.loads(summary_path.read_text())
    assert sum(summary["counts"].values()) == 16
    assert summary["boundaries"] == []
    assert err.startswith("warning: ")


def save_table(path):
    w = np.geomspace(1e13, 1e17, 300)
    eps_imag = 8e31 * 5e13 * w / ((25e30 - w ** 2) ** 2 + (5e13 * w) ** 2)
    save_material(Tabulated(TabulatedAbsorption(w, eps_imag, LowTail("linear"),
                                                HighTail("power", 3.0))), path)


def test_one_table_file_given_twice_is_transformed_once_per_node(capsys, tmp_path,
                                                                  kk_nodes):
    path = tmp_path / "table.json"
    save_table(path)
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    argv = ["pressure", "--gap", "4e-7", "--rel-tol", "1e-6", "--csv"]
    code, out, _ = run(capsys, *argv, "--material1", str(path), "--material2", str(path))
    assert code == 0
    nodes = np.concatenate(kk_nodes)
    assert np.unique(nodes).size == nodes.size
    kk_nodes.clear()
    code, out_two, _ = run(capsys, *argv, "--material1", str(path), "--material2", str(copy))
    assert code == 0
    assert sum(x.size for x in kk_nodes) == 2 * nodes.size
    assert out_two == out


def test_one_table_file_given_twice_is_digested_once(capsys, tmp_path, monkeypatch):
    path = tmp_path / "table.json"
    save_table(path)
    copy = tmp_path / "copy.json"
    copy.write_bytes(path.read_bytes())
    digested = []
    real = cli.material_digest

    def counted(model):
        digested.append(model)
        return real(model)

    monkeypatch.setattr(cli, "material_digest", counted)
    argv = ["pressure", "--gap", "4e-7", "--rel-tol", "1e-3", "--csv"]
    manifests = []
    for second in (path, copy):
        code, _, err = run(capsys, *argv, "--material1", str(path), "--material2", str(second))
        assert code == 0
        manifests.append(json.loads(err.splitlines()[0]))
    # the shared model once, then each of two equal models
    assert len(digested) == 3
    assert digested[1] is not digested[2]
    want = real(load_material(str(path)))
    for manifest in manifests:
        manifest.pop("timestamp")
        assert [m["digest"] for m in manifest["materials"]] == [want, want]
    assert manifests[0] == manifests[1]


def test_table_sweep_transforms_each_distinct_node_once(capsys, tmp_path, kk_nodes):
    path = tmp_path / "table.json"
    save_table(path)
    code, out, _ = run(capsys, "sweep", "--material1", str(path),
                       "--material2", str(path), "--gap-min", "2e-7",
                       "--gap-max", "2e-6", "--points", "3", "--rel-tol", "1e-6")
    assert code == 0
    nodes = np.concatenate(kk_nodes)
    kk_nodes.clear()
    # one gap and one kind at a time, a freshly loaded model builds the same
    # decade panels, each once
    model, quad = load_material(str(path)), QuadratureConfig(rel_tol=1e-6)
    for a in np.geomspace(2e-7, 2e-6, 3):
        energy_per_area(GapConfig(float(a), model, model), quad)
        pressure(GapConfig(float(a), model, model), quad)
    alone = np.concatenate(kk_nodes)
    assert nodes.size == np.unique(nodes).size == alone.size
    np.testing.assert_array_equal(np.sort(alone), np.sort(nodes))


def test_the_parser_is_built_once_and_keeps_no_state_between_runs(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    table = tmp_path / "table.json"
    save_table(table)
    materials = ["--material1", str(table), "--material2", "pc", "--rel-tol", "1e-6"]
    runs = [["pressure", "--gap", "4e-7", "--csv", *materials],
            ["energy", "--gap", "7e-7", *materials],
            ["sweep", "--gap-min", "3e-7", "--gap-max", "9e-7", "--points", "2", *materials],
            ["pressure", "--gap", "4e-7", *materials]]

    def stdout(argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', out)

    first = []
    for argv in runs:
        cli.build_parser.cache_clear()
        first.append(stdout(argv))
    parser = cli.build_parser()
    assert [stdout(argv) for argv in runs] == first
    assert cli.build_parser() is parser
    assert first[0].startswith("value,") and json.loads(first[3])["units"] == "Pa"

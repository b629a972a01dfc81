"""Model serialization round-trips and tabulated-data ingestion."""

import json

import numpy as np
import pytest

from casimir import (ConstantEpsMu, DebyeMagnetic, Drude, HighTail,
                     IngestionError, InfinitelyPermeable, LorentzOscillators,
                     LowTail, PerfectConductor, Plasma, Tabulated,
                     TabulatedAbsorption)
from casimir.io import (BUILTIN_MATERIALS, load_absorption_table,
                        load_material, material_digest, material_from_dict,
                        material_to_dict, save_material)

MODELS = [
    PerfectConductor(),
    InfinitelyPermeable(),
    ConstantEpsMu(4.0, 2.0, label="toy"),
    Drude(1.37e16, 5.3e13, label="gold-like"),
    Plasma(9e15),
    LorentzOscillators([(0.7, 8e15, 4e15, 2e14), (0.3, 2e16, 1.2e16, 4e14)]),
    DebyeMagnetic(1e3, 1e9, delta_eps=12.0, omega_e=3e14),
    Tabulated(TabulatedAbsorption(np.geomspace(1e14, 1e16, 40),
                                  np.linspace(2.0, 0.1, 40),
                                  LowTail("linear"), HighTail("power", 3.0))),
]


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.kind)
def test_round_trip_preserves_response(model):
    doc = material_to_dict(model)
    clone = material_from_dict(json.loads(json.dumps(doc)))
    assert clone.kind == model.kind
    assert clone.label == model.label
    xi = np.geomspace(1e12, 1e17, 6)
    for x in xi:
        assert model.eps(float(x)) == clone.eps(float(x))
        assert model.mu(float(x)) == clone.mu(float(x))


def test_digest_is_canonical():
    m = Drude(1.37e16, 5.3e13)
    assert material_digest(m) == material_digest(Drude(1.37e16, 5.3e13))
    assert material_digest(m) != material_digest(Drude(1.4e16, 5.3e13))
    assert len(material_digest(m)) == 64


def test_builtin_materials_resolve():
    assert load_material("pc").kind == "PerfectConductor"
    assert load_material("vacuum").eps_const == 1.0
    assert load_material("permeable").kind == "InfinitelyPermeable"
    assert set(BUILTIN_MATERIALS) == {"pc", "vacuum", "permeable"}


def test_missing_material_errors(tmp_path):
    with pytest.raises(IngestionError, match="neither a builtin"):
        load_material(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(IngestionError, match="not valid JSON"):
        load_material(str(bad))
    with pytest.raises(IngestionError, match="unknown material kind"):
        material_from_dict({"kind": "Metamaterial", "parameters": {}})
    with pytest.raises(IngestionError, match="missing parameter"):
        material_from_dict({"kind": "Drude", "parameters": {"omega_p": 1e16}})
    with pytest.raises(IngestionError):
        material_from_dict(["not", "a", "dict"])
    # malformed parameters name the kind, whatever the parse raised
    for kind, params in [
            ("Drude", [1, 2]),
            ("Drude", {"omega_p": "abc", "gamma": 1e14}),
            ("Drude", {"omega_p": 1e16, "gamma": None}),
            ("LorentzOscillators", {"oscillators": [[1, 2, 3, 4]]}),
            ("Tabulated", {"omega_rad_s": [1e14, "x"], "eps_imag": [0.5, 0.1]})]:
        with pytest.raises(IngestionError, match=f"kind '{kind}'"):
            material_from_dict({"kind": kind, "parameters": params})


def test_save_and_load_material_file(tmp_path):
    path = tmp_path / "gold.json"
    save_material(Drude(1.37e16, 5.3e13, label="gold-like"), path)
    model = load_material(str(path))
    assert model.kind == "Drude"
    assert model.omega_p == 1.37e16


def test_absorption_csv_round_trip(tmp_path):
    w = np.geomspace(1e14, 1e16, 25)
    s = np.linspace(1.5, 0.05, 25)
    path = tmp_path / "sample.csv"
    lines = ["omega_rad_s,eps_imag"]
    lines += [f"{wi:.16e},{si:.16e}" for wi, si in zip(w, s)]
    path.write_text("\n".join(lines) + "\n")
    table = load_absorption_table(path)
    assert table.n_samples == 25
    assert np.allclose(table.omega, w)
    assert table.low_tail.model == "constant"   # defaults without sidecar
    assert table.high_tail.exponent == 3.0


def test_absorption_sidecar_configures_tails(tmp_path):
    path = tmp_path / "sample.csv"
    path.write_text("omega_rad_s,eps_imag\n1e14,0.5\n1e15,0.1\n")
    (tmp_path / "sample.json").write_text(json.dumps(
        {"low_tail": {"model": "linear"},
         "high_tail": {"model": "power", "exponent": 4.0}}))
    table = load_absorption_table(path)
    assert table.low_tail.model == "linear"
    assert table.high_tail.exponent == 4.0


def test_absorption_csv_validation(tmp_path):
    missing = tmp_path / "missing.csv"
    with pytest.raises(IngestionError, match="no such file"):
        load_absorption_table(missing)

    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("omega,eps2\n1e14,0.5\n1e15,0.1\n")
    with pytest.raises(IngestionError, match="header"):
        load_absorption_table(bad_header)

    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text("omega_rad_s,eps_imag\n1e14,0.5\nBANG\n")
    with pytest.raises(IngestionError, match="bad sample row"):
        load_absorption_table(bad_row)

    divergent = tmp_path / "divergent.csv"
    divergent.write_text("omega_rad_s,eps_imag\n1e14,0.5\n1e15,0.1\n")
    (tmp_path / "divergent.json").write_text(
        '{"high_tail": {"model": "power", "exponent": 0.5}}')
    with pytest.raises(IngestionError, match="divergent"):
        load_absorption_table(divergent)

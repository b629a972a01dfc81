"""Serialization of material models and ingestion of tabulated data.

Material model files are JSON documents {"kind", "label", "parameters"}.
Tabulated absorption data travels as CSV with the fixed header
``omega_rad_s,eps_imag`` plus an optional adjacent sidecar ``<stem>.json``
configuring the extrapolation tails.
"""

import csv
import hashlib
import json
from pathlib import Path

from .errors import CasimirError, IngestionError
from .materials import (ConstantEpsMu, DebyeMagnetic, Drude, InfinitelyPermeable,
                        LorentzOscillators, PerfectConductor, Plasma, Tabulated,
                        TabulatedAbsorption, tails_from_dict, vacuum)

ABSORPTION_HEADER = ["omega_rad_s", "eps_imag"]

#: names resolvable on the command line without a file
BUILTIN_MATERIALS = {
    "pc": PerfectConductor,
    "vacuum": vacuum,
    "permeable": InfinitelyPermeable,
}

# the model class of each model-file kind
_MODEL_CLASSES = {cls.__name__: cls for cls in (
    PerfectConductor, InfinitelyPermeable, ConstantEpsMu, Drude, Plasma,
    LorentzOscillators, DebyeMagnetic, Tabulated)}


def material_to_dict(model):
    """JSON-ready {kind, label, parameters} for any material model."""
    if model.kind not in _MODEL_CLASSES:
        raise IngestionError(f"cannot serialize material kind {model.kind!r}")
    return {"kind": model.kind, "label": model.label, "parameters": model.parameters}


def material_from_dict(doc):
    """Rebuild a material model from its JSON document."""
    try:
        kind = doc["kind"]
    except (TypeError, KeyError):
        raise IngestionError("material document needs a 'kind' field")
    cls = _MODEL_CLASSES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise IngestionError(f"unknown material kind {kind!r}")
    try:
        return cls.from_parameters(doc.get("parameters", {}), label=doc.get("label"))
    except KeyError as exc:
        raise IngestionError(f"material kind {kind!r} is missing parameter {exc}")
    except (AttributeError, TypeError, ValueError) as exc:
        # a value out of range raises the model's own error, which names it;
        # a value that is no number at all malforms the file
        if isinstance(exc, CasimirError) and not isinstance(exc, TypeError):
            raise
        raise IngestionError(f"material kind {kind!r} has malformed parameters: {exc}")


def load_material(spec):
    """Resolve a CLI material argument: builtin name or JSON file path."""
    if spec in BUILTIN_MATERIALS:
        return BUILTIN_MATERIALS[spec]()
    path = Path(spec)
    if not path.exists():
        raise IngestionError(
            f"material {spec!r} is neither a builtin "
            f"({', '.join(sorted(BUILTIN_MATERIALS))}) nor an existing file")
    try:
        doc = json.loads(path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IngestionError(f"{path}: not valid JSON ({exc})")
    return material_from_dict(doc)


def save_material(model, path):
    Path(path).write_text(json.dumps(material_to_dict(model), indent=2) + "\n")


def material_digest(model):
    """Stable sha256 over the canonical JSON form of the model."""
    canonical = json.dumps(material_to_dict(model), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_absorption_table(csv_path):
    """Read an absorption CSV plus its optional tail sidecar.

    The sidecar is ``<stem>.json`` next to the CSV, e.g. gold.csv is
    configured by gold.json; absent sidecar means default tails.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise IngestionError(f"no such file: {csv_path}")
    try:
        with open(csv_path, newline="") as fh:
            reader = csv.reader(fh.readlines())
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{csv_path}: not a text file ({exc})")
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{csv_path}: empty file")
    if [h.strip() for h in header] != ABSORPTION_HEADER:
        raise IngestionError(
            f"{csv_path}: header must be '{','.join(ABSORPTION_HEADER)}', "
            f"got {','.join(header)!r}")
    omega = []
    eps_imag = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        try:
            w, e = map(float, row)  # exactly two fields
        except ValueError:
            raise IngestionError(f"{csv_path}:{lineno}: bad sample row {row!r}")
        omega.append(w)
        eps_imag.append(e)
    low = None
    high = None
    sidecar = csv_path.with_suffix(".json")
    if sidecar.exists():
        try:
            low, high = tails_from_dict(json.loads(sidecar.read_text()))
        except json.JSONDecodeError as exc:
            raise IngestionError(f"{sidecar}: not valid JSON ({exc})")
        except (AttributeError, TypeError, ValueError) as exc:
            raise IngestionError(f"{sidecar}: bad tail configuration ({exc})")
    return TabulatedAbsorption(omega, eps_imag, low, high)

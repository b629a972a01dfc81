"""Command-line front end.

Every command emits machine-readable output (JSON documents or CSV with
fixed headers) together with a run manifest identifying the inputs, the
constants table and the tool version.  A material spec given for both
sides is loaded once and the two sides share the model.  Exit codes: 0
success, 2 bad usage or input, 3 quadrature non-convergence (best
estimate still printed).

Verdicts follow ``sign_analysis.verdict_for``: Indeterminate unless the
value clears max(10 x its error estimate, floor), with the floor in the
unit of the value.  It is 1e-12 Pa for pressures (``pressure``,
``sweep``), 1e-12 Pa x a in J/m^2 for energies at gap a (``energy``),
and 2 pi R x 1e-12 Pa x a in N for the proximity-rule force on a sphere
of radius R (``pfa``).
"""

import argparse
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .constants import CONSTANTS_VERSION
from .engine import (GapConfig, QuadratureConfig, energy_per_area, integrate_gaps,
                     pressure)
from .errors import CasimirError, ConvergenceError, DomainError
from .io import load_absorption_table, load_material, material_digest, material_to_dict
from .materials import Tabulated
from .pfa import SpherePlate, pfa_force
from .sign_analysis import (VERDICT_FLOOR_PA, boundary_points, sign_map,
                            uvl_map, verdict_for)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3


def _fmt(x):
    """Full-precision scientific notation (17 significant digits)."""
    return f"{x:.16e}"


def _manifest(command, parameters, materials, quad=None):
    """The run's record; with ``quad``, its rel_tol and max_subdivisions join
    ``parameters``, so that the run can be repeated from it."""
    if quad is not None:
        parameters = dict(parameters, rel_tol=quad.rel_tol,
                          max_subdivisions=quad.max_subdivisions)
    # one digest per distinct model: the sides of a spec given twice share it
    digests = {id(m): material_digest(m) for m in {id(m): m for m in materials}.values()}
    return {
        "command": command,
        "parameters": parameters,
        "materials": [{"label": m.label, "kind": m.kind,
                       "digest": digests[id(m)]} for m in materials],
        "constants_version": CONSTANTS_VERSION,
        "tool_version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _quad_config(args):
    kwargs = {}
    if getattr(args, "rel_tol", None) is not None:
        kwargs["rel_tol"] = args.rel_tol
    if getattr(args, "max_subdivisions", None) is not None:
        kwargs["max_subdivisions"] = args.max_subdivisions
    return QuadratureConfig(**kwargs)


def _emit_scalar_doc(args, result, units, floor, manifest, converged=True):
    doc = {
        "value": result.value,
        "error_estimate": result.error_estimate,
        "units": units,
        "dominant_xi_rad_s": result.dominant_xi,
        "verdict": verdict_for(result.value, result.error_estimate, floor)[0].value,
        "converged": converged,
        "manifest": manifest,
    }
    if args.csv:
        print("value,error_estimate,units,dominant_xi_rad_s,verdict,converged")
        dom = "" if result.dominant_xi is None else _fmt(result.dominant_xi)
        print(f"{_fmt(result.value)},{_fmt(result.error_estimate)},{units},"
              f"{dom},{doc['verdict']},{str(converged).lower()}")
        print(json.dumps(manifest), file=sys.stderr)
    else:
        print(json.dumps(doc, indent=2))


def _load_materials(*specs):
    """One model per distinct spec: a spec given twice is loaded once and
    both sides share the model, so a table is transformed once per round."""
    loaded = {}
    for spec in specs:
        if spec not in loaded:
            loaded[spec] = load_material(spec)
    return [loaded[spec] for spec in specs]


def _cmd_point(args):
    m1, m2 = _load_materials(args.material1, args.material2)
    cfg = GapConfig(args.gap, m1, m2)
    quad = _quad_config(args)
    manifest = _manifest(args.command, {"gap_m": args.gap}, [m1, m2], quad)
    if args.command == "energy":
        compute, units, floor = energy_per_area, "J/m^2", VERDICT_FLOOR_PA * args.gap
    else:
        compute, units, floor = pressure, "Pa", VERDICT_FLOOR_PA
    try:
        result = compute(cfg, quad)
    except ConvergenceError as exc:
        _emit_scalar_doc(args, exc.best, units, floor, manifest, converged=False)
        print(f"warning: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    _emit_scalar_doc(args, result, units, floor, manifest)
    return EXIT_OK


def _cmd_sweep(args):
    if not (0.0 < args.gap_min < np.inf and 0.0 < args.gap_max < np.inf):
        raise DomainError("--gap-min and --gap-max must be finite and positive")
    if args.points < 1:
        raise DomainError("--points must be at least 1")
    m1, m2 = _load_materials(args.material1, args.material2)
    quad = _quad_config(args)
    gaps = np.geomspace(args.gap_min, args.gap_max, args.points)
    manifest = _manifest("sweep", {"gap_min_m": args.gap_min,
                                   "gap_max_m": args.gap_max,
                                   "points": args.points}, [m1, m2], quad)

    results = integrate_gaps([(GapConfig(float(a), m1, m2), kind) for a in gaps
                              for kind in ("energy", "pressure")], quad)
    print("a_m,energy_J_m2,pressure_Pa,error,verdict")
    for a, e, p in zip(gaps, results[::2], results[1::2]):
        verdict = verdict_for(p.value, p.error_estimate)[0].value
        print(f"{_fmt(a)},{_fmt(e.value)},{_fmt(p.value)},"
              f"{_fmt(p.error_estimate)},{verdict}")
    print(json.dumps(manifest), file=sys.stderr)
    return EXIT_OK


def _emit_map(args, table, axes, quad, manifest):
    """Refine ``table``'s sign boundaries along ``axes``, then write its CSV
    to stdout and its JSON summary to --summary (stderr without it).

    A bisection that does not converge stops the refinement: the rows and
    the boundaries of the axes done so far are still written, with a
    warning, and the exit code is 3.
    """
    code, warning = EXIT_OK, None
    if args.refine_boundaries:
        try:
            for axis in axes:
                table.boundaries.extend(boundary_points(table, axis, quad=quad))
        except ConvergenceError as exc:
            code, warning = EXIT_NO_CONVERGENCE, exc
    sys.stdout.write(table.to_csv())
    text = json.dumps(dict(table.summary(), manifest=manifest), indent=2)
    if args.summary:
        with open(args.summary, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text, file=sys.stderr)
    if warning is not None:
        print(f"warning: {warning}", file=sys.stderr)
    return code


def _cmd_signmap(args):
    quad = _quad_config(args)
    manifest = _manifest("signmap", {"eps1": args.eps1, "mu1": args.mu1,
                                     "eps2": args.eps2, "mu2": args.mu2,
                                     "gap_m": args.gap}, [], quad)
    table = sign_map(args.eps1, args.mu1, args.eps2, args.mu2, args.gap,
                     quad=quad, threshold=args.threshold)
    return _emit_map(args, table, ("eps1", "mu1", "eps2", "mu2"), quad, manifest)


def _cmd_uvlmap(args):
    quad = _quad_config(args)
    manifest = _manifest("uvlmap", {"mu1": args.mu1, "mu2": args.mu2,
                                    "gap_m": args.gap, "mode": args.mode,
                                    "eps_mu_product": args.product}, [], quad)
    table = uvl_map(args.mu1, args.mu2, args.gap, quad=quad,
                    threshold=args.threshold, mode=args.mode,
                    eps_mu_product=args.product)
    return _emit_map(args, table, ("mu1", "mu2"), quad, manifest)


def _cmd_kk(args):
    table = load_absorption_table(args.table)
    label = args.label or f"tabulated from {os.path.basename(args.table)}"
    model = Tabulated(table, label=label)
    doc = material_to_dict(model)
    doc["manifest"] = _manifest("kk", {"table": args.table}, [model])
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _cmd_pfa(args):
    sphere, plate = _load_materials(args.sphere, args.plate)
    quad = _quad_config(args)
    geom = SpherePlate(args.radius, args.gap)
    manifest = _manifest("pfa", {"radius_m": args.radius, "gap_m": args.gap},
                         [sphere, plate], quad)
    result = pfa_force(geom, sphere, plate, quad)
    scale = 2 * np.pi * args.radius  # force per energy per area, as in pfa_force
    doc = {
        "force_N": result.force,
        "aspect_a_over_R": result.aspect,
        "warning": result.warning,
        "energy_J_m2": result.energy.value,
        "energy_error_J_m2": result.energy.error_estimate,
        "verdict": verdict_for(result.force, scale * result.energy.error_estimate,
                               scale * VERDICT_FLOOR_PA * args.gap)[0].value,
        "manifest": manifest,
    }
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="casimir",
        description="Casimir energy, pressure and force-sign analysis "
                    "between material half-spaces across a vacuum gap.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quad_flags(p):
        p.add_argument("--rel-tol", type=float, default=None, dest="rel_tol",
                       help="relative quadrature tolerance (default 1e-8)")
        p.add_argument("--max-subdivisions", type=int, default=None,
                       dest="max_subdivisions",
                       help="outer adaptive panel-split budget")

    def add_materials(p):
        p.add_argument("--material1", required=True,
                       help="JSON model file or builtin: pc, vacuum, permeable")
        p.add_argument("--material2", required=True)

    def add_map_flags(p):
        p.add_argument("--gap", type=float, default=1e-6)
        p.add_argument("--threshold", type=float, default=None)
        p.add_argument("--summary", default=None, help="write JSON summary to this file")
        p.add_argument("--no-refine-boundaries", dest="refine_boundaries",
                       action="store_false", default=True)
        add_quad_flags(p)

    for name, help_text in (("energy", "Casimir energy per unit area (J/m^2)"),
                            ("pressure", "Casimir pressure (Pa)")):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=_cmd_point)
        add_materials(p)
        p.add_argument("--gap", type=float, required=True, help="separation in m")
        add_quad_flags(p)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", default=True,
                         help="JSON document on stdout (default)")
        fmt.add_argument("--csv", action="store_true", default=False,
                         help="CSV on stdout, manifest on stderr")

    p = sub.add_parser("sweep", help="energy/pressure over a separation range (CSV)")
    p.set_defaults(run=_cmd_sweep)
    add_materials(p)
    p.add_argument("--gap-min", type=float, default=1e-7)
    p.add_argument("--gap-max", type=float, default=5e-6)
    p.add_argument("--points", type=int, default=40)
    add_quad_flags(p)

    p = sub.add_parser("signmap",
                       help="force sign over a constant-(eps, mu) grid "
                            "(flagged non-dispersive mode)")
    p.set_defaults(run=_cmd_signmap)
    for name in ("--eps1", "--mu1", "--eps2", "--mu2"):
        p.add_argument(name, type=float, nargs="+", default=[1.0, 10.0, 100.0, 1000.0])
    add_map_flags(p)

    p = sub.add_parser("uvlmap", help="force sign on uniform-light-speed slices")
    p.set_defaults(run=_cmd_uvlmap)
    p.add_argument("--mu1", type=float, nargs="+", default=[0.5, 0.8, 1.25, 2.0])
    p.add_argument("--mu2", type=float, nargs="+", default=[0.5, 0.8, 1.25, 2.0])
    p.add_argument("--mode", choices=["vacuum-matched", "equal-eps-mu"],
                   default="vacuum-matched")
    p.add_argument("--product", type=float, default=1.0,
                   help="shared eps*mu product (vacuum-matched mode)")
    add_map_flags(p)

    p = sub.add_parser("kk", help="absorption CSV -> material model JSON")
    p.set_defaults(run=_cmd_kk)
    p.add_argument("--table", required=True,
                   help="CSV with header omega_rad_s,eps_imag; tail config in "
                        "the adjacent <stem>.json sidecar")
    p.add_argument("--label", default=None)

    p = sub.add_parser("pfa", help="sphere-plate force via the proximity rule")
    p.set_defaults(run=_cmd_pfa)
    p.add_argument("--radius", type=float, required=True, help="sphere radius, m")
    p.add_argument("--gap", type=float, required=True, help="closest approach, m")
    p.add_argument("--sphere", required=True, help="sphere material (file or builtin)")
    p.add_argument("--plate", required=True, help="plate material (file or builtin)")
    add_quad_flags(p)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ConvergenceError as exc:
        # commands that did not handle it themselves have no partial output
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except CasimirError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

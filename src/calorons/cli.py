"""Batch front-end: construct specs, run verification suites, sweep epsilon,
evaluate index formulas, and emit report/plot data.

Exit codes: 0 all checks pass, 1 a check failed, 2 malformed input or a
group whose fields are not evaluated (any but SU(n)).
Output files are byte-identical across reruns with the same seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .assembler import CaloronSpec, approximate_caloron
from .errors import (
    CaloronError,
    GluingInfeasibleError,
    HolonomyParameterError,
    InputError,
    InvalidGroupError,
    UnsupportedRepresentationError,
)
from .fieldcalc import _flux_radius, magnetic_charge
from .indexes import moduli_dimension, transverse_index
from .rootsys import all_simple_types, build_root_datum, parse_group_label, random_interior_omega
from .verify import energy_formula_float, field_integrals, run_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2


def _load_spec(path) -> CaloronSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read spec file {path}: {exc}") from exc
    return CaloronSpec.from_json(text)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_roots(args):
    series, rank = parse_group_label(args.type)
    datum = build_root_datum(series, rank)
    _emit(datum.to_json() + "\n", args.out)
    return EXIT_OK


def cmd_construct(args):
    spec = _load_spec(args.spec)
    samp = approximate_caloron(spec)
    n = spec.counts()
    payload = {
        "group": f"{spec.series}{spec.rank}",
        "epsilon": spec.epsilon,
        "gluing_radius": samp.R,
        "d_min": None if math.isinf(spec.d_min) else spec.d_min,
        "d_max": spec.d_max,
        "constituent_counts": list(n),
        "charge_coefficients": list(spec.charge_coefficients()),
        "moduli_dimension": moduli_dimension(n),
        "energy_formula": energy_formula_float(spec),
        "local_holonomy_parameters": [[float(v) for v in om] for om in samp.omega_shifts],
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args):
    spec = _load_spec(args.spec)
    report, checks = run_verification(spec, grid=args.grid, seed=args.seed)
    for c in checks:
        print(c.line())
    if args.out:
        _emit(report.to_json() + "\n", args.out)
    ok = all(c.passed for c in checks)
    print(f"verify: {'all checks passed' if ok else 'CHECK FAILURES'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _parse_epsilons(text):
    try:
        eps = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"bad --epsilons list {text!r}") from exc
    if len(eps) < 3:
        raise InputError("sweep needs at least 3 epsilon values")
    if not all(e > 0 for e in eps):  # also NaN
        raise InputError(f"sweep epsilons must be positive, got {text!r}")
    if max(eps) / min(eps) < 3.9:
        raise InputError("sweep epsilons should span at least a factor of 4")
    return sorted(eps, reverse=True)


SWEEP_COLUMNS = ("epsilon", "R", "sd_error_l2_sq", "energy", "energy_formula", "charge_residual")


def cmd_sweep(args):
    template = _load_spec(args.spec)
    epsilons = _parse_epsilons(args.epsilons)
    rows = []
    for eps in epsilons:
        spec = dataclasses.replace(template, epsilon=eps)
        samp = approximate_caloron(spec)
        err, energy, _, _ = field_integrals(samp, args.grid)
        try:
            _, resid = magnetic_charge(samp, _flux_radius(spec.d_max, samp.R))
        except CaloronError:
            resid = float("nan")
        values = (eps, samp.R, err.total_sq, energy.value, energy_formula_float(spec), resid)
        rows.append(dict(zip(SWEEP_COLUMNS, values)))

    lines = [",".join(SWEEP_COLUMNS)] + [",".join("%.17g" % row[k] for k in SWEEP_COLUMNS) for row in rows]
    _emit("\n".join(lines) + "\n", args.out)

    xs = [math.log(r["epsilon"]) for r in rows]
    ys = [
        math.log(r["sd_error_l2_sq"] / abs(math.log(r["epsilon"])) ** 3) for r in rows
    ]
    slope = float(np.polyfit(xs, ys, 1)[0])
    print(
        json.dumps(
            {"fitted_slope_log_corrected": slope, "n_points": len(rows)},
            sort_keys=True,
        )
    )
    return EXIT_OK


def _parse_rational_vector(text):
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational vector {text!r}") from exc


def cmd_index(args):
    if args.sweep_all:
        import random

        rng = random.Random(args.seed)
        types = [parse_group_label(args.type)] if args.type else all_simple_types()
        lines = ["series,rank,mu,chern,boundary,total"]
        for series, rank in types:
            datum = build_root_datum(series, rank)
            for mu in range(rank + 1):
                omega = random_interior_omega(datum, rng)
                rep = transverse_index(datum, mu, omega)
                lines.append(
                    f"{series},{rank},{mu},{rep.chern_term},{rep.boundary_term},{rep.total_index}"
                )
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    if not args.type:
        raise InputError("index needs --type (or --sweep-all)")
    series, rank = parse_group_label(args.type)
    datum = build_root_datum(series, rank)
    omega = (
        _parse_rational_vector(args.omega)
        if args.omega
        else datum.alcove_barycenter()
    )
    if args.mu is None:
        raise InputError("index needs --mu (or --sweep-all)")
    rep = transverse_index(datum, args.mu, omega)
    _emit(json.dumps(rep.to_dict(), indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(
        prog="caloron",
        description="Construct and verify approximate calorons built from constituent monopoles.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("roots", help="emit the root datum of a simple type as JSON")
    pr.add_argument("--type", required=True, help='group label, e.g. "A2" or "G2"')
    pr.add_argument("--out", default=None)
    pr.set_defaults(func=cmd_roots)

    pc = sub.add_parser("construct", help="build a spec and report its derived data")
    pc.add_argument("--spec", required=True)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_construct)

    pv = sub.add_parser("verify", help="run the full invariant suite for a spec")
    pv.add_argument("--spec", required=True)
    pv.add_argument("--out", default=None, help="write the FieldReport JSON here")
    pv.add_argument("--grid", choices=("desk", "fine"), default="desk")
    pv.add_argument("--seed", type=int, default=0)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="epsilon sweep of the self-dual error scaling")
    ps.add_argument("--spec", required=True)
    ps.add_argument("--epsilons", required=True, help="comma list, e.g. 0.1,0.05,0.025")
    ps.add_argument("--out", default=None)
    ps.add_argument("--grid", choices=("desk", "fine"), default="desk")
    ps.set_defaults(func=cmd_sweep)

    pi = sub.add_parser("index", help="closed-form index reports")
    pi.add_argument("--type", default=None)
    pi.add_argument("--mu", type=int, default=None)
    pi.add_argument("--omega", default=None, help='rational coordinates, e.g. "1/4,0,-1/4"')
    pi.add_argument("--sweep-all", action="store_true", dest="sweep_all")
    pi.add_argument("--seed", type=int, default=0)
    pi.add_argument("--out", default=None)
    pi.set_defaults(func=cmd_index)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, InvalidGroupError, HolonomyParameterError, GluingInfeasibleError,
            UnsupportedRepresentationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CaloronError as exc:
        print(f"check error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

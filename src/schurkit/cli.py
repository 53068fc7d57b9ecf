"""Batch front end.

Subcommands: solve | negsq | rigidity | factor | demo. Problem and function
files are JSON; complex numbers are [re, im] pairs and polynomials are
ascending coefficient arrays of such pairs. Reports are deterministic for a
fixed input, seed, and tolerance set. Exit codes: 0 verified, 1 verification
failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import interpolation as interp
from . import rigidity as rig
from .errors import NotGeneralizedSchur, SchurkitError
# inertia is not called here but stays bound: bench/tracing.py wraps cli.inertia.
from .kernels import SamplePlan, estimate_negative_squares, inertia  # noqa: F401
from .rational import Poly, RationalFn, krein_langer_factor
from .tolerances import CIRCLE_TOL, ORDER_TOL, ROOT_TOL

__all__ = ["main"]


# ----------------------------------------------------------------------
# serialization


def _pair(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _pairs(coeffs):
    return [_pair(c) for c in np.asarray(coeffs, dtype=complex)]


def _fn_obj(f):
    return {"num": _pairs(f.num.coeffs), "den": _pairs(f.den.coeffs)}


def _matrix_obj(m):
    return [[_pair(v) for v in row] for row in np.asarray(m, dtype=complex)]


def _from_pair(v, what):
    if (
        not isinstance(v, (list, tuple))
        or len(v) != 2
        or not all(type(x) in (int, float) and abs(x) <= sys.float_info.max for x in v)
    ):
        raise ValueError(f"{what} must be a [re, im] pair of finite numbers")
    return complex(v[0], v[1])


def _from_pairs(v, what):
    if not isinstance(v, list) or not v:
        raise ValueError(f"{what} must be a non-empty array of [re, im] pairs")
    return [_from_pair(x, what) for x in v]


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def parse_function(obj, what="function"):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object with num/den arrays")
    num = _from_pairs(obj.get("num"), f"{what}.num")
    den = _from_pairs(obj.get("den", [[1.0, 0.0]]), f"{what}.den")
    return RationalFn(Poly(num), Poly(den))


def parse_problem(obj):
    if not isinstance(obj, dict):
        raise ValueError("problem file must be a JSON object")
    for key in ("z1", "k", "tau0", "tau"):
        if key not in obj:
            raise ValueError(f"problem file missing required key '{key}'")
    if type(obj["k"]) is not int:
        raise ValueError("k must be an integer")
    if not isinstance(obj["tau"], list):
        raise ValueError("tau must be an array of [re, im] pairs")
    data = interp.InterpData(
        z1=_from_pair(obj["z1"], "z1"),
        k=obj["k"],
        tau0=_from_pair(obj["tau0"], "tau0"),
        tau=tuple(_from_pair(t, "tau entry") for t in obj["tau"]),
        z0=_from_pair(obj["z0"], "z0") if "z0" in obj else None,
    )
    parameter = None
    if "parameter" in obj and obj["parameter"] is not None:
        parameter = parse_function(obj["parameter"], "parameter")
    return data, parameter


# ----------------------------------------------------------------------
# reports


def _emit(report, args):
    if args.output == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        _emit_text(report, indent=0)


def _emit_text(obj, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        for key in sorted(obj):
            val = obj[key]
            if isinstance(val, (dict, list)):
                sys.stdout.write(f"{pad}{key}:\n")
                _emit_text(val, indent + 1)
            else:
                sys.stdout.write(f"{pad}{key}: {val}\n")
    elif isinstance(obj, list):
        for val in obj:
            if isinstance(val, (dict, list)):
                _emit_text(val, indent + 1)
            else:
                sys.stdout.write(f"{pad}- {val}\n")
    else:
        sys.stdout.write(f"{pad}{obj}\n")


def _tolerances(args):
    return {
        "tol_root": ROOT_TOL,
        "tol_circle": args.tol_circle,
        "tol_order": args.tol_order,
        "radius": args.radius,
        "samples": args.samples,
    }


def _plan(args):
    return SamplePlan(max_points=args.samples, radius=args.radius, seed=args.seed)


# ----------------------------------------------------------------------
# subcommands


def cmd_solve(args):
    data, parameter = parse_problem(_load_json(args.problem))
    if parameter is None:
        raise ValueError("problem file has no 'parameter' entry")
    cm = interp.coeff_matrix(data)
    solution = interp.solve(data, parameter, theta=cm, verify=False)
    expansion = interp.verify_expansion(solution, data, order_tol=args.tol_order)
    plan = _plan(args)
    pick_inertia = cm._pick_inertia
    predicted = estimate_negative_squares(parameter, plan) + pick_inertia.n_neg
    observed = estimate_negative_squares(solution, plan)
    status = "pass" if expansion.passed and predicted == observed else "fail"
    report = {
        "status": status,
        "P": _matrix_obj(cm.pick),
        "P_inertia": {
            "n_pos": pick_inertia.n_pos,
            "n_neg": pick_inertia.n_neg,
            "n_zero": pick_inertia.n_zero,
        },
        "p": _pairs(cm.poly.coeffs),
        "theta": {
            "a": _fn_obj(cm.mat.a),
            "b": _fn_obj(cm.mat.b),
            "c": _fn_obj(cm.mat.c),
            "d": _fn_obj(cm.mat.d),
        },
        "solution": _fn_obj(solution),
        "expansion": {
            "passed": expansion.passed,
            "residuals": [float(r) for r in expansion.residuals],
            "tolerance": expansion.tolerance,
        },
        "negative_squares": {"predicted": predicted, "observed": observed},
        "tolerances": _tolerances(args),
        "seed": args.seed,
    }
    _emit(report, args)
    return 0 if status == "pass" else 1


def cmd_negsq(args):
    fn = parse_function(_load_json(args.function))
    refused = {}
    try:
        estimated = estimate_negative_squares(fn, _plan(args))
    except NotGeneralizedSchur as exc:  # |s| > 1 on the circle: no finite count
        estimated, refused = None, {"estimate_error": str(exc)}
    try:
        s0, b = krein_langer_factor(fn, circle_tol=args.tol_circle)
        cross = {"blaschke_order": b.order, "agrees": b.order == estimated}
        status = "pass" if b.order == estimated else "fail"
    except NotGeneralizedSchur as exc:
        cross = {"blaschke_order": None, "agrees": False, "error": str(exc)}
        status = "fail"
    report = {
        "status": status,
        "estimated_negative_squares": estimated,
        **refused,
        "krein_langer": cross,
        "tolerances": _tolerances(args),
        "seed": args.seed,
    }
    _emit(report, args)
    return 0 if status == "pass" else 1


def cmd_rigidity(args):
    data, _ = parse_problem(_load_json(args.problem))
    candidate = parse_function(_load_json(args.candidate), "candidate")
    x = complex(args.contact[0], args.contact[1])
    verdict = rig.rigidity_check(data, x, candidate)
    equivalences = None
    if (
        data.k == 1
        and abs(data.z1 - 1.0) < 1e-12
        and abs(data.tau0 - 1.0) < 1e-12
        and abs(data.tau[0].imag) < 1e-12
        and 0.0 < data.tau[0].real < 1.0
    ):
        try:
            rep = rig.affine_equivalences(candidate, data.tau[0].real)
            equivalences = {
                "identity": rep.identity,
                "parameter_const": rep.parameter_const,
                "parameter_bound": rep.parameter_bound,
                "lft_bound": rep.lft_bound,
                "horocycle": rep.horocycle,
                "consistent": rep.consistent,
                "witness": _pair(rep.witness) if rep.witness is not None else None,
            }
        except rig.HypothesisNotMet:
            equivalences = None
    observed = verdict.observed_order
    report = {
        "status": "pass",
        "required_order": verdict.required_order,
        "observed_order": "inf" if observed == rig.INF else observed,
        "forced_identity": verdict.forced_identity,
        "residual_report": verdict.residual_report,
        "equivalences": equivalences,
        "tolerances": _tolerances(args),
        "seed": args.seed,
    }
    _emit(report, args)
    return 0


def cmd_factor(args):
    fn = parse_function(_load_json(args.function))
    try:
        s0, b = krein_langer_factor(fn, circle_tol=args.tol_circle)
    except NotGeneralizedSchur as exc:
        _emit({"status": "fail", "error": str(exc)}, args)
        return 1
    report = {
        "status": "pass",
        "analytic_part": _fn_obj(s0),
        "blaschke": {
            "zeros": _pairs(b.zeros),
            "const": _pair(b.const),
            "order": b.order,
        },
        "tolerances": _tolerances(args),
        "seed": args.seed,
    }
    _emit(report, args)
    return 0


# ----------------------------------------------------------------------
# demos


def _row(name, ok, detail=""):
    return {"check": name, "passed": bool(ok), "detail": detail}


def _fixed_derivative(alpha, pick_label, poly_label):
    """Datum tau = (alpha,) at z1 = 1, its coefficient matrix, and the rows
    checking the closed forms: Pick matrix alpha, polynomial 1/(2 alpha) and
    entries over 2 alpha (1 - z)."""
    data = interp.InterpData(z1=1.0, k=1, tau0=1.0, tau=(alpha,), z0=-1.0)
    cm = interp.coeff_matrix(data)
    den = Poly([2 * alpha, -2 * alpha])
    golden = (
        RationalFn(Poly([2 * alpha - 1, -(2 * alpha + 1)]), den),
        RationalFn(Poly([1, 1]), den),
        RationalFn(Poly([-1, -1]), den),
        RationalFn(Poly([2 * alpha + 1, -(2 * alpha - 1)]), den),
    )
    ok = all(e.allclose(g, 1e-12) for e, g in zip(cm.mat.entries(), golden))
    rows = [
        _row(pick_label, abs(cm.pick[0, 0] - alpha) <= 1e-12),
        _row(poly_label, cm.poly.allclose(Poly([0.5 / alpha]), 1e-12)),
        _row("coefficient matrix matches closed form", ok),
    ]
    return data, cm, rows


def _demo_burns_krantz(args):
    data, cm, rows = _fixed_derivative(1.0, "pick matrix is 1", "polynomial is 1/2")
    s = interp.solve(data, -1.0, theta=cm)
    rows.append(_row("parameter -1 solves to z", s.allclose(RationalFn.x(), 1e-12)))
    v = rig.rigidity_check(data, -1.0, RationalFn.x())
    rows.append(_row("candidate z is forced", v.forced_identity))
    s_alt = interp.solve(data, RationalFn([0, -1], [1]), theta=cm)
    v2 = rig.rigidity_check(data, -1.0, s_alt)
    rows.append(
        _row(
            "parameter -z gives order 3, not forced",
            v2.observed_order == 3 and not v2.forced_identity,
        )
    )
    pred, obs = interp.solution_negative_squares(data, -1.0, _plan(args))
    rows.append(_row("negative squares (0, 0)", (pred, obs) == (0, 0)))
    return rows


def _demo_inverse(args):
    data, cm, rows = _fixed_derivative(-1.0, "pick matrix is -1", "polynomial is -1/2")
    recip = RationalFn([1], [0, 1])
    s = interp.solve(data, -1.0, theta=cm)
    rows.append(_row("parameter -1 solves to 1/z", s.allclose(recip, 1e-12)))
    pred, obs = interp.solution_negative_squares(data, -1.0, _plan(args))
    rows.append(_row("negative squares (1, 1)", (pred, obs) == (1, 1)))
    v = rig.rigidity_check(data, -1.0, recip)
    rows.append(_row("candidate 1/z is forced", v.forced_identity))
    s0, b = krein_langer_factor(recip)
    rows.append(_row("factorization has one Blaschke zero", b.order == 1))
    return rows


def _demo_alpha(args):
    alpha = args.alpha
    if not 0.0 < alpha < 1.0:
        raise ValueError("--alpha must lie in (0, 1)")
    data, cm, rows = _fixed_derivative(alpha, "pick matrix is alpha", "polynomial is 1/(2 alpha)")
    affine = RationalFn(Poly([1 - alpha, alpha]), Poly.one())
    s = interp.solve(data, 1 - 2 * alpha, theta=cm)
    rows.append(
        _row("parameter 1-2a solves to the affine map", s.allclose(affine, 1e-12))
    )
    beta = 1.0 / 20.0
    q = None
    for _ in range(30):
        try:
            q = rig.quartic_perturbation(alpha, beta)
            break
        except rig.NotSchur:
            beta *= 0.5
    rows.append(_row("quartic perturbation is Schur", q is not None, f"beta={beta:g}"))
    if q is not None:
        dev = (q - affine).vanishing_order(1.0)
        rows.append(_row("perturbation matches to exactly order 4", dev == 4))
        rep = rig.affine_equivalences(q, alpha)
        rows.append(
            _row(
                "equivalence report all false and consistent",
                rep.consistent and not rep.identity and not rep.horocycle,
            )
        )
        rows.append(_row("horocycle violation witness found", rep.witness is not None))
        if abs(alpha - 0.5) < 1e-12 and abs(beta - 1.0 / 20.0) < 1e-15:
            expected = RationalFn(Poly([2, -4, 2]), Poly([11, -1, -1, 1]))
            rows.append(
                _row(
                    "recovered parameter matches closed form",
                    rep.parameter.allclose(expected, 1e-9),
                )
            )
    rep_affine = rig.affine_equivalences(affine, alpha)
    rows.append(
        _row(
            "affine map passes all equivalent conditions",
            rep_affine.consistent and rep_affine.identity and rep_affine.horocycle,
        )
    )
    return rows


_DEMOS = {
    "burns-krantz": _demo_burns_krantz,
    "inverse": _demo_inverse,
    "alpha": _demo_alpha,
}


def cmd_demo(args):
    rows = _DEMOS[args.name](args)
    passed = all(r["passed"] for r in rows)
    report = {
        "status": "pass" if passed else "fail",
        "demo": args.name,
        "checks": rows,
        "tolerances": _tolerances(args),
        "seed": args.seed,
    }
    if args.output == "json":
        _emit(report, args)
    else:
        width = max(len(r["check"]) for r in rows)
        for r in rows:
            mark = "PASS" if r["passed"] else "FAIL"
            extra = f"  {r['detail']}" if r["detail"] else ""
            sys.stdout.write(f"{r['check']:<{width}}  {mark}{extra}\n")
        sys.stdout.write(f"demo {args.name}: {report['status']}\n")
    return 0 if passed else 1


# ----------------------------------------------------------------------
# entry point


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="schurkit",
        description="Boundary interpolation, negative squares, and rigidity checks",
    )
    parser.add_argument(
        "--tol-circle", type=float, default=CIRCLE_TOL,
        help="circle tolerance of krein_langer_factor; the negative-squares count's "
        "circle test uses CIRCLE_TOL",
    )
    parser.add_argument("--tol-order", type=float, default=ORDER_TOL)
    unread = "; no count reads it, the reports echo it"
    parser.add_argument("--samples", type=int, default=256, help="sample plan size" + unread)
    parser.add_argument("--seed", type=int, default=74010, help="sample plan seed" + unread)
    parser.add_argument("--radius", type=float, default=0.9, help="sample plan radius" + unread)
    parser.add_argument("--output", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a problem file with its parameter")
    p.add_argument("problem")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("negsq", help="count negative squares of a function file")
    p.add_argument("function")
    p.set_defaults(func=cmd_negsq)

    p = sub.add_parser("rigidity", help="rigidity verdict for a candidate solution")
    p.add_argument("problem")
    p.add_argument("--contact", type=float, nargs=2, required=True, metavar=("RE", "IM"))
    p.add_argument("--candidate", required=True)
    p.set_defaults(func=cmd_rigidity)

    p = sub.add_parser("factor", help="Blaschke factorization of a function file")
    p.add_argument("function")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("demo", help="run a built-in worked example end to end")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.add_argument("--alpha", type=float, default=0.5)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, value in (("--tol-circle", args.tol_circle), ("--tol-order", args.tol_order)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{flag} must be a finite positive number, got {value}")
        return args.func(args)
    except (SchurkitError, ValueError) as exc:
        error = {"status": "error", "error": str(exc), "type": type(exc).__name__}
        sys.stdout.write(json.dumps(error, sort_keys=True, indent=2) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

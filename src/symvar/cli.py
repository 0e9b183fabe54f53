"""Batch command-line front-end.

Subcommands: convolve, symmetry, certify, optimize, simulate. Output is JSON
(or CSV where noted); errors are JSON objects with "error" and "hint" keys.
Exit codes: 0 success, 1 validation error, 2 critical case p = 1/2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import matrixlab
from .certificate import verify_inequality_exact, verify_inequality_grid
from .cumulants import IndependenceKind, convolve_moments, odd_moment_residual
from .errors import CriticalCaseError, SymvarError
from .measures import DiscreteMeasure, _num_str, bernoulli, moments_of
from .optimizer import GridSpec, SearchConfig, classical_min_variance, nc_min_variance


def _parse_rational(text):
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise SymvarError(f"cannot parse rational {text!r}") from None
    if abs(x) > sys.float_info.max:  # every command also uses p as a float
        raise SymvarError(f"{text!r} is beyond the float range")
    return x


def _parse_floats(text, sep, what):
    try:
        return tuple(float(x) for x in text.split(sep))
    except ValueError:
        raise SymvarError(f"{what} must be numbers separated by {sep!r}, got {text!r}") from None


def _parse_grid(text):
    parts = _parse_floats(text, ":", "grid")
    if len(parts) != 3:
        raise SymvarError(f"grid must be lo:hi:step, got {text!r}")
    return parts


def _parse_dims(text):
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise SymvarError(f"dims must be comma-separated integers, got {text!r}") from None


def _load_measure(text):
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return DiscreteMeasure.from_json(text)


def _emit(args, text):
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _cmd_convolve(args):
    mx = _load_measure(args.x)
    my = _load_measure(args.y)
    kind = IndependenceKind.parse(args.kind)
    ms = convolve_moments(moments_of(mx, args.order), moments_of(my, args.order), kind)
    vals = [
        _num_str(v) if mx.mode == "exact" and my.mode == "exact" else float(v)
        for v in ms.values
    ]
    _emit(args, json.dumps({"kind": kind.value, "order": args.order, "moments": vals}))
    return 0


def _cmd_symmetry(args):
    p = _parse_rational(args.p)
    mu = _load_measure(args.measure)
    kind = IndependenceKind.parse(args.kind)
    e = bernoulli(float(p) if mu.mode == "float" else p)
    ms = convolve_moments(moments_of(e, args.order), moments_of(mu, args.order), kind)
    res = odd_moment_residual(ms)
    try:
        residual = float(res)
    except OverflowError:  # an exact residual beyond the float range
        residual = None
    out = {"kind": kind.value, "order": args.order, "residual": residual}
    if mu.mode == "exact":
        out.update({"residual_exact": _num_str(res)})
    _emit(args, json.dumps(out))
    return 0


def _cmd_certify(args):
    p = _parse_rational(args.p)
    if args.mode == "exact":
        report = verify_inequality_exact(p)
    else:
        grid = GridSpec(*_parse_grid(args.grid), must_include=()).points()
        report = verify_inequality_grid(float(p), grid)
    obj = json.loads(report.to_json())
    obj["p_exact"] = f"{p.numerator}/{p.denominator}"
    _emit(args, json.dumps(obj))
    return 0


def _cmd_optimize(args):
    p = _parse_rational(args.p)
    kind = IndependenceKind.parse(args.kind)
    if kind is IndependenceKind.CLASSICAL:
        include = _parse_floats(args.include, ",", "include")
        grid = GridSpec(*_parse_grid(args.grid), include)
        if args.relax_order is not None:
            result = classical_min_variance(
                p, grid, mode="moment_relax", relax_order=args.relax_order
            )
        else:
            result = classical_min_variance(p, grid, mode="exact_law")
    else:
        if args.seed is None:
            raise SymvarError("--seed is required for randomized searches")
        cfg = SearchConfig(
            restarts=args.restarts,
            atom_budget=args.atoms,
            seed=args.seed,
        )
        result = nc_min_variance(float(p), kind, cfg, allow_critical=args.allow_critical)
    _emit(args, result.to_json())
    return 0


def _cmd_simulate(args):
    p = _parse_rational(args.p)
    if args.seed is None:
        raise SymvarError("--seed is required for randomized simulations")
    y_law = (
        _load_measure(args.measure)
        if args.measure
        else DiscreteMeasure.from_atoms(
            [(-1.0, float(p)), (0.0, 1.0 - float(p))], mode="float"
        )
    )
    if args.experiment == "moments":
        model = matrixlab.MatrixModel(n=args.n, p=float(p), y_law=y_law, seed=args.seed)
        report = matrixlab.empirical_vs_predicted(model, args.order, args.reps)
        if args.output == "csv":
            _emit(args, matrixlab.moments_csv(report))
        else:
            _emit(args, matrixlab.report_json(report))
    else:  # proof-identity
        rows = matrixlab.proof_identity_report(
            float(p), y_law, _parse_dims(args.dims), args.reps, args.seed
        )
        if args.output == "csv":
            import csv as _csv
            import io

            buf = io.StringIO()
            w = _csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            w.writeheader()
            w.writerows(rows)
            _emit(args, buf.getvalue())
        else:
            _emit(args, json.dumps(rows))
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose refusals are SymvarErrors, printed as JSON errors.

    A token that starts with a dash and a digit, such as the grid -2:1:0.5 or
    the p -1/3, is an option's value: argparse's own test takes only plain
    negative numbers as values.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise SymvarError(message)


def build_parser():
    ap = _Parser(prog="symvar")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--output", choices=["json", "csv"], default="json")
        sp.add_argument("--outfile", default=None)

    sp = sub.add_parser("convolve", help="moments of a sum under an independence kind")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--x", required=True, help="measure JSON (inline or @file)")
    sp.add_argument("--y", required=True)
    sp.add_argument("--order", type=int, default=8)
    common(sp)
    sp.set_defaults(func=_cmd_convolve)

    sp = sub.add_parser("symmetry", help="odd-moment residual of e + y")
    sp.add_argument("--p", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--kind", required=True)
    sp.add_argument("--order", type=int, default=13)
    common(sp)
    sp.set_defaults(func=_cmd_symmetry)

    sp = sub.add_parser("certify", help="verify the sawtooth dual certificate")
    sp.add_argument("--p", required=True)
    sp.add_argument("--mode", choices=["exact", "grid"], default="exact")
    sp.add_argument("--grid", default="-5:5:0.001")
    common(sp)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("optimize", help="minimum symmetrizer variance")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--grid", default="-2:1:0.25")
    sp.add_argument("--include", default="-1,0")
    sp.add_argument("--relax-order", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=32)
    sp.add_argument("--atoms", type=int, default=6)
    sp.add_argument("--allow-critical", action="store_true")
    common(sp)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("simulate", help="random-matrix experiments")
    sp.add_argument("--experiment", choices=["moments", "proof-identity"], default="moments")
    sp.add_argument("--p", required=True)
    sp.add_argument("--measure", default=None)
    sp.add_argument("--n", type=int, default=400)
    sp.add_argument("--dims", default="200,400,800")
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--reps", type=int, default=10)
    sp.add_argument("--seed", type=int, default=None)
    common(sp)
    sp.set_defaults(func=_cmd_simulate)

    return ap


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return exc.code or 0
    except CriticalCaseError as exc:
        print(json.dumps({"error": str(exc), "hint": "p=1/2 is an open problem; pick p != 1/2"}))
        return 2
    except (SymvarError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(json.dumps({"error": str(exc), "hint": "check parameters and input files"}))
        return 1


if __name__ == "__main__":
    sys.exit(main())

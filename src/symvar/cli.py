"""Batch command-line front-end.

Subcommands: convolve, symmetry, certify, optimize, simulate. Output is JSON
(or CSV from simulate --output csv); errors are JSON with "error" and "hint" keys.
Exit codes: 0 success, 1 validation error, 2 critical case p = 1/2.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import asdict

from . import matrixlab
from .certificate import verify_inequality_exact, verify_inequality_grid
from .cumulants import IndependenceKind, convolve_moments, odd_moment_residual
from .errors import CriticalCaseError, SizeError, SymvarError
from .measures import DiscreteMeasure, bernoulli, check_p, dumps, exact_number, moments_of, negate
from .optimizer import GridSpec, SearchConfig, classical_min_variance, nc_min_variance


def _parse_rational(text):
    try:
        x = exact_number(text)
    except SizeError:
        raise
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
        try:
            with open(text[1:], encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise SymvarError(f"measure file {text[1:]!r} is not UTF-8: {exc}") from None
    return DiscreteMeasure.from_json(text)


def _emit(args, text):
    text = text if text.endswith("\n") else text + "\n"  # CSV text already ends in \r\n
    if args.outfile:
        with open(args.outfile, "w") as fh:
            fh.write(text)
    else:
        print(text, end="", flush=True)  # a reader that closed stdout shows here, not at exit


def _cmd_convolve(args):
    mx = _load_measure(args.x)
    my = _load_measure(args.y)
    kind = IndependenceKind(args.kind)
    ms = convolve_moments(moments_of(mx, args.order), moments_of(my, args.order), kind)
    return dumps({"kind": kind.value, "order": args.order, "moments": ms.values})


def _cmd_symmetry(args):
    p = _parse_rational(args.p)
    mu = _load_measure(args.measure)
    kind = IndependenceKind(args.kind)
    e = bernoulli(float(p) if mu.mode == "float" else p)
    ms = convolve_moments(moments_of(e, args.order), moments_of(mu, args.order), kind)
    res = odd_moment_residual(ms)
    try:
        residual = float(res)
    except OverflowError:  # an exact residual beyond the float range
        residual = None
    out = {"kind": kind.value, "order": args.order, "residual": residual}
    if mu.mode == "exact":
        out["residual_exact"] = res
    return dumps(out)


# For each subcommand with modes: the option that picks the mode, and the mode
# that reads each option no other mode reads. Given in another mode, such an
# option is refused, not ignored; its default is filled in by the command.
_MODE_OPTIONS = {
    "certify": ("mode", {"grid": "grid"}),
    "optimize": ("kind", {"grid": "classical", "include": "classical", "relax_order": "classical",
                          "seed": "free", "restarts": "free", "atoms": "free"}),
    "simulate": ("experiment", {"n": "moments", "order": "moments", "dims": "proof-identity"}),
}


def _refuse_unread(args, mode):
    picker, readers = _MODE_OPTIONS[args.subcommand]
    unread = [f"--{name.replace('_', '-')}" for name, reader in readers.items()
              if reader != mode and getattr(args, name) is not None]
    if unread:
        raise SymvarError(f"{args.subcommand} --{picker} {mode} reads no {', '.join(unread)}")


def _cmd_certify(args):
    p = _parse_rational(args.p)
    check_p(float(p) if args.mode == "grid" else p)  # p's errors come before the options'
    _refuse_unread(args, args.mode)
    if args.mode == "exact":
        report = verify_inequality_exact(p)
    else:
        grid = _parse_grid("-5:5:0.001" if args.grid is None else args.grid)
        report = verify_inequality_grid(float(p), GridSpec(*grid, must_include=()).points())
    return dumps({**asdict(report), "p_exact": f"{p.numerator}/{p.denominator}"})


def _cmd_optimize(args):
    p = _parse_rational(args.p)
    kind = IndependenceKind(args.kind)
    classical = kind is IndependenceKind.CLASSICAL
    pf = check_p(float(p), classical)  # the classical LP allows p = 1/2
    _refuse_unread(args, kind.value)
    if classical:
        include = _parse_floats("-1,0" if args.include is None else args.include, ",", "include")
        grid = GridSpec(*_parse_grid("-2:1:0.25" if args.grid is None else args.grid), include)
        mode = "exact_law" if args.relax_order is None else "moment_relax"
        result = classical_min_variance(p, grid, mode=mode, relax_order=args.relax_order)
    elif kind is IndependenceKind.BOOLEAN:
        result = nc_min_variance(pf, kind)
    else:
        if args.seed is None:
            raise SymvarError("--seed is required for randomized searches")
        knobs = {"restarts": args.restarts, "atom_budget": args.atoms, "seed": args.seed}
        cfg = SearchConfig(**{key: v for key, v in knobs.items() if v is not None})
        result = nc_min_variance(pf, kind, cfg)
    return result.to_json()


def _cmd_simulate(args):
    p = _parse_rational(args.p)
    _refuse_unread(args, args.experiment)
    if args.seed is None:
        raise SymvarError("--seed is required for randomized simulations")
    y_law = _load_measure(args.measure) if args.measure else negate(bernoulli(float(p)))
    if args.experiment == "moments":
        n, order = 400 if args.n is None else args.n, 8 if args.order is None else args.order
        model = matrixlab.MatrixModel(n=n, p=float(p), y_law=y_law, seed=args.seed)
        report = matrixlab.empirical_vs_predicted(model, order, args.reps)
        rows, fields = report["orders"], ["n", "seed", "order", "empirical", "predicted", "abs_error"]
    else:  # proof-identity
        dims = _parse_dims("200,400,800" if args.dims is None else args.dims)
        report = rows = matrixlab.proof_identity_report(float(p), y_law, dims, args.reps, args.seed)
        fields = list(rows[0])
    return matrixlab.rows_csv(rows, fields) if args.output == "csv" else dumps(report)


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

    def _print_message(self, message, file=None):
        # argparse's own swallows the OSError of a closed stdout, so --help exited 0
        file.write(message)


def build_parser():
    ap = _Parser(prog="symvar")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("convolve", help="moments of a sum under an independence kind")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--x", required=True, help="measure JSON (inline or @file)")
    sp.add_argument("--y", required=True)
    sp.add_argument("--order", type=int, default=8)
    sp.add_argument("--outfile", default=None)
    sp.set_defaults(func=_cmd_convolve)

    sp = sub.add_parser("symmetry", help="odd-moment residual of e + y")
    sp.add_argument("--p", required=True)
    sp.add_argument("--measure", required=True)
    sp.add_argument("--kind", required=True)
    sp.add_argument("--order", type=int, default=13)
    sp.add_argument("--outfile", default=None)
    sp.set_defaults(func=_cmd_symmetry)

    sp = sub.add_parser("certify", help="verify the sawtooth dual certificate")
    sp.add_argument("--p", required=True)
    sp.add_argument("--mode", choices=["exact", "grid"], default="exact")
    sp.add_argument("--grid", default=None)  # grid mode: -5:5:0.001 when not given
    sp.add_argument("--outfile", default=None)
    sp.set_defaults(func=_cmd_certify)

    sp = sub.add_parser("optimize", help="minimum symmetrizer variance")
    sp.add_argument("--kind", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--grid", default=None)  # classical: -2:1:0.25 when not given
    sp.add_argument("--include", default=None)  # classical: -1,0 when not given
    sp.add_argument("--relax-order", type=int, default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=None)
    sp.add_argument("--atoms", type=int, default=None)
    sp.add_argument("--outfile", default=None)
    sp.set_defaults(func=_cmd_optimize)

    sp = sub.add_parser("simulate", help="random-matrix experiments")
    sp.add_argument("--experiment", choices=["moments", "proof-identity"], default="moments")
    sp.add_argument("--p", required=True)
    sp.add_argument("--measure", default=None)
    sp.add_argument("--n", type=int, default=None)  # moments: 400 when not given
    sp.add_argument("--dims", default=None)  # proof-identity: 200,400,800 when not given
    sp.add_argument("--order", type=int, default=None)  # moments: 8 when not given
    sp.add_argument("--reps", type=int, default=10)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--output", choices=["json", "csv"], default="json")
    sp.add_argument("--outfile", default=None)
    sp.set_defaults(func=_cmd_simulate)

    return ap


def _run(argv):
    try:
        args = build_parser().parse_args(argv)
        _emit(args, args.func(args))
        return 0
    except SystemExit as exc:  # --help
        sys.stdout.flush()
        return exc.code or 0
    except CriticalCaseError as exc:
        hint = ("only the Boolean minimum is open at p=1/2; classically and freely it is 1/4, "
                "with y = -1/2; pick p != 1/2")
        print(dumps({"error": str(exc), "hint": hint}), flush=True)
        return 2
    except BrokenPipeError:
        raise  # an OSError, but not a bad input: main handles it
    except (SymvarError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(dumps({"error": str(exc), "hint": "check parameters and input files"}), flush=True)
        return 1


def main(argv=None):
    try:
        return _run(argv)
    except BrokenPipeError:  # from a result or from an error report
        # write nothing more; stdout goes to devnull so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())

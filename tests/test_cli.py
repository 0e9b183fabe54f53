import argparse
import ast
import csv
import importlib
import io
import json
import os
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symvar
from symvar import cli, matrixlab
from symvar.certificate import verify_inequality_grid
from symvar.matrixlab import MAX_REPS, MAX_SIM_DIM
from symvar.optimizer import MAX_RESTARTS, GridSpec, SearchConfig, classical_min_variance

from symvar.cli import main
from symvar.measures import DiscreteMeasure

EXACT_NEG_BERN = '{"atoms": [["-1", "0.3"], ["0", "0.7"]], "mode": "exact"}'
FLOAT_NEG_BERN = '{"atoms": [[-1.0, 0.3], [0.0, 0.7]], "mode": "float"}'


# only the Boolean minimum is open at p = 1/2
CRITICAL_CASE = {
    "error": "p=1/2 is the critical case: the construction divides by 1 - 2p",
    "hint": "only the Boolean minimum is open at p=1/2; classically and freely it is 1/4, "
            "with y = -1/2; pick p != 1/2",
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_certify_exact(capsys):
    code, out = run(capsys, "certify", "--p", "0.3", "--mode", "exact")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_slack_violation"] == "0"
    assert obj["identity_ok"] is True
    assert obj["p_exact"] == "3/10"


def test_certify_grid(capsys):
    code, out = run(capsys, "certify", "--p", "0.45", "--mode", "grid", "--grid", "-3:3:0.01")
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "grid"
    assert float(obj["max_slack_violation"]) <= 1e-12


@pytest.mark.parametrize("argv", [["--p", "0.499999"], ["--p", "0.3", "--grid", "-10000:10000:1"]])
def test_certify_grid_identity_holds_near_half_and_far_out(capsys, argv):
    # the identity's terms reach 1/(2|q - p|) and |t|; so does their rounding
    code, out = run(capsys, "certify", "--mode", "grid", *argv)
    assert code == 0
    assert json.loads(out)["identity_ok"] is True


def test_certify_exact_p_within_a_float_underflow_of_half(capsys):
    p = "0.5" + "0" * 399 + "1"
    code, out = run(capsys, "certify", "--p", p, "--mode", "exact")
    assert code == 0
    assert json.loads(out)["identity_ok"] is True


def test_certify_critical_case_exit_2(capsys):
    code, out = run(capsys, "certify", "--p", "0.5")
    assert code == 2
    obj = json.loads(out)
    assert "p=1/2" in obj["error"]
    assert obj == CRITICAL_CASE


def test_optimize_classical(capsys):
    code, out = run(
        capsys, "optimize", "--kind", "classical", "--p", "0.3", "--grid", "-2:1:0.5"
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["objective"] - 0.21) < 1e-9
    assert obj["status"] == "optimal"
    # output measure re-parses into the emitting type
    mu = DiscreteMeasure.from_atoms(obj["measure"]["atoms"], obj["measure"]["mode"])
    assert len(mu.atoms) == 2


def test_optimize_free_requires_seed(capsys):
    code, out = run(capsys, "optimize", "--kind", "free", "--p", "0.3")
    assert code == 1
    assert "seed" in json.loads(out)["error"]


def test_optimize_critical_case_exit_2(capsys):
    code, out = run(capsys, "optimize", "--kind", "free", "--p", "0.5", "--seed", "1")
    assert code == 2
    assert json.loads(out) == CRITICAL_CASE


def test_optimize_has_no_critical_case_bypass(capsys):
    # criterion 8: no option lets the free or Boolean minimum run at p = 1/2
    code = main(["optimize", "--kind", "boolean", "--p", "1/2", "--allow-critical"])
    captured = capsys.readouterr()
    assert code == 1
    assert "--allow-critical" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    undocumented = {
        (name, option)
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
        and not re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", readme)
    }
    assert not undocumented


def test_readme_private_names_are_defined():
    # README's layout cites internals such as `_constraint`; a renamed or
    # deleted one must not linger there
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    names = set(re.findall(r"`(_\w+)`", readme))
    modules = [importlib.import_module(f"symvar.{info.name}")
               for info in pkgutil.iter_modules(symvar.__path__)]
    assert names
    assert {name for name in names if not any(hasattr(mod, name) for mod in modules)} == set()


def test_free_search_repeats_in_fresh_processes_at_one_blas_thread():
    # SLSQP's iterates depend on the BLAS thread count, so a result repeats
    # at a fixed count only; here a random start wins by a hair. The Bartlett
    # draw of a three-atom law (Cholesky, solve and eigvalsh through numpy's
    # BLAS) repeats at a fixed count too, to the last bit of each residual.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(symvar.__file__).resolve().parents[1]))
    three_atom = '{"atoms": [[-1, 0.2], [-0.5, 0.2], [0, 0.6]], "mode": "float"}'
    for args in (["optimize", "--kind", "free", "--p", "0.3", "--seed", "4053640108", "--restarts", "8"],
                 ["simulate", "--experiment", "proof-identity", "--p", "0.3", "--dims", "50,120",
                  "--reps", "2", "--seed", "5", "--measure", three_atom]):
        argv = [sys.executable, "-m", "symvar.cli", *args]
        first, second = (subprocess.run(argv, capture_output=True, env=env, timeout=120,
                                        check=True).stdout for _ in range(2))
        assert first and first == second, args


def test_oracles_import_no_private_symvar_name():
    # an oracle that shares code with what it checks cannot catch that code's faults
    tests = Path(__file__).resolve().parent
    private = []
    for name in ("stacked_kernel.py", "lattice.py", "haar_oracle.py"):
        for node in ast.walk(ast.parse((tests / name).read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("symvar"):
                private += [(name, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []


def test_optimize_free_small(capsys):
    code, out = run(
        capsys,
        "optimize", "--kind", "free", "--p", "0.3",
        "--seed", "7", "--restarts", "1", "--atoms", "2",
    )
    assert code == 0
    obj = json.loads(out)
    assert abs(obj["objective"] - 0.3) < 1e-3
    assert obj["residual"] < 1e-6
    assert obj["evaluations"] > 0


def test_optimize_identical_invocations_identical_output(capsys):
    args = ["optimize", "--kind", "boolean", "--p", "0.7"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_optimize_boolean_is_the_lp(capsys):
    code, out = run(capsys, "optimize", "--kind", "boolean", "--p", "0.9")
    assert code == 0
    obj = json.loads(out)
    # the order-13 minimum lies below p there, and the order key says which problem it solved
    assert obj["objective"] < 0.87 and obj["residual"] < 1e-9
    assert obj["order"] == 13 and obj["evaluations"] == 0


@pytest.mark.parametrize("flags", [["--seed", "1"], ["--restarts", "32"], ["--atoms", "6"],
                                   ["--seed", "0", "--atoms", "2", "--restarts", "1"]])
def test_optimize_boolean_refuses_search_flags(capsys, flags):
    # the LP reads none of them: refused, not ignored
    _assert_json_error(capsys, ["optimize", "--kind", "boolean", "--p", "0.3", *flags])


@pytest.mark.parametrize(
    "kind,flags,named",
    [
        ("classical", ["--seed", "5", "--atoms", "100000", "--restarts", "999"],
         "--seed, --restarts, --atoms"),
        ("classical", ["--seed", "1"], "--seed"),
        ("free", ["--seed", "1", "--relax-order", "3", "--grid", "0:1:0.5"], "--grid, --relax-order"),
        ("free", ["--seed", "1", "--include", "-1,0"], "--include"),
        ("boolean", ["--relax-order", "3"], "--relax-order"),
        ("boolean", ["--grid=-2:1:0.25", "--include", "0"], "--grid, --include"),
    ],
)
def test_optimize_refuses_options_its_kind_does_not_read(capsys, kind, flags, named):
    code = main(["optimize", "--kind", kind, "--p", "0.3", *flags])
    obj = json.loads(capsys.readouterr().out)
    assert code == 1
    assert obj["error"] == f"optimize --kind {kind} reads no {named}"


@pytest.mark.parametrize(
    "argv,want",
    [
        (["--kind", "boolean", "--p", "0.5", "--grid", "0:1:0.5"], 2),
        (["--kind", "free", "--p", "1/2", "--seed", "1", "--relax-order", "3"], 2),
        (["--kind", "classical", "--p", "0", "--seed", "1"], 1),
    ],
)
def test_optimize_checks_p_before_refusing_options(capsys, argv, want):
    code = main(["optimize", *argv])
    obj = json.loads(capsys.readouterr().out)
    assert code == want
    assert "reads no" not in obj["error"]


@pytest.mark.parametrize(
    "argv,error",
    [
        (["certify", "--p", "0.3", "--mode", "exact", "--grid", "1:2:0.5"],
         "certify --mode exact reads no --grid"),
        (["certify", "--p", "0.3", "--grid", "1:2:0.5"], "certify --mode exact reads no --grid"),
        (["simulate", "--p", "0.3", "--seed", "1", "--dims", "x,y"],
         "simulate --experiment moments reads no --dims"),
        (["simulate", "--experiment", "proof-identity", "--p", "0.3", "--seed", "1", "--n", "5",
          "--order", "99"], "simulate --experiment proof-identity reads no --n, --order"),
    ],
    ids=["certify-exact", "certify-default-mode", "simulate-moments", "simulate-proof-identity"],
)
def test_every_mode_refuses_options_it_does_not_read(capsys, argv, error):
    # the rule optimize applies to its kinds holds for certify's modes and
    # simulate's experiments: these were accepted and ignored, exit 0
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == error


def test_certify_checks_p_before_refusing_options(capsys):
    code, out = run(capsys, "certify", "--p", "0.5", "--grid", "1:2:0.5")
    assert code == 2
    assert "reads no" not in json.loads(out)["error"]


def test_certify_and_simulate_fill_in_their_defaults(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "verify_inequality_grid", lambda p, grid: seen.append(grid)
                        or verify_inequality_grid(p, [0.0]))
    monkeypatch.setattr(matrixlab, "MatrixModel", lambda **kwargs: kwargs)
    monkeypatch.setattr(matrixlab, "empirical_vs_predicted", lambda model, order, reps:
                        seen.append((model["n"], order)) or {"orders": []})
    monkeypatch.setattr(matrixlab, "proof_identity_report", lambda p, law, dims, reps, seed:
                        seen.append(dims) or [{"n": 2}])
    assert main(["certify", "--p", "0.3", "--mode", "grid"]) == 0
    assert main(["simulate", "--p", "0.3", "--seed", "1"]) == 0
    assert main(["simulate", "--experiment", "proof-identity", "--p", "0.3", "--seed", "1"]) == 0
    assert seen == [GridSpec(-5.0, 5.0, 0.001, ()).points(), (400, 8), [200, 400, 800]]


def test_optimize_classical_fills_in_grid_and_include(capsys):
    code1, out1 = run(capsys, "optimize", "--kind", "classical", "--p", "0.3")
    code2, out2 = run(capsys, "optimize", "--kind", "classical", "--p", "0.3",
                      "--grid", "-2:1:0.25", "--include", "-1,0")
    assert code1 == code2 == 0
    assert out1 == out2


def test_optimize_free_keeps_search_defaults(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "nc_min_variance", lambda p, kind, cfg, **kwargs: seen.append(cfg)
                        or classical_min_variance(p, GridSpec(-2.0, 1.0, 0.5)))
    assert main(["optimize", "--kind", "free", "--p", "0.3", "--seed", "7"]) == 0
    assert main(["optimize", "--kind", "free", "--p", "0.3", "--seed", "7", "--atoms", "2"]) == 0
    assert seen == [SearchConfig(seed=7), SearchConfig(seed=7, atom_budget=2)]


def test_convolve_exact(capsys):
    bern = '{"atoms": [["0", "0.5"], ["1", "0.5"]], "mode": "exact"}'
    neg = '{"atoms": [["-1", "0.5"], ["0", "0.5"]], "mode": "exact"}'
    code, out = run(
        capsys, "convolve", "--kind", "free", "--x", bern, "--y", neg, "--order", "6"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["moments"] == ["0", "0.5", "0", "0.375", "0", "0.3125"]


def test_symmetry_equality_case(capsys):
    code, out = run(
        capsys, "symmetry", "--p", "0.3", "--kind", "boolean", "--measure", EXACT_NEG_BERN
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["residual"] == 0.0
    assert obj["residual_exact"] == "0"


def test_symmetry_exact_residual_beyond_float_range(capsys):
    # the exact residual is about 1e2600: "residual" is null, "residual_exact" keeps it
    wide = '{"atoms": [["1e200", "1"]]}'
    code, out = run(capsys, "symmetry", "--p", "0.3", "--kind", "free", "--measure", wide)
    assert code == 0
    obj = json.loads(out, parse_constant=_reject_non_finite)
    assert obj["residual"] is None
    assert len(obj["residual_exact"]) > 2600


def test_symmetry_critical_case(capsys):
    code, _ = run(
        capsys, "symmetry", "--p", "0.5", "--kind", "free", "--measure", EXACT_NEG_BERN
    )
    assert code == 0  # symmetry checking itself never divides by 1-2p


def test_simulate_requires_seed(capsys):
    code, out = run(capsys, "simulate", "--p", "0.3", "--n", "50")
    assert code == 1
    assert "seed" in json.loads(out)["error"]


def test_simulate_moments_json(capsys):
    code, out = run(
        capsys, "simulate", "--p", "0.3", "--n", "60", "--order", "4",
        "--reps", "2", "--seed", "5", "--measure", FLOAT_NEG_BERN,
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["orders"]) == 4


def test_simulate_moments_csv(capsys):
    code, out = run(
        capsys, "simulate", "--p", "0.3", "--n", "60", "--order", "3",
        "--reps", "2", "--seed", "5", "--output", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "n,seed,order,empirical,predicted,abs_error"


def test_simulate_proof_identity(capsys):
    code, out = run(
        capsys, "simulate", "--experiment", "proof-identity", "--p", "0.3",
        "--dims", "40,80", "--reps", "2", "--seed", "5",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert {r["n"] for r in rows} == {40, 80}


@pytest.mark.parametrize(
    "experiment", [["--n", "30"], ["--experiment", "proof-identity", "--dims", "20,31"]]
)
@pytest.mark.parametrize("output", ["json", "csv"])
def test_simulate_default_law_is_the_negated_bernoulli(capsys, experiment, output):
    argv = ["simulate", "--p", "0.3", "--reps", "2", "--seed", "5", "--output", output,
            *experiment]
    default = run(capsys, *argv)
    assert default == run(capsys, *argv, "--measure", FLOAT_NEG_BERN)
    assert default[0] == 0


def _reject_non_finite(token):
    raise ValueError(f"non-finite number {token} in output")


def _assert_json_error(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    obj = json.loads(captured.out, parse_constant=_reject_non_finite)
    assert set(obj) == {"error", "hint"}


@pytest.mark.parametrize(
    "argv",
    [
        ["--experiment", "proof-identity", "--dims", ","],
        ["--experiment", "proof-identity", "--dims", "a"],
        ["--experiment", "proof-identity", "--dims", "1"],
        ["--experiment", "proof-identity", "--dims", "20,-3"],
        ["--experiment", "proof-identity", "--dims", f"20,{MAX_SIM_DIM + 1}"],
        ["--experiment", "proof-identity", "--dims", "20", "--reps", "0", "--output", "csv"],
        ["--n", str(MAX_SIM_DIM + 1)],
        ["--n", "10000000000"],
        ["--experiment", "proof-identity", "--dims", "2", "--reps", str(MAX_REPS + 1)],
        ["--reps", "4611686018427387904"],  # 2**62: refused before any seed or array is made
        ["--experiment", "proof-identity", "--dims", "20,20", "--reps", "2"],  # same draws twice
        # sum reps * n^3 is 94 times that of MAX_REPS replicas at MAX_SIM_DIM
        ["--experiment", "proof-identity", "--dims", ",".join(map(str, range(2401, 2501))),
         "--reps", str(MAX_REPS)],
    ],
)
def test_simulate_bad_sizes_exit_1(capsys, monkeypatch, argv):
    def draw(*args, **kwargs):
        raise AssertionError("a refused job drew a matrix")

    monkeypatch.setattr(matrixlab, "_realize", draw)
    _assert_json_error(capsys, ["simulate", "--p", "0.3", "--seed", "1", *argv])


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--kind", "free", "--p", "0.3", "--seed", "-1",
         "--restarts", "1", "--atoms", "2"],
        ["simulate", "--p", "0.3", "--seed", "-1", "--n", "20"],
        ["simulate", "--experiment", "proof-identity", "--p", "0.3", "--seed", "-1",
         "--dims", "20"],
    ],
)
def test_negative_seed_exit_1(capsys, argv):
    _assert_json_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--kind", "classical", "--p", "0.3", "--include", "a"],
        ["optimize", "--kind", "classical", "--p", "0.3", "--include", "nan"],
        ["symmetry", "--p", "0.3", "--kind", "free", "--measure", '{"atoms": 5}'],
        ["symmetry", "--p", "0.3", "--kind", "free", "--measure", "5"],
        ["symmetry", "--p", "0.3", "--kind", "free", "--measure", '{"atoms": [[NaN, 1]]}'],
        ["symmetry", "--p", "0.3", "--kind", "free", "--measure",
         '{"atoms": [[NaN, 1]], "mode": "float"}'],
        ["convolve", "--kind", "free", "--x", '{"atoms": [[0, Infinity]], "mode": "float"}',
         "--y", FLOAT_NEG_BERN],
        ["certify", "--p", "0.3", "--mode", "grid", "--grid", "0:1:0"],
        ["certify", "--p", "0.3", "--mode", "grid", "--grid", "1:0:0.1"],
        ["certify", "--p", "0.3", "--mode", "grid", "--grid", "a:1:0.1"],
        ["certify", "--p", "0.3", "--mode", "grid", "--grid", "0:1:nan"],
        ["optimize", "--kind", "classical", "--p", "0.3", "--relax-order", "600"],
        ["optimize", "--kind", "classical", "--p", "0.3", "--grid=-1e30:1e30:1e28",
         "--relax-order", "6"],
        ["optimize", "--kind", "free", "--p", "0.3", "--seed", "1", "--atoms", "100000",
         "--restarts", "1"],
        ["certify", "--p", "1e400", "--mode", "grid"],
        ["simulate", "--p=-1e400", "--seed", "1", "--n", "20"],
        ["optimize", "--kind", "free", "--p", "0.3", "--seed", "1", "--atoms", "2",
         "--restarts", str(MAX_RESTARTS + 1)],
        ["optimize", "--kind", "classical", "--p", "0.3", "--grid=-1e30:1e30:1e28",
         "--relax-order", "1"],
        # refusals by argparse itself: a bad value, a missing or unknown option
        ["certify", "--p", "-1/3"],
        ["certify", "--p", "-inf"],
        ["certify"],
        ["certify", "--p", "0.3", "--frobnicate"],
        ["convolve", "--kind", "free", "--x", FLOAT_NEG_BERN, "--y", FLOAT_NEG_BERN,
         "--order", "x"],
        ["simulate", "--p", "0.3", "--experiment", "eigen"],
        # finite float atoms whose powers overflow
        ["convolve", "--kind", "free", "--x", '{"atoms":[[1e200,1]],"mode":"float"}',
         "--y", '{"atoms":[[1,1]],"mode":"float"}'],
        ["symmetry", "--p", "0.3", "--kind", "free", "--measure",
         '{"atoms":[[1e25,1]],"mode":"float"}'],
        # (a three-atom law's draws at order 13; up to order 8 the report is finite,
        # test_simulate_reports_a_spread_whose_square_overflows)
        ["simulate", "--p", "0.3", "--seed", "1", "--n", "20", "--reps", "2", "--order", "13",
         "--measure", '{"atoms":[[1e25,0.5],[0,0.25],[1,0.25]],"mode":"float"}'],
        ["simulate", "--experiment", "proof-identity", "--p", "0.3", "--seed", "1", "--dims", "20",
         "--reps", "1", "--measure", '{"atoms":[[1e308,1]],"mode":"float"}'],
        # finite moments whose sum overflows: an exact law with a float one, and a float law
        # whose order-13 moment is near the float maximum
        ["convolve", "--kind", "classical", "--x", '{"atoms":[["1e200","1"]]}', "--y",
         FLOAT_NEG_BERN, "--order", "2"],
        ["convolve", "--kind", "classical", "--x",
         '{"atoms":[[3e23,0.5],[-2e22,0.5]],"mode":"float"}', "--y", FLOAT_NEG_BERN,
         "--order", "13"],
        # only simulate writes CSV; the other subcommands have no --output
        ["certify", "--p", "0.3", "--output", "csv"],
        ["optimize", "--kind", "classical", "--p", "0.3", "--output", "csv"],
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning on stderr breaks the contract too
def test_bad_inputs_exit_1(capsys, argv):
    _assert_json_error(capsys, argv)


def test_simulate_reports_a_spread_whose_square_overflows(capsys):
    # every moment up to order 8 is finite (at most 5e199); the two reps' 8th
    # moments differ by about 1.7e184, whose square is beyond the float range
    law = '{"atoms": [[1e25, 0.5], [0, 0.25], [1, 0.25]], "mode": "float"}'
    code, out = run(capsys, "simulate", "--p", "0.3", "--seed", "1", "--n", "20", "--reps", "2",
                    "--measure", law)
    obj = json.loads(out, parse_constant=_reject_non_finite)
    assert code == 0
    assert len(obj["orders"]) == 8 and all(row["stderr"] >= 0 for row in obj["orders"])
    assert obj["orders"][-1]["stderr"] > 1e180


def test_infeasible_lp_prints_strict_json(capsys):
    # no law on 0.1..0.9 can centre X + Y; objective and residual are null, not NaN
    code = main(["optimize", "--kind", "classical", "--p", "0.3", "--grid=0.1:0.9:0.1",
                 "--include", "0.5"])
    obj = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert code == 0
    assert obj["status"] == "infeasible"
    assert obj["objective"] is None and obj["residual"] is None and obj["measure"] is None


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    # the reader is gone before anything is written, as with `symvar ... | head -c 100`
    # once head has exited: the write fails with BrokenPipeError, unbuffered or at the flush.
    # A result and both kinds of error report (exit 2 and exit 1) take the same path
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(symvar.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (
        ["simulate", "--p", "0.7", "--n", "30", "--order", "4", "--reps", "3", "--seed", "2"],
        ["certify", "--p", "0.5"],
        ["certify", "--p", "x"],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "symvar.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 1, argv
        assert done.stderr == b"", argv


@pytest.mark.parametrize("unbuffered", [True, False])
def test_help_to_closed_stdout_exits_1(unbuffered):
    # argparse's own _print_message swallows the OSError, so an unbuffered --help exited 0
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(symvar.__file__).resolve().parents[1])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["--help"], ["certify", "--help"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "symvar.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 1, argv
        assert done.stderr == b"", argv
        for target in (subprocess.PIPE, subprocess.DEVNULL):
            done = subprocess.run([sys.executable, "-m", "symvar.cli", *argv], stdout=target,
                                  stderr=subprocess.PIPE, env=env, timeout=120)
            assert done.returncode == 0, argv
            assert done.stderr == b"", argv


def _readme_cli_examples():
    """Every `symvar ...` command of README's CLI block, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("symvar ")]


def test_readme_cli_examples(capsys):
    examples = _readme_cli_examples()
    assert len(examples) == 8
    for argv in examples:
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, argv
        if argv[-2:] == ["--output", "csv"]:
            rows = [row for row in csv.reader(io.StringIO(out)) if row]
            assert len(rows) > 1 and len({len(row) for row in rows}) == 1, argv
        else:
            json.loads(out, parse_constant=_reject_non_finite)


@pytest.mark.parametrize(
    "experiment,header",
    [
        ("moments", ["n", "seed", "order", "empirical", "predicted", "abs_error"]),
        ("proof-identity", ["n", "seed", "rotated_residual", "commuting_residual"]),
    ],
)
def test_simulate_csv_holds_the_json_rows(capsys, experiment, header):
    sizes = ["--n", "30", "--order", "3"] if experiment == "moments" else ["--dims", "20,30"]
    argv = ["simulate", "--experiment", experiment, "--p", "0.3", *sizes, "--reps", "2",
            "--seed", "5"]
    code, out = run(capsys, *argv)
    obj = json.loads(out)
    rows = obj["orders"] if experiment == "moments" else obj
    code_csv, out_csv = run(capsys, *argv, "--output", "csv")
    assert code == 0 == code_csv
    table = list(csv.reader(io.StringIO(out_csv)))
    assert table[0] == header
    assert table[1:] == [[str(row[key]) for key in header] for row in rows]


@pytest.mark.parametrize("experiment", ["moments", "proof-identity"])
def test_csv_on_stdout_and_in_outfile_are_the_same_bytes(tmp_path, capsys, experiment):
    sizes = ["--n", "30", "--order", "3"] if experiment == "moments" else ["--dims", "20"]
    argv = ["simulate", "--experiment", experiment, "--p", "0.3", *sizes, "--reps", "2",
            "--seed", "5", "--output", "csv"]
    code, out = run(capsys, *argv)
    target = tmp_path / "report.csv"
    assert code == 0 == main([*argv, "--outfile", str(target)])
    assert out.endswith("\r\n") and not out.endswith("\n\n")
    assert target.read_bytes() == out.encode()


def test_outfile(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run(
        capsys, "certify", "--p", "0.3", "--outfile", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["identity_ok"] is True


def test_measure_from_file(tmp_path, capsys):
    path = tmp_path / "measure.json"
    path.write_text(EXACT_NEG_BERN)
    code, out = run(
        capsys, "symmetry", "--p", "0.3", "--kind", "free", "--measure", f"@{path}"
    )
    assert code == 0
    assert json.loads(out)["residual"] == 0.0


def test_measure_file_not_utf8_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff" + EXACT_NEG_BERN.encode())
    code = main(["symmetry", "--p", "0.3", "--kind", "free", "--measure", f"@{path}"])
    captured = capsys.readouterr()
    assert code == 1
    assert "not UTF-8" in json.loads(captured.out)["error"]
    assert "Traceback" not in captured.err


def test_bad_rational_exit_1(capsys):
    code, out = run(capsys, "certify", "--p", "zebra")
    assert code == 1
    assert "error" in json.loads(out)


def test_bad_measure_json_exit_1(capsys):
    code, out = run(capsys, "symmetry", "--p", "0.3", "--kind", "free", "--measure", "{nope")
    assert code == 1


def test_unknown_subcommand_rejected(capsys):
    _assert_json_error(capsys, ["frobnicate"])


def test_dashed_values_as_separate_tokens(capsys):
    code, out = run(capsys, "optimize", "--kind", "classical", "--p", "0.3",
                    "--grid", "-2:1:0.5", "--include", "-1,0")
    assert code == 0
    assert json.loads(out)["objective"] == pytest.approx(0.21, abs=1e-9)


# atoms at coprime 999-digit denominators: each number is within the digit
# bound, their common denominator is not (20 of them took 55 s to convolve)
_COPRIME = json.dumps({"atoms": [[f"1/{10**998 + 2 * i + 1}", "1/20"] for i in range(20)]})


@pytest.mark.parametrize(
    "argv",
    [
        # an exact result beyond Python's int-to-string limit (a traceback before)
        ["convolve", "--kind", "classical", "--x", '{"atoms":[["1e400","1"]]}',
         "--y", '{"atoms":[["0","1"]]}', "--order", "13"],
        ["certify", "--p", "1e-5000"],
        # numbers beyond the digit bound: refused before they are built
        ["symmetry", "--p", "0.3", "--kind", "classical", "--measure",
         '{"atoms":[["1e1000000","1"]]}'],
        ["certify", "--p", "1e-100000000"],
        ["symmetry", "--p", "0.3", "--kind", "free", "--measure",
         '{"atoms":[[%s,1]]}' % ("1" * 5000)],
        ["convolve", "--kind", "free", "--x", _COPRIME, "--y", _COPRIME],
    ],
)
def test_huge_exact_inputs_exit_1_at_once(capsys, argv):
    start = time.perf_counter()
    code, out = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert "digits" in json.loads(out)["error"]


_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["symmetry", "convolve"])
def test_deeply_nested_measure_exits_1(tmp_path, capsys, command):
    # json.loads runs out of recursion depth; the command still prints a JSON error
    path = tmp_path / "deep.json"
    path.write_text(_DEEP)
    argv = {  # from a file, and inline
        "symmetry": ["symmetry", "--p", "0.3", "--kind", "free", "--measure", f"@{path}"],
        "convolve": ["convolve", "--kind", "free", "--x", _DEEP, "--y", FLOAT_NEG_BERN],
    }[command]
    code, out = run(capsys, *argv)
    assert code == 1
    assert json.loads(out)["error"] == "the measure JSON is nested too deeply"


@pytest.mark.parametrize("measure", ["{}", '{"mode": "exact"}', "[]"])
def test_measure_without_atoms_names_the_format(capsys, measure):
    code, out = run(capsys, "symmetry", "--p", "0.3", "--kind", "free", "--measure", measure)
    assert code == 1
    assert json.loads(out)["error"] == 'a measure is a JSON object with an "atoms" list'


_SCIPY_SUBPACKAGES = ("scipy.optimize", "scipy.sparse", "scipy.linalg")
_IMPORTS_SNIPPET = """
import contextlib, io, json, sys
import symvar, symvar.cli, symvar.matrixlab


def loaded(*argv):  # the scipy subpackages loaded after cli.main(argv), or after the imports
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            assert symvar.cli.main(list(argv)) == 0, argv
    return [name for name in %r if name in sys.modules]


three_atom = '{"atoms": [[-1, 0.2], [-0.5, 0.2], [0, 0.6]], "mode": "float"}'
exact = '{"atoms": [["-1", "0.3"], ["0", "0.7"]]}'
print(json.dumps([
    loaded(),
    loaded("certify", "--p", "0.3"),
    loaded("certify", "--p", "0.3", "--mode", "grid", "--grid", "-1:1:0.5"),
    loaded("convolve", "--kind", "free", "--x", exact, "--y", exact),
    loaded("symmetry", "--p", "0.3", "--kind", "boolean", "--measure", exact),
    loaded("simulate", "--p", "0.3", "--n", "30", "--order", "3", "--reps", "2", "--seed", "1",
           "--measure", three_atom),
    loaded("optimize", "--kind", "classical", "--p", "0.3"),
]))
""" % (_SCIPY_SUBPACKAGES,)


def test_exact_commands_load_no_scipy_subpackage():
    env = dict(os.environ, PYTHONPATH=str(Path(symvar.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _IMPORTS_SNIPPET], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    *exact, optimize = json.loads(done.stdout)
    assert exact == [[]] * 6
    assert "scipy.optimize" in optimize


def test_unknown_kind_exit_1(capsys):
    code, out = run(capsys, "optimize", "--kind", "monotone", "--p", "0.3")
    assert code == 1

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symvar
from symvar.matrixlab import MAX_SIM_DIM
from symvar.optimizer import MAX_RESTARTS

from symvar.cli import main
from symvar.measures import DiscreteMeasure

EXACT_NEG_BERN = '{"atoms": [["-1", "0.3"], ["0", "0.7"]], "mode": "exact"}'
FLOAT_NEG_BERN = '{"atoms": [[-1.0, 0.3], [0.0, 0.7]], "mode": "float"}'


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


def test_certify_critical_case_exit_2(capsys):
    code, out = run(capsys, "certify", "--p", "0.5")
    assert code == 2
    obj = json.loads(out)
    assert "p=1/2" in obj["error"]
    assert "hint" in obj


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
    args = ["optimize", "--kind", "boolean", "--p", "0.7", "--seed", "3",
            "--restarts", "1", "--atoms", "2"]
    code1, out1 = run(capsys, *args)
    code2, out2 = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


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
    ],
)
def test_simulate_bad_sizes_exit_1(capsys, argv):
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
        ["optimize", "--kind", "boolean", "--p", "0.3", "--seed", "1", "--atoms", "100000",
         "--restarts", "1"],
        ["certify", "--p", "1e400", "--mode", "grid"],
        ["simulate", "--p=-1e400", "--seed", "1", "--n", "20"],
        ["optimize", "--kind", "boolean", "--p", "0.3", "--seed", "1", "--atoms", "2",
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
        ["simulate", "--p", "0.3", "--seed", "1", "--n", "20", "--reps", "2", "--measure",
         '{"atoms":[[1e25,1]],"mode":"float"}'],
        ["simulate", "--experiment", "proof-identity", "--p", "0.3", "--seed", "1", "--dims", "20",
         "--reps", "1", "--measure", '{"atoms":[[1e308,1]],"mode":"float"}'],
        # finite moments whose sum overflows: an exact law with a float one, and a float law
        # whose order-13 moment is near the float maximum
        ["convolve", "--kind", "classical", "--x", '{"atoms":[["1e200","1"]]}', "--y",
         FLOAT_NEG_BERN, "--order", "2"],
        ["convolve", "--kind", "classical", "--x",
         '{"atoms":[[3e23,0.5],[-2e22,0.5]],"mode":"float"}', "--y", FLOAT_NEG_BERN,
         "--order", "13"],
    ],
)
@pytest.mark.filterwarnings("error")  # a numpy warning on stderr breaks the contract too
def test_bad_inputs_exit_1(capsys, argv):
    _assert_json_error(capsys, argv)


def test_infeasible_lp_prints_strict_json(capsys):
    # no law on 0.1..0.9 can centre X + Y; objective and residual are null, not NaN
    code = main(["optimize", "--kind", "classical", "--p", "0.3", "--grid=0.1:0.9:0.1",
                 "--include", "0.5"])
    obj = json.loads(capsys.readouterr().out, parse_constant=_reject_non_finite)
    assert code == 0
    assert obj["status"] == "infeasible"
    assert obj["objective"] is None and obj["residual"] is None and obj["measure"] is None


def _env_after_import(**preset):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
    env.update(preset)
    env["PYTHONPATH"] = str(Path(symvar.__file__).resolve().parents[1])
    code = ("import os, symvar; print(os.environ.get('OMP_NUM_THREADS'), "
            "os.environ.get('OPENBLAS_NUM_THREADS'))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout.split()


def test_symvar_threads_sets_blas_variables():
    assert _env_after_import(SYMVAR_THREADS="1") == ["1", "1"]
    assert _env_after_import(SYMVAR_THREADS="1", OPENBLAS_NUM_THREADS="2") == ["1", "2"]


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


def test_unknown_kind_exit_1(capsys):
    code, out = run(capsys, "optimize", "--kind", "monotone", "--p", "0.3")
    assert code == 1

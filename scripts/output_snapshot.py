"""Print a snapshot of symvar's outputs, to diff two source trees byte for byte.

For each command below it prints the argv, the exit code and the stdout of
`symvar.cli.main` (or the exception it raised); for each law it prints the
SHA-256 of the rotated and the commuting `matrixlab._realize` spectra. The
commands run in a scratch directory that holds `deep.json`, a measure nested
DEPTH arrays deep; an argument longer than 80 characters prints as its length
and first characters. The first line names the BLAS thread settings and the
CPU count: the free search's results depend on the thread count, so compare
only snapshots taken at one setting. A refactor that must not change any
output gives the same snapshot before and after:

    PYTHONPATH=src python scripts/output_snapshot.py > after.txt
    (cd ../parent && PYTHONPATH=src python /path/to/output_snapshot.py) > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

from symvar import matrixlab
from symvar.cli import main
from symvar.measures import DiscreteMeasure

LAWS = {
    "one_atom": [[-0.5, 1.0]],
    "two_atom": [[-1.0, 0.3], [0.0, 0.7]],
    "three_atom": [[-1.0, 0.2], [-0.5, 0.2], [0.0, 0.6]],
}
EXACT = '{"atoms": [["-1", "0.3"], ["0", "0.7"]], "mode": "exact"}'
SEVENTHS = '{"atoms": [["1/7", "1/7"], ["2", "6/7"]]}'  # exact, with non-terminating output
HUGE = '{"atoms": [["1e100", "1"]]}'  # its exact residual is beyond the float range
TOO_LONG = '{"atoms": [["1e999", "1"]]}'  # its exact moments have too many digits to print
DEPTH = 100_000
DEEP = "[" * DEPTH + "]" * DEPTH


def _measure(atoms):
    return '{"atoms": %s, "mode": "float"}' % atoms


def commands():
    for name, atoms in LAWS.items():
        for output in ("json", "csv"):
            yield ["simulate", "--p", "0.3", "--n", "40", "--order", "4", "--reps", "3",
                   "--seed", "5", "--measure", _measure(atoms), "--output", output]
            yield ["simulate", "--experiment", "proof-identity", "--p", "0.7", "--dims", "20,41",
                   "--reps", "2", "--seed", "5", "--measure", _measure(atoms), "--output", output]
    for output in ("json", "csv"):  # the default law of simulate
        for p in ("0.3", "0.7", "1/3"):
            yield ["simulate", "--p", p, "--n", "40", "--order", "4", "--reps", "3", "--seed", "5",
                   "--output", output]
            yield ["simulate", "--experiment", "proof-identity", "--p", p, "--dims", "20,41",
                   "--reps", "2", "--seed", "5", "--output", output]
    yield ["simulate", "--experiment", "proof-identity", "--p", "0.3", "--dims", "20",
           "--reps", "0", "--seed", "5"]
    yield ["simulate", "--p", "0.3", "--seed", "1", "--reps", "4611686018427387904"]
    yield ["simulate", "--experiment", "proof-identity", "--p", "0.3", "--dims", "20,20",
           "--reps", "2", "--seed", "5"]
    yield ["optimize", "--kind", "classical", "--p", "0.3"]
    yield ["optimize", "--kind", "classical", "--p", "0.3", "--relax-order", "3"]
    yield ["optimize", "--kind", "classical", "--p", "0.3", "--relax-order", "1"]
    yield ["optimize", "--kind", "classical", "--p", "0.3", "--grid", "0.1:0.9:0.1",
           "--include", "0.5"]
    yield ["optimize", "--kind", "boolean", "--p", "0.9"]
    yield ["optimize", "--kind", "boolean", "--p", "0.3"]
    yield ["optimize", "--kind", "FREE", "--p", "0.3", "--seed", "7", "--restarts", "2"]
    yield ["optimize", "--kind", "free", "--p", "0.3", "--seed", "1", "--restarts", "2"]
    yield ["optimize", "--kind", "free", "--p", "0.7", "--seed", "2", "--restarts", "2"]
    yield ["optimize", "--kind", "free", "--p", "0.3", "--seed", "3", "--restarts", "2",
           "--atoms", "9"]
    # at 4 atoms most SLSQP solves run to maxiter, so any rounding change shows
    yield ["optimize", "--kind", "free", "--p", "0.7", "--seed", "4", "--restarts", "2",
           "--atoms", "4"]
    # a random start wins (objective p - 1.6e-11 at gap 5.2e-11), so the
    # candidates' gap cut and their m2 ranking decide the result
    yield ["optimize", "--kind", "free", "--p", "0.3", "--seed", "4053640108", "--restarts", "8"]
    # with k <= 3 SLSQP returns its start: every solve duplicates a start
    yield ["optimize", "--kind", "free", "--p", "0.7", "--seed", "5", "--restarts", "2",
           "--atoms", "3"]
    yield ["optimize", "--kind", "free", "--p", "1/2", "--seed", "1"]
    yield ["optimize", "--kind", "bogus", "--p", "0.3"]
    yield ["optimize", "--kind", "boolean", "--p", "1/2", "--allow-critical"]
    yield ["optimize", "--kind", "free", "--p", "1/2", "--seed", "1", "--restarts", "1",
           "--allow-critical"]
    yield ["optimize", "--kind", "classical", "--p", "1/2", "--allow-critical"]
    yield ["certify", "--p", "0.3", "--mode", "exact"]
    yield ["certify", "--p", "0.45", "--mode", "grid", "--grid", "-3:3:0.01"]
    yield ["certify", "--p", "0.499999", "--mode", "grid"]
    yield ["certify", "--p", "0.3", "--mode", "grid", "--grid", "-10000:10000:1"]
    yield ["certify", "--p", "0.5" + "0" * 399 + "1", "--mode", "exact"]  # float(q - p) is 0.0
    yield ["certify", "--p", "0.5"]
    yield ["certify", "--p", "0.3", "--mode", "exact", "--grid", "1:2:0.5"]
    yield ["certify", "--p", "1/3", "--mode", "grid", "--grid", "-1:0:0.5"]
    yield ["convolve", "--kind", "free", "--x", '{"atoms": [["0", "0.5"], ["1", "0.5"]]}',
           "--y", '{"atoms": [["-1", "0.5"], ["0", "0.5"]]}', "--order", "6"]
    yield ["convolve", "--kind", "Boolean", "--x", EXACT, "--y", EXACT]
    yield ["convolve", "--kind", "bogus", "--x", EXACT, "--y", EXACT]
    yield ["symmetry", "--p", "0.3", "--kind", "classical", "--measure", EXACT]
    yield ["symmetry", "--p", "0.3", "--kind", "free", "--measure", _measure(LAWS["two_atom"])]
    yield ["symmetry", "--p", "0.3", "--kind", "free", "--measure", "@deep.json"]
    yield ["convolve", "--kind", "free", "--x", DEEP, "--y", EXACT]
    two, three = _measure(LAWS["two_atom"]), _measure(LAWS["three_atom"])
    yield ["convolve", "--kind", "classical", "--x", EXACT, "--y", two]  # mixed modes print floats
    yield ["convolve", "--kind", "free", "--x", two, "--y", EXACT]
    yield ["convolve", "--kind", "boolean", "--x", two, "--y", three]
    yield ["convolve", "--kind", "free", "--x", SEVENTHS, "--y", EXACT]
    yield ["symmetry", "--p", "1/3", "--kind", "boolean", "--measure", SEVENTHS]
    yield ["symmetry", "--p", "0.3", "--kind", "classical", "--measure", HUGE]
    yield ["symmetry", "--p", "0.3", "--kind", "free", "--measure", TOO_LONG]
    yield ["convolve", "--kind", "classical", "--x", TOO_LONG, "--y", EXACT]
    yield ["certify", "--p", "1/3", "--mode", "exact"]
    yield ["simulate", "--p", "0.3", "--n", "40", "--reps", "3", "--seed", "5", "--dims", "x,y"]
    yield ["simulate", "--experiment", "proof-identity", "--p", "0.7", "--n", "5", "--order", "99",
           "--dims", "20,41", "--reps", "2", "--seed", "5"]
    yield ["--help"]


def _shown(arg):
    return arg if len(arg) <= 80 else f"<{len(arg)} chars: {arg[:10]}...>"


def main_snapshot():
    threads = " ".join(f"{v}={os.environ.get(v)}"
                       for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    print(f"{threads} cpu_count={os.cpu_count()}")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with open("deep.json", "w") as fh:
                fh.write(DEEP)
            for argv in commands():
                buf = io.StringIO()
                try:
                    with contextlib.redirect_stdout(buf):
                        code = main(argv)
                except Exception as exc:  # a traceback from the command line
                    code = f"raised {type(exc).__name__}: {exc}"
                print(f"$ symvar {' '.join(map(_shown, argv))}\nexit {code}\n{buf.getvalue()}")
        finally:
            os.chdir(cwd)
    for name, atoms in LAWS.items():
        law = DiscreteMeasure.from_atoms(atoms, mode="float")
        for n, p, seed in ((40, 0.3, 1), (41, 0.7, 2), (300, 0.5, 3)):
            model = matrixlab.MatrixModel(n=n, p=p, y_law=law, seed=seed)
            for rotate in (True, False):
                lam = matrixlab._realize(model, rotate=rotate)
                digest = hashlib.sha256(lam.tobytes()).hexdigest()
                print(f"_realize {name} n={n} p={p} rotate={rotate}: {len(lam)} {digest}")


if __name__ == "__main__":
    main_snapshot()

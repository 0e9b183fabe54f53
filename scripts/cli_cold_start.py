"""Cold-start wall time of one representative run of each CLI subcommand.

Each command below runs in `--runs` fresh interpreters, the commands taking
turns so that a slow spell of the machine spreads over all of them. A run is
timed from spawn to exit. The commands are the README's examples, with
`simulate` at a small size, once with the default two-atom law and once
with a three-atom law, so that its time is mostly start-up. The script
prints JSON: per command, the command line, the median and quartiles of the wall
time in seconds, and which of scipy.optimize, scipy.sparse and scipy.linalg
the run had loaded when it exited. symvar is imported from PYTHONPATH, so
the same script measures any checkout:

    PYTHONPATH=src python scripts/cli_cold_start.py --runs 15
"""

from __future__ import annotations

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import time

SCIPY = ("scipy.optimize", "scipy.sparse", "scipy.linalg")
EXACT = '{"atoms": [["-1","0.3"],["0","0.7"]], "mode":"exact"}'
THREE_ATOM = '{"atoms": [[-1, 0.2], [-0.5, 0.2], [0, 0.6]], "mode": "float"}'
SIMULATE = ["simulate", "--experiment", "moments", "--p", "0.3", "--n", "100", "--order", "8",
            "--reps", "2", "--seed", "1"]
COMMANDS = {
    "certify": ["certify", "--p", "0.3", "--mode", "exact"],
    "convolve": ["convolve", "--kind", "free", "--x",
                 '{"atoms": [["0","0.5"],["1","0.5"]], "mode":"exact"}',
                 "--y", '{"atoms": [["-1","0.5"],["0","0.5"]], "mode":"exact"}', "--order", "6"],
    "symmetry": ["symmetry", "--p", "0.3", "--kind", "boolean", "--measure", EXACT],
    "optimize": ["optimize", "--kind", "classical", "--p", "0.3", "--grid", "-2:1:0.25",
                 "--include", "-1,0"],
    "simulate_two_atom": SIMULATE,
    "simulate_three_atom": [*SIMULATE, "--measure", THREE_ATOM],
}
# the run's exit code and the scipy subpackages it loaded, on stderr
CHILD = """
import json, sys
from symvar.cli import main
code = main(sys.argv[1:])
sys.stderr.write(json.dumps([code, [m for m in %r if m in sys.modules]]))
""" % (SCIPY,)


def run_once(argv):
    """(wall seconds, scipy subpackages loaded) of one run in a fresh interpreter."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=300, check=True)
    wall = time.perf_counter() - start
    code, loaded = json.loads(done.stderr.splitlines()[-1])
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return wall, loaded


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=11, help="fresh interpreters per command")
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be positive")
    walls = {name: [] for name in COMMANDS}
    loaded = {}
    for _ in range(args.runs):
        for name, command in COMMANDS.items():
            wall, loaded[name] = run_once(command)
            walls[name].append(wall)
    report = {}
    for name, command in COMMANDS.items():
        xs = walls[name]
        if len(xs) > 1:
            q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
        else:
            q1 = median = q3 = xs[0]
        report[name] = {"command": shlex.join(["symvar", *command]), "median_s": round(median, 3),
                        "q1_s": round(q1, 3), "q3_s": round(q3, 3), "scipy_loaded": loaded[name]}
    print(json.dumps({"runs": args.runs, "python": sys.version.split()[0], "commands": report},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's own checks; slow (about five minutes).

    python3 -m pytest bench/test_bench.py

Work counts (objective evaluations, Haar draws, cumulant calls, LP rows and
columns, jobs) must repeat exactly between two traced runs at one seed,
within each run as well as across runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 11


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("workload", ["search", "matrix", "exact_lp"])
def test_exact_counts_repeat(workload):
    results = []
    for _ in range(2):
        done = run(workload, 1)
        assert done.returncode == 0, done.stderr
        last = json.loads(done.stdout.splitlines()[-1])
        saved = json.loads((BENCH / ".out" / f"{workload}-seed{SEED}-trace1.json").read_text())
        counts = {name: m["value"] for name, m in last["metrics"].items() if m["unit"] == "count"}
        results.append((counts, saved["counts"], last["attempted"], last["failed"]))
    for _, per_pass, _, _ in results:
        assert all(len(set(values)) == 1 for values in per_pass.values()), per_pass
    assert results[0] == results[1]


def test_refuses_without_program():
    bare = BENCH / ".out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("search", 0, cwd=bare)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""

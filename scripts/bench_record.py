"""Run the benchmark in a parent and a change checkout, in alternating pairs, and record both sides.

Each pair runs BENCHMARK.json's `command` with `--workload W --seed S
--seconds T --trace 0`, T being its `run_seconds`, once in each checkout, in
that checkout's directory; the side that runs first alternates from pair to
pair, so that a slow spell of the machine falls on both. Each workload runs
its pairs at each seed given. The last stdout line of run.py is its result
(`correct`, `failed` and the end-to-end metrics), and its `facts` line names
the commit, nproc and BLAS threads. The script writes one JSON file holding,
per workload and seed:

- per side, each end-to-end metric's median and quartiles over the pairs
  (`statistics.quantiles(values, n=4)`, as bench/spread.py takes them), and
  whether every run was correct and how many jobs failed;
- per pair and metric, the verdict for the change: "better", "worse" or
  "same", by the metric's direction in BENCHMARK.json;
- per side, the src line count (`src/symvar/*.py`), the version, and the
  commit and machine facts run.py printed.

It touches no file under bench/ and judges nothing against bench/baseline.json.

    python scripts/bench_record.py --parent ../parent --change . \\
        --pairs matrix=5,search=2,exact_lp=2 --seeds 1,2 --out BENCH_28.json
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return med, q1, q3


def checkout_facts(root):
    src = sorted((root / "src" / "symvar").glob("*.py"))
    version = re.search(r'__version__ = "([^"]+)"', (root / "src" / "symvar" / "__init__.py").read_text())
    dirty = None
    if (root / ".git").exists():
        done = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=root,
                              capture_output=True, text=True)
        dirty = bool(done.stdout.strip())
    return {
        "path": str(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        "version": version.group(1) if version else None,
        "src_uncommitted": dirty,
    }


def bench_argv(spec, workload, seed):
    return [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0"]


def run_bench(root, spec, workload, seed):
    done = subprocess.run(bench_argv(spec, workload, seed), cwd=root, capture_output=True,
                          text=True, check=True)
    lines = done.stdout.strip().splitlines()
    facts = next(json.loads(line[len("facts "):]) for line in lines if line.startswith("facts "))
    result = json.loads(lines[-1])
    run = {"correct": result["correct"], "failed": result["failed"],
           "metrics": {name: m["value"] for name, m in result["metrics"].items()}}
    return run, {k: facts[k] for k in ("commit", "nproc", "blas_threads", "cpu_model", "blas")}


def verdict(parent, change, better):
    if change == parent:
        return "same"
    return "better" if (change < parent) == (better == "lower") else "worse"


def summarize(runs, metrics):
    out = {name: dict(zip(("median", "q1", "q3"), quartiles([r["metrics"][name] for r in runs])))
           for name in metrics}
    out["correct"] = all(r["correct"] for r in runs)
    out["failed"] = sum(r["failed"] for r in runs)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--pairs", default="matrix=5,search=2,exact_lp=2",
                    help="workload=pairs, comma separated")
    ap.add_argument("--seeds", default="1", help="bench seeds, comma separated")
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)

    sides = dict(zip(SIDES, (args.parent.resolve(), args.change.resolve())))
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {
        "command": " ".join(bench_argv(spec, "W", "S")),
        "sides": {side: checkout_facts(root) for side, root in sides.items()},
        "workloads": {},
    }
    for item in args.pairs.split(","):
        workload, pairs = item.split("=")
        record["workloads"][workload] = {}
        for seed in args.seeds.split(","):
            runs = {side: [] for side in SIDES}
            for i in range(int(pairs)):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    run, facts = run_bench(sides[side], spec, workload, int(seed))
                    record["sides"][side]["commit"] = facts.pop("commit")
                    record["machine"] = facts
                    runs[side].append(run)
                    print(f"{workload} seed {seed} pair {i} {side}: {json.dumps(run['metrics'])}",
                          file=sys.stderr)
            record["workloads"][workload][f"seed {seed}"] = {
                "pairs": int(pairs),
                "first": [SIDES[i % 2] for i in range(int(pairs))],
                "summary": {side: summarize(rs, better) for side, rs in runs.items()},
                "verdicts": {name: [verdict(p["metrics"][name], c["metrics"][name], way)
                                    for p, c in zip(runs["parent"], runs["change"])]
                             for name, way in better.items()},
                "runs": runs,
            }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

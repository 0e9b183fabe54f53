"""Run one workload once per seed and report the spread of each end-to-end metric.

    python3 bench/spread.py --workload search --seeds 1-10 [--out bench/baseline.json]

Run it from the root of a checkout. For every end-to-end metric it prints
the median of the per-run values, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json. Runs go one after another, never in
parallel. With ``--out``, one traced run at the first seed follows, and the
summary, the traced run's per-layer metrics and the machine facts are merged
into that JSON file under the workload's name.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(spec, workload, seed, seconds, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout.splitlines()
    facts = json.loads(next(x for x in lines if x.startswith("facts "))[len("facts "):])
    return json.loads(lines[-1]), facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    values, facts, failed = {}, None, []
    for seed in args.seeds:
        result, run_facts = run(spec, args.workload, seed, seconds, 0)
        facts = facts or run_facts
        failed.append(result["failed"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + "  ".join(f"{n} {m['value']:.4g}" for n, m in result["metrics"].items())
              + f"  failed {result['failed']}/{result['attempted']}", flush=True)

    summary = {"runs": len(args.seeds), "seconds": seconds, "failed_per_run": failed, "metrics": {}}
    for metric in spec["end_to_end"]:
        xs = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        summary["metrics"][metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread, "values": xs,
        }
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:12s} median {med:.5g} {metric['unit']}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"spread {spread:.4f}  bound {metric['bound']}  {flag}")

    if args.out:
        traced, _ = run(spec, args.workload, args.seeds[0], seconds, 1)
        summary["traced"] = {"seed": args.seeds[0], "correct": traced["correct"], "metrics": traced["metrics"]}
        existing = json.loads(args.out.read_text()) if args.out.exists() else {}
        existing[args.workload] = {**summary, "facts": facts}
        args.out.write_text(json.dumps(existing, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

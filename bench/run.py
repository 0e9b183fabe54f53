"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload {search,matrix,exact_lp} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; symvar is imported from ``src/``. The
workload's jobs (see workloads.py) run one after another in this process,
in passes over the whole job list, until the next pass would end after
``--seconds``; at least one pass always runs. Every job is checked against
its gate and a failed job is counted, never retried. A job listed in
``workloads.KNOWN_FAILURES`` that misses its gate without raising is
reported on its own line as a known failure and counted in the per-layer
``jobs.failed`` and ``jobs.fail_share``; every other failure makes the run
incorrect and is counted in ``failed``.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported:
the time and CPU time of one pass (each job's median across passes, summed),
the median set-up time of several fresh interpreters, and the peak RSS. With ``--trace 1`` untraced and traced
passes alternate (at least one of each) and the per-layer metrics are
reported, from spans recorded around symvar's public functions (tracing.py).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Lines before it give each
metric's median, quartiles and sample count, and the machine facts. The
full result (and, when tracing, every span) is written under ``bench/.out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / ".out"
SETUP_STARTS = 5
ONE_THREAD_DRAWS = 2

# A fresh interpreter: import symvar, then the workload's warm-up. The parent
# times it from spawn to the last timestamp; the child splits it.
SETUP_SNIPPET = """
import json, sys, time
t0 = time.monotonic()
import symvar
t1 = time.monotonic()
import workloads
workloads.warmup(sys.argv[1])
print(json.dumps([t0, t1, time.monotonic()]))
"""

ONE_THREAD_SNIPPET = """
import json, sys
import workloads
print(json.dumps(workloads.one_thread_draw_times(int(sys.argv[1]), int(sys.argv[2]))))
"""


def quartiles(xs):
    """(median, first quartile, third quartile) of a non-empty sample."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q2, q1, q3


def median(xs):
    return statistics.median(xs) if xs else 0.0


def child_env(threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
    return env


def run_child(snippet, args, threads):
    done = subprocess.run(
        [sys.executable, "-c", snippet, *map(str, args)],
        env=child_env(threads), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure_setup(workload, threads):
    """Set-up, import and warm-up times of SETUP_STARTS fresh interpreters."""
    setup, imports, warmups = [], [], []
    for _ in range(SETUP_STARTS):
        spawned = time.monotonic()
        t0, t1, t2 = run_child(SETUP_SNIPPET, [workload], threads)
        setup.append(t2 - spawned)
        imports.append(t1 - t0)
        warmups.append(t2 - t1)
    return setup, imports, warmups


class Outcome(NamedTuple):
    name: str
    ok: bool
    raised: bool
    residual: float | None
    wall: float
    cpu: float


class Pass:
    """Outcomes of one pass over the job list."""

    def __init__(self, wall, cpu, outcomes, run_id):
        self.wall, self.cpu, self.outcomes, self.run_id = wall, cpu, outcomes, run_id

    @property
    def failed(self):
        return [o.name for o in self.outcomes if not o.ok]

    def unexpected(self, known):
        """Failed jobs, less the known failures: a job in ``known`` that missed its gate without raising."""
        return [o.name for o in self.outcomes if not o.ok and (o.raised or o.name not in known)]


def run_pass(jobs, tracer, run_id):
    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for job in jobs:
        span = tracer.open(job.name, job.labels) if tracer else None
        t0, c0 = time.perf_counter(), time.process_time()
        raised = False
        try:
            ok, residual = job.run()
        except Exception:  # a job that raises is a failed job; keep going
            traceback.print_exc()
            ok, residual, raised = False, None, True
        finally:
            if span:
                tracer.close(span)
        outcomes.append(
            Outcome(job.name, bool(ok), raised, residual, time.perf_counter() - t0, time.process_time() - c0)
        )
    return Pass(time.perf_counter() - wall0, time.process_time() - cpu0, outcomes, run_id)


def job_list_time(passes, field):
    """Time of one pass over the job list: the sum over jobs of each job's median across passes.

    Other tenants of the machine slow it down in bursts of a few seconds;
    taking each job's median before summing keeps a burst that hit one
    pass out of the total.
    """
    per_job = zip(*[[getattr(o, field) for o in p.outcomes] for p in passes])
    return sum(statistics.median(times) for times in per_job)


def measure(jobs, seconds, tracer):
    """Closed loop over passes; with a tracer, untraced and traced passes alternate."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        run_id = f"pass{len(untraced) + len(traced)}"
        if trace_this:
            tracer.run = run_id
            tracer.install()
        try:
            done = run_pass(jobs, tracer if trace_this else None, run_id)
        finally:
            if trace_this:
                tracer.uninstall()
        (traced if trace_this else untraced).append(done)
        owed_traced_pass = tracer is not None and not traced
        if not owed_traced_pass and time.perf_counter() - start + done.wall > seconds:
            return untraced, traced


def layer_metrics(workloads, tracer, untraced, traced, setup, one_thread):
    """Per-layer metrics from the traced passes' spans, plus counts that must repeat."""
    spans = tracer.spans
    roots = []
    for i, s in enumerate(spans):
        roots.append(i if s.parent < 0 else roots[s.parent])

    def labels(i):
        return {**spans[roots[i]].attrs, **spans[i].attrs}

    def durations(name, **want):
        return [
            s.duration for i, s in enumerate(spans)
            if s.name == name and all(labels(i).get(k) == v for k, v in want.items())
        ]

    by_run = {p.run_id: [] for p in traced}
    for i, s in enumerate(spans):
        by_run[s.run].append(i)
    counts = {}

    def exact(name, count):
        """A count that must repeat exactly: ``count(span indexes of one pass)`` for every traced pass."""
        counts[name] = [count(ix) for ix in by_run.values()]
        return counts[name][0]

    m = {}
    for kind in workloads.KINDS:
        m[f"cumulants.roundtrip_ms.{kind}"] = 1e3 * median(durations(f"exact.roundtrip.{kind}"))
    m["cumulants.calls"] = exact("cumulants.calls", lambda ix: sum(spans[i].name.startswith("cumulants.") for i in ix))

    for kind in ("free", "boolean"):
        minimize = [i for i, s in enumerate(spans) if s.name == "optimizer.minimize" and labels(i)["kind"] == kind]
        evals = exact(
            f"optimizer.search.evals.{kind}",
            lambda ix, mine=set(minimize): sum(spans[i].attrs["nfev"] for i in ix if i in mine),
        )
        busy = sum(spans[i].duration for i in minimize) / len(traced)
        m[f"optimizer.search.evals.{kind}"] = evals
        m[f"optimizer.search.us_per_eval.{kind}"] = 1e6 * busy / evals if evals else 0.0
        m[f"optimizer.search.job_s.{kind}"] = median(
            [s.duration for s in spans if s.parent < 0 and s.attrs.get("kind") == kind and s.name.startswith("search.")]
        )

    for mode in ("exact_law", "moment_relax"):
        for size, (lo, hi, step) in workloads.LP_GRIDS.items():
            rows, cols = workloads.lp_size(workloads.sv.GridSpec(lo, hi, step).points(), mode)
            m[f"optimizer.lp.solve_s.{mode}.{size}"] = median(
                durations("optimizer.classical_min_variance", mode=mode, size=size)
            )
            m[f"optimizer.lp.rows.{mode}.{size}"] = rows
            m[f"optimizer.lp.cols.{size}"] = cols

    m["certificate.verify_identity_s"] = median(durations("certificate.verify_identity", points=10_001))
    m["certificate.verify_exact_ms"] = 1e3 * median(durations("certificate.verify_inequality_exact"))
    m["certificate.lower_bound_us"] = 1e6 * median(durations("certificate.certificate_lower_bound"))

    for n in (800, 1600):
        m[f"matrixlab.haar_s.n{n}"] = median(durations("matrixlab.sample_haar_unitary", n=n))
        for law in workloads.MATRIX_LAWS:
            m[f"matrixlab.draw_s.{law}.n{n}"] = median(durations("matrixlab.simulate_free_sum", law=law, n=n))
    for model, rotated in (("rotated", True), ("commuting", False)):
        m[f"matrixlab.proof_identity_s.{model}.n800"] = median(
            durations("matrixlab.test_proof_identity", n=800, rotated=rotated)
        )
    m["matrixlab.draws"] = exact(
        "matrixlab.draws", lambda ix: sum(spans[i].name == "matrixlab.sample_haar_unitary" for i in ix)
    )
    m["matrixlab.draw_1t_s.n1600"] = median(one_thread)
    m["matrixlab.gflop_computed.n1600"] = workloads.draw_flops(1600) / 1e9

    m["setup.import_s"] = median(setup[1])
    m["setup.warmup_s"] = median(setup[2])
    for command in ("certify", "convolve", "symmetry"):
        m[f"cli.main_ms.{command}"] = 1e3 * median(durations("cli.main", command=command))

    own = tracer.self_times()
    for layer in ("cumulants", "optimizer", "certificate", "matrixlab", "cli"):
        m[f"self_s.{layer}"] = sum(
            t for s, t in zip(spans, own) if s.name.startswith(layer + ".")
        ) / len(traced)
    m["self_s.jobs"] = sum(t for s, t in zip(spans, own) if s.parent < 0) / len(traced)

    m["trace.overhead_s"] = job_list_time(traced, "wall") - job_list_time(untraced, "wall")
    outcomes = [o for p in untraced + traced for o in p.outcomes]
    m["jobs.attempted"] = exact("jobs.attempted", lambda ix: sum(spans[i].parent < 0 for i in ix))
    m["jobs.failed"] = max(len(p.failed) for p in untraced + traced)
    m["jobs.fail_share"] = sum(not o.ok for o in outcomes) / len(outcomes)
    m["jobs.residual_max"] = max([o.residual for o in outcomes if o.ok and o.residual is not None], default=0.0)
    return m, counts


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(numpy):
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be read."""
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def machine_facts(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "seed": seed,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["search", "matrix", "exact_lp"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "symvar" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no symvar sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    # one process, BLAS threads capped at the cores this process may use;
    # set before numpy loads
    threads = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = str(threads)
    sys.path.insert(0, str(SRC))
    setup = measure_setup(args.workload, threads)

    import tracing
    import workloads

    workloads.warmup(args.workload)
    jobs = workloads.JOB_LISTS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = measure(jobs, args.seconds, tracer)
    passes = untraced + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    samples = {
        "wall_s": [p.wall for p in untraced],
        "cpu_s": [p.cpu for p in untraced],
        "setup_s": setup[0],
        "peak_rss_mb": [peak_rss_mb],
    }
    unexpected = [p.unexpected(workloads.KNOWN_FAILURES) for p in passes]
    correct = not any(unexpected)
    counts = {}
    if args.trace:
        one_thread = []
        if args.workload == "matrix":
            one_thread = run_child(ONE_THREAD_SNIPPET, [args.seed, ONE_THREAD_DRAWS], 1)
        values, counts = layer_metrics(workloads, tracer, untraced, traced, setup, one_thread)
        for name, per in counts.items():
            if len(set(per)) != 1:
                print(f"bench: count {name} differs between traced passes: {per}", file=sys.stderr)
                correct = False
        declared = spec["per_layer"]
    else:
        values = {
            "wall_s": job_list_time(untraced, "wall"),
            "cpu_s": job_list_time(untraced, "cpu"),
            "setup_s": median(setup[0]),
            "peak_rss_mb": peak_rss_mb,
        }
        declared = spec["end_to_end"]

    mismatch = {d["name"] for d in declared} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics computed and metrics declared differ: {sorted(mismatch)}")

    facts = machine_facts(args.seed)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced)} untraced, {len(traced)} traced")
    print("facts " + json.dumps(facts))
    print("samples (per pass, per fresh interpreter for setup_s): median, quartiles, count")
    for name, xs in samples.items():
        med, q1, q3 = quartiles(xs)
        print(f"  {name:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(xs)}")
    failed_jobs = sorted({name for names in unexpected for name in names})
    if failed_jobs:
        print("failed jobs: " + ", ".join(failed_jobs))
    known_failed = sorted({name for p in passes for name in p.failed} - set(failed_jobs))
    for name in known_failed:
        misses = sum(name in p.failed for p in passes)
        print(f"known failure: {name} missed its gate in {misses} of {len(passes)} passes: "
              f"{workloads.KNOWN_FAILURES[name]}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    print("metrics" + (" (traced passes)" if args.trace else " (untraced passes)"))
    for name, metric in metrics.items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    result = {
        "correct": correct,
        "attempted": sum(len(p.outcomes) for p in passes),
        "failed": sum(map(len, unexpected)),
        "metrics": metrics,
    }
    stem.with_suffix(".json").write_text(json.dumps(
        {**result, "facts": facts, "samples": samples, "counts": counts, "failed_jobs": failed_jobs,
         "known_failures": {name: sum(name in p.failed for p in passes) for name in known_failed}}, indent=1
    ))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

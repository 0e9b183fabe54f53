"""The benchmark's three workloads: fixed job lists made from a seed, with gates.

A job is one call into symvar whose result is checked against a gate. The
runner executes a workload's jobs one after another in a single process (a
closed loop with one caller). Every job returns ``(ok, residual)``: whether
the result met its gate, and the odd-moment residual of a job that has one.
A job that raises counts as failed; nothing is retried or skipped.

Why each workload exists (see README.md for which layer metric should move
which end-to-end metric):

* ``search``: the only user of the float cumulant kernels. Nearly all of its
  time is objective evaluations inside Nelder-Mead, and a free evaluation
  costs about 3x a Boolean one, so the kernel's cost varies across jobs.
* ``matrix``: the only BLAS-bound workload and the only one that uses every
  core. The two-atom law is the case a two-projection fast path would take;
  the three-atom law bypasses it. The commuting rows bypass BLAS altogether.
* ``exact_lp``: the only workload on ``Fraction`` arithmetic and the dense
  simplex. A kernel rewrite that helps floats but slows ``Fraction`` shows
  here and not on ``search``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Callable

import numpy as np

import symvar as sv
from symvar import cli, matrixlab

KINDS = ("classical", "free", "boolean")
P_MATRIX = 0.3
P_LP = 0.3
ORDER = 13
LP_GATE_TOL = 1e-9
LP_GRIDS = {301: (-2.0, 1.0, 0.01), 601: (-2.0, 1.0, 0.005)}
RELAX_ORDER = 6
MATRIX_LAWS = {
    # -e in law: the equality case, and the case a two-projection fast path takes
    "two_atom": [(-1.0, 0.3), (0.0, 0.7)],
    "three_atom": [(-1.0, 0.2), (-0.5, 0.2), (0.0, 0.6)],
}


@dataclass
class Job:
    """One checked call into the program; ``labels`` name it in the per-layer metrics."""

    name: str
    run: Callable[[], tuple]
    labels: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# search: penalized Nelder-Mead over free and Boolean symmetrizers
# ---------------------------------------------------------------------------

def _search_job(p, kind, cfg):
    r = sv.nc_min_variance(p, kind, cfg)
    # criterion 4's gates
    ok = r.residual < 1e-6 and p - 1e-4 <= r.objective <= p + 1e-3
    return ok, r.residual


# Free p=0.7 is left out: its evaluation count ranges from 28k to 50k across
# seeds (the Nelder-Mead polish), which alone spreads this workload's time by
# 0.18 between seeds. Two free p=0.3 searches take its place.
SEARCH_JOBS = (("free", 0.3, 0), ("free", 0.3, 1), ("boolean", 0.3, 0), ("boolean", 0.7, 0))


def search_jobs(seed):
    seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(2)]
    return [
        Job(
            f"search.{kind}.p{p}",
            lambda p=p, kind=kind, cfg=sv.SearchConfig(restarts=8, seed=seeds[i]): _search_job(p, kind, cfg),
            {"kind": kind},
        )
        for kind, p, i in SEARCH_JOBS
    ]


# ---------------------------------------------------------------------------
# matrix: Haar random-matrix experiments for two laws of y
# ---------------------------------------------------------------------------

def _law(name):
    return sv.DiscreteMeasure.from_atoms(MATRIX_LAWS[name], mode="float")


def _moments_job(law, n, seed):
    model = matrixlab.MatrixModel(n=n, p=P_MATRIX, y_law=law, seed=seed)
    rep = matrixlab.empirical_vs_predicted(model, 8, 10)
    return not rep["any_flagged"], None  # criterion 7's flag test


def _draw(law, n, seed):
    """The draw job, with the free-convolution prediction computed beforehand.

    Gate: every moment within criterion 7's 10/n of the prediction. A single
    draw at n=1600 lands within 7e-4 of it, against 10/n = 6.25e-3.
    """
    model = matrixlab.MatrixModel(n=n, p=P_MATRIX, y_law=law, seed=seed)
    predicted = sv.convolve_moments(
        sv.moments_of(sv.bernoulli(P_MATRIX), 8), sv.moments_of(law, 8), "free"
    ).values

    def job():
        m = matrixlab.simulate_free_sum(model, 8).values
        return all(abs(a - b) <= 10 / n for a, b in zip(m, predicted)), None

    return job


def _proof_identity_job(law, seed):
    rows = matrixlab.proof_identity_report(P_MATRIX, law, [200, 400, 800], 3, seed)
    # the rotated residual has no target; the commuting model realizes the
    # expansion exactly, since the multiplicities round without remainder
    ok = len(rows) == 9 and all(
        math.isfinite(r["rotated_residual"]) and r["commuting_residual"] <= 1e-9 for r in rows
    )
    return ok, None


def matrix_jobs(seed):
    seeds = iter(int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(8))
    jobs = []
    for name in MATRIX_LAWS:
        law = _law(name)
        s = next(seeds)
        jobs.append(Job(f"matrix.moments.{name}", lambda law=law, s=s: _moments_job(law, 800, s), {"law": name}))
        for _ in range(2):
            s = next(seeds)
            jobs.append(Job(f"matrix.draw.{name}", _draw(law, 1600, s), {"law": name}))
        s = next(seeds)
        jobs.append(Job(f"matrix.proof_identity.{name}", lambda law=law, s=s: _proof_identity_job(law, s), {"law": name}))
    return jobs


# ---------------------------------------------------------------------------
# exact_lp: Fraction kernels, the exact certificate, the classical LP, the CLI
# ---------------------------------------------------------------------------

def _random_rational(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 6))


def _random_exact_measure(rng, max_atoms=4):
    n = rng.randint(1, max_atoms)
    locs = rng.sample([Fraction(i, 4) for i in range(-12, 13)], n)
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return sv.DiscreteMeasure.from_atoms(
        [(t, Fraction(w, total)) for t, w in zip(locs, raw)], mode="exact"
    )


def _roundtrip_job(m, kind):
    back = sv.cumulants_to_moments(sv.moments_to_cumulants(m, kind))
    return back.values == m.values, None


def _binomial_sum(mx, my):
    """Classical convolution by the binomial formula, independent of cumulants."""
    ext_x, ext_y = (1,) + mx.values, (1,) + my.values
    return tuple(
        sum(comb(n, j) * ext_x[j] * ext_y[n - j] for j in range(n + 1))
        for n in range(1, mx.order + 1)
    )


def _classical_convolution(mux, muy):
    """The job, with its expected moments from the binomial formula computed beforehand."""
    mx, my = sv.moments_of(mux, ORDER), sv.moments_of(muy, ORDER)
    expected = _binomial_sum(mx, my)
    return lambda: (sv.convolve_moments(mx, my, "classical").values == expected, None)


def _verify_exact_job(p):
    rep = sv.verify_inequality_exact(p)
    ok = (
        rep.max_slack_violation <= 0
        and tuple(w[0] for w in rep.witnesses) == (Fraction(-1), Fraction(0))
        and rep.identity_ok
    )
    return ok, None


def _verify_identity_job(p, grid):
    return sv.verify_identity(p, grid) is True, None


def _triangle(t):
    u = (t + Fraction(1, 2)) % 2 - Fraction(1, 2)
    return u if u <= Fraction(1, 2) else 1 - u


def _lower_bound(mu, p):
    """The job, with its expected value computed beforehand.

    Through the identity the atomwise slack is t^2 + t - h(t), free of p.
    """
    expected = sum(w * (t * t + t - _triangle(t)) for t, w in mu.atoms)
    return lambda: (sv.certificate_lower_bound(mu, p) == expected >= 0, None)


def lp_size(points, mode):
    """(rows, cols) of the classical LP on these grid points, counted from the grid."""
    if mode == "moment_relax":
        return 1 + RELAX_ORDER + 1, len(points)
    keys = []
    for v in sorted(set(points) | {t + 1 for t in points}):
        key = abs(v)
        if key >= 1e-9 and not any(abs(key - d) < 1e-9 for d in keys):
            keys.append(key)
    return 1 + len(keys), len(points)


# Jobs that miss their gate at the seed commit because of a known program
# defect. They stay in the timed job list and are gated on every pass; a
# miss is reported as a known failure (and in jobs.failed / jobs.fail_share)
# instead of making the run incorrect. Raising is never a known failure.
KNOWN_FAILURES = {
    "lp.moment_relax.601": "the dense simplex returns 'optimal' at an infeasible point "
    "(|Ax - b| ~ 0.33, residual 0.31); HiGHS solves the same LP to 2e-15",
}


def _lp_job(grid, mode):
    relax = RELAX_ORDER if mode == "moment_relax" else None
    r = sv.classical_min_variance(P_LP, grid, mode=mode, relax_order=relax)
    pq = P_LP * (1 - P_LP)
    ok = (
        r.status == "optimal"
        and r.residual <= LP_GATE_TOL
        and r.objective >= pq - LP_GATE_TOL
        and (mode != "exact_law" or abs(r.objective - pq) <= LP_GATE_TOL)
    )
    return ok, r.residual


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def run_cli(argv):
    """Call ``symvar.cli.main`` in-process; return (exit code, stdout parsed as strict JSON).

    The parsed output is None when stdout is not strict JSON (NaN and
    Infinity are rejected).
    """
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    try:
        out = json.loads(buf.getvalue(), parse_constant=_reject_constant)
    except ValueError:
        out = None
    return code, out


def _cli_certify_job(p):
    code, out = run_cli(["certify", "--p", str(p)])
    ok = (
        code == 0
        and out is not None
        and out["max_slack_violation"] == "0"
        and out["identity_ok"] is True
        and out["p_exact"] == f"{p.numerator}/{p.denominator}"
    )
    return ok, None


def _cli_convolve_job(argv, expected):
    code, out = run_cli(argv)
    ok = code == 0 and out is not None and tuple(Fraction(v) for v in out["moments"]) == expected
    return ok, None


def _cli_convolve(mux, c):
    """The CLI call on x and the point mass at c, with its expected moments.

    Free convolution with a point mass is a shift, so the expected moments
    come from the binomial formula, independently of the cumulant kernels.
    """
    mc = sv.moments_of(sv.DiscreteMeasure.from_atoms([(c, 1)]), ORDER)
    expected = _binomial_sum(sv.moments_of(mux, ORDER), mc)
    argv = ["convolve", "--kind", "free", "--x", mux.to_json(), "--y", json.dumps({"atoms": [[str(c), "1"]]}),
            "--order", str(ORDER)]
    return lambda: _cli_convolve_job(argv, expected)


def _cli_symmetry_job(p):
    y = sv.negate(sv.bernoulli(p))
    code, out = run_cli(["symmetry", "--p", str(p), "--measure", y.to_json(), "--kind", "boolean"])
    ok = code == 0 and out is not None and out["residual_exact"] == "0" and out["residual"] == 0.0
    return ok, (out or {}).get("residual")


def exact_lp_jobs(seed):
    rng = random.Random(seed)
    jobs = []
    # (a) exact kernels
    for kind in KINDS:
        for _ in range(200):
            m = sv.MomentSequence(tuple(_random_rational(rng) for _ in range(ORDER)))
            jobs.append(Job(f"exact.roundtrip.{kind}", lambda m=m, kind=kind: _roundtrip_job(m, kind), {"kind": kind}))
    for _ in range(20):
        mux, muy = _random_exact_measure(rng), _random_exact_measure(rng)
        jobs.append(Job("exact.convolve.classical", _classical_convolution(mux, muy)))
    # (b) the exact certificate
    identity_grid = [Fraction(i, 1000) - 5 for i in range(10_001)]
    for p in (Fraction(1, 10), Fraction(3, 10), Fraction(9, 10)):
        jobs.append(Job("certificate.verify_exact", lambda p=p: _verify_exact_job(p)))
        jobs.append(Job("certificate.verify_identity", lambda p=p: _verify_identity_job(p, identity_grid)))
        for _ in range(500):
            mu = _random_exact_measure(rng)
            jobs.append(Job("certificate.lower_bound", _lower_bound(mu, p)))
    # (c) the classical LP; the 601-point moment_relax job fails its gate at
    # the seed commit (see KNOWN_FAILURES) and is kept so that the failure
    # stays visible
    for mode in ("exact_law", "moment_relax"):
        for size, (lo, hi, step) in LP_GRIDS.items():
            grid = sv.GridSpec(lo, hi, step)
            jobs.append(Job(f"lp.{mode}.{size}", lambda g=grid, mode=mode: _lp_job(g, mode), {"mode": mode, "size": size}))
    # (d) the CLI, in-process
    p_cert, p_sym = (Fraction(rng.choice([k for k in range(1, 20) if k != 10]), 20) for _ in range(2))
    mux, shift = _random_exact_measure(rng), _random_rational(rng)
    jobs.append(Job("cli.certify", lambda: _cli_certify_job(p_cert), {"command": "certify"}))
    jobs.append(Job("cli.convolve", _cli_convolve(mux, shift), {"command": "convolve"}))
    jobs.append(Job("cli.symmetry", lambda: _cli_symmetry_job(p_sym), {"command": "symmetry"}))
    return jobs


def draw_flops(n):
    """Real floating-point operations of one Haar-rotated draw, computed from n.

    Complex Householder QR with Q formed (2 x 16/3 n^3), the conjugation
    (u*d) @ u^H as one complex matrix product (8 n^3) and eigvalsh's
    reduction to tridiagonal form (16/3 n^3); lower-order terms omitted.
    """
    return 24 * n**3


def one_thread_draw_times(seed, draws):
    """Seconds per three-atom draw at n=1600, after a warm-up draw.

    Run it in a process whose BLAS is limited to one thread: this is the
    single-threaded baseline of ``matrix``'s n=1600 draws.
    """
    law = _law("three_atom")
    matrixlab.simulate_free_sum(matrixlab.MatrixModel(400, P_MATRIX, law, 0), 8)
    times = []
    for child in np.random.SeedSequence([seed, 1]).spawn(draws):
        model = matrixlab.MatrixModel(1600, P_MATRIX, law, int(child.generate_state(1)[0]))
        start = time.perf_counter()
        matrixlab.simulate_free_sum(model, 8)
        times.append(time.perf_counter() - start)
    return times


JOB_LISTS = {"search": search_jobs, "matrix": matrix_jobs, "exact_lp": exact_lp_jobs}


def warmup(workload):
    """Pay each workload's lazy one-time costs (BLAS start-up, first calls) before timing."""
    if workload == "search":
        for kind in ("free", "boolean"):
            sv.nc_min_variance(0.3, kind, sv.SearchConfig(penalty_weights=(1.0,), restarts=1, atom_budget=1))
    elif workload == "matrix":
        for name in MATRIX_LAWS:
            matrixlab.simulate_free_sum(matrixlab.MatrixModel(400, P_MATRIX, _law(name), 0), 8)
    elif workload == "exact_lp":
        sv.classical_min_variance(P_LP, sv.GridSpec(-2.0, 1.0, 0.25))
        m = sv.moments_of(sv.bernoulli(Fraction(1, 3)), ORDER)
        for kind in KINDS:
            sv.cumulants_to_moments(sv.moments_to_cumulants(m, kind))
        run_cli(["certify", "--p", "1/3"])
    else:
        raise KeyError(workload)

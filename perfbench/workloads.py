"""Workload job lists and their output checks.

A workload is a list of jobs run in one fresh interpreter.  A job is either
one ``hilbmat`` CLI invocation (driven through ``hilbmat.cli.main``) or one
call into the public library.  Each job is one operation: one sweep size,
one CLI invocation or one determinant instance.  Jobs are kept short (at
most about a second), because ``run.py`` takes the fastest of each job's
repetitions: on a machine whose speed drifts, a short job is far more likely
than a long one to run once undisturbed.  Job lists depend only on the
workload name, the size, the seed and the reference, so the same seed gives
the same inputs.

Checks compare outputs against ``reference.json`` (values the program gave
at the commit that defined the benchmark) or against identities the outputs
must satisfy.  CSV bytes are never compared with the reference, because a
later change may move values in their last bits; ``run.py`` checks instead
that repetitions of one run write identical bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

WORKLOADS = ("figure1_sweep", "hankel_witness", "verify_suite", "determinants")

# "full" is what BENCHMARK.json runs; "tiny" keeps the benchmark's own tests
# fast while still crossing the dense/Lanczos cutoff (R = 256) on
# figure1_sweep.
SIZES = {
    "full": dict(sweep_r_max=2000, hankel_r_max=300, t_stride=3,
                 witness_r=(100, 1000, 1500),
                 verify_seeds=(10, 20, 30, 40, 50), verify_max_r=50,
                 det_r_max=14, det_seeds_per_r=10, minor_r=12),
    "tiny": dict(sweep_r_max=300, hankel_r_max=30, t_stride=3,
                 witness_r=(100, 200),
                 verify_seeds=(1, 3), verify_max_r=12,
                 det_r_max=8, det_seeds_per_r=2, minor_r=6),
}

# Tolerances of the output checks.
NORM_ABS = 1e-10       # sweep norms against the reference
DOMINANCE = 1e-10      # ||H_R|| <= ||T_{2R+1}|| + DOMINANCE
DET_REL = 1e-10        # matching vs Pfaffian^2 vs LU, and det(T_r) vs reference
POWER_SUM_REL = 1e-10  # minor sums and power sums against numpy eigenvalues


@dataclass(frozen=True)
class Job:
    """One operation of a workload; ``id`` is also its trace invocation id."""

    id: str
    argv: tuple = ()     # hilbmat CLI arguments, for a CLI invocation
    call: str = ""       # library job name, see worker.LIB_CALLS
    args: tuple = ()
    out: str = ""        # CSV file the job writes (passed to the CLI as --out)


def jobs(workload: str, seed: int, size: str, reference: dict) -> list:
    p = SIZES[size]
    if workload == "figure1_sweep":
        # The sweep grid is the one `sweep-gap --R-max` used when the
        # reference was taken; the seed does not change it.  Each size is
        # its own job so that its time is measured on its own.
        grid = sorted(int(R) for R in reference["figure1_norms"][size])
        out = [Job(f"R{R}", call="toeplitz_norm", args=(R,)) for R in grid]
        out.append(Job("figure1-csv", call="figure1_csv", args=tuple(grid),
                       out="figure1.csv"))
        return out
    if workload == "hankel_witness":
        # The Hankel sweep is split like the figure-1 sweep; the seed does
        # not change this workload, because every size costs differently.
        n = p["hankel_r_max"]
        hankel_r = tuple(range(1, n + 1))
        out = [Job(f"H{R}", call="hankel_norm", args=(R,)) for R in hankel_r]
        out.append(Job("hankel-csv", call="hankel_csv", args=hankel_r, out="hankel.csv"))
        out += [Job(f"T{2 * r + 1}", call="toeplitz_norm", args=(2 * r + 1,))
                for r in range(1, n + 1, p["t_stride"])]
        out += [Job(f"witness-{r}", ("witness", "--R", str(r)), out=f"witness-{r}.csv")
                for r in p["witness_r"]]
        out += [Job("prolate-gap", ("prolate-gap",), out="prolate.csv"),
                Job("gs-rate", ("gs-rate",), out="gs.csv")]
        return out
    if workload == "verify_suite":
        # run_suite has no seed offset, so the seed cannot vary this workload
        return [Job(f"verify-{s}", ("verify", "--seeds", str(s),
                                    "--max-R", str(p["verify_max_r"])),
                    out=f"verify-{s}.csv")
                for s in p["verify_seeds"]]
    if workload == "determinants":
        k = p["det_seeds_per_r"]
        out = [Job(f"det-R{r}-s{s}", ("det", "--R", str(r), "--seed", str(s)))
               for r in range(2, p["det_r_max"] + 1)
               for s in range(seed * k, seed * k + k)]
        out += [Job(f"det-T{r}", ("det", "--T", str(r)))
                for r in range(2, p["det_r_max"] + 1)]
        m = p["minor_r"]
        out += [Job(f"minor-k{kk}", call="minor_sum", args=(seed, m, kk))
                for kk in range(1, m + 1)]
        out.append(Job("newton-girard", call="newton_girard", args=(seed, m)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Checks.  Each takes the job list, the per-job results (keyed by job id; a
# job that raised has no entry), the text each job wrote (its CSV file, or
# the standard output of a CLI job without one), the reference and the size.
# It returns one failure string per failed operation.
# ---------------------------------------------------------------------------


def _csv_rows(text: str) -> list:
    """Rows of a CSV text as lists of strings, header dropped."""
    return [line.split(",") for line in text.splitlines()[1:]]


def _cli_ok(job, results, failures) -> bool:
    res = results.get(job.id)
    if res is None:
        failures.append(f"{job.id}: raised")
        return False
    if res["exit"] != 0:
        failures.append(f"{job.id}: exit code {res['exit']}")
        return False
    return True


def check_figure1_sweep(job_list, results, texts, reference, size):
    expected = reference["figure1_norms"][size]
    failures = []
    prev = -math.inf
    for job in job_list[:-1]:
        R = job.args[0]
        norm = results.get(job.id)
        if norm is None:
            failures.append(f"{job.id}: raised")
            continue
        gap = math.pi - norm
        upper = (math.pi * math.e * math.log(R) + 2 * math.pi * math.e**3) / R
        if abs(norm - expected[str(R)]) > NORM_ABS:
            failures.append(f"{job.id}: norm {norm!r} vs reference {expected[str(R)]!r}")
        elif not math.pi / (2 * R) < gap <= upper:
            failures.append(f"{job.id}: gap {gap!r} outside (pi/2R, {upper!r}]")
        elif norm < prev:
            failures.append(f"{job.id}: ||T_R|| decreased")
        prev = max(prev, norm)
    csv = job_list[-1]
    rows = _csv_rows(texts.get(csv.id, ""))
    if [int(r[0]) for r in rows] != list(csv.args) or any(
            float(r[1]) != results.get(f"R{r[0]}") for r in rows):
        failures.append(f"{csv.id}: rows do not match the computed norms")
    return failures


def check_hankel_witness(job_list, results, texts, reference, size):
    failures = []
    for job in job_list:
        if job.argv and _cli_ok(job, results, failures) and not _csv_rows(texts[job.id]):
            failures.append(f"{job.id}: empty table")
    hankel = {job.args[0]: results.get(job.id) for job in job_list if job.call == "hankel_norm"}
    for R, h in hankel.items():
        if h is None:
            failures.append(f"H{R}: raised")
        elif not 0 < h < math.pi:
            failures.append(f"H{R}: norm {h!r} outside (0, pi)")
    csv = next(job for job in job_list if job.call == "hankel_csv")
    rows = _csv_rows(texts.get(csv.id, ""))
    if [int(r[0]) for r in rows] != list(csv.args) or any(
            float(r[1]) != hankel.get(int(r[0])) for r in rows):
        failures.append(f"{csv.id}: rows do not match the computed norms")
    for job in job_list:
        if job.call != "toeplitz_norm":
            continue
        t = results.get(job.id)
        h = hankel.get((job.args[0] - 1) // 2)
        if t is None:
            failures.append(f"{job.id}: raised")
        elif h is not None and not h <= t + DOMINANCE:
            failures.append(f"{job.id}: ||H_R|| = {h!r} > ||T|| = {t!r}")
    return failures


def verify_rows(csv_text: str) -> list:
    """Sorted "name,seed,R,passed" rows of a verify reports CSV."""
    return sorted(f"{r[0]},{r[1]},{r[2]},{r[5]}" for r in _csv_rows(csv_text))


def check_verify_suite(job_list, results, texts, reference, size):
    failures = []
    for job in job_list:
        if not _cli_ok(job, results, failures):
            continue
        want = reference["verify_rows"][size][job.argv[2]]
        got = verify_rows(texts[job.id])
        if got != want:
            missing = len(set(want) - set(got))
            failures.append(f"{job.id}: rows differ from reference "
                            f"({len(got)} rows, {missing} reference rows missing)")
    return failures


def _rel_close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_determinants(job_list, results, texts, reference, size, *, matrix_for):
    """``matrix_for(seed, R)`` rebuilds the minor-sum instance, whose numpy
    eigenvalues give the expected minor sums and power sums."""
    import numpy as np

    failures = []
    for job in job_list:
        if not job.argv or not _cli_ok(job, results, failures):
            continue
        vals = {k: float(v) for k, v in
                (line.split("=") for line in texts[job.id].splitlines())}
        R = int(job.argv[2])
        m = vals["matching"]
        if R % 2:
            ok = m == 0.0 and "pfaffian_sq" not in vals
        else:
            ok = (_rel_close(m, vals["lu"], DET_REL)
                  and _rel_close(m, vals["pfaffian_sq"], DET_REL))
        if ok and job.argv[1] == "--T":
            ok = _rel_close(m, reference["det_T"][str(R)], DET_REL)
            if R == 4:
                ok = ok and _rel_close(m, 169 / 144, DET_REL)
        if not ok:
            failures.append(f"{job.id}: {vals}")

    ng = job_list[-1]
    seed, R = ng.args
    lam = np.linalg.eigvals(matrix_for(seed, R))
    # elementary symmetric functions of the eigenvalues and of their moduli
    e = np.poly(lam)
    e_abs = np.poly(-np.abs(lam))
    for job in job_list:
        if job.call != "minor_sum":
            continue
        k = job.args[2]
        s = results.get(job.id)
        if s is None:
            failures.append(f"{job.id}: raised")
        elif not (s == 0.0 if k % 2 else
                  abs(s - float(((-1) ** k * e[k]).real)) <= POWER_SUM_REL * abs(e_abs[k])):
            failures.append(f"{job.id}: sigma_{k} = {s!r}")
    sums = results.get(ng.id)
    if sums is None:
        failures.append(f"{ng.id}: raised")
    else:
        for l, s in enumerate(sums, start=1):
            want = float(np.sum(lam**l).real)
            if abs(s - want) > POWER_SUM_REL * float(np.sum(np.abs(lam) ** l)):
                failures.append(f"{ng.id}: s_{l} = {s!r} vs {want!r}")
                break
    return failures


CHECKS = {
    "figure1_sweep": check_figure1_sweep,
    "hankel_witness": check_hankel_witness,
    "verify_suite": check_verify_suite,
    "determinants": check_determinants,
}

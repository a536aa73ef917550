"""hilbmat benchmark: end-to-end metrics per workload, or per-layer metrics.

    python3 perfbench/run.py --workload figure1_sweep --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/hilbmat``.  Each
repetition of the workload runs in a fresh interpreter (``worker.py``), one
at a time, because a CLI user starts with empty ``lru_cache``s on every
invocation.  Repetitions continue until ``--seconds`` have passed (at least
``MIN_REPS``); the reported values are medians over them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Details of the run go to ``.perfbench_out/`` in the checkout.

Exit code 2: no hilbmat sources in the checkout, or they do not import.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

MIN_REPS = 3
# wall_s is given in seconds on a machine where worker.probe() takes this
# long; a fixed constant, so it only sets the scale.
PROBE_REF_S = 1e-3
# No repetition starts after this many seconds, and none outlives the hard
# limit, so one run ends within 180 s even when the program slows down.
LAST_START_S = 110.0
HARD_LIMIT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COUNTS = ("spectra.lanczos_solves", "spectra.op_applies", "spectra.dense_solves",
          "matrices.calls", "identities.instances", "identities.checks",
          "determinants.matching_calls", "symbols.calls", "cli.csv_rows")


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark at all."""


def layer_unit(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_rep(args, trace: bool, rep: int, timeout: float) -> dict:
    """One worker process; returns its report, or a failure report."""
    out_dir = OUT / args.workload
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--trace", str(int(trace)),
           "--reference", str(args.reference), "--out-dir", str(out_dir),
           "--checkout", str(ROOT)]
    if trace:
        cmd += ["--spans", str(OUT / f"{args.workload}-seed{args.seed}-rep{rep}.spans.json")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        return {"crashed": f"timed out after {timeout:.0f} s"}
    if proc.returncode == 3:
        raise SetupError(stderr.strip())
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit code {proc.returncode}: {stderr.strip()[-2000:]}"}
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    report["wall_s"] = sum(report["job_s"].values())
    report["trace"] = trace
    return report


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(args) -> tuple:
    """Repetitions until --seconds have passed; returns (reps, attempted, failures)."""
    ops = len(workloads.jobs(args.workload, args.seed, args.size, args.reference_data))
    reps, failures = [], []
    attempted = 0
    digests = None
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if reps and (elapsed >= LAST_START_S
                     or (elapsed >= args.seconds and len(reps) >= MIN_REPS)):
            break
        # in a traced run, every second repetition is traced
        rep = run_rep(args, bool(args.trace) and len(reps) % 2 == 1, len(reps),
                      max(5.0, HARD_LIMIT_S - elapsed))
        attempted += ops
        if "crashed" in rep:
            failures += [f"rep {len(reps)}: {rep['crashed']}"] * ops
            break
        failures += rep["failures"][:ops]
        # determinism: every repetition must write the bytes the first wrote
        if digests is None:
            digests = rep["digests"]
        else:
            failures += [f"rep {len(reps)}: {key} differs from rep 0"
                         for key in sorted(set(digests) | set(rep["digests"]))
                         if digests.get(key) != rep["digests"].get(key)]
        reps.append(rep)
    return reps, attempted, failures


def summarize(args, reps) -> dict:
    """Metric name -> (value, unit, detail)."""
    untraced = [r for r in reps if not r["trace"]]
    traced = [r for r in reps if r["trace"]]
    metrics = {}
    if not args.trace:
        for name, unit in END_TO_END.items():
            values = [r[name] for r in untraced]
            q1, q2, q3 = quartiles(values)
            detail = f"{len(values)} reps; quartiles {q1:.6g} {q2:.6g} {q3:.6g}"
            metrics[name] = (q2, unit, detail)
        # The speed of a shared machine drifts by up to half, in phases of
        # seconds to minutes, and a whole run can fall into one slow phase.
        # So each job's time is divided by the speed probe taken around it,
        # and wall_s sums, over jobs, the median over repetitions of these
        # ratios, in seconds at the reference probe time PROBE_REF_S.
        jobs = list(untraced[0]["job_s"])
        value = PROBE_REF_S * sum(
            statistics.median(r["job_s"][job] / ((r["probe_s"][i] + r["probe_s"][i + 1]) / 2)
                              for r in untraced)
            for i, job in enumerate(jobs))
        raw = sum(statistics.median(r["job_s"][job] for r in untraced) for job in jobs)
        probe = statistics.median(p for r in untraced for p in r["probe_s"])
        metrics["wall_s"] = (value, "s", f"probe-normalized; raw {raw:.6g} s at median probe "
                             f"{probe * 1e3:.4g} ms; " + metrics["wall_s"][2])
        return metrics
    if not (traced and untraced):
        return metrics
    for name in traced[0]["layers"]:
        values = [r["layers"][name] for r in traced]
        detail = f"median of {len(values)}"
        if name in COUNTS and len(set(values)) > 1:
            detail += f"; count spread {min(values)}..{max(values)}"
        metrics[name] = (statistics.median(values), layer_unit(name), detail)
    metrics["process.cpu_s"] = (statistics.median(r["cpu_s"] for r in untraced), "s",
                                f"median of {len(untraced)} untraced")
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in untraced), "s",
        "traced minus untraced median wall")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES),
                    help="tiny: the benchmark's own tests")
    ap.add_argument("--reference", type=Path, default=REFERENCE,
                    help="reference values (default: reference.json beside this file)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hilbmat" / "__init__.py").is_file():
        print(f"error: no hilbmat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(args.reference) as fh:
        args.reference_data = json.load(fh)
    env = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "git_commit": git_commit(ROOT), "loadavg_start": os.getloadavg(),
        "driver": "one worker process at a time; sweeps run with --threads 1",
        "limitation": "verify_suite ignores the seed: run_suite takes no seed offset",
    }
    OUT.mkdir(exist_ok=True)
    try:
        reps, attempted, failures = measure(args)
    except SetupError as exc:
        print(f"error: hilbmat does not import from the checkout: {exc}", file=sys.stderr)
        return 2
    if reps:
        env.update(reps[0]["env"])
    print("env " + json.dumps(env))
    for rep_no, rep in enumerate(reps):
        for jid, err in rep["errors"].items():
            print(f"error rep {rep_no} {jid}: {err}")
    for failure in failures[:20]:
        print(f"failed: {failure}")
    metrics = summarize(args, reps) if reps else {}
    for name, (value, unit, detail) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({detail})")
    print(f"failed_ops_frac {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations)")

    record = {"env": env, "attempted": attempted, "failures": failures,
              "reps": [{k: v for k, v in r.items() if k != "env"} for r in reps],
              "metrics": {k: v[0] for k, v in metrics.items()}}
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

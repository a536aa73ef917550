"""One repetition of one workload, in a fresh interpreter.

Started by ``run.py`` with the checkout's ``src`` on ``PYTHONPATH``.  It
imports hilbmat and builds the CLI parser first, so the set-up time ends at
the ``ready`` timestamp it reports.  It then runs the workload's job list
(traced or not), checks the outputs after the timed region, and prints one
JSON object as its last line of standard output.

Exit code 3 means hilbmat could not be imported from the checkout.
"""

import sys
import time  # before hilbmat, so everything imported below it is set-up

try:
    import hilbmat
    import hilbmat.cli
    hilbmat.cli.build_parser()
except ImportError as exc:
    print(f"cannot import hilbmat: {exc}", file=sys.stderr)
    sys.exit(3)
READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def _instance(seed, R):
    rng = np.random.default_rng(seed)
    x = hilbmat.identities.random_nodes(R, rng)
    c = hilbmat.identities.random_weights(R, rng)
    return hilbmat.weighted_cauchy_matrix(x, c)


def _toeplitz_norm(job, results, out_dir):
    return hilbmat.spectra.toeplitz_hilbert_norm(*job.args)


def _figure1_csv(job, results, out_dir):
    """The table ``sweep-gap`` writes, from the norms the sweep jobs found."""
    rows = []
    for R in job.args:
        norm = results[f"R{R}"]
        gap = float(np.pi - norm)
        rows.append((R, float(norm), gap, gap * R / math.log(R)))
    hilbmat.gaps.write_figure1_csv(rows, out_dir / job.out)


def _hankel_norm(job, results, out_dir):
    return hilbmat.spectra.hankel_hilbert_norm(*job.args)


def _hankel_csv(job, results, out_dir):
    """The table ``hankel-gap`` writes, from the norms the sweep jobs found."""
    rows = []
    for R in job.args:
        norm = results[f"H{R}"]
        gap = float(np.pi - norm)
        ratio = gap / (np.pi**5 / (2.0 * math.log(R) ** 2)) if R >= 2 else float("nan")
        rows.append((R, float(norm), gap, float(ratio)))
    hilbmat.gaps.write_hankel_csv(rows, out_dir / job.out)


def _minor_sum(job, results, out_dir):
    seed, R, k = job.args
    return hilbmat.principal_minor_sum(_instance(seed, R), k)


def _newton_girard(job, results, out_dir):
    seed, R = job.args
    sigmas = [results[f"minor-k{k}"] for k in range(1, R + 1)]
    return hilbmat.newton_girard_power_sums(sigmas, R)


# Library jobs.  Names are looked up on the modules at call time, so the
# tracer's wrappers apply.
LIB_CALLS = {
    "toeplitz_norm": _toeplitz_norm,
    "figure1_csv": _figure1_csv,
    "hankel_norm": _hankel_norm,
    "hankel_csv": _hankel_csv,
    "minor_sum": _minor_sum,
    "newton_girard": _newton_girard,
}


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = hilbmat.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


_PROBE_MATRIX = np.add.outer(np.arange(48.0), np.arange(48.0)) % 7.0


def probe() -> float:
    """Seconds for a fixed mix of interpreter loop, FFT and small symmetric
    eigensolve (about 1 ms, the kinds of work the jobs do), which reads this
    machine's current speed.  It does not use hilbmat."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(4_000):
        acc += i * i
    x = np.arange(4096.0)
    for _ in range(4):
        np.fft.irfft(np.fft.rfft(x))
    np.linalg.eigvalsh(_PROBE_MATRIX)
    return time.perf_counter() - t0


def run_jobs(job_list, out_dir: Path, tracer):
    """Run every job; returns results, errors and seconds, each by job id,
    and the probe times taken before the first job and after each job."""
    results, errors, seconds = {}, {}, {}
    probes = [probe()]
    for job in job_list:
        if job.argv:
            argv = list(job.argv) + (["--out", str(out_dir / job.out)] if job.out else [])
            fn, args, name = _run_cli, (argv,), "cli.main"
        else:
            fn, args, name = LIB_CALLS[job.call], (job, results, out_dir), f"job.{job.call}"
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                results[job.id] = tracer.root(name, job.id, fn, *args)
            else:
                results[job.id] = fn(*args)
        except Exception as exc:  # one failed operation; the workload goes on
            errors[job.id] = f"{type(exc).__name__}: {exc}"
        seconds[job.id] = time.perf_counter() - t0
        probes.append(probe())
    return results, errors, seconds, probes


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _blas_threads():
    """(library, thread count) of the OpenBLAS numpy loaded, if any."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return os.path.basename(path), fn()
    return None, None


def environment(checkout) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, threads = _blas_threads()
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_library": lib,
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "hilbmat": os.path.relpath(hilbmat.__file__, checkout),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--reference", required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--spans", default="")
    ap.add_argument("--checkout", required=True)
    args = ap.parse_args()

    src = Path(args.checkout, "src").resolve()
    if Path(hilbmat.__file__).resolve().parent.parent != src:
        print(f"hilbmat imported from {hilbmat.__file__}, not {src}", file=sys.stderr)
        sys.exit(3)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(args.reference) as fh:
        reference = json.load(fh)
    job_list = workloads.jobs(args.workload, args.seed, args.size, reference)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    results, errors, seconds, probes = run_jobs(job_list, out_dir, tracer)
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage1.ru_maxrss / 1024.0
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)

    # -- outside the timed region: outputs, checks, trace summary ------------
    if tracer is not None:
        tracer.enabled = False
    texts = {}
    for job in job_list:
        if job.out:
            path = out_dir / job.out
            texts[job.id] = path.read_text() if path.exists() else ""
        elif job.id in results and job.argv:
            texts[job.id] = results[job.id]["stdout"]
    check = workloads.CHECKS[args.workload]
    kwargs = {"matrix_for": _instance} if args.workload == "determinants" else {}
    failures = check(job_list, results, texts, reference, args.size, **kwargs)

    layers = None
    if tracer is not None:
        layers = tracer.layer_metrics()
        # every instance battery reports exactly one removed-index check
        layers["identities.instances"] = sum(
            texts[job.id].count("\nremoved_index_cancellation,")
            for job in job_list if job.argv[:1] == ("verify",) and job.id in texts)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": ["name", "start", "end", "parent", "invocation", "info"],
                           "spans": tracer.spans}, fh)

    print(json.dumps({
        "ready": READY,
        "job_s": seconds,
        "probe_s": probes,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "failures": failures,
        "errors": errors,
        "digests": {jid: _digest(text) for jid, text in texts.items()},
        "layers": layers,
        "env": environment(args.checkout),
    }))


if __name__ == "__main__":
    main()

"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --runs 10 --seconds 20 --out perfbench/baseline.json

For each workload and end-to-end metric it records the values of every run,
their median and quartiles, and the spread (interquartile distance over the
median) that BENCHMARK.json's bounds are checked against.  ``--trace`` adds
one traced run per workload with its per-layer metrics.  Seeds are 1..runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                    choices=workloads.WORKLOADS)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = ap.parse_args(argv)

    record = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        values, failed = {}, 0
        for seed in range(1, args.runs + 1):
            result, env = run(workload, seed, args.seconds, 0)
            record.setdefault("env", {k: v for k, v in env.items()
                                      if k not in ("workload", "seed", "trace", "loadavg_start")})
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary = {"failed_ops": failed}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
            print(f"{workload} {name} median {median:.6g} spread {(q3 - q1) / median:.4f}",
                  flush=True)
        if args.trace:
            result, _ = run(workload, 1, args.seconds, 1)
            summary["layers"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["workloads"][workload] = summary
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

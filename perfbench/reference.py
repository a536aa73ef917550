"""Regenerate reference.json from the hilbmat sources of this checkout.

    python3 perfbench/reference.py

The reference holds the values the workload checks compare against: the
figure-1 sweep norms, det(T_r) and the verify suite's (name, seed, R,
passed) rows, for every size in workloads.SIZES.  Regenerate it only when a
change is meant to move these values, and say so in CHANGES.md.
"""

import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hilbmat import det_matching, hilbert_toeplitz, run_suite, toeplitz_hilbert_norm  # noqa: E402
from hilbmat.gaps import figure1_r_values  # noqa: E402
from hilbmat.identities import write_reports_csv  # noqa: E402

import workloads  # noqa: E402


def build() -> dict:
    sizes = workloads.SIZES
    reports = {}
    for size, p in sizes.items():
        reports[size] = {}
        for n in p["verify_seeds"]:
            buf = io.StringIO()
            write_reports_csv(run_suite(seeds=n, max_R=p["verify_max_r"]), buf)
            reports[size][str(n)] = workloads.verify_rows(buf.getvalue())
    return {
        "figure1_norms": {
            size: {str(R): toeplitz_hilbert_norm(R) for R in figure1_r_values(p["sweep_r_max"])}
            for size, p in sizes.items()
        },
        "det_T": {str(r): det_matching(hilbert_toeplitz(r))
                  for r in range(2, max(p["det_r_max"] for p in sizes.values()) + 1)},
        "verify_rows": reports,
    }


if __name__ == "__main__":
    with open(HERE / "reference.json", "w") as fh:
        json.dump(build(), fh, indent=0, sort_keys=True)
        fh.write("\n")

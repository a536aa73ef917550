"""Command-line front end: constructions, verification suite, gap sweeps.

Every command is deterministic for a fixed seed (numpy PCG64 generator);
re-running with the same flags reproduces byte-identical CSV output.  Exit
codes: 0 success, 1 a verified assertion failed or a numerical failure, 2
usage error (bad flags, a value the constructions reject, an unwritable --out).
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import gaps, identities, matrices, symbols
from ._util import fmt17
from .determinants import det_lu, det_matching, pfaffian
from .spectra import hankel_hilbert_norm, spectral_norm, toeplitz_hilbert_norm


def _seeded_instance(R, seed):
    """Nodes and weights of the weighted-Cauchy instance drawn from ``seed``."""
    rng = np.random.default_rng(matrices.as_int(seed, "seed", 0))
    x = identities.random_nodes(R, rng)
    return x, identities.random_weights(R, rng)


def _build_named_matrix(args):
    kind = args.kind
    if kind == "T":
        return matrices.hilbert_toeplitz(args.R)
    if kind == "H":
        return matrices.hilbert_hankel(args.R)
    if kind == "prolate":
        return matrices.prolate_matrix(args.R, args.w)
    if kind == "cosine":
        return matrices.toeplitz_from_symbol(symbols.SymbolSeries.cosine(), args.R)
    x, c = _seeded_instance(args.R, args.seed)
    if kind == "A":
        return matrices.cauchy_matrix(x)
    return matrices.weighted_cauchy_matrix(x, c)


def cmd_gen(args) -> int:
    matrices.write_matrix_csv(_build_named_matrix(args), args.out)
    return 0


def cmd_norm(args) -> int:
    # T and H take the matrix-free solve route of the gap sweeps, not a dense build
    route = {"T": toeplitz_hilbert_norm, "H": hankel_hilbert_norm}.get(args.kind)
    norm = route(matrices.as_dim(args.R)) if route else spectral_norm(_build_named_matrix(args))
    print(fmt17(norm))
    return 0


def cmd_det(args) -> int:
    if args.T is not None:
        B = matrices.hilbert_toeplitz(args.T)
    else:
        B = matrices.weighted_cauchy_matrix(*_seeded_instance(args.R, args.seed))
    matching = det_matching(B)
    lu = det_lu(B)
    print(f"matching={fmt17(matching)}")
    print(f"lu={fmt17(lu)}")
    if B.shape[0] % 2 == 0:
        print(f"pfaffian_sq={fmt17(pfaffian(B) ** 2)}")
    return 0


def _print_failures(reports) -> int:
    """One stderr line per failed report; exit code 1 if any failed."""
    failed = [r for r in reports if r.failed]
    for r in failed:
        print(f"FAILED {r.name}: residual={fmt17(r.max_residual)} "
              f"tol*scale={fmt17(r.tolerance * r.scale)} {r.details}",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_verify(args) -> int:
    reports = identities.run_suite(seeds=args.seeds, max_R=args.max_R)
    identities.write_reports_csv(reports, args.out)
    return _print_failures(reports)


def cmd_sweep_gap(args) -> int:
    rows = gaps.sweep_figure1(R_max=args.R_max, dense=args.dense)
    gaps.write_figure1_csv(rows, args.out)
    return 0


def cmd_eigvec_profile(args) -> int:
    report, offsets, amp = identities.probe_eigenvector_monotonicity(args.S)
    gaps.write_figure2_csv(offsets, amp, args.out)
    print(f"conjecture_holds={report.details['conjecture_holds']} "
          f"monotone_decay_from_center={report.details['monotone_decay_from_center']} "
          f"center_maximal={report.details['center_maximal']}", file=sys.stderr)
    return 0


def cmd_witness(args) -> int:
    certs = [gaps.build_witness(R) for R in args.R]
    gaps.write_witness_csv(certs, args.out)
    return _print_failures(map(gaps.check_witness, certs))


def cmd_prolate_gap(args) -> int:
    R_list = range(args.R_min, args.R_max + 1)
    rows, slope = symbols.prolate_gap(args.w, R_list)
    symbols.write_prolate_csv(rows, args.out)
    if slope is not None:
        print(f"fit_slope={fmt17(slope)}", file=sys.stderr)
    return 0


def cmd_hankel_gap(args) -> int:
    rows = gaps.sweep_hankel(R_max=args.R_max)
    gaps.write_hankel_csv(rows, args.out)
    return 0


def cmd_gs_rate(args) -> int:
    rows, _ = symbols.gs_rate_check(symbols.SymbolSeries.cosine(), args.R)
    symbols.write_gs_rate_csv(rows, args.out)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: no command may
    mutate its ``args``, whose list defaults all calls share."""
    parser = argparse.ArgumentParser(
        prog="hilbmat",
        description="Weighted Hilbert matrices: constructions, identity "
                    "verification, and spectral-gap experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_flags(p):
        p.add_argument("--kind", choices=["T", "H", "prolate", "cosine", "A", "B"],
                       default="T")
        p.add_argument("--R", type=int, default=10)
        p.add_argument("--w", type=float, default=0.25)
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("gen", help="emit a matrix as CSV")
    add_matrix_flags(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("norm", help="print a spectral norm")
    add_matrix_flags(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("det", help="determinant by matching, LU and Pfaffian")
    p.add_argument("--T", type=int, default=None,
                   help="use the skew Hilbert matrix of this size")
    p.add_argument("--R", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("verify", help="run the identity suite, CSV of reports")
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--max-R", dest="max_R", type=int, default=50)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep-gap", help="gap sweep for the skew Hilbert matrix")
    p.add_argument("--R-max", dest="R_max", type=int, default=10000)
    p.add_argument("--dense", action="store_true",
                   help="every R instead of the adaptive grid")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep_gap)

    p = sub.add_parser("eigvec-profile", help="top eigenvector amplitude profile")
    p.add_argument("--S", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eigvec_profile)

    p = sub.add_parser("witness", help="upper-bound witness certificates")
    p.add_argument("--R", type=int, nargs="+", default=[100, 1000])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("prolate-gap", help="prolate matrix gap decay table")
    p.add_argument("--w", type=float, default=0.25)
    p.add_argument("--R-min", dest="R_min", type=int, default=2)
    p.add_argument("--R-max", dest="R_max", type=int, default=40)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_prolate_gap)

    p = sub.add_parser("hankel-gap", help="Hankel Hilbert matrix gap table")
    p.add_argument("--R-max", dest="R_max", type=int, default=500)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_hankel_gap)

    p = sub.add_parser("gs-rate", help="smooth-symbol norm convergence table")
    p.add_argument("--R", type=int, nargs="+", default=[10, 50, 100, 200])
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gs_rate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # the command's CSV goes to --out, or to the sys.stdout of this call
    if hasattr(args, "out"):
        args.out = args.out or sys.stdout
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:
        # LinAlgError subclasses ValueError but reports a numerical failure
        print(f"hilbmat: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"hilbmat: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        if exc.filename is None:  # no file named: not the --out file
            raise
        print(f"hilbmat: error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line.  Uses only public package API plus documented slacks.

The single known-unattainable clause (the center-minimal eigenvector profile
at S = 1000) is asserted faithfully and marked as a strict expected failure:
the computed profile has the opposite shape at every size.  Details in the
test's reason string.
"""

import time

import numpy as np
import pytest

from hilbmat.determinants import det_lu, det_matching, pfaffian
from hilbmat.gaps import (
    build_witness,
    check_central_coefficient_bounds,
    check_odd_gap_lower_bound,
    check_universal_gap_lower_bound,
    check_witness,
    sweep_figure1,
    write_figure1_csv,
    write_figure2_csv,
)
from hilbmat.identities import (
    check_centered_eigenvector_symmetry,
    check_montgomery_vaughan,
    check_norm_dominance,
    probe_eigenvector_monotonicity,
    random_instance,
    random_nodes,
    random_weights,
    run_suite,
)
from hilbmat.matrices import hilbert_toeplitz, weighted_cauchy_matrix
from hilbmat.reports import INEQ_SLACK
from hilbmat.spectra import hankel_hilbert_norm, spectral_norm, toeplitz_hilbert_norm
from hilbmat.symbols import SymbolSeries, gs_rate_check, quadratic_form

SLACK = 1e-10


def _line(num, ok, elapsed, desc):
    print(f"ACCEPTANCE {num:>3}: {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s) {desc}")


@pytest.fixture(scope="module")
def outdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def profile_s1000():
    return probe_eigenvector_monotonicity(1000)


def test_criterion_01_closed_form_spectra():
    t0 = time.perf_counter()
    n2 = spectral_norm(hilbert_toeplitz(2))
    n3 = spectral_norm(hilbert_toeplitz(3))
    elapsed = time.perf_counter() - t0
    ok = abs(n2 - 1.0) <= 1e-12 and abs(n3 - 1.5) <= 1e-12 and elapsed < 1.0
    _line(1, ok, elapsed, "norms of the 2- and 3-dim skew Hilbert matrices at 1e-12")
    assert abs(n2 - 1.0) <= 1e-12
    assert abs(n3 - 1.5) <= 1e-12
    assert elapsed < 1.0


def test_criterion_02_determinant_oracles():
    t0 = time.perf_counter()
    ok = abs(det_matching(hilbert_toeplitz(4)) - 169.0 / 144.0) <= 1e-12
    for seed in range(100):
        rng = np.random.default_rng(seed)
        R = 2 * int(rng.integers(1, 7))  # even R <= 12
        x = random_nodes(R, rng)
        c = random_weights(R, rng)
        B = weighted_cauchy_matrix(x, c)
        matching = det_matching(B)
        lu = det_lu(B)
        tol = 1e-10 * max(1.0, abs(lu))
        ok &= abs(matching - lu) <= tol
        ok &= abs(pfaffian(B) ** 2 - matching) <= tol
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        R = 2 * int(rng.integers(1, 6)) + 1  # odd R <= 11
        B = weighted_cauchy_matrix(random_nodes(R, rng), random_weights(R, rng))
        ok &= abs(det_matching(B)) <= 1e-12
    for R in (3, 5, 7, 9, 11):
        ok &= abs(det_lu(hilbert_toeplitz(R))) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _line(2, ok, elapsed, "matching = LU = Pfaffian^2 on 100 even instances; odd determinants vanish")
    assert ok
    assert elapsed < 30.0


def test_criterion_03_identity_suites():
    t0 = time.perf_counter()
    reports = run_suite(seeds=100, max_R=50)
    elapsed = time.perf_counter() - t0
    all_pass = not any(r.failed for r in reports)
    stated = {
        "removed_index_cancellation": 1e-12,
        "diagonal_power_recursion": 1e-12,
        "eigenvector_amplitude": 1e-9,
        "real_imag_coupling": 1e-9,
        "weighted_sum_identity": 1e-9,
    }
    tolerances_ok = all(
        r.tolerance == stated[r.name] for r in reports if r.name in stated
    )
    names = {r.name for r in reports}
    coverage_ok = {"eigenvalue_distinctness", "row_norm_bounds"} <= names
    ok = all_pass and tolerances_ok and coverage_ok and elapsed < 120.0
    _line(3, ok, elapsed,
          f"identity suite over 100 seeds, R <= 50 ({len(reports)} reports)")
    assert all_pass
    assert tolerances_ok
    assert coverage_ok
    assert elapsed < 120.0


def test_criterion_04_norm_dominance_pairs():
    t0 = time.perf_counter()
    ok = True
    for seed in range(50):
        x, c, rng = random_instance(seed, 50)
        shrink = rng.uniform(0.0, 1.0, x.size)
        rep = check_norm_dominance(x, c * shrink, x, c)
        ok &= rep.applicable and rep.passed
    for seed in range(50, 100):
        x, c, rng = random_instance(seed, 50)
        spread = 1.0 + rng.uniform(0.1, 2.0)
        rep = check_norm_dominance(spread * x, c, x, c)
        ok &= rep.applicable and rep.passed
    elapsed = time.perf_counter() - t0
    _line(4, ok, elapsed, "norm dominance on 100 seeded weight-shrink/node-spread pairs")
    assert ok


def test_criterion_05_montgomery_vaughan():
    t0 = time.perf_counter()
    ok = True
    probe_holds = 0
    for seed in range(100):
        x, _, _ = random_instance(seed, 50)
        rep = check_montgomery_vaughan(x)
        ok &= rep.passed
        probe_holds += int(rep.details["pi_bound_holds"])
    elapsed = time.perf_counter() - t0
    _line(5, ok, elapsed,
          f"min-gap norm bounds on 100 node sets (pi conjecture held on {probe_holds})")
    assert ok
    assert 0 <= probe_holds <= 100  # recorded, never asserted


def test_criterion_06_gap_lower_bounds():
    t0 = time.perf_counter()
    # Direct solves on a grid; every skipped R is sealed exactly because the
    # norm is nondecreasing in R (Hermitian principal submatrix interlacing)
    # while pi/(2R) decreases, so the bound at the block's right endpoint
    # dominates the whole block.
    grid = sorted(set(range(2, 257)) | set(range(257, 502, 2))
                  | {min(int(round(257 * 1.05**j)), 2000) for j in range(1, 60)}
                  | {2000})
    grid = [R for R in grid if 2 <= R <= 2000]
    reports = {R: check_universal_gap_lower_bound(R) for R in grid}
    ok = all(rep.passed for rep in reports.values())
    for Ra, Rb in zip(grid, grid[1:]):
        if Rb - Ra > 1:  # seal interior sizes of the block (Ra, Rb)
            ok &= reports[Rb].details["gap"] > np.pi / (2.0 * (Ra + 1)) - INEQ_SLACK
    ok &= all(check_odd_gap_lower_bound(S).passed for S in range(1, 251))
    elapsed = time.perf_counter() - t0
    _line(6, ok, elapsed,
          "gap > pi/(2R) for all R in 2..2000 and odd-dimension bounds for S <= 250")
    assert ok


def test_criterion_07_witness_certificates():
    t0 = time.perf_counter()
    ok = all(check_witness(build_witness(R)).passed for R in (100, 1000))
    ok &= all(check_central_coefficient_bounds(M, N).passed
              for M in range(2, 65) for N in range(1, 17))
    elapsed = time.perf_counter() - t0
    _line(7, ok, elapsed,
          "witness certificates at R = 100, 1000; kernel-power bounds exact for M <= 64, N <= 16")
    assert ok


def test_criterion_08_smooth_symbol_rate():
    t0 = time.perf_counter()
    R = 200
    rows, peak = gs_rate_check(SymbolSeries.cosine(), [R])
    _, gap, predicted, ratio = rows[0]
    # independent oracle: the tridiagonal spectrum in closed form
    oracle_gap = 2.0 - 2.0 * np.cos(np.pi / (R + 1))
    scaled = gap * 2.0 * R**2 / (np.pi**2 * 2.0)
    elapsed = time.perf_counter() - t0
    ok = abs(gap - oracle_gap) <= 1e-12 and 0.9 <= scaled <= 1.1
    _line(8, ok, elapsed, f"smooth-symbol convergence rate at R = 200 (ratio {scaled:.4f})")
    assert abs(gap - oracle_gap) <= 1e-12
    assert 0.9 <= scaled <= 1.1


def test_criterion_09_quadratic_forms():
    t0 = time.perf_counter()
    R = 16
    ok = True
    for series in (SymbolSeries.constant(0.75), SymbolSeries.cosine(),
                   SymbolSeries.hilbert()):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            u = rng.normal(size=R) + 1j * rng.normal(size=R)
            u /= np.linalg.norm(u)
            matrix_side, int_side = quadratic_form(series, u)
            ok &= abs(matrix_side - int_side) <= 1e-8
    elapsed = time.perf_counter() - t0
    _line(9, ok, elapsed, "Toeplitz quadratic form vs symbol integral at R = 16")
    assert ok


def test_criterion_10a_figure1_sweep(outdir):
    t0 = time.perf_counter()
    rows = sweep_figure1(R_max=10000)
    write_figure1_csv(rows, outdir / "figure1.csv")
    rescaled = [(R, f) for R, _, _, f in rows]
    gaps_positive = all(g > 0 for _, _, g, _ in rows)
    covers = rows[-1][0] == 10000
    tail = [f for R, f in rescaled if R >= 100]
    positive = all(f > 0 for _, f in rescaled)
    band_ok = max(tail) / min(tail) < 2.0
    steps_ok = all(abs(b / a - 1.0) < 0.05 for a, b in zip(tail, tail[1:]))
    elapsed = time.perf_counter() - t0
    ok = gaps_positive and covers and positive and band_ok and steps_ok
    _line("10a", ok, elapsed,
          f"figure1.csv to R = 10000; rescaled gap positive, slowly varying "
          f"(band {min(tail):.3f}..{max(tail):.3f} over R >= 100)")
    assert ok


def test_criterion_10b_profile_emitted_and_symmetric(outdir, profile_s1000):
    t0 = time.perf_counter()
    report, offsets, amp = profile_s1000
    write_figure2_csv(offsets, amp, outdir / "figure2.csv")
    symmetric = bool(np.abs(amp - amp[::-1]).max() <= 1e-9)
    elapsed = time.perf_counter() - t0
    ok = symmetric and amp.shape == (2001,) and bool(np.all(amp > 0))
    _line("10b", ok, elapsed,
          "figure2.csv at S = 1000 emitted; profile symmetric and positive "
          f"(measured shape: center-{'maximal' if report.details['center_maximal'] else 'minimal'})")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="Criterion as stated demands a center-MINIMAL amplitude profile at "
    "S = 1000.  The computed top eigenvector of the 2001-dim skew Hilbert "
    "matrix has the opposite shape at every size tested (S = 1..1000): "
    "amplitude is strictly center-maximal, decaying monotonically away from "
    "the center, with a symmetric profile.  The stated direction also "
    "contradicts the supporting heuristic that the diagonal entries of even "
    "matrix powers decrease away from the center, which in the k -> infinity "
    "limit forces outward decay.  The assertion is kept faithful instead of "
    "being inverted; see the \"center-minimal profile at S = 1000\" row of "
    "the claims table in README.md.",
)
def test_criterion_10b_center_minimal_as_specified(profile_s1000):
    report, _, _ = profile_s1000
    _line("10b*", False, 0.0,
          "center-minimal amplitude clause as literally specified "
          "(documented defect: measured profile is center-maximal)")
    assert report.details["center_minimal"]


def test_criterion_10c_eigenvector_symmetry(outdir):
    t0 = time.perf_counter()
    ok = True
    for S in range(0, 51):  # R = 2S+1 <= 101
        rep = check_centered_eigenvector_symmetry(S)
        ok &= rep.passed and rep.max_residual <= 1e-9
    elapsed = time.perf_counter() - t0
    _line("10c", ok, elapsed, "centered eigenvector symmetry to 1e-9 for all R <= 101")
    assert ok


def test_criterion_10d_hankel_substitute(outdir):
    t0 = time.perf_counter()
    hn = {R: hankel_hilbert_norm(R) for R in range(1, 501)}
    gaps = [np.pi - hn[R] for R in range(1, 501)]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    below_pi = all(hn[R] < np.pi for R in range(1, 501))
    dominated = all(
        hn[R] <= toeplitz_hilbert_norm(2 * R + 1) + SLACK for R in range(1, 501)
    )
    elapsed = time.perf_counter() - t0
    ok = decreasing and below_pi and dominated
    _line("10d", ok, elapsed,
          "Hankel gaps strictly decreasing, norms < pi and dominated by the "
          "(2R+1)-dim skew norms for R <= 500")
    assert ok

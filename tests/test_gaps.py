import dataclasses
import io
import math

import numpy as np
import pytest

import hilbmat.gaps
from hilbmat.gaps import (
    WitnessCertificate,
    build_witness,
    central_coefficient,
    check_witness,
    check_central_coefficient_bounds,
    check_odd_gap_lower_bound,
    check_universal_gap_lower_bound,
    figure1_r_values,
    hilbert_hankel_gap,
    hilbert_toeplitz_gap,
    rescaled_gap,
    sweep_figure1,
    sweep_hankel,
    witness_params,
    write_figure1_csv,
    write_figure2_csv,
    write_hankel_csv,
    write_witness_csv,
)
from hilbmat.identities import probe_eigenvector_monotonicity
from hilbmat.matrices import hilbert_toeplitz
from hilbmat.spectra import hankel_hilbert_norm, toeplitz_hilbert_norm


class TestToeplitzGap:
    def test_r1_is_pi(self):
        assert hilbert_toeplitz_gap(1) == pytest.approx(np.pi, abs=0)

    def test_r3_closed_form(self):
        assert hilbert_toeplitz_gap(3) == pytest.approx(np.pi - 1.5, abs=1e-12)

    def test_positive_and_decreasing(self):
        gaps = [hilbert_toeplitz_gap(R) for R in (2, 5, 10, 40, 160, 640)]
        assert all(g > 0 for g in gaps)
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_r1000_in_proven_band(self):
        R = 1000
        gap = hilbert_toeplitz_gap(R)
        assert gap > np.pi / (2 * R)
        assert gap < np.pi * np.e * math.log(R) / R + 2 * np.pi * np.e**3 / R


class TestRescaledGap:
    def test_r2_closed_form(self):
        assert rescaled_gap(2) == pytest.approx((np.pi - 1.0) * 2 / math.log(2), abs=1e-12)

    def test_rejects_r1(self):
        with pytest.raises(ValueError):
            rescaled_gap(1)


class TestLowerBounds:
    def test_s1_closed_forms(self):
        # ||T_3||^2 = 2.25 < pi^2 - 3 and gap > 3/(2 pi)
        rep = check_odd_gap_lower_bound(1)
        assert rep.passed
        assert rep.details["norm"] ** 2 == pytest.approx(2.25, abs=1e-12)
        assert np.pi**2 - 3.0 > 2.25
        assert rep.details["gap"] > 3.0 / (np.pi * 2.0)

    @pytest.mark.parametrize("S", [5, 50, 100, 250])
    def test_odd_bound_holds(self, S):
        assert check_odd_gap_lower_bound(S).passed

    @pytest.mark.parametrize("R", [2, 3, 17, 200, 2000])
    def test_universal_bound_holds(self, R):
        assert check_universal_gap_lower_bound(R).passed


class TestCentralCoefficient:
    def test_small_cases(self):
        assert central_coefficient(2, 1) == 2    # (1+t)^2 -> coefficient of t
        assert central_coefficient(2, 2) == 6    # (1+t)^4 central = C(4, 2)
        assert central_coefficient(3, 1) == 3    # (1+t+t^2)^2 -> t^2

    @pytest.mark.parametrize("N", range(1, 17))
    def test_width_two_matches_binomials(self, N):
        assert central_coefficient(2, N) == math.comb(2 * N, N)

    def test_against_numpy_polynomial_power(self):
        # independent route: repeated convolution in object (bigint) dtype
        M, N = 5, 3
        p = np.array([1], dtype=object)
        for _ in range(2 * N):
            p = np.convolve(p, np.ones(M, dtype=object))
        assert central_coefficient(M, N) == p[N * (M - 1)]

    def test_requires_valid_sizes(self):
        with pytest.raises(ValueError):
            central_coefficient(1, 2)
        with pytest.raises(ValueError):
            central_coefficient(3, 0)
        # the gap checks and sweeps validate a size before comparing it, so a
        # list, an array or a fraction fails on the one dimension rule
        for call in (rescaled_gap, check_universal_gap_lower_bound, check_odd_gap_lower_bound,
                     sweep_hankel, figure1_r_values, sweep_figure1):
            for size in ([601], np.array([5, 6]), 5.5):
                with pytest.raises(ValueError, match="^dimension must be an integer$"):
                    call(size)


class TestCentralCoefficientBounds:
    def test_tight_case(self):
        rep = check_central_coefficient_bounds(2, 1)
        assert rep.passed  # 4/2 = 2 <= 2 <= 2, both ends tight

    def test_m2_n2(self):
        assert check_central_coefficient_bounds(2, 2).passed
        assert 16 / 3 <= 6 <= 8

    def test_m20_n4(self):
        assert check_central_coefficient_bounds(20, 4).passed

    def test_full_range_exact(self):
        for M in range(2, 65):
            for N in range(1, 17):
                b = central_coefficient(M, N)
                assert M ** (2 * N) <= b * (N * (M - 1) + 1)
                assert b <= M ** (2 * N - 1)


class TestWitness:
    def test_params_r100(self):
        p = witness_params(100)
        assert (p.M, p.N) == (43, 2)
        assert p.gamma == pytest.approx(np.pi * np.e * math.log(100) / 100, abs=0)
        assert p.N * (p.M - 1) + 1 <= 100

    @pytest.mark.parametrize("R", [1, 2, 3, 7])
    def test_threshold_smallest_r(self, R):
        # floor(log R / 2) = 0 below 8: one guard, one message
        with pytest.raises(ValueError, match=r"^witness construction needs R >= 8 "):
            witness_params(R)
        assert witness_params(8).N == 1

    @pytest.mark.parametrize("R", [100.5, 100.0, [100]])
    def test_non_integer_size_fails_with_one_line(self, R):
        # R is validated before M, N and gamma are computed from it
        for call in (witness_params, build_witness):
            with pytest.raises(ValueError, match="^dimension must be an integer$"):
                call(R)

    def test_coefficient_vector_is_unit(self):
        # Parseval: the witness's integer coefficients of the N-th kernel
        # power, scaled by 1/sqrt(central coefficient), form a unit vector
        # exactly, so it lies in the admissible unit-coefficient class
        for R in (64, 100, 1000):
            cert = build_witness(R)
            M, N = cert.params.M, cert.params.N
            assert sum(b * b for b in hilbmat.gaps._ones_power(M, N)) == central_coefficient(M, N)
            assert 0.0 <= cert.epsilon <= 1.0

    @pytest.mark.parametrize("R", [64, 100, 1000])
    def test_certificate_invariants(self, R):
        cert = build_witness(R)
        assert isinstance(cert, WitnessCertificate)
        assert check_witness(cert).passed

    def test_check_witness(self):
        cert = build_witness(100)
        report = check_witness(cert)
        assert report.passed and not report.failed
        assert report.max_residual == 0.0 and report.tolerance == 0.0
        assert report.details["R"] == 100
        # one mutation per inequality, each of which alone must fail
        for bad in (
            dataclasses.replace(cert, epsilon=-1e-12),
            dataclasses.replace(cert, epsilon=cert.epsilon_bound * 1.5),
            dataclasses.replace(cert, rayleigh=cert.norm_t + 1e-12),
            dataclasses.replace(cert, gap_bound=np.pi - cert.rayleigh - 1e-12),
            dataclasses.replace(cert, final_bound=np.pi - cert.rayleigh - 1e-12),
        ):
            report = check_witness(bad)
            assert report.failed
            assert report.max_residual > 0.0

    @pytest.mark.parametrize("R", [100, 1000])
    def test_rayleigh_is_the_dense_complex_quotient(self, R):
        # the witness u, built here as a complex vector, against the dense
        # complex product with T_R: its one real product 2 x^T T_R y is |u* T_R u|
        cert = build_witness(R)
        M, N, gamma = cert.params.M, cert.params.N, cert.params.gamma
        L = N * (M - 1)
        u = np.zeros(R, dtype=complex)
        u[:L + 1] = (np.array(hilbmat.gaps._ones_power(M, N), dtype=float)
                     / math.sqrt(central_coefficient(M, N))
                     * np.exp(-0.5j * gamma * np.arange(L + 1)))
        dense = abs(np.vdot(u, hilbert_toeplitz(R) @ u))
        assert cert.rayleigh == pytest.approx(dense, rel=1e-14, abs=0)

    def test_rayleigh_two_routes_agree(self):
        for R in (64, 100, 500):
            cert = build_witness(R)
            assert abs(cert.rayleigh - cert.rayleigh_integral) <= 1e-8

    def test_epsilon_against_grid_quadrature(self):
        # independent oracle: dense sampling of |phi|^2 over the tail
        cert = build_witness(100)
        M, N, gamma = cert.params.M, cert.params.N, cert.params.gamma
        L = N * (M - 1)
        p = np.array([1], dtype=object)
        for _ in range(N):
            p = np.convolve(p, np.ones(M, dtype=object))
        b = p.astype(float)
        e0 = float(np.sum(b * b))
        samples = 200001
        x = np.linspace(gamma, 2 * np.pi, samples)
        g_shift = np.abs(np.exp(1j * np.outer(x - gamma / 2, np.arange(L + 1))) @ b) ** 2
        eps_quad = np.trapezoid(g_shift, x) / (2 * np.pi * e0)
        assert cert.epsilon == pytest.approx(eps_quad, rel=1e-5)


class TestHankelGap:
    def test_r1(self):
        gap, ratio = hilbert_hankel_gap(1)
        assert gap == pytest.approx(np.pi - 1.0, abs=1e-12)
        assert ratio is None

    def test_decreasing(self):
        g10, _ = hilbert_hankel_gap(10)
        g100, _ = hilbert_hankel_gap(100)
        g1000, _ = hilbert_hankel_gap(1000)
        assert g10 > g100 > g1000 > 0

    @pytest.mark.parametrize("R", [1, 10, 100, 500])
    def test_hankel_below_matching_toeplitz(self, R):
        assert hankel_hilbert_norm(R) <= toeplitz_hilbert_norm(2 * R + 1) + 1e-10


class TestSweeps:
    def test_figure1_grid(self):
        values = figure1_r_values(1000)
        assert values[0] == 2
        assert values[-1] == 1000
        assert set(range(2, 101)) <= set(values)
        assert values == sorted(set(values))
        dense = figure1_r_values(150, dense=True)
        assert dense == list(range(2, 151))

    def test_figure1_rows_small(self):
        rows = sweep_figure1(R_max=120)
        for R, norm, gap, rescaled in rows:
            assert 0 < norm < np.pi
            assert gap == pytest.approx(np.pi - norm, abs=0)
            assert rescaled > 0
            assert (norm, gap, rescaled) == (
                toeplitz_hilbert_norm(R), hilbert_toeplitz_gap(R), rescaled_gap(R))
        buf = io.StringIO()
        write_figure1_csv(rows, buf)
        assert buf.getvalue().splitlines()[0] == "R,norm,gap,rescaled_gap"

    @pytest.mark.parametrize("sweep, solve, R_max, grid", [
        (sweep_figure1, "toeplitz_hilbert_norm", 120, figure1_r_values(120)),
        (sweep_hankel, "hankel_hilbert_norm", 12, list(range(1, 13))),
    ], ids=["figure1", "hankel"])
    def test_each_row_takes_one_solve(self, monkeypatch, sweep, solve, R_max, grid):
        # a row reads its norm, gap and third column from one solve of its R
        sizes = []
        norm = getattr(hilbmat.gaps, solve)

        def counting(R):
            sizes.append(R)
            return norm(R)

        monkeypatch.setattr(f"hilbmat.gaps.{solve}", counting)
        rows = sweep(R_max=R_max)
        assert sizes == [row[0] for row in rows] == grid

    def test_figure2_profile_small(self):
        report, offsets, amp = probe_eigenvector_monotonicity(5)
        assert offsets.tolist() == list(range(-5, 6))
        assert amp.shape == (11,)
        buf = io.StringIO()
        write_figure2_csv(offsets, amp, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "n,abs_u_n"
        assert len(lines) == 12

    def test_hankel_sweep_small(self):
        rows = sweep_hankel(R_max=12)
        assert [r[0] for r in rows] == list(range(1, 13))
        gaps = [r[2] for r in rows]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert math.isnan(rows[0][3])  # no ratio at R = 1
        assert rows[5][3] > 0
        for R, norm, gap, ratio in rows:
            expected_gap, expected_ratio = hilbert_hankel_gap(R)
            assert (norm, gap) == (hankel_hilbert_norm(R), expected_gap)
            if R == 1:
                assert expected_ratio is None and math.isnan(ratio)
            else:
                assert ratio == expected_ratio
        buf = io.StringIO()
        write_hankel_csv(rows, buf)
        assert buf.getvalue().splitlines()[0] == "R,norm,gap,wilf_ratio"

    def test_witness_csv(self):
        certs = [build_witness(100)]
        buf = io.StringIO()
        write_witness_csv(certs, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "R,M,N,gamma,epsilon,epsilon_bound,rayleigh,gap_bound"
        assert lines[1].startswith("100,43,2,")

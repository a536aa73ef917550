import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hilbmat

from hilbmat.matrices import (
    ToeplitzOperator,
    hilbert_hankel,
    hilbert_toeplitz,
    toeplitz_from_symbol,
    weighted_cauchy_matrix,
)
from hilbmat.spectra import (
    hankel_hilbert_norm,
    skew_spectrum,
    spectral_norm,
    symmetric_eigen,
    toeplitz_hilbert_norm,
    toeplitz_hilbert_top_pair,
    trace_power_norm_estimate,
)


def tridiagonal(R):
    return toeplitz_from_symbol({1: 1.0, -1: 1.0}, R)


class TestSymmetricEigen:
    def test_identity(self):
        values, vectors = symmetric_eigen(np.eye(4))
        np.testing.assert_allclose(values, np.ones(4), rtol=0, atol=1e-15)

    def test_tridiagonal_top_eigenvalue_closed_form(self):
        # oracle: the sine vector s_n = sin(pi n / (R+1)) satisfies
        # C s = 2 cos(pi/(R+1)) s for the 0/1 tridiagonal matrix
        R = 9
        C = tridiagonal(R)
        s = np.sin(np.pi * np.arange(1, R + 1) / (R + 1))
        lam = 2.0 * np.cos(np.pi / (R + 1))
        np.testing.assert_allclose(C @ s, lam * s, atol=1e-12)
        values, _ = symmetric_eigen(C)
        assert values[0] == pytest.approx(lam, abs=1e-12)

    def test_hankel_2x2_trace_and_det_preserved(self):
        H = hilbert_hankel(2)
        values, _ = symmetric_eigen(H)
        assert values.sum() == pytest.approx(4.0 / 3.0, abs=1e-14)
        assert values.prod() == pytest.approx(1.0 / 12.0, abs=1e-14)

    def test_sorted_descending_orthonormal_residuals(self):
        rng = np.random.default_rng(0)
        S = rng.normal(size=(12, 12))
        S = S + S.T
        values, vectors = symmetric_eigen(S)
        assert np.all(np.diff(values) <= 0)
        np.testing.assert_allclose(vectors.T @ vectors, np.eye(12), atol=1e-12)
        resid = np.abs(S @ vectors - vectors * values).max()
        assert resid <= 1e-12 * 12 * np.abs(values).max()

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_complex_hermitian_supported(self):
        H = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        values, vectors = symmetric_eigen(H)
        # eigenvalues of [[2, 1-i], [1+i, 3]]: (5 +- 3)/2
        np.testing.assert_allclose(values, [4.0, 1.0], atol=1e-12)
        resid = np.abs(H @ vectors - vectors * values).max()
        assert resid <= 1e-12


class TestSkewSpectrum:
    def test_t2(self):
        dec = skew_spectrum(hilbert_toeplitz(2))
        assert dec.zero_multiplicity == 0
        assert dec.mus.size == 1
        assert dec.mus[0] == pytest.approx(1.0, abs=1e-14)

    def test_t3_closed_form(self):
        # 3x3 skew matrices have mu = sqrt(b12^2 + b13^2 + b23^2)
        B = hilbert_toeplitz(3)
        mu_expect = np.sqrt(B[0, 1] ** 2 + B[0, 2] ** 2 + B[1, 2] ** 2)
        dec = skew_spectrum(B)
        assert dec.zero_multiplicity == 1
        assert dec.mus[0] == pytest.approx(mu_expect, abs=1e-14)
        assert mu_expect == pytest.approx(1.5, abs=0)

    @pytest.mark.parametrize("R", [2, 3, 6, 11, 20])
    def test_pair_invariants(self, R):
        rng = np.random.default_rng(R)
        x = np.sort(rng.uniform(0, 10 * R, R))
        c = rng.uniform(0.1, 2.0, R) * rng.choice([-1.0, 1.0], R)
        B = weighted_cauchy_matrix(x, c)
        dec = skew_spectrum(B)
        npairs = int(np.count_nonzero(dec.mus > 0))
        assert 2 * npairs + dec.zero_multiplicity == R
        assert dec.zero_multiplicity == R % 2
        norm = dec.norm
        mus = dec.mus
        assert np.all(np.diff(mus) <= 0)
        for j in range(npairs):
            mu, v, w = mus[j], dec.V[:, j], dec.W[:, j]
            u = dec.U[:, j]
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            # B w = mu v and B v = -mu w
            assert np.linalg.norm(B @ w - mu * v) <= 1e-12 * R * norm
            assert np.linalg.norm(B @ v + mu * w) <= 1e-12 * R * norm
            assert abs(np.linalg.norm(v) - np.linalg.norm(w)) <= 1e-10

    def test_zero_weight_matches_removed_index_spectrum(self):
        x = np.array([0.0, 1.0, 2.5, 4.0])
        c = np.array([1.0, 0.0, -2.0, 0.7])
        dec_full = skew_spectrum(weighted_cauchy_matrix(x, c))
        keep = np.array([0, 2, 3])
        dec_sub = skew_spectrum(weighted_cauchy_matrix(x[keep], c[keep]))
        np.testing.assert_allclose(np.sort(dec_full.mus[dec_full.mus > 0]),
                                   np.sort(dec_sub.mus[dec_sub.mus > 0]), atol=1e-12)
        assert dec_full.zero_multiplicity == dec_sub.zero_multiplicity + 1

    @pytest.mark.parametrize("R", [5, 9, 17])
    def test_odd_dimensions_have_zero_mode(self, R):
        dec = skew_spectrum(hilbert_toeplitz(R))
        assert dec.zero_multiplicity >= 1
        # kernel vectors satisfy B q = 0
        B = hilbert_toeplitz(R)
        for j in range(dec.zero_multiplicity):
            q = dec.V[:, dec.mus == 0.0][:, j]
            assert np.linalg.norm(B @ q) <= 1e-10 * dec.norm

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_trace_parseval(self, k):
        rng = np.random.default_rng(42)
        x = np.sort(rng.uniform(0, 300, 30))
        c = rng.uniform(0.1, 2.0, 30) * rng.choice([-1.0, 1.0], 30)
        B = weighted_cauchy_matrix(x, c)
        dec = skew_spectrum(B)
        lhs = 2.0 * np.sum(dec.mus ** (2 * k))
        rhs = (-1.0) ** k * np.trace(np.linalg.matrix_power(B, 2 * k))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8)

    def test_rejects_non_skew(self):
        with pytest.raises(ValueError):
            skew_spectrum(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_edge_shapes(self):
        empty = skew_spectrum(np.zeros((0, 0)))
        assert not np.any(empty.mus > 0) and empty.zero_multiplicity == 0
        assert empty.V.shape == (0, 0)
        one = skew_spectrum(np.zeros((1, 1)))
        assert not np.any(one.mus > 0) and one.zero_multiplicity == 1
        np.testing.assert_array_equal(one.V, [[1.0]])
        zero3 = skew_spectrum(np.zeros((3, 3)))
        assert not np.any(zero3.mus > 0) and zero3.zero_multiplicity == 3
        np.testing.assert_array_equal(zero3.V, np.eye(3))

    def test_kernel_basis_multiplicity(self):
        # two zero weights leave a generic 4 x 4 block: a 2-dim kernel
        x = np.array([0.0, 1.0, 2.5, 4.0, 4.5, 7.0])
        c = np.array([1.0, 0.0, -2.0, 0.7, 0.0, 1.3])
        B = weighted_cauchy_matrix(x, c)
        dec = skew_spectrum(B)
        Z = dec.V[:, dec.mus == 0.0]
        assert dec.zero_multiplicity == 2 and Z.shape == (6, 2)
        assert not np.iscomplexobj(Z)
        np.testing.assert_allclose(Z.T @ Z, np.eye(2), atol=1e-14)
        assert np.linalg.norm(B @ Z) <= 1e-12 * dec.norm
        assert np.all(Z[np.abs(Z).argmax(axis=0), [0, 1]] > 0.0)

    @pytest.mark.parametrize("R", [2, 7, 20, 41])
    def test_pair_phase_rule(self, R):
        rng = np.random.default_rng(100 + R)
        x = np.sort(rng.uniform(0, 10 * R, R))
        c = rng.uniform(0.1, 2.0, R) * rng.choice([-1.0, 1.0], R)
        for B in (weighted_cauchy_matrix(x, c), hilbert_toeplitz(R)):
            dec = skew_spectrum(B)
            for u in dec.U[:, dec.mus > 0].T:
                peak = u[np.argmax(np.abs(u))]
                assert peak.real > 0.0
                assert abs(peak.imag) <= 1e-15 * peak.real

    @pytest.mark.parametrize("R", [2, 7, 20, 41])
    def test_columns_solve_the_pair_equations(self, R):
        # all columns at once: B W = V diag(mus), B V = -W diag(mus); zero
        # modes last at mu == 0.0 with W == 0; C order, which the identity
        # checks' matrix products round by
        rng = np.random.default_rng(200 + R)
        x = np.sort(rng.uniform(0, 10 * R, R))
        c = rng.uniform(0.1, 2.0, R) * rng.choice([-1.0, 1.0], R)
        B = weighted_cauchy_matrix(x, c)
        dec = skew_spectrum(B)
        tol = 1e-12 * R * dec.norm
        assert dec.V.shape == dec.W.shape == (R, dec.mus.size)
        assert np.linalg.norm(B @ dec.W - dec.V * dec.mus) <= tol
        assert np.linalg.norm(B @ dec.V + dec.W * dec.mus) <= tol
        zero = dec.mus == 0.0
        z = dec.zero_multiplicity
        assert z == R % 2 and zero.sum() == z
        assert np.all(zero[dec.mus.size - z:]) and np.all(dec.mus[:dec.mus.size - z] > 0)
        assert np.all(dec.W[:, zero] == 0.0)
        assert dec.V.flags.c_contiguous and dec.W.flags.c_contiguous


class TestSpectralNorm:
    def test_hilbert_toeplitz_small_closed_forms(self):
        assert spectral_norm(hilbert_toeplitz(2)) == pytest.approx(1.0, abs=1e-12)
        assert spectral_norm(hilbert_toeplitz(3)) == pytest.approx(1.5, abs=1e-12)

    @pytest.mark.parametrize("R", [10, 100, 1000])
    def test_hilbert_toeplitz_below_pi(self, R):
        assert toeplitz_hilbert_norm(R) < np.pi

    def test_symmetric_input(self):
        assert spectral_norm(hilbert_hankel(1)) == 1.0
        assert spectral_norm(np.eye(3)) == 1.0

    def test_rejects_general_matrix(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("solve", [skew_spectrum, symmetric_eigen, spectral_norm])
    def test_nan_input_fails_the_symmetry_check(self, solve):
        # one tolerance predicate: a NaN defect is never within tolerance,
        # so no solver reaches LAPACK with it
        with pytest.raises(ValueError) as exc:
            solve(np.full((2, 2), np.nan))
        assert type(exc.value) is ValueError


class TestTracePowerEstimate:
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_t2_closed_form(self, k):
        # eigenvalues +-i: (-1)^k Tr(T_2^{2k}) = 2
        est = trace_power_norm_estimate(hilbert_toeplitz(2), k)
        assert est == pytest.approx(2.0 ** (1.0 / (2 * k)), rel=1e-12)

    def test_t10_within_ten_percent_at_k20(self):
        B = hilbert_toeplitz(10)
        est = trace_power_norm_estimate(B, 20)
        norm = spectral_norm(B)
        assert norm <= est <= 1.1 * norm  # R^(1/40) < 1.06

    def test_1x1_zero(self):
        assert trace_power_norm_estimate(np.zeros((1, 1)), 3) == 0.0

    def test_monotone_decreasing_and_bracketed(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0, 80, 8))
        c = rng.uniform(0.1, 2.0, 8)
        B = weighted_cauchy_matrix(x, c)
        norm = spectral_norm(B)
        R = 8
        previous = np.inf
        for k in (1, 2, 4, 8, 16, 30):
            est = trace_power_norm_estimate(B, k)
            assert est <= previous + 1e-12
            assert norm - 1e-9 <= est <= norm * R ** (1.0 / (2 * k)) + 1e-9
            previous = est
        est30 = trace_power_norm_estimate(B, 30)
        assert abs(est30 - norm) <= (R ** (1.0 / 60) - 1) * norm + 1e-8

    def test_overflow_raises(self):
        B = np.array([[0.0, 1e200], [-1e200, 0.0]])
        with pytest.raises(OverflowError):
            trace_power_norm_estimate(B, 2)


R_PARITY = 37
_M = np.arange(R_PARITY, dtype=float)
_SYMBOL = {0: 0.5, 1: 1.0 - 2.0j, 2: 0.25j, -1: -0.75, -3: 2.0 + 1.0j}


class TestMatrixFreeNorms:
    # (operator, reverse x first, dense reference, complex x)
    @pytest.mark.parametrize("op,reverse,reference,complex_x", [
        pytest.param(ToeplitzOperator.hilbert(R_PARITY), False,
                     hilbert_toeplitz(R_PARITY), False, id="hilbert-real"),
        pytest.param(ToeplitzOperator.hilbert(R_PARITY), False,
                     hilbert_toeplitz(R_PARITY), True, id="hilbert-complex"),
        # the pair hankel_hilbert_norm applies to the reversed vector
        pytest.param(ToeplitzOperator(1.0 / (_M + R_PARITY), 1.0 / (R_PARITY - _M)), True,
                     hilbert_hankel(R_PARITY), False, id="hankel-reversed"),
        pytest.param(ToeplitzOperator([_SYMBOL.get(r, 0.0) for r in range(R_PARITY)],
                                      [_SYMBOL.get(-r, 0.0) for r in range(R_PARITY)]),
                     False, toeplitz_from_symbol(_SYMBOL, R_PARITY), True,
                     id="complex-symbol"),
    ])
    def test_matvec_matches_dense(self, op, reverse, reference, complex_x):
        rng = np.random.default_rng(2)
        v = rng.normal(size=R_PARITY) + 1j * rng.normal(size=R_PARITY)
        if not complex_x:
            v = v.real.copy()
        x = v[::-1] if reverse else v
        dense = op.dense()
        np.testing.assert_array_equal(dense[:, ::-1] if reverse else dense, reference)
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(op.matvec(x), reference @ v, atol=1e-12)

    def test_lanczos_agrees_with_dense_toeplitz(self):
        R = 300
        fast = toeplitz_hilbert_norm(R)       # Lanczos path (above cutoff)
        dense = spectral_norm(hilbert_toeplitz(R))
        assert fast == pytest.approx(dense, abs=1e-9)

    def test_lanczos_agrees_with_dense_hankel(self):
        R = 300
        fast = hankel_hilbert_norm(R)
        dense = spectral_norm(hilbert_hankel(R))
        assert fast == pytest.approx(dense, abs=1e-9)

    def test_top_pair_large_matches_dense_mu(self):
        R = 301
        top = toeplitz_hilbert_top_pair(R)
        dense = spectral_norm(hilbert_toeplitz(R))
        assert top.norm == pytest.approx(dense, abs=1e-9)
        B = hilbert_toeplitz(R)
        assert np.linalg.norm(B @ top.W - top.V * top.mus) <= 1e-9
        assert np.linalg.norm(B @ top.V + top.W * top.mus) <= 1e-9

    @pytest.mark.parametrize("R", [3, 21, 201, 256, 257])
    def test_top_pair_across_cutoff(self, R):
        # one construction on both sides of the dense/Lanczos cutoff
        top = toeplitz_hilbert_top_pair(R)
        B = hilbert_toeplitz(R)
        assert top.mus.shape == (1,)
        assert np.linalg.norm(B @ top.W - top.V * top.mus) <= 1e-9
        assert np.linalg.norm(B @ top.V + top.W * top.mus) <= 1e-9
        assert np.linalg.norm(top.V) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        assert np.linalg.norm(top.W) == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
        # the modulus does not depend on the phase
        reference = skew_spectrum(B).U[:, 0]
        np.testing.assert_allclose(np.abs(top.U[:, 0]), np.abs(reference), rtol=0, atol=1e-12)

    def test_dense_top_pair_loads_no_module(self):
        # T q is taken by the dense product below the cutoff: a dense-only
        # run (such as `verify`) must not pay for importing the FFT
        code = ("import sys; from hilbmat.spectra import toeplitz_hilbert_top_pair as f; "
                "before = set(sys.modules); f(21); print(sorted(set(sys.modules) - before))")
        src = str(Path(hilbmat.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120, check=True)
        assert proc.stdout.strip() == "[]"

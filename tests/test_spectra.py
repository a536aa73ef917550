import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, eigsh

import hilbmat.spectra as spectra
from hilbmat.matrices import (
    ToeplitzOperator,
    _fast_len,
    hilbert_hankel,
    hilbert_toeplitz,
    toeplitz_from_symbol,
    weighted_cauchy_matrix,
)
from hilbmat.spectra import (
    _max_abs,
    hankel_hilbert_norm,
    skew_spectrum,
    spectral_norm,
    toeplitz_hilbert_norm,
    toeplitz_hilbert_top_pair,
    trace_power_norm_estimate,
)
from hilbmat.cli import main
from hilbmat.symbols import SymbolSeries


def tridiagonal(R):
    return toeplitz_from_symbol(SymbolSeries.cosine(), R)


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

    def test_tridiagonal_top_eigenvalue_closed_form(self):
        # oracle: the sine vector s_n = sin(pi n / (R+1)) satisfies
        # C s = 2 cos(pi/(R+1)) s for the 0/1 tridiagonal matrix, whose
        # eigenvalues 2 cos(pi k/(R+1)) are largest in magnitude at k = 1
        R = 9
        C = tridiagonal(R)
        s = np.sin(np.pi * np.arange(1, R + 1) / (R + 1))
        lam = 2.0 * np.cos(np.pi / (R + 1))
        np.testing.assert_allclose(C @ s, lam * s, atol=1e-12)
        assert spectral_norm(C) == pytest.approx(lam, abs=1e-12)

    def test_hankel_2x2_closed_form(self):
        # H_2 = [[1, 1/2], [1/2, 1/3]]: trace 4/3 and determinant 1/12 give
        # the eigenvalues (4 +- sqrt(13))/6
        assert spectral_norm(hilbert_hankel(2)) == pytest.approx((4.0 + np.sqrt(13.0)) / 6.0,
                                                                 abs=1e-14)

    def test_complex_hermitian_input(self):
        # eigenvalues of [[2, 1-i], [1+i, 3]]: (5 +- 3)/2
        H = np.array([[2.0, 1.0 - 1.0j], [1.0 + 1.0j, 3.0]])
        assert spectral_norm(H) == pytest.approx(4.0, abs=1e-12)

    def test_rejects_general_matrix(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[1.0, 2.0], [3.0, 4.0]]))

    @pytest.mark.parametrize("A", [np.zeros((0, 0)), -np.arange(9.0).reshape(3, 3),
                                   np.array([[np.nan, 1.0]]), np.array([[1 + 2j, -3j]])],
                             ids=["empty", "negative", "nan", "complex"])
    def test_max_abs_is_the_largest_magnitude(self, A):
        # a real A's max |A| comes from its max and min, with no |A| array
        np.testing.assert_equal(_max_abs(A), float(np.abs(A).max(initial=0.0)))

    @pytest.mark.parametrize("solve", [skew_spectrum, spectral_norm])
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

    def test_power_index_below_1_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            trace_power_norm_estimate(hilbert_toeplitz(2), 0)
        assert str(exc.value) == "power index k must be >= 1"


R_PARITY = 37
_SYMBOL = {0: 0.5, 1: 1.0 - 2.0j, 2: 0.25j, -1: -0.75, -3: 2.0 + 1.0j}


# case -> (operator, dense reference, reverse x first, complex x) at size R
_MATVEC_CASES = {
    "hilbert-real": lambda R: (ToeplitzOperator.hilbert(R), hilbert_toeplitz(R),
                               False, False),
    "hilbert-complex": lambda R: (ToeplitzOperator.hilbert(R), hilbert_toeplitz(R),
                                  False, True),
    # the operator hankel_hilbert_norm applies to the reversed vector
    "hankel-reversed": lambda R: (ToeplitzOperator.hankel(R), hilbert_hankel(R),
                                  True, False),
}


class TestMatrixFreeNorms:
    # R = R_PARITY keeps the bare case names; at R = 1001, 2R - 1 = 3*23*29 is
    # padded to a fast FFT length
    @pytest.mark.parametrize("case,R", [
        pytest.param(case, R, id=case if R == R_PARITY else f"{case}-R{R}")
        for R in (1, 2, R_PARITY, 1001) for case in _MATVEC_CASES])
    def test_matvec_matches_dense(self, case, R):
        op, reference, reverse, complex_x = _MATVEC_CASES[case](R)
        rng = np.random.default_rng(2)
        v = rng.normal(size=R) + 1j * rng.normal(size=R)
        if not complex_x:
            v = v.real.copy()
        x = v[::-1] if reverse else v
        dense = op.dense()
        np.testing.assert_array_equal(dense[:, ::-1] if reverse else dense, reference)
        np.testing.assert_allclose(op.matvec(x), dense @ x, atol=1e-12)
        np.testing.assert_allclose(op.matvec(x), reference @ v, atol=1e-12)

    @pytest.mark.parametrize("R", [1, 2, R_PARITY, 1001],
                             ids=lambda R: "complex-symbol" + ("" if R == R_PARITY else f"-R{R}"))
    def test_complex_operator_matvec_is_refused(self, R):
        # a complex symbol matrix has its dense build only; the matvec is real
        op = ToeplitzOperator(np.array([_SYMBOL.get(r, 0.0) for r in range(1 - R, R)],
                                       dtype=complex))
        np.testing.assert_array_equal(
            op.dense(), toeplitz_from_symbol(SymbolSeries.from_coeffs(_SYMBOL), R))
        with pytest.raises(ValueError, match="^matvec needs a real operator; a complex "
                                             "Toeplitz matrix has only its dense build$"):
            op.matvec(np.ones(R))

    @pytest.mark.parametrize("build", [ToeplitzOperator.hilbert, ToeplitzOperator.hankel],
                             ids=["hilbert", "hankel"])
    def test_cached_spectrum_is_reused(self, build):
        op = build(R_PARITY)
        rng = np.random.default_rng(3)
        x = rng.normal(size=R_PARITY)
        x_before = x.copy()
        first = op.matvec(x)
        built = op._spectra
        np.testing.assert_array_equal(op.matvec(x), first)
        assert op._spectra is built
        np.testing.assert_array_equal(x, x_before)

    @pytest.mark.parametrize("complex_first", [False, True], ids=["real-first", "complex-first"])
    def test_real_operator_takes_real_and_complex_x_in_either_order(self, complex_first):
        op = ToeplitzOperator.hilbert(R_PARITY)
        rng = np.random.default_rng(4)
        real = rng.normal(size=R_PARITY)
        cplx = rng.normal(size=R_PARITY) + 1j * rng.normal(size=R_PARITY)
        for x in ((cplx, real) if complex_first else (real, cplx)):
            np.testing.assert_allclose(op.matvec(x), op.dense() @ x, atol=1e-12)

    @pytest.mark.parametrize("solve", [toeplitz_hilbert_norm, hankel_hilbert_norm,
                                       toeplitz_hilbert_top_pair], ids=lambda fn: fn.__name__)
    # 300.x would reach H_R's Lanczos route (n = R) and 601.x T_R's
    # preconditioned one (parity block of dimension 301, above
    # DENSE_CUTOFF = 170); a list or 0-d array size is refused the same way
    @pytest.mark.parametrize("R", [300.0, 300.5, 601.0, 601.5, [601], np.array(601.0)])
    def test_non_integer_size_above_cutoff_fails_with_one_line(self, solve, R):
        with pytest.raises(ValueError, match="^dimension must be an integer$"):
            solve(R)

    def test_top_pair_of_t1_is_refused(self):
        # T_1 = 0 has no nonzero eigenvalue to pair
        with pytest.raises(ValueError) as exc:
            toeplitz_hilbert_top_pair(1)
        assert str(exc.value) == "matrix has no nonzero eigenvalues"

    def test_lanczos_agrees_with_dense_toeplitz(self):
        R = 601  # parity block of dimension 301: Lanczos (above cutoff)
        fast = toeplitz_hilbert_norm(R)
        dense = spectral_norm(hilbert_toeplitz(R))
        assert fast == pytest.approx(dense, abs=1e-9)

    @pytest.mark.parametrize("R", list(range(1, 71)) + [255, 256, 257, 300, 500])
    def test_lanczos_agrees_with_dense_hankel(self, R):
        # on both sides of the Hankel cutoff at R = 64 and of DENSE_CUTOFF
        fast = hankel_hilbert_norm(R)
        dense = spectral_norm(hilbert_hankel(R))
        assert fast == pytest.approx(dense, abs=1e-13)

    @pytest.mark.parametrize("solve,R", [(toeplitz_hilbert_norm, 601),
                                         (toeplitz_hilbert_norm, 1001),
                                         (toeplitz_hilbert_norm, 2001),
                                         (hankel_hilbert_norm, 65),
                                         (hankel_hilbert_norm, 300),
                                         (hankel_hilbert_norm, 1000)],
                             ids=["T601", "T1001", "T2001", "H65", "H300", "H1000"])
    def test_lanczos_matches_arpack(self, solve, R):
        # scipy's ARPACK eigsh as the oracle, on the same products, start
        # vector, basis size and tolerance
        if solve is toeplitz_hilbert_norm:
            C = ToeplitzOperator.hilbert_parity(R)
            n, ncv = C.shape[1], 32
            v0 = np.full(n, 1.0 / np.sqrt(R))
            v0[:R // 2] *= np.sqrt(2.0)
            op = LinearOperator((n, n), matvec=lambda x: C.rmatvec(C.matvec(x)), dtype=float)
        else:
            T = ToeplitzOperator.hankel(R)
            ncv, v0 = 8, np.full(R, 1.0 / np.sqrt(R))
            op = LinearOperator((R, R), matvec=lambda x: T.matvec(x[::-1]), dtype=float)
        top = eigsh(op, k=1, which="LA", v0=v0, ncv=ncv, tol=1e-11,
                    return_eigenvectors=False)[0]
        oracle = np.sqrt(top) if solve is toeplitz_hilbert_norm else top
        assert solve(R) == pytest.approx(oracle, rel=1e-13, abs=0)

    @pytest.mark.parametrize("support", [[39], [30, 39]], ids=["1d", "2d"])
    def test_lanczos_breakdown_returns_the_exact_pair(self, support):
        # a start vector inside an invariant subspace that holds the top
        # eigenvalue 40 of diag(1..40): the residual vanishes after one
        # product per dimension, and the subspace's Ritz pair is returned
        # with no division by beta = 0 (a warning would fail this test)
        d = np.arange(1.0, 41.0)
        v0 = np.zeros(40)
        v0[support] = 1.0
        products = []

        def apply(x):
            products.append(1)
            return d * x

        theta, y = spectra._top_ritz(apply, v0, 8, 1e-11)
        assert len(products) == len(support)
        assert theta == pytest.approx(40.0, rel=4 * np.finfo(float).eps, abs=0)
        np.testing.assert_allclose(np.abs(y), np.eye(40)[39], rtol=0, atol=1e-15)

    def test_top_pair_large_matches_dense_mu(self):
        R = 601  # Lanczos on the parity block
        top = toeplitz_hilbert_top_pair(R)
        dense = spectral_norm(hilbert_toeplitz(R))
        assert top.norm == pytest.approx(dense, abs=1e-9)
        B = hilbert_toeplitz(R)
        assert np.linalg.norm(B @ top.W - top.V * top.mus) <= 1e-9
        assert np.linalg.norm(B @ top.V + top.W * top.mus) <= 1e-9

    @pytest.mark.parametrize("R", list(range(1, 65)) + [340, 341, 342, 511, 512, 513, 514, 599,
                                                        600, 601, 602])
    def test_parity_block_norm_matches_dense(self, R):
        # the half-size block against the full dense -T^2, on both sides of
        # the cutoff at R = 2 DENSE_CUTOFF = 340
        assert toeplitz_hilbert_norm(R) == pytest.approx(spectral_norm(hilbert_toeplitz(R)),
                                                         abs=1e-13)

    @pytest.mark.parametrize("R", [3, 21, 201, 256, 257, 340, 341, 342, 511, 512, 513, 514, 599,
                                   600, 601, 602, 1001])
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

    @staticmethod
    def _record_transform_lengths(monkeypatch, inverse=None):
        """The FFT length of every later np.fft.rfft and irfft call; with a
        list ``inverse``, the irfft lengths go there as well."""
        lengths = []

        def recording(transform, also):
            def recorded(a, n=None, *args, **kwargs):
                for seen in also:
                    seen.append(np.shape(a)[-1] if n is None else n)
                return transform(a, n, *args, **kwargs)
            return recorded

        monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft, [lengths]))
        monkeypatch.setattr(np.fft, "irfft", recording(
            np.fft.irfft, [lengths] if inverse is None else [lengths, inverse]))
        return lengths

    @pytest.mark.parametrize("R", [601, 1001, 1002])
    def test_lanczos_solves_transform_only_at_length_R_minus_1(self, monkeypatch, R):
        # every product of a matrix-free T_R norm or top-pair solve transforms
        # at the length _fast_len(R - 1) of the parity operator's
        # Toeplitz-plus-Hankel circulant or _fast_len(2 ceil(R/2) - 1) of the
        # preconditioner's, the same length for an even R, and never at the
        # _fast_len(2R - 1) of a full T_R product; the one other transform of
        # a solve is the preconditioner's length-R rfft of its symbol samples
        inverse = []
        lengths = self._record_transform_lengths(monkeypatch, inverse)
        toeplitz_hilbert_norm(R)
        toeplitz_hilbert_top_pair(R)
        products = {_fast_len(R - 1), _fast_len(2 * ((R + 1) // 2) - 1)}
        assert len(products) == 1 + R % 2
        assert len(lengths) > 100
        assert set(inverse) == products
        assert set(lengths) == products | {R} and lengths.count(R) == 2
        assert _fast_len(2 * R - 1) not in lengths

    def test_dense_solves_take_no_transform(self, monkeypatch):
        # at and below the cutoff (R = 340 and 339) the parity operator is
        # built but never applied, so its spectra are never taken, and no
        # preconditioner is built
        lengths = self._record_transform_lengths(monkeypatch)
        toeplitz_hilbert_norm(340)
        toeplitz_hilbert_norm(339)
        toeplitz_hilbert_top_pair(340)
        toeplitz_hilbert_top_pair(339)
        assert lengths == []

    @pytest.fixture
    def run_fresh(self, run_python):
        """stdout of ``code`` run in a new interpreter that imports this hilbmat."""
        return lambda code: run_python(["-c", code], text=True, check=True).stdout.strip()

    def test_fft_products_load_no_scipy_module(self, run_fresh):
        # a dense build takes no circulant spectrum, and the product runs on
        # numpy.fft: neither Lanczos solve (T_601 on its 301-dimensional
        # parity block, H_300) loads scipy.fft or the scipy.special it pulls in
        for op in (ToeplitzOperator.hilbert(300), ToeplitzOperator.hankel(300)):
            op.dense()
            assert op._spectra is None
        code = ("import sys; from hilbmat.spectra import toeplitz_hilbert_norm, "
                "hankel_hilbert_norm; toeplitz_hilbert_norm(601); "
                "hankel_hilbert_norm(300); "
                "print([m for m in ('scipy.fft', 'scipy.special') if m in sys.modules])")
        assert run_fresh(code) == "[]"

    @pytest.mark.parametrize("commands", [
        [["verify", "--seeds", "3"], ["det", "--R", "6"], ["gen", "--kind", "T", "--R", "20"],
         ["norm", "--kind", "T", "--R", "300"]],
        [["norm", "--kind", "T", "--R", "1100"], ["hankel-gap", "--R-max", "100"]],
    ], ids=["dense-commands", "lanczos-commands"])
    def test_dense_commands_load_no_scipy(self, run_fresh, commands):
        # dense-only commands load no scipy module, and neither do the
        # commands whose numpy Lanczos solves pass the cutoffs (T_1100, and
        # H_R from R = 65)
        code = ("import contextlib, io, sys; from hilbmat.cli import main\n"
                f"for argv in {commands!r}:\n"
                "    with contextlib.redirect_stdout(io.StringIO()):\n"
                "        assert main(argv) == 0, argv\n"
                "print([m for m in sys.modules if m.startswith('scipy')][:3])")
        assert run_fresh(code) == "[]"

    def test_dense_top_pair_loads_no_module(self, run_fresh):
        # T q is taken by the dense product below the cutoff: a dense-only
        # run (such as `verify`) must load no module; the
        # parity block keeps T_R dense up to R = 340
        for call in ("toeplitz_hilbert_top_pair(21)", "toeplitz_hilbert_top_pair(339)",
                     "toeplitz_hilbert_top_pair(340)", "toeplitz_hilbert_norm(340)"):
            code = ("import sys; from hilbmat.spectra import toeplitz_hilbert_norm, "
                    "toeplitz_hilbert_top_pair; before = set(sys.modules); "
                    f"{call}; print(sorted(set(sys.modules) - before))")
            assert run_fresh(code) == "[]", call

    @pytest.mark.parametrize("solve,R,shapes,max_ncv", [
        (toeplitz_hilbert_norm, 601, [(301, 301)], 20),
        (hankel_hilbert_norm, 300, [(300, 300)], 8),
        (toeplitz_hilbert_norm, 600, [(300, 300)], 20),
        (toeplitz_hilbert_norm, 512, [(256, 256)], 20),
        (toeplitz_hilbert_norm, 341, [(171, 171)], 20),
        (toeplitz_hilbert_norm, 340, [], 20),
        (hankel_hilbert_norm, 64, [], 8),
        (hankel_hilbert_norm, 65, [(65, 65)], 8),
    ], ids=["T601", "H300", "T600", "T512", "T341", "T340", "H64", "H65"])
    def test_lanczos_problem_size_and_basis(self, monkeypatch, solve, R, shapes, max_ncv):
        # T_R is solved on its ceil(R/2) parity block, iteratively from
        # R = 2 DENSE_CUTOFF + 1 = 341, H_R as it is; a T_R basis holds at most
        # 20 vectors and is preconditioned, an H_R basis at most 8 and is not
        calls = []
        top_ritz = spectra._top_ritz

        def recording(apply, v0, ncv, tol, precondition=None):
            calls.append(((v0.size, v0.size), ncv, precondition is None))
            return top_ritz(apply, v0, ncv, tol, precondition)

        monkeypatch.setattr(spectra, "_top_ritz", recording)
        solve(R)
        assert [shape for shape, _, _ in calls] == shapes
        assert all(ncv <= max_ncv for _, ncv, _ in calls)
        assert all(plain == (solve is hankel_hilbert_norm) for _, _, plain in calls)

    @staticmethod
    def _count_products(monkeypatch):
        """The product count of every later ``_top_ritz`` solve, one entry per
        solve."""
        counts = []
        top_ritz = spectra._top_ritz

        def counting(apply, *args):
            counts.append(0)

            def counted(x):
                counts[-1] += 1
                return apply(x)
            return top_ritz(counted, *args)

        monkeypatch.setattr(spectra, "_top_ritz", counting)
        return counts

    @pytest.mark.parametrize("solve,R,most", [
        *((toeplitz_hilbert_norm, R, 20) for R in (401, 601, 2001, 10001)),
        *((toeplitz_hilbert_top_pair, R, 20) for R in (601, 2001, 4001)),
        *((hankel_hilbert_norm, R, 8) for R in (65, 300, 1000)),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_products_per_solve(self, monkeypatch, solve, R, most):
        # the preconditioned T_R solve takes a count of products that hardly
        # grows with R (the unpreconditioned Lanczos took 96 at R = 601 and
        # 352 at R = 10000); H_R's Lanczos converges on its first full basis
        counts = self._count_products(monkeypatch)
        solve(R)
        assert len(counts) == 1 and 0 < counts[0] <= most

    @pytest.mark.parametrize("R", [601, 2001, 10001])
    def test_top_pair_residual_on_a_fresh_product(self, R):
        # a top-pair solve stops at ||C^T C q - theta q|| <= 1e-13 theta, and
        # a product on a fresh operator shows it
        lam, q, Cq = spectra._toeplitz_top(ToeplitzOperator.hilbert_parity(R), vector=True)
        C = ToeplitzOperator.hilbert_parity(R)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(Cq, C.matvec(q), rtol=0, atol=1e-15)
        assert np.linalg.norm(C.rmatvec(C.matvec(q)) - lam * q) <= 1e-13 * lam

    def test_restarted_solve_matches_dense(self, monkeypatch):
        # a 4-vector basis cannot hold the solve, which restarts on 2 Ritz
        # vectors until it converges, to the dense norm and top pair
        monkeypatch.setattr(spectra, "_DAVIDSON_NCV", 4)
        counts = self._count_products(monkeypatch)
        R = 601
        B = hilbert_toeplitz(R)
        dense = skew_spectrum(B)
        assert toeplitz_hilbert_norm(R) == pytest.approx(dense.norm, rel=0, abs=1e-13)
        top = toeplitz_hilbert_top_pair(R)
        assert top.norm == pytest.approx(dense.norm, rel=0, abs=1e-13)
        np.testing.assert_allclose(np.abs(top.U[:, 0]), np.abs(dense.U[:, 0]),
                                   rtol=0, atol=1e-12)
        assert len(counts) == 2 and min(counts) > 4

    @pytest.mark.parametrize("R", [10, 11, 601])
    def test_preconditioner_is_the_folded_skew_circulant(self, R):
        # the R x R (-1)-circulant M with eigenvalues g_k = 1/(x_k (2 pi - x_k))
        # at x_k = (2k + 1) pi / R, built entry by entry as
        # (1/R) sum_k g_k cos(x_k (a - b)), folded onto the J-even block by
        # P_e = [lift(e_0), .., lift(e_{n-1})]; exactly symmetric and positive
        # definite, with eigenvalues between those of M
        x = (2.0 * np.arange(R) + 1.0) * np.pi / R
        g = 1.0 / (x * (2.0 * np.pi - x))
        a = np.arange(R)
        M = np.cos(np.multiply.outer(a[:, None] - a[None, :], x)) @ g / R
        C = ToeplitzOperator.hilbert_parity(R)
        n = C.shape[1]
        P = np.stack([C.lift(e, 1.0) for e in np.eye(n)], axis=1)
        np.testing.assert_allclose(P.T @ P, np.eye(n), rtol=0, atol=1e-15)
        K = spectra._parity_preconditioner(R)
        assert K.shape == (n, n)
        dense = K.dense()
        np.testing.assert_allclose(dense, P.T @ M @ P, rtol=0, atol=1e-14 * g.max())
        assert np.array_equal(dense, dense.T)
        values = np.linalg.eigvalsh(dense)
        assert g.min() * (1 - 1e-12) <= values[0] and values[-1] <= g.max() * (1 + 1e-12)
        y = np.random.default_rng(R).normal(size=n)
        np.testing.assert_allclose(K.matvec(y), dense @ y, rtol=0, atol=1e-14 * g.max())


@pytest.fixture
def caller_threads():
    """The OpenBLAS ``(get, set)`` thread functions; the test may set any
    count, and the count it found is put back after it."""
    # numpy's bundled scipy-openblas exports its thread functions, so the
    # guard is live here and these tests cannot pass by finding nothing
    assert spectra._OPENBLAS_THREADS is not None
    get, put = spectra._OPENBLAS_THREADS
    before = get()
    yield get, put
    put(before)


def cauchy_40():
    rng = np.random.default_rng(7)
    return weighted_cauchy_matrix(np.arange(40) + 0.5 * rng.random(40), 0.5 + rng.random(40))


class TestOneBlasThread:
    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("call", [
        lambda out: toeplitz_hilbert_norm(301),
        lambda out: toeplitz_hilbert_norm(700),
        lambda out: toeplitz_hilbert_top_pair(701),
        lambda out: skew_spectrum(cauchy_40()),
        lambda out: main(["sweep-gap", "--R-max", "700", "--out", str(out / "sweep.csv")]),
    ], ids=["T301", "T700", "pair701", "skew40", "cli-sweep"])
    def test_solves_run_on_one_thread_and_restore_the_count(self, monkeypatch, tmp_path,
                                                            caller_threads, call, count):
        get, put = caller_threads
        put(count)
        seen = []

        def recording(solve):
            def run(*args, **kwargs):
                seen.append(get())
                return solve(*args, **kwargs)
            return run

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        call(tmp_path)
        assert seen and set(seen) == {1}
        assert get() == count

    @pytest.mark.parametrize("count", [1, 2])
    def test_count_is_restored_after_a_failed_solve(self, monkeypatch, caller_threads, count):
        get, put = caller_threads
        put(count)
        # a zero tolerance cannot be met, so two restarts run out
        monkeypatch.setattr(spectra, "_LANCZOS_OPTS", dict(tol=0.0, maxiter=2))
        with pytest.raises(np.linalg.LinAlgError):
            toeplitz_hilbert_norm(700)
        assert get() == count

    def test_solves_run_where_openblas_is_not_found(self, monkeypatch, caller_threads):
        # the caller's 2 threads stay in force, and the values move only in
        # their last bits
        caller_threads[1](2)
        solves = [lambda: toeplitz_hilbert_norm(301), lambda: toeplitz_hilbert_norm(700),
                  lambda: skew_spectrum(cauchy_40()).mus]
        guarded = [solve() for solve in solves]
        monkeypatch.setattr(spectra, "_OPENBLAS_THREADS", None)
        for solve, value in zip(solves, guarded):
            np.testing.assert_allclose(solve(), value, rtol=1e-14, atol=0)

import io

import numpy as np
import pytest

from hilbmat.matrices import hilbert_toeplitz, prolate_matrix, toeplitz_from_symbol
from hilbmat.spectra import spectral_norm
from hilbmat.symbols import (
    SymbolSeries,
    grid_quadrature,
    gs_rate_check,
    integral_side,
    phi_values,
    prolate_gap,
    quadratic_form,
    write_gs_rate_csv,
    write_prolate_csv,
)


def random_unit_vector(R, seed, complex_valued=True):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=R)
    if complex_valued:
        u = u + 1j * rng.normal(size=R)
    return u / np.linalg.norm(u)


class TestSymbolEval:
    def test_hilbert_closed_form(self):
        s = SymbolSeries.hilbert(8)
        assert s.eval(np.pi) == 0.0
        assert s.eval(0.0) == 0.0
        assert s.eval(2 * np.pi) == 0.0
        assert s.eval(np.pi / 2) == 1j * np.pi / 2

    def test_prolate_band_indicator(self):
        s = SymbolSeries.prolate(0.25, 8)
        assert s.eval(np.pi) == 0.0
        assert s.eval(0.1) == np.pi
        assert s.eval(2 * np.pi - 0.1) == np.pi

    def test_cosine(self):
        s = SymbolSeries.cosine()
        assert s.eval(0.0) == 2.0
        assert s.eval(np.pi) == pytest.approx(-2.0)

    def test_untagged_truncated_sum(self):
        s = SymbolSeries.from_coeffs({0: 1.0, 2: 0.5, -2: 0.5})
        x = 0.3
        assert s.eval(x) == pytest.approx(1.0 + np.cos(2 * x), abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SymbolSeries.cosine().eval(-0.1)

    def test_coeff_band_and_extension(self):
        s = SymbolSeries.hilbert(3)
        assert s.coeff(5) == pytest.approx(1.0 / 5.0)  # closed form extends
        untagged = SymbolSeries.from_coeffs({1: 1.0, -1: 1.0})
        with pytest.raises(ValueError):
            untagged.coeff(2)

    def test_coeff_rejects_non_integer_offsets(self):
        s = SymbolSeries.hilbert(3)
        for r in (2.5, np.array([0.5, 1.9]), np.nan, np.inf):
            with pytest.raises(ValueError, match="^coefficient offsets must be integers$"):
                s.coeff(r)
        # integral floats name the same offsets as integers
        assert s.coeff(2.0) == s.coeff(2)
        np.testing.assert_array_equal(s.coeff(np.array([-1.0, 4.0])), s.coeff(np.array([-1, 4])))

    @pytest.mark.parametrize("series", [
        SymbolSeries.hilbert(3), SymbolSeries.prolate(0.2, 3), SymbolSeries.cosine(),
        SymbolSeries.constant(2.5), SymbolSeries.from_coeffs({0: 2.0, 1: 1j, -1: -1j}, K=4),
    ], ids=["hilbert", "prolate", "cosine", "constant", "untagged"])
    def test_coeff_array_matches_offsets(self, series):
        # tagged series answer far beyond the band; untagged ones only inside it
        reach = 300 if series.kind else series.K
        rs = np.arange(-reach, reach + 1)
        values = series.coeff(rs)
        assert values.shape == rs.shape
        scalars = [series.coeff(int(r)) for r in rs]
        assert all(isinstance(v, (float, complex)) for v in scalars)
        np.testing.assert_array_equal(values, scalars)
        np.testing.assert_array_equal(np.signbit(values.real), np.signbit(np.real(scalars)))
        if series.kind is None:
            with pytest.raises(ValueError, match="c_5 undefined"):
                series.coeff(np.array([0, 1, 5]))

    def test_hilbert_coefficients_converge_to_sawtooth(self):
        # partial Fourier sums approach i(pi - x) away from the jump
        x = 2.0
        vals = []
        for K in (20, 200, 2000):
            coeffs = SymbolSeries.hilbert(K).coeffs
            vals.append(complex(sum(coeffs[r] * np.exp(1j * r * x)
                                    for r in range(-K, K + 1) if r != 0)))
        errors = [abs(v - 1j * (np.pi - x)) for v in vals]
        assert errors[2] < errors[0]
        assert errors[2] < 1e-3


class TestQuadrature:
    def test_parseval_unit_vector(self):
        u = random_unit_vector(12, 0)
        val = grid_quadrature(SymbolSeries.constant(1.0), u)
        assert val.real == pytest.approx(1.0, abs=1e-12)
        assert abs(val.imag) <= 1e-12

    def test_grid_exact_for_trig_polynomials(self):
        # degree-3 integrand integrated on >= 4 points is exact
        u = random_unit_vector(2, 1)
        s = SymbolSeries.from_coeffs({1: 0.3, -1: 0.3})
        exact = integral_side(s, u)
        coarse = grid_quadrature(s, u, npoints=8)
        assert coarse == pytest.approx(exact, abs=1e-14)

    def test_phi_normalization(self):
        u = random_unit_vector(9, 2)
        x = 2 * np.pi * np.arange(4096) / 4096
        total = np.sum(np.abs(phi_values(u, x)) ** 2) * (2 * np.pi / 4096)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestQuadraticForm:
    def test_constant_symbol_both_sides(self):
        u = random_unit_vector(10, 3)
        m, i = quadratic_form(SymbolSeries.constant(2.5), u)
        assert m.real == pytest.approx(2.5, abs=1e-12)
        assert i.real == pytest.approx(2.5, abs=1e-12)

    def test_cosine_canonical_basis(self):
        u = np.zeros(6)
        u[2] = 1.0
        m, i = quadratic_form(SymbolSeries.cosine(), u)
        assert abs(m) <= 1e-15
        assert abs(i) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_hilbert_symbol_r16(self, seed):
        u = random_unit_vector(16, seed)
        m, i = quadratic_form(SymbolSeries.hilbert(15), u)
        assert abs(m - i) <= 1e-8
        # the matrix route is literally the skew Hilbert matrix
        assert m == pytest.approx(complex(np.vdot(u, hilbert_toeplitz(16) @ u)), abs=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_prolate_symbol_exact_integral(self, seed):
        u = random_unit_vector(12, 10 + seed)
        m, i = quadratic_form(SymbolSeries.prolate(0.2, 11), u)
        assert abs(m - i) <= 1e-8

    def test_rejects_non_unit_vector(self):
        with pytest.raises(ValueError):
            quadratic_form(SymbolSeries.cosine(), np.array([1.0, 1.0]))


class TestNormBoundedBySymbol:
    @pytest.mark.parametrize("R", [5, 20, 60])
    def test_cosine(self, R):
        C = toeplitz_from_symbol(SymbolSeries.cosine(), R)
        assert spectral_norm(C) <= 2.0

    @pytest.mark.parametrize("R", [5, 20, 60])
    def test_prolate(self, R):
        # the true gap at R = 60 sits far below double precision, so allow
        # the computed top eigenvalue to round a few ulps above pi
        assert spectral_norm(prolate_matrix(R, 0.25)) <= np.pi + 1e-13

    @pytest.mark.parametrize("R", [5, 20, 60])
    def test_hilbert(self, R):
        assert spectral_norm(hilbert_toeplitz(R)) <= np.pi

    def test_complex_hermitian_symbol(self):
        # c_{-r} = conj(c_r) gives a real symbol and a Hermitian matrix;
        # here f(x) = 2 Re(i e^{ix}) = -2 sin x, so the norm stays below 2
        s = SymbolSeries.from_coeffs({1: 1j, -1: -1j}, K=11)
        C = toeplitz_from_symbol(s, 12)
        assert np.iscomplexobj(C)
        np.testing.assert_array_equal(C, C.conj().T)
        assert spectral_norm(C) <= 2.0
        u = random_unit_vector(12, 5)
        m, i = quadratic_form(s, u)
        assert abs(m - i) <= 1e-10


class TestGsRate:
    def test_cosine_gap_matches_closed_form(self):
        # oracle: eigenvector sin(pi k n /(R+1)) gives top eigenvalue
        # 2 cos(pi/(R+1)) exactly, hence gap 2 - 2 cos(pi/(R+1))
        rows, peak = gs_rate_check(SymbolSeries.cosine(), [10])
        assert peak == (2.0, 0.0, -2.0)
        R, gap, predicted, ratio = rows[0]
        assert gap == pytest.approx(2.0 - 2.0 * np.cos(np.pi / 11.0), abs=1e-12)

    def test_cosine_r200_ratio_near_one(self):
        rows, _ = gs_rate_check(SymbolSeries.cosine(), [200])
        _, gap, predicted, ratio = rows[0]
        assert 0.9 <= ratio <= 1.1
        # second-order expansion: ratio ~ (R/(R+1))^2
        assert ratio == pytest.approx((200.0 / 201.0) ** 2, abs=1e-3)

    def test_constant_symbol_degenerate(self):
        rows, peak = gs_rate_check(SymbolSeries.constant(3.0), [10])
        assert rows is None and peak is None

    def test_smooth_untagged_symbol(self):
        # f(x) = 2 cos x + cos 2x: unique max at 0, f''(0) = -6
        s = SymbolSeries.from_coeffs({1: 1.0, -1: 1.0, 2: 0.5, -2: 0.5})
        rows, peak = gs_rate_check(s, [150])
        fmax, x0, fpp = peak
        assert fmax == pytest.approx(3.0, abs=1e-9)
        assert abs(x0) <= 1e-9 or abs(x0 - 2 * np.pi) <= 1e-9
        assert fpp == pytest.approx(-6.0, abs=1e-6)
        assert 0.8 <= rows[0][3] <= 1.2

    def test_csv(self):
        rows, _ = gs_rate_check(SymbolSeries.cosine(), [10, 20])
        buf = io.StringIO()
        write_gs_rate_csv(rows, buf)
        assert buf.getvalue().splitlines()[0] == "R,gap,predicted,ratio"


class TestProlateGap:
    def test_r1_closed_form(self):
        rows, _ = prolate_gap(0.25, [1])
        assert rows[0][1] == pytest.approx(np.pi - np.pi / 2, abs=1e-12)

    def test_gaps_positive_and_norms_increasing_above_floor(self):
        rows, _ = prolate_gap(0.25, range(2, 15))
        gaps = [g for _, g, _ in rows]
        assert all(g > 0 for g in gaps)
        # norms increase with dimension, so gaps strictly decrease
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_exponential_decay_slope_negative(self):
        # only the rows above the precision floor enter the fit
        rows, slope = prolate_gap(0.25, range(10, 61))
        assert slope is not None and slope < -1.0

    def test_floor_rows_get_nan_log(self):
        rows, slope = prolate_gap(0.25, range(2, 41))
        assert any(np.isnan(lg) for _, _, lg in rows)  # beyond double precision
        assert slope < 0

    def test_rejects_bad_w(self):
        with pytest.raises(ValueError):
            prolate_gap(0.5, [3])

    def test_csv(self):
        rows, _ = prolate_gap(0.3, [2, 3])
        buf = io.StringIO()
        write_prolate_csv(rows, buf)
        assert buf.getvalue().splitlines()[0] == "R,gap,log_gap"

import io

import numpy as np
import pytest

from hilbmat.matrices import (
    hilbert_coeffs,
    hilbert_toeplitz,
    prolate_coeffs,
    prolate_matrix,
    toeplitz_from_symbol,
)
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
        s = SymbolSeries.hilbert()
        assert s.eval(np.pi) == 0.0
        assert s.eval(0.0) == 0.0
        assert s.eval(2 * np.pi) == 0.0
        assert s.eval(np.pi / 2) == 1j * np.pi / 2

    def test_prolate_band_indicator(self):
        s = SymbolSeries.prolate(0.25)
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

    def test_real_even_symbol_evaluates_to_real_values(self):
        # c_r and c_{-r} are summed next to each other, whatever the mapping's order
        s = SymbolSeries.from_coeffs({-2: 0.5, -1: 0.3, 0: 1.0, 1: 0.3, 2: 0.5})
        assert np.all(s.eval(np.linspace(0.0, 2 * np.pi, 257)).imag == 0.0)

    def test_out_of_range_rejected(self):
        for x in (-0.1, np.nan, np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match=r"^x must lie in \[0, 2\*pi\]$"):
                SymbolSeries.cosine().eval(x)

    def test_coeff_band_and_extension(self):
        s = SymbolSeries.hilbert()
        assert s.coeff(5) == pytest.approx(1.0 / 5.0)  # closed form extends
        untagged = SymbolSeries.from_coeffs({1: 1.0, -1: 1.0})
        assert untagged.coeff(2) == 0.0  # a trigonometric polynomial ends at its band

    def test_coeff_rejects_non_integer_offsets(self):
        s = SymbolSeries.hilbert()
        for r in (2.5, np.array([0.5, 1.9]), np.nan, np.inf):
            with pytest.raises(ValueError, match="^coefficient offsets must be integers$"):
                s.coeff(r)
        # integral floats name the same offsets as integers
        assert s.coeff(2.0) == s.coeff(2)
        np.testing.assert_array_equal(s.coeff(np.array([-1.0, 4.0])), s.coeff(np.array([-1, 4])))

    @pytest.mark.parametrize("series", [
        SymbolSeries.hilbert(), SymbolSeries.prolate(0.2), SymbolSeries.cosine(),
        SymbolSeries.constant(2.5), SymbolSeries.from_coeffs({0: 2.0, 1: 1j, -1: -1j}),
    ], ids=["hilbert", "prolate", "cosine", "constant", "untagged"])
    def test_coeff_array_matches_offsets(self, series):
        # every series answers far beyond its band; the finite ones with zeros
        rs = np.arange(-300, 301)
        values = series.coeff(rs)
        assert values.shape == rs.shape
        scalars = [series.coeff(int(r)) for r in rs]
        assert all(isinstance(v, (float, complex)) for v in scalars)
        np.testing.assert_array_equal(values, scalars)
        np.testing.assert_array_equal(np.signbit(values.real), np.signbit(np.real(scalars)))
        if series.kind is None:
            assert np.all(values[np.abs(rs) > series.K] == 0)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: SymbolSeries(np.ones(4)),
                     "symbol coefficients must be a 1-D array of odd length 2K + 1",
                     id="even-length"),
        pytest.param(lambda: SymbolSeries(np.ones((3, 3))),
                     "symbol coefficients must be a 1-D array of odd length 2K + 1", id="2-d"),
        pytest.param(lambda: SymbolSeries(np.ones(3), kind="cosine"),
                     "symbol kind must be 'hilbert', 'prolate' or None, not 'cosine'",
                     id="unknown-kind"),
        pytest.param(lambda: SymbolSeries(np.array([5.0, 0.0, 7.0]), kind="hilbert"),
                     "a hilbert symbol is its closed form and takes no coefficients",
                     id="hilbert-not-its-closed-form"),
        pytest.param(lambda: SymbolSeries(hilbert_coeffs(np.arange(-2, 3)), kind="hilbert"),
                     "a hilbert symbol is its closed form and takes no coefficients",
                     id="hilbert-with-its-closed-form-coeffs"),
        pytest.param(lambda: SymbolSeries(kind="prolate"),
                     "bandwidth w must be a real number, not None", id="prolate-no-w"),
        pytest.param(lambda: SymbolSeries(kind="prolate", w=0.5),
                     "bandwidth w must lie in the open interval (0, 1/2)",
                     id="prolate-w-outside"),
        pytest.param(lambda: SymbolSeries(prolate_coeffs(np.arange(-2, 3), 0.25),
                                          kind="prolate", w=0.2),
                     "a prolate symbol is its closed form and takes no coefficients",
                     id="prolate-not-its-closed-form"),
        pytest.param(lambda: SymbolSeries.from_coeffs({1.5: 2.0, -1.5: 2.0}),
                     "coefficient offsets must be integers", id="half-integer-offsets"),
        pytest.param(lambda: SymbolSeries.from_coeffs({1.2: 1.0, 1.7: 5.0}),
                     "coefficient offsets must be integers", id="offsets-rounding-to-one"),
        pytest.param(lambda: SymbolSeries(np.array([1.0, np.nan, 1.0])),
                     "symbol coefficients must be finite", id="nan-coefficient"),
        pytest.param(lambda: SymbolSeries.from_coeffs({1: np.inf, -1: np.inf}),
                     "symbol coefficients must be finite", id="inf-coefficients"),
        pytest.param(lambda: SymbolSeries.hilbert().K,
                     "a hilbert symbol is its closed form and has no band K",
                     id="closed-form-K"),
        pytest.param(lambda: SymbolSeries(kind="hilbert", w=0.3),
                     "only a prolate symbol takes a bandwidth w", id="hilbert-with-w"),
        pytest.param(lambda: SymbolSeries(np.ones(3), w=0.3),
                     "only a prolate symbol takes a bandwidth w", id="untagged-with-w"),
    ])
    def test_malformed_series_is_rejected_with_one_message(self, build, message):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message

    def test_from_coeffs_takes_integral_float_offsets(self):
        s = SymbolSeries.from_coeffs({2.0: 0.5, -2: 0.5, 0.0: 1.0})
        np.testing.assert_array_equal(s.coeffs, [0.5, 0, 1.0, 0, 0.5])

    def test_hilbert_coefficients_converge_to_sawtooth(self):
        # partial Fourier sums approach i(pi - x) away from the jump
        x = 2.0
        vals = []
        for K in (20, 200, 2000):
            offsets = np.arange(-K, K + 1)
            coeffs = SymbolSeries.hilbert().coeff(offsets)
            vals.append(complex(sum(coeffs[K + r] * np.exp(1j * r * x)
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
        # degree-2 integrand integrated on the 8 max(R, K) + 64 = 80 points is exact
        u = random_unit_vector(2, 1)
        s = SymbolSeries.from_coeffs({1: 0.3, -1: 0.3})
        exact = integral_side(s, u)
        assert grid_quadrature(s, u) == pytest.approx(exact, abs=1e-14)

    def test_default_grid_resolves_the_symbol_band(self):
        # f |phi|^2 has degree K + R - 1 = 104: a grid of 8R + 64 = 104 points
        # aliases the e^{+-100ix} terms (0.8114), one that also counts K does
        # not; C_5 = I, so both sides are 1
        s = SymbolSeries.from_coeffs({0: 1.0, 100: 1.0, -100: 1.0})
        m, i = quadratic_form(s, random_unit_vector(5, 0, complex_valued=False))
        assert m == pytest.approx(1.0, abs=1e-12)
        assert abs(m - i) <= 1e-10

    @pytest.mark.parametrize("series, R", [
        pytest.param(SymbolSeries.cosine(), 12, id="default-grid"),
        pytest.param(SymbolSeries.from_coeffs({0: 1.0, 100: 1.0, -100: 1.0}), 5,
                     id="band-beyond-R"),
    ])
    def test_fft_quadrature_is_the_phi_values_sum(self, series, R):
        # the FFT evaluation of phi on the grid against its definition
        u = random_unit_vector(R, 4)
        n = 8 * max(R, series.K) + 64
        x = 2 * np.pi * np.arange(n) / n
        direct = np.sum(series.eval(x) * np.abs(phi_values(u, x)) ** 2) * (2 * np.pi / n)
        assert abs(grid_quadrature(series, u) - direct) <= 1e-14

    @pytest.mark.parametrize("series", [SymbolSeries.prolate(0.2), SymbolSeries.hilbert()],
                             ids=["prolate", "hilbert"])
    def test_closed_form_is_refused(self, series):
        # a discontinuous symbol has no band to size the grid by; integral_side
        # integrates it exactly instead
        with pytest.raises(ValueError) as exc:
            grid_quadrature(series, random_unit_vector(4, 0))
        assert str(exc.value) == ("grid_quadrature needs a trigonometric polynomial, "
                                  f"not the {series.kind} closed form")

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
        m, i = quadratic_form(SymbolSeries.hilbert(), u)
        assert abs(m - i) <= 1e-8
        # the matrix route is literally the skew Hilbert matrix
        assert m == pytest.approx(complex(np.vdot(u, hilbert_toeplitz(16) @ u)), abs=1e-13)

    @pytest.mark.parametrize("seed", range(3))
    def test_prolate_symbol_exact_integral(self, seed):
        u = random_unit_vector(12, 10 + seed)
        m, i = quadratic_form(SymbolSeries.prolate(0.2), u)
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
        s = SymbolSeries.from_coeffs({1: 1j, -1: -1j})
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

    def test_non_real_symbol_is_rejected_before_any_solve(self, monkeypatch):
        # c_3 = 0.25 and c_{-2} = 0.5 have no conjugate partner, so the symbol
        # is not real; no norm is taken
        s = SymbolSeries.from_coeffs({0: 2.0, 1: 1j, -1: -1j, 3: 0.25, -2: 0.5})

        def no_solve(M):
            raise AssertionError("a norm was taken")

        monkeypatch.setattr("hilbmat.symbols.spectral_norm", no_solve)
        with pytest.raises(ValueError) as exc:
            gs_rate_check(s, [1, 2, 5, 30])
        assert str(exc.value) == "gs_rate_check needs a real symbol: c_{-r} must equal conj(c_r)"

    @pytest.mark.parametrize("series", [SymbolSeries.prolate(0.2), SymbolSeries.hilbert()],
                             ids=["prolate", "hilbert"])
    def test_closed_form_is_rejected_before_any_solve(self, monkeypatch, series):
        # the rate law is checked on trigonometric polynomials; a closed form
        # would be cut to its band and its rate misreported
        def no_solve(M):
            raise AssertionError("a norm was taken")

        monkeypatch.setattr("hilbmat.symbols.spectral_norm", no_solve)
        with pytest.raises(ValueError) as exc:
            gs_rate_check(series, [10])
        assert str(exc.value) == ("gs_rate_check needs a trigonometric polynomial, "
                                  f"not the {series.kind} closed form")

    def test_empty_r_list_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            gs_rate_check(SymbolSeries.cosine(), [])
        assert str(exc.value) == "R_list must not be empty"

    def test_hermitian_complex_symbol_is_accepted(self):
        # f(x) = 2 cos x + 2 sin 2x: c_{-r} = conj(c_r) with a complex c_2, a real symbol
        s = SymbolSeries.from_coeffs({1: 1.0, -1: 1.0, 2: -1j, -2: 1j})
        rows, peak = gs_rate_check(s, [20])
        assert rows[0][0] == 20 and np.isfinite(rows[0][1])

    def test_csv(self):
        rows, _ = gs_rate_check(SymbolSeries.cosine(), [10, 20])
        buf = io.StringIO()
        write_gs_rate_csv(rows, buf)
        assert buf.getvalue().splitlines()[0] == "R,gap,predicted,ratio"


@pytest.mark.parametrize("call", [
    lambda: gs_rate_check(SymbolSeries.cosine(), [10.5]),
    lambda: gs_rate_check(SymbolSeries.cosine(), [10, 10.5]),
    lambda: gs_rate_check(SymbolSeries.cosine(), np.array([10.0, 50.0])),
    lambda: prolate_gap(0.25, [5.9]),
    lambda: prolate_gap(0.25, [2, 3, 5.9]),
], ids=["gs-rate", "gs-rate-second", "gs-rate-float-array", "prolate", "prolate-third"])
def test_fractional_size_is_refused_before_any_solve(monkeypatch, call):
    # a fraction was cut by int(R): the row's gap came from the truncated
    # matrix, and gs_rate_check's prediction from the fraction
    def no_solve(M):
        raise AssertionError("a norm was taken")

    monkeypatch.setattr("hilbmat.symbols.spectral_norm", no_solve)
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == "dimension must be an integer"


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

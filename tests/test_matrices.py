import io

import numpy as np
import pytest

from hilbmat.determinants import det_lu, det_matching, pfaffian
from hilbmat.matrices import (
    MAX_DIM,
    ToeplitzOperator,
    _fast_len,
    as_nodes,
    as_weights,
    cauchy_matrix,
    hilbert_hankel,
    hilbert_toeplitz,
    min_gaps,
    prolate_matrix,
    remove_index,
    toeplitz_from_symbol,
    weighted_cauchy_matrix,
    write_matrix_csv,
)
from hilbmat.spectra import require_skew, skew_spectrum, spectral_norm
from hilbmat.symbols import SymbolSeries


def test_cauchy_matrix_2x2():
    np.testing.assert_array_equal(cauchy_matrix([1.0, 2.0]), [[0.0, -1.0], [1.0, 0.0]])


def test_cauchy_matrix_entries():
    A = cauchy_matrix([0.0, 1.0, 3.0])
    assert A[0, 2] == -1.0 / 3.0
    assert A[1, 2] == -1.0 / 2.0
    assert A[0, 1] == -1.0


@pytest.mark.parametrize("bad", [[1.0, 1.0], [2.0, 1.0], [0.0, 1.0, 1.0, 2.0]])
def test_cauchy_matrix_rejects_non_increasing(bad):
    with pytest.raises(ValueError):
        cauchy_matrix(bad)


@pytest.mark.parametrize("values, message", [
    pytest.param(np.zeros((2, 2)), "node vector must be one-dimensional", id="2-d"),
    pytest.param([], "node vector must have length >= 1", id="empty"),
    pytest.param(np.arange(MAX_DIM + 1.0), f"dimension exceeds the size cap of {MAX_DIM}",
                 id="above-cap"),
    pytest.param([0.0, np.inf], "nodes must be finite", id="inf"),
    pytest.param([np.nan, 1.0], "nodes must be finite", id="nan"),
    pytest.param([0.0, 2.0, 1.0], "nodes must be strictly increasing (hence distinct)",
                 id="decreasing"),
])
def test_as_nodes_rejects_with_one_message(values, message):
    with pytest.raises(ValueError) as exc:
        as_nodes(values)
    assert str(exc.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_weights_rejects_non_finite(bad):
    with pytest.raises(ValueError) as exc:
        as_weights([1.0, bad], 2)
    assert str(exc.value) == "weights must be finite"


def test_weighted_reduces_to_unweighted_for_unit_weights():
    x = np.array([0.0, 0.7, 2.0, 5.5])
    np.testing.assert_array_equal(weighted_cauchy_matrix(x, np.ones(4)), cauchy_matrix(x))


def test_weighted_zero_weight_zeroes_row_and_column():
    B = weighted_cauchy_matrix([0.0, 1.0, 3.0], [1.0, 0.0, -2.0])
    assert np.all(B[1, :] == 0.0)
    assert np.all(B[:, 1] == 0.0)


def test_weighted_2x2_example():
    np.testing.assert_array_equal(
        weighted_cauchy_matrix([0.0, 1.0], [2.0, 3.0]), [[0.0, -6.0], [6.0, 0.0]]
    )


def test_weighted_build_is_skew_bit_for_bit():
    # c_0 c_1 = -0.0: the quotient's signed zeros must mirror as well
    x = np.array([0.0, 1.0, 2.5, 4.0])
    c = np.array([0.0, -1.0, 2.0, -0.5])
    M = weighted_cauchy_matrix(x, c)
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.triu(np.multiply.outer(c, c) / np.subtract.outer(x, x), 1)
    np.testing.assert_array_equal(M, upper - upper.T)
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_array_equal(np.signbit(M)[off], np.signbit(-M.T)[off])
    assert np.all(np.diagonal(M) == 0.0) and not np.any(np.signbit(np.diagonal(M)))


def test_weighted_length_mismatch():
    with pytest.raises(ValueError):
        weighted_cauchy_matrix([0.0, 1.0], [1.0, 2.0, 3.0])


def test_hilbert_toeplitz_small():
    np.testing.assert_array_equal(hilbert_toeplitz(2), [[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(hilbert_toeplitz(1), [[0.0]])
    assert hilbert_toeplitz(4)[0, 3] == -1.0 / 3.0


def test_hilbert_toeplitz_matches_integer_nodes():
    # bitwise, signs of zeros included: T_R read from (col, -col) equals the
    # Cauchy build on the nodes 1..R
    for R in (1, 2, 9, 64, 300):
        T = hilbert_toeplitz(R)
        old = cauchy_matrix(np.arange(1.0, R + 1))
        assert T.dtype == old.dtype
        assert np.array_equal(T, old)
        assert np.array_equal(np.signbit(T), np.signbit(old))


def test_hilbert_hankel_is_corner_of_toeplitz():
    # with columns reversed, the Hankel matrix is a lower-left block of the
    # (2R+1)-dim skew matrix; this is what forces ||H_R|| <= ||T_{2R+1}||
    R = 6
    T = hilbert_toeplitz(2 * R + 1)
    np.testing.assert_array_equal(T[R:2 * R, 0:R][:, ::-1], hilbert_hankel(R))


def test_hilbert_hankel_values():
    np.testing.assert_array_equal(hilbert_hankel(1), [[1.0]])
    np.testing.assert_array_equal(
        hilbert_hankel(2), [[1.0, 0.5], [0.5, 1.0 / 3.0]]
    )
    assert hilbert_hankel(3)[2, 2] == 1.0 / 5.0


@pytest.mark.parametrize("R", [1, 2, 7, 256, 257, 1001])
def test_hilbert_hankel_equals_closed_form(R):
    # the reversed coefficients 1/(R + r) of ToeplitzOperator.hankel round
    # exactly as the closed form: both divide 1 by the same exact integer m + n + 1
    i = np.arange(R, dtype=float)
    reference = 1.0 / (i[:, None] + i[None, :] + 1.0)
    H = hilbert_hankel(R)
    np.testing.assert_array_equal(H, reference)
    np.testing.assert_array_equal(np.signbit(H), np.signbit(reference))


@pytest.mark.parametrize("R", [1, 2, 3, 4, 9, 10, 257, 300])
def test_hilbert_parity_block_is_the_even_to_odd_block(R):
    # explicit orthonormal bases: (e_i + e_{R-1-i})/sqrt2 then e_mid for odd
    # R (J-even), (e_i - e_{R-1-i})/sqrt2 (J-odd), i < R // 2
    h, n = R // 2, (R + 1) // 2
    P_even, P_odd = np.zeros((R, n)), np.zeros((R, h))
    for i in range(h):
        P_even[[i, R - 1 - i], i] = 1.0 / np.sqrt(2.0)
        P_odd[[i, R - 1 - i], i] = [1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)]
    if R % 2:
        P_even[h, h] = 1.0
    T = hilbert_toeplitz(R)
    C = ToeplitzOperator.hilbert_parity(R).dense()
    assert C.shape == (h, n)
    np.testing.assert_allclose(C, P_odd.T @ T @ P_even, rtol=0, atol=1e-14)
    # T_R = [[0, -C^T], [C, 0]] in the stacked basis [P_even, P_odd]
    P = np.hstack([P_even, P_odd])
    blocks = np.block([[np.zeros((n, n)), -C.T], [C, np.zeros((h, h))]])
    np.testing.assert_allclose(P.T @ T @ P, blocks, rtol=0, atol=1e-14)


def _close(a, b, rel=1e-14):
    return float(np.linalg.norm(a - b)) <= rel * float(np.linalg.norm(b))


@pytest.mark.parametrize("R", [2, 3, 4, 5, 9, 10, 257, 300, 513, 1001, 2001, 4000])
def test_parity_operator_matches_the_dense_block(R):
    # C x, C^T z and C^T C x through the one Toeplitz-plus-Hankel circulant of
    # length _fast_len(R - 1), against the dense parity block; the
    # Hankel part's reversal shift sits in the integer offsets, and a phase
    # factor exp(-2 pi i k (n-1)/N) in its place misses 1e-14 at R = 2001
    C = ToeplitzOperator.hilbert_parity(R).dense()
    op = ToeplitzOperator.hilbert_parity(R)
    assert op.shape == C.shape
    rng = np.random.default_rng(R)
    x, z = rng.normal(size=C.shape[1]), rng.normal(size=C.shape[0])
    assert _close(op.matvec(x), C @ x)
    assert _close(op.rmatvec(z), C.T @ z)
    assert _close(op.rmatvec(op.matvec(x)), C.T @ (C @ x))


@pytest.mark.parametrize("R", [2, 3, 9, 10])
def test_parity_lift_is_the_even_and_odd_basis(R):
    h, n = R // 2, (R + 1) // 2
    op = ToeplitzOperator.hilbert_parity(R)
    P_even = np.column_stack([op.lift(e, 1.0) for e in np.eye(n)])
    P_odd = np.column_stack([op.lift(e, -1.0) for e in np.eye(h)])
    J = np.eye(R)[::-1]
    np.testing.assert_array_equal(J @ P_even, P_even)
    np.testing.assert_array_equal(J @ P_odd, -P_odd)
    P = np.hstack([P_even, P_odd])
    np.testing.assert_allclose(P.T @ P, np.eye(R), rtol=0, atol=1e-15)


@pytest.mark.parametrize("method,length,shape", [
    (method, length, shape) for method, length in (("matvec", 5), ("rmatvec", 4))
    for shape in ((length - 1,), (length + 1,), (length, 1), ())])
def test_parity_operator_rejects_a_vector_of_the_wrong_length(method, length, shape):
    op = ToeplitzOperator.hilbert_parity(9)  # C is 4 x 5
    with pytest.raises(ValueError, match=rf"^{method} needs a 1-D vector of length {length}, "
                                         r"got shape "):
        getattr(op, method)(np.ones(shape))


@pytest.mark.parametrize("build,R", [(ToeplitzOperator.hilbert, 37),
                                     (ToeplitzOperator.hilbert_parity, 9)],
                         ids=["hilbert", "parity"])
@pytest.mark.parametrize("method,side", [("matvec", 1), ("rmatvec", 0)],
                         ids=["matvec", "rmatvec"])
def test_operator_refuses_a_complex_vector(build, R, method, side):
    # a complex vector is the caller's to split into its real and imaginary parts
    op = build(R)
    x = np.ones(op.shape[side], dtype=complex)
    with pytest.raises(ValueError) as exc:
        getattr(op, method)(x)
    assert str(exc.value) == f"{method} needs a real vector, got dtype complex128"


@pytest.mark.parametrize("R", [1, 2, 37, 1000, 1001], ids=lambda R: f"real-x-{R}")
def test_full_length_matvec_is_the_2R_circulant_product(R):
    # bit for bit the product of the circulant of length _fast_len(2R - 1)
    # built by concatenation, which the Hankel solves and the witness use
    op = ToeplitzOperator.hilbert(R)
    c = op.coeffs
    n = _fast_len(2 * R - 1)
    spectrum = np.fft.rfft(np.concatenate((c[R - 1:], np.zeros(n - 2 * R + 1), c[:R - 1])))
    rng = np.random.default_rng(5)
    x = rng.normal(size=R)
    expected = np.fft.irfft(spectrum * np.fft.rfft(x, n), n)[:R]
    np.testing.assert_array_equal(op.matvec(x), expected)


@pytest.mark.parametrize("build", [ToeplitzOperator.hilbert, ToeplitzOperator.hankel],
                         ids=["hilbert", "hankel"])
@pytest.mark.parametrize("R,message", [(300.0, "^dimension must be an integer$"),
                                       (300.5, "^dimension must be an integer$"),
                                       (0, "^dimension must be >= 1$")])
def test_operator_size_is_checked(build, R, message):
    with pytest.raises(ValueError, match=message):
        build(R)


@pytest.mark.parametrize("build, shape", [
    pytest.param(ToeplitzOperator.hilbert, (MAX_DIM, MAX_DIM), id="hilbert"),
    pytest.param(ToeplitzOperator.hankel, (MAX_DIM, MAX_DIM), id="hankel"),
    pytest.param(ToeplitzOperator.hilbert_parity, (MAX_DIM // 2,) * 2, id="hilbert_parity"),
])
def test_operator_size_is_capped(build, shape):
    # matrix-free sizes obey the dense cap: MAX_DIM builds, MAX_DIM + 1 is refused
    assert build(np.int64(MAX_DIM)).shape == shape
    with pytest.raises(ValueError) as exc:
        build(np.int64(MAX_DIM + 1))
    assert str(exc.value) == f"dimension exceeds the size cap of {MAX_DIM}"


@pytest.mark.parametrize("coeffs", [
    pytest.param(np.ones((2, 2)), id="2-d"),
    pytest.param(1.0, id="0-d"),
    pytest.param([], id="empty"),
    pytest.param([1.0, 2.0], id="even-length"),
    pytest.param(np.ones((1, 3)), id="row-2-d"),
])
def test_operator_rejects_bad_column_and_row(coeffs):
    # the one coefficient rule: a 1-D array of odd length 2R - 1
    with pytest.raises(ValueError, match="^Toeplitz coefficients must be a 1-D array of "
                                         "odd length 2R - 1$"):
        ToeplitzOperator(coeffs)


@pytest.mark.parametrize("shape", [(3, 7), (7, 3), (6, 6), (1, 4), (4, 1), (0, 7), (7, 0)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("hankel", [False, True], ids=["toeplitz", "plus-hankel"])
def test_rectangular_products_match_the_dense_build(shape, hankel):
    # M x, M^T z and the dense build agree for any shape, with or without a
    # Hankel part, under random row and column weights; the dense build reads
    # entry (i, j) as (t(i - j) + k(i + j)) / sqrt(u_i w_j)
    m, n = shape
    rng = np.random.default_rng(m * 10 + n)
    t, k = rng.normal(size=m + n - 1), rng.normal(size=m + n - 1)
    w, u = rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=m)
    op = ToeplitzOperator(t, k if hankel else None, shape, w, u)
    i, j = np.indices(shape)
    expected = (t[n - 1 + i - j] + (k[i + j] if hankel else 0.0)) / np.sqrt(np.outer(u, w))
    M = op.dense()
    np.testing.assert_allclose(M, expected, rtol=1e-15, atol=0)
    x, z = rng.normal(size=n), rng.normal(size=m)
    np.testing.assert_allclose(op.matvec(x), M @ x, rtol=0, atol=1e-14)
    np.testing.assert_allclose(op.rmatvec(z), M.T @ z, rtol=0, atol=1e-14)


@pytest.mark.parametrize("kwargs,message", [
    (dict(coeffs=np.ones(3), shape=(2, 3)),
     "^a 2 x 3 matrix needs coefficient vectors of length 4$"),
    (dict(coeffs=np.ones(5), shape=(2, 3)),
     "^a 2 x 3 matrix needs coefficient vectors of length 4$"),
    (dict(coeffs=np.ones(3), hankel_coeffs=np.ones(4)),
     "^a 2 x 2 matrix needs coefficient vectors of length 3$"),
    (dict(coeffs=np.ones(4), shape=(2, 3), column_weights=np.ones(2)),
     "^column weights must be a vector of length 3$"),
    (dict(coeffs=np.ones(4), shape=(2, 3), row_weights=np.ones(3)),
     "^row weights must be a vector of length 2$"),
], ids=["short", "long", "hankel-length", "weights-length", "row-weights-length"])
def test_rectangular_operator_checks_its_parts(kwargs, message):
    # a shape fixes the length m + n - 1 of both coefficient vectors, the
    # length n of the column weights and the length m of the row weights
    with pytest.raises(ValueError, match=message):
        ToeplitzOperator(**kwargs)


@pytest.mark.parametrize("shape", [(5, 2), (5, 1), (1, 5), (4,), (6,), ()],
                         ids=lambda shape: "x".join(map(str, shape)) or "scalar")
def test_matvec_rejects_anything_but_a_vector_of_length_R(shape):
    op = ToeplitzOperator.hilbert(5)
    with pytest.raises(ValueError, match=r"^matvec needs a 1-D vector of length 5, got shape "):
        op.matvec(np.ones(shape))


@pytest.mark.parametrize("op", [
    *(build(R) for build in (ToeplitzOperator.hilbert, ToeplitzOperator.hankel)
      for R in (1, 2, 9, 300)),
    ToeplitzOperator(np.array([-4.0, -0.0j, 2 + 1j, 1 - 2j, -0.0, 3.5j, 0.25])),
], ids=["T1", "T2", "T9", "T300", "H1", "H2", "H9", "H300", "complex"])
def test_dense_equals_scipy_toeplitz(op):
    # bit for bit, signed zeros included, with the same dtype; the result is
    # a fresh writable C-contiguous array, not a view of the coefficients
    from scipy.linalg import toeplitz

    c, R = op.coeffs, op.shape[0]
    expected = toeplitz(c[R - 1:], c[R - 1::-1])
    M = op.dense()
    assert M.dtype == expected.dtype
    assert np.array_equal(M, expected)
    assert np.array_equal(np.signbit(M.real), np.signbit(expected.real))
    assert np.array_equal(np.signbit(M.imag), np.signbit(expected.imag))
    assert M.flags.c_contiguous and M.flags.writeable
    coeffs = c.copy()
    M[:] = 7.0
    assert np.array_equal(op.coeffs, coeffs)


def _is_5_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_len_is_the_next_5_smooth_number():
    # brute force: the FFT length is 5-smooth and no 5-smooth number lies
    # between m and it
    for m in range(1, 5001):
        n = _fast_len(m)
        assert _is_5_smooth(n) and not any(map(_is_5_smooth, range(m, n))), m


def test_fast_len_matches_the_generated_5_smooth_numbers():
    # every length up to 2 MAX_DIM against the next member of the sorted set
    # of all 2^a 3^b 5^c below 4 MAX_DIM, generated directly
    top = 4 * MAX_DIM
    exponents = range(top.bit_length())
    smooth = sorted({2 ** a * 3 ** b * 5 ** c for a in exponents for b in exponents
                     for c in exponents} & set(range(1, top + 1)))
    lengths = np.array([_fast_len(m) for m in range(1, 2 * MAX_DIM + 1)])
    nxt = np.array(smooth)[np.searchsorted(smooth, np.arange(1, 2 * MAX_DIM + 1))]
    np.testing.assert_array_equal(lengths, nxt)


def test_prolate_matrix_values():
    np.testing.assert_allclose(prolate_matrix(1, 0.25), [[np.pi / 2]], rtol=0)
    P = prolate_matrix(2, 0.25)
    assert P[0, 1] == pytest.approx(np.sin(np.pi / 2), abs=0)
    assert np.array_equal(P, P.T)


@pytest.mark.parametrize("w", [0.0, 0.5, -0.1, 0.7])
def test_prolate_matrix_rejects_bad_bandwidth(w):
    with pytest.raises(ValueError):
        prolate_matrix(3, w)


def test_toeplitz_identity_from_dict():
    np.testing.assert_array_equal(toeplitz_from_symbol(SymbolSeries.constant(1.0), 3), np.eye(3))


def test_toeplitz_tridiagonal():
    C = toeplitz_from_symbol(SymbolSeries.cosine(), 3)
    np.testing.assert_array_equal(C, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_toeplitz_convention_entry_is_c_of_m_minus_n():
    C = toeplitz_from_symbol(SymbolSeries.from_coeffs({1: 5.0, -1: 7.0}), 2)
    # entry (m, n) = c_{m-n}: row 2, column 1 reads c_1
    assert C[1, 0] == 5.0
    assert C[0, 1] == 7.0


@pytest.mark.parametrize("family, R, K, w", [
    pytest.param("hilbert", 6, 5, None, id="hilbert-R6-K5"),
    pytest.param("hilbert", 9, 3, None, id="hilbert-R9-K3"),
    pytest.param("hilbert", 40, 0, None, id="hilbert-R40-K0"),
    pytest.param("hilbert", 300, 1, None, id="hilbert-R300-K1"),
    pytest.param("prolate", 6, 5, 0.2, id="prolate-R6-K5-w0.2"),
    pytest.param("prolate", 12, 11, 0.2, id="prolate-R12-K11-w0.2"),
    pytest.param("prolate", 12, 4, 0.1, id="prolate-R12-K4-w0.1"),
    pytest.param("prolate", 30, 7, 0.37, id="prolate-R30-K7-w0.37"),
    pytest.param("prolate", 40, 39, 0.49, id="prolate-R40-K39-w0.49"),
    pytest.param("prolate", 300, 2, 0.2, id="prolate-R300-K2-w0.2"),
])
def test_toeplitz_symbol_reproduces_closed_form(family, R, K, w):
    # the closed form gives every offset, so the entries match bit for bit;
    # cut to its band -K..K it is a trigonometric polynomial whose matrix
    # keeps the entries with |m - n| <= K and is 0 beyond them
    if family == "hilbert":
        series, expected = SymbolSeries.hilbert(), hilbert_toeplitz(R)
    else:
        series, expected = SymbolSeries.prolate(w), prolate_matrix(R, w)
    C = toeplitz_from_symbol(series, R)
    np.testing.assert_array_equal(C, expected)
    np.testing.assert_array_equal(np.signbit(C), np.signbit(expected))
    offsets = np.arange(-K, K + 1)
    cut = SymbolSeries.from_coeffs(dict(zip(offsets, series.coeff(offsets))))
    n = np.arange(R)
    band = np.abs(np.subtract.outer(n, n)) <= K
    np.testing.assert_array_equal(toeplitz_from_symbol(cut, R), np.where(band, expected, 0.0))


def test_toeplitz_missing_coefficient_errors():
    # a series without a closed form is its trigonometric polynomial: the
    # coefficients beyond its band are exact zeros
    series = SymbolSeries.from_coeffs({0: 1.0, 1: 0.5, -1: 0.5})
    np.testing.assert_array_equal(toeplitz_from_symbol(series, 4), [
        [1.0, 0.5, 0.0, 0.0], [0.5, 1.0, 0.5, 0.0], [0.0, 0.5, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]])


@pytest.mark.parametrize("fn", [spectral_norm, require_skew, skew_spectrum,
                                remove_index, pfaffian, det_matching, det_lu],
                         ids=lambda fn: fn.__name__)
def test_zero_dim_input_is_not_square(fn):
    args = (1,) if fn is remove_index else ()  # the index to remove
    with pytest.raises(ValueError, match="^matrix must be square$"):
        fn(np.float64(2.0), *args)


def test_remove_index_examples():
    T3 = hilbert_toeplitz(3)
    np.testing.assert_array_equal(remove_index(T3, 2), [[0.0, -0.5], [0.5, 0.0]])
    assert remove_index(np.zeros((1, 1)), 1).shape == (0, 0)


def test_remove_index_commutes():
    B = weighted_cauchy_matrix([0.0, 1.0, 2.5, 4.0], [1.0, -2.0, 0.5, 3.0])
    # removing indices 2 then 3 (renumbered) equals removing 3 then 2
    once = remove_index(remove_index(B, 2), 2)   # drops original 2 and 3
    other = remove_index(remove_index(B, 3), 2)
    np.testing.assert_array_equal(once, other)


def test_remove_index_out_of_range():
    with pytest.raises(ValueError):
        remove_index(hilbert_toeplitz(3), 4)
    with pytest.raises(ValueError):
        remove_index(hilbert_toeplitz(3), 0)


def test_min_gaps_examples():
    gaps = min_gaps([0.0, 1.0, 3.0])
    assert gaps.min() == 1.0
    np.testing.assert_array_equal(gaps, [1.0, 1.0, 2.0])

    gaps = min_gaps(np.arange(1.0, 8.0))
    assert gaps.min() == 1.0
    assert np.all(gaps == 1.0)

    gaps = min_gaps([0.0, 0.5, 10.0])
    assert gaps.min() == 0.5
    np.testing.assert_array_equal(gaps, [0.5, 0.5, 9.5])


def test_min_gaps_needs_two_nodes():
    with pytest.raises(ValueError):
        min_gaps([1.0])


def test_gap_report_invariant_random():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0, 100, 20))
    gaps = min_gaps(x)
    brute = [min(abs(x[m] - x[n]) for m in range(20) if m != n) for n in range(20)]
    np.testing.assert_allclose(gaps, brute, rtol=0)
    assert gaps.min() == min(brute)


def test_skew_invariant_exact():
    rng = np.random.default_rng(3)
    x = np.sort(rng.uniform(-5, 5, 12))
    c = rng.normal(size=12)
    for M in (cauchy_matrix(x), weighted_cauchy_matrix(x, c), hilbert_toeplitz(12)):
        assert np.all(np.diagonal(M) == 0.0)
        assert np.all(M + M.T == 0.0)  # exact, by construction


def test_cocycle_identity_random_nodes():
    rng = np.random.default_rng(11)
    x = np.sort(rng.uniform(0, 10, 9))
    A = cauchy_matrix(x)
    for k, l, m in [(0, 1, 2), (3, 7, 5), (8, 2, 6), (4, 5, 6)]:
        lhs = A[k, l] * A[l, m]
        rhs = A[k, m] * (A[k, l] + A[l, m])
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)


def test_scale_covariance():
    rng = np.random.default_rng(5)
    x = np.sort(rng.uniform(0, 4, 8))
    c = rng.normal(size=8)
    t = 3.7
    np.testing.assert_allclose(
        weighted_cauchy_matrix(t * x, c), weighted_cauchy_matrix(x, c) / t, rtol=1e-13
    )


def test_size_cap_enforced_before_allocation():
    with pytest.raises(ValueError):
        hilbert_toeplitz(MAX_DIM + 1)
    with pytest.raises(ValueError):
        hilbert_hankel(MAX_DIM + 1)


def test_matrix_csv_roundtrip_exact():
    M = weighted_cauchy_matrix([0.0, 0.3, 1.7], [1.0, -0.25, 3.0])
    buf = io.StringIO()
    write_matrix_csv(M, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "c0,c1,c2"
    back = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(back, M)  # 17 significant digits round-trip


def test_cauchy_overflow_is_decided_by_the_entries():
    # max |c|^2 / min gap overflows here, but no entry does: the build stands
    x, c = [0.0, 1.0, 1.0 + 2.0**-52], [1e154, 1e154, 1e-300]
    B = weighted_cauchy_matrix(x, c)
    assert np.isfinite(B).all()
    assert B[0, 1] == -1e308

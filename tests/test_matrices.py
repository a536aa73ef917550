import io

import numpy as np
import pytest

from hilbmat.determinants import det_lu, det_matching, pfaffian
from hilbmat.matrices import (
    GapReport,
    MAX_DIM,
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
from hilbmat.spectra import require_hermitian, require_skew, skew_spectrum, spectral_norm
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
    np.testing.assert_array_equal(toeplitz_from_symbol({0: 1.0}, 3), np.eye(3))


def test_toeplitz_tridiagonal():
    C = toeplitz_from_symbol({1: 1.0, -1: 1.0}, 3)
    np.testing.assert_array_equal(C, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])


def test_toeplitz_convention_entry_is_c_of_m_minus_n():
    C = toeplitz_from_symbol({1: 5.0, -1: 7.0}, 2)
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
    # K < R - 1 reads the outer coefficients from SymbolSeries.coeff's
    # closed-form extension; either way the entries match bit for bit
    if family == "hilbert":
        series, expected = SymbolSeries.hilbert(K), hilbert_toeplitz(R)
    else:
        series, expected = SymbolSeries.prolate(w, K), prolate_matrix(R, w)
    C = toeplitz_from_symbol(series, R)
    np.testing.assert_array_equal(C, expected)
    np.testing.assert_array_equal(np.signbit(C), np.signbit(expected))


def test_toeplitz_missing_coefficient_errors():
    series = SymbolSeries.from_coeffs({0: 1.0, 1: 0.5, -1: 0.5}, K=1)
    with pytest.raises(ValueError):
        toeplitz_from_symbol(series, 4)


@pytest.mark.parametrize("fn", [spectral_norm, require_skew, require_hermitian, skew_spectrum,
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
    rep = min_gaps([0.0, 1.0, 3.0])
    assert rep.delta == 1.0
    np.testing.assert_array_equal(rep.per_node, [1.0, 1.0, 2.0])

    rep = min_gaps(np.arange(1.0, 8.0))
    assert rep.delta == 1.0
    assert np.all(rep.per_node == 1.0)

    rep = min_gaps([0.0, 0.5, 10.0])
    assert rep.delta == 0.5
    np.testing.assert_array_equal(rep.per_node, [0.5, 0.5, 9.5])


def test_min_gaps_needs_two_nodes():
    with pytest.raises(ValueError):
        min_gaps([1.0])


def test_gap_report_invariant_random():
    rng = np.random.default_rng(7)
    x = np.sort(rng.uniform(0, 100, 20))
    rep = min_gaps(x)
    assert isinstance(rep, GapReport)
    brute = [min(abs(x[m] - x[n]) for m in range(20) if m != n) for n in range(20)]
    np.testing.assert_allclose(rep.per_node, brute, rtol=0)
    assert rep.delta == min(brute)


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

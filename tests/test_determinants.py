import itertools
import math

import numpy as np
import pytest

import hilbmat.determinants as determinants
from hilbmat.determinants import (
    MATCHING_CAP,
    _matching_sums,
    det_lu,
    det_matching,
    newton_girard_power_sums,
    pfaffian,
    principal_minor_sum,
    principal_minor_sums,
)
from hilbmat.matrices import hilbert_toeplitz, weighted_cauchy_matrix
from hilbmat.spectra import require_skew


def random_weighted_instance(seed, R):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0, 10 * R, R))
    while R >= 2 and np.diff(x).min() < 1e-3:
        x = np.sort(rng.uniform(0, 10 * R, R))
    c = rng.uniform(0.1, 2.0, R) * rng.choice([-1.0, 1.0], R)
    return weighted_cauchy_matrix(x, c)


def enumerate_matchings(R):
    """Reference list of the canonical perfect matchings of {1, .., R}: pairs
    (m, n) with m < n, listed by increasing first element.  Kept here as an
    independent oracle for ``_matching_sums``; the library never lists them."""

    def rec(free):
        if not free:
            return [()]
        head, rest = free[0], free[1:]
        return [
            ((head, partner),) + tail
            for i, partner in enumerate(rest)
            for tail in rec(rest[:i] + rest[i + 1 :])
        ]

    return tuple(rec(tuple(range(1, R + 1))))


def assert_top_sum_is_expansion(R, seed=0):
    # _matching_sums(W)[R/2] must be the explicit sum over the listed matchings
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.1, 2.0, (R, R))
    W = W + W.T
    expansion = math.fsum(
        math.prod(W[m - 1, n - 1] for m, n in matching) for matching in enumerate_matchings(R)
    )
    assert _matching_sums(W)[R // 2] == pytest.approx(expansion, rel=1e-14)


class TestEnumerateMatchings:
    def test_r2(self):
        assert enumerate_matchings(2) == ((((1, 2),),))
        assert_top_sum_is_expansion(2)

    def test_r4_exact_set(self):
        got = set(enumerate_matchings(4))
        assert got == {
            ((1, 2), (3, 4)),
            ((1, 3), (2, 4)),
            ((1, 4), (2, 3)),
        }
        assert_top_sum_is_expansion(4)

    @pytest.mark.parametrize("R,count", [(2, 1), (4, 3), (6, 15), (8, 105)])
    def test_double_factorial_counts(self, R, count):
        matchings = enumerate_matchings(R)
        assert len(matchings) == count
        assert len(set(matchings)) == count  # no duplicates
        assert _matching_sums(np.ones((R, R)))[R // 2] == float(count)
        assert_top_sum_is_expansion(R, seed=R)

    def test_canonical_ordering(self):
        for matching in enumerate_matchings(6):
            firsts = [m for m, _ in matching]
            assert firsts == sorted(firsts)
            assert all(m < n for m, n in matching)
            flat = sorted(i for pair in matching for i in pair)
            assert flat == list(range(1, 7))
        assert_top_sum_is_expansion(6)


class TestMatchingSums:
    @pytest.mark.parametrize("R", range(1, MATCHING_CAP + 1))
    def test_counts_on_all_ones(self, R):
        # j-edge matchings of R points: choose 2j of them, then (2j-1)!! pairings;
        # every count is below 2^53, so the sums are exact in any order
        counts = _matching_sums(np.ones((R, R)))
        expected = [
            math.comb(R, 2 * j) * math.factorial(2 * j) // (2**j * math.factorial(j))
            for j in range(R // 2 + 1)
        ]
        assert max(expected) < 2**53
        assert counts == tuple(float(n) for n in expected)

    @pytest.mark.parametrize("R", range(1, 9))
    def test_every_entry_is_its_expansion(self, R):
        # m_j is the sum, over the 2j-subsets S of the vertices, of the
        # perfect-matching expansion on S
        rng = np.random.default_rng(100 + R)
        W = rng.uniform(0.0, 2.0, (R, R))
        W = W + W.T
        sums = _matching_sums(W)
        assert type(sums) is tuple and len(sums) == R // 2 + 1
        assert all(type(m) is float for m in sums)
        for j, m in enumerate(sums):
            expansion = math.fsum(
                math.prod(W[S[a - 1], S[b - 1]] for a, b in matching)
                for S in itertools.combinations(range(R), 2 * j)
                for matching in enumerate_matchings(2 * j)
            )
            assert m == pytest.approx(expansion, rel=1e-14)


class TestDetMatching:
    def test_odd_exactly_zero(self):
        for R in (1, 3, 5, 7, 11):
            assert det_matching(random_weighted_instance(R, R)) == 0.0

    def test_empty_matrix_is_one(self):
        assert det_matching(np.zeros((0, 0))) == 1.0
        assert det_lu(np.zeros((0, 0))) == 1.0

    def test_r2_single_entry_squared(self):
        B = random_weighted_instance(0, 2)
        assert det_matching(B) == pytest.approx(B[0, 1] ** 2, rel=1e-15)

    def test_hilbert_t4_against_both_oracles(self):
        B = hilbert_toeplitz(4)
        # oracle 1: Pfaffian expansion b12 b34 - b13 b24 + b14 b23, squared
        pf_expand = B[0, 1] * B[2, 3] - B[0, 2] * B[1, 3] + B[0, 3] * B[1, 2]
        # oracle 2: LU determinant
        lu = det_lu(B)
        value = det_matching(B)
        assert value == pytest.approx(pf_expand**2, abs=1e-14)
        assert value == pytest.approx(lu, abs=1e-12)
        assert value == pytest.approx(169.0 / 144.0, abs=1e-14)

    def test_nonnegative_on_random_instances(self):
        for seed in range(20):
            B = random_weighted_instance(seed, 8)
            assert det_matching(B) >= 0.0

    def test_expansion_is_pfaffian_squared_only_on_cauchy_form(self):
        # generic skew matrix: the squared-entry expansion drops cross terms
        M = np.array([
            [0.0, 1.0, 1.0, 1.0],
            [-1.0, 0.0, -1.0, 1.0],
            [-1.0, 1.0, 0.0, 1.0],
            [-1.0, -1.0, -1.0, 0.0],
        ])
        assert abs(det_matching(M) - pfaffian(M) ** 2) > 1e-10 * max(1.0, pfaffian(M) ** 2)
        # while on a weighted-Cauchy input the cross terms cancel
        B = random_weighted_instance(3, 8)
        assert abs(det_matching(B) - pfaffian(B) ** 2) <= 1e-10 * max(1.0, pfaffian(B) ** 2)

    def test_single_weight_scaling_is_exact_quadratic(self):
        # scaling weight j by s scales every matching term by s^2
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(0, 40, 6))
        c = rng.uniform(0.1, 2.0, 6)
        base = det_matching(weighted_cauchy_matrix(x, c))
        c2 = c.copy()
        c2[2] *= 1.7
        scaled = det_matching(weighted_cauchy_matrix(x, c2))
        assert scaled == pytest.approx(1.7**2 * base, rel=1e-13)
        assert scaled >= base

    def test_upward_weight_scaling_never_decreases(self):
        rng = np.random.default_rng(10)
        x = np.sort(rng.uniform(0, 40, 8))
        c = rng.uniform(0.1, 2.0, 8)
        base = det_matching(weighted_cauchy_matrix(x, c))
        for _ in range(5):
            s = rng.uniform(1.0, 2.0, 8)
            assert det_matching(weighted_cauchy_matrix(x, c * s)) >= base * (1 - 1e-13)


class TestDetLU:
    def test_identity(self):
        assert det_lu(np.eye(3)) == pytest.approx(1.0, abs=0)

    def test_t4(self):
        assert det_lu(hilbert_toeplitz(4)) == pytest.approx(169.0 / 144.0, abs=1e-12)

    def test_t3_singular(self):
        assert abs(det_lu(hilbert_toeplitz(3))) <= 1e-12


class TestPfaffian:
    def test_sign_convention_2x2(self):
        b = 3.5
        assert pfaffian(np.array([[0.0, b], [-b, 0.0]])) == b
        assert pfaffian(hilbert_toeplitz(2)) == pytest.approx(-1.0, abs=0)

    def test_t4_value_and_square(self):
        value = pfaffian(hilbert_toeplitz(4))
        assert abs(value) == pytest.approx(13.0 / 12.0, abs=1e-14)
        assert value**2 == pytest.approx(169.0 / 144.0, abs=1e-14)

    def test_block_diagonal_multiplicative(self):
        p, q = 2.5, -0.75
        M = np.zeros((4, 4))
        M[0, 1], M[1, 0] = p, -p
        M[2, 3], M[3, 2] = q, -q
        assert pfaffian(M) == pytest.approx(p * q, rel=1e-15)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            pfaffian(hilbert_toeplitz(3))

    def test_empty_matrix_is_one(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    def test_zero_matrix_is_zero(self):
        assert pfaffian(np.zeros((4, 4))) == 0.0

    @pytest.mark.parametrize("seed", range(15))
    def test_square_equals_lu_on_general_skew(self, seed):
        rng = np.random.default_rng(seed)
        R = int(rng.integers(2, 13)) // 2 * 2
        R = max(R, 2)
        U = np.triu(rng.normal(size=(R, R)), k=1)
        M = U - U.T
        assert pfaffian(M) ** 2 == pytest.approx(det_lu(M), rel=1e-9, abs=1e-12)


class TestPrincipalMinorSum:
    def test_odd_orders_vanish(self):
        B = random_weighted_instance(1, 6)
        assert principal_minor_sum(B, 1) == 0.0
        assert principal_minor_sum(B, 3) == 0.0
        assert principal_minor_sum(B, 5) == 0.0

    def test_order_zero_is_one(self):
        assert principal_minor_sum(random_weighted_instance(3, 6), 0) == 1.0

    @pytest.mark.parametrize("k", [2.0, 3.0, 2.5])
    def test_order_must_be_an_integer(self, k):
        with pytest.raises(ValueError, match="^minor order k must be an integer$"):
            principal_minor_sum(random_weighted_instance(1, 6), k)

    def test_odd_orders_vanish_beyond_the_cap(self):
        B = random_weighted_instance(5, MATCHING_CAP + 2)
        assert principal_minor_sum(B, 1) == 0.0
        assert principal_minor_sum(B, MATCHING_CAP + 1) == 0.0

    def test_t3_order_two(self):
        # three 2x2 principal minors: b12^2 + b13^2 + b23^2
        assert principal_minor_sum(hilbert_toeplitz(3), 2) == pytest.approx(2.25, abs=1e-15)

    def test_full_order_equals_determinant(self):
        B = random_weighted_instance(2, 8)
        assert principal_minor_sum(B, 8) == det_matching(B)

    def test_equals_elementary_symmetric_of_eigenvalues(self):
        from hilbmat.spectra import skew_spectrum

        B = random_weighted_instance(4, 6)
        dec = skew_spectrum(B)
        evs = 1j * dec.signed_eigenvalues()
        # e_2 and e_4 of the eigenvalues, brute force
        for k in (2, 4):
            e_k = sum(
                np.prod([evs[i] for i in subset])
                for subset in itertools.combinations(range(6), k)
            )
            assert abs(e_k.imag) < 1e-9
            assert principal_minor_sum(B, k) == pytest.approx(e_k.real, rel=1e-9)

    def test_cap(self):
        Z = np.zeros((MATCHING_CAP + 2, MATCHING_CAP + 2))
        with pytest.raises(ValueError):
            principal_minor_sum(Z, 2)
        with pytest.raises(ValueError):
            det_matching(Z)


class TestOneCheckPerCall:
    @pytest.mark.parametrize("call", [
        lambda B: det_matching(B),
        lambda B: principal_minor_sum(B, 4),
        lambda B: principal_minor_sum(B, 3),
        lambda B: principal_minor_sums(B),
    ], ids=["det_matching", "minor-sum-even", "minor-sum-odd", "minor-sums"])
    def test_each_entry_checks_its_matrix_once(self, monkeypatch, call):
        calls = []

        def counting(B):
            calls.append(1)
            return require_skew(B)

        monkeypatch.setattr(determinants, "require_skew", counting)
        call(random_weighted_instance(2, 8))
        assert len(calls) == 1

    def test_odd_order_runs_no_dp(self, monkeypatch):
        def no_dp(W):
            raise AssertionError("the matching DP ran for an odd order")

        monkeypatch.setattr(determinants, "_matching_sums", no_dp)
        B = random_weighted_instance(5, MATCHING_CAP + 1)
        assert det_matching(B) == 0.0
        assert principal_minor_sum(B, 3) == 0.0


class TestNewtonGirard:
    def test_order_below_1_is_rejected(self):
        with pytest.raises(ValueError) as exc:
            newton_girard_power_sums([2.0, 3.0], 0)
        assert str(exc.value) == "L must be >= 1"

    def test_first_two_power_sums(self):
        s = newton_girard_power_sums([2.0, 3.0, 4.0], 2)
        assert s[0] == 2.0                      # s_1 = sigma_1
        assert s[1] == 2.0 * 2.0 - 2 * 3.0      # s_2 = s_1 sigma_1 - 2 sigma_2

    def test_t3_power_sum_matches_trace(self):
        B = hilbert_toeplitz(3)
        sigmas = [principal_minor_sum(B, k) for k in (1, 2, 3)]
        assert sigmas == [0.0, 2.25, 0.0]
        s = newton_girard_power_sums(sigmas, 2)
        assert s[1] == pytest.approx(-4.5, abs=1e-14)
        assert s[1] == pytest.approx(np.trace(B @ B), abs=1e-14)

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_even_power_sums_match_traces(self, seed):
        B = random_weighted_instance(seed, 10)
        sigmas = principal_minor_sums(B)[1:9]
        s = newton_girard_power_sums(sigmas, 8)
        P = np.eye(10)
        traces = []
        for _ in range(8):
            P = P @ B
            traces.append(np.trace(P))
        for k in (1, 2, 3, 4):
            np.testing.assert_allclose(s[2 * k - 1], traces[2 * k - 1], rtol=1e-8)

    def test_zero_padding_beyond_r(self):
        s = newton_girard_power_sums([1.0], 4)
        # single eigenvalue 1: power sums all 1
        assert s == pytest.approx([1.0, 1.0, 1.0, 1.0])


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(25))
    def test_three_routes_agree_on_weighted_instances(self, seed):
        rng = np.random.default_rng(1000 + seed)
        R = int(rng.integers(1, 7)) * 2
        B = random_weighted_instance(2000 + seed, R)
        matching = det_matching(B)
        lu = det_lu(B)
        pf2 = pfaffian(B) ** 2
        tol = 1e-10 * max(1.0, abs(lu))
        assert abs(matching - lu) <= tol
        assert abs(pf2 - matching) <= tol

    @pytest.mark.parametrize("kind", ["random", "hilbert"])
    def test_routes_agree_at_the_cap(self, kind):
        R = MATCHING_CAP
        B = random_weighted_instance(7, R) if kind == "random" else hilbert_toeplitz(R)
        matching = det_matching(B)
        for ref in (pfaffian(B) ** 2, det_lu(B)):
            assert abs(matching - ref) <= 1e-10 * abs(ref)
        assert principal_minor_sum(B, R) == matching

import io
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest

import hilbmat.identities as identities
import hilbmat.matrices as matrices
from hilbmat.identities import (
    MIN_NODE_GAP,
    _instance_battery,
    check_centered_eigenvector_symmetry,
    check_diagonal_power_recursion,
    check_eigenvalue_distinctness,
    check_eigenvector_amplitude_identity,
    check_even_power_positivity,
    check_montgomery_vaughan,
    check_norm_dominance,
    check_real_imag_coupling,
    check_removed_index_cancellation,
    check_row_norm_bounds,
    check_weighted_sum_identity,
    probe_eigenvector_monotonicity,
    random_instance,
    random_nodes,
    random_weights,
    run_suite,
    write_reports_csv,
)
from hilbmat.determinants import det_lu, det_matching, newton_girard_power_sums, principal_minor_sum
from hilbmat.gaps import build_witness, central_coefficient, check_odd_gap_lower_bound
from hilbmat.matrices import MAX_DIM, cauchy_matrix, hilbert_toeplitz, weighted_cauchy_matrix
from hilbmat.reports import ResidualReport
from hilbmat.spectra import (
    SpectralDecomposition,
    hankel_hilbert_norm,
    skew_norms,
    skew_spectrum,
    spectral_norm,
    toeplitz_hilbert_norm,
    toeplitz_hilbert_top_pair,
    trace_power_norm_estimate,
)


def columns(dec, idx):
    """The decomposition of the eigenpair columns ``idx`` of ``dec``."""
    return SpectralDecomposition(dec.mus[idx], dec.V[:, idx], dec.W[:, idx])


def farey_nodes(order):
    """All order-<order> Farey fractions in (0, 1]: irregularly spaced nodes."""
    vals = sorted({Fraction(p, q) for q in range(1, order + 1) for p in range(1, q + 1)})
    return np.array([float(v) for v in vals])


class TestRandomInstances:
    def test_deterministic(self):
        x1, c1, _ = random_instance(7, 30)
        x2, c2, _ = random_instance(7, 30)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(c1, c2)

    @pytest.mark.parametrize("seed", range(10))
    def test_node_and_weight_ranges(self, seed):
        rng = np.random.default_rng(seed)
        x = random_nodes(25, rng)
        assert np.all(np.diff(x) >= MIN_NODE_GAP)
        c = random_weights(25, rng)
        assert np.all((np.abs(c) >= 0.1) & (np.abs(c) <= 2.0))


class TestRemovedIndexCancellation:
    def test_r2_trivial(self):
        rep = check_removed_index_cancellation(hilbert_toeplitz(2), 1, 1)
        assert rep.passed and rep.max_residual == 0.0

    def test_t5(self):
        rep = check_removed_index_cancellation(hilbert_toeplitz(5), 3, 2)
        assert rep.passed
        assert rep.max_residual <= 1e-12 * rep.scale

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances(self, seed):
        x, c, rng = random_instance(seed, 12, min_R=8)
        B = weighted_cauchy_matrix(x, c)
        for n in (1, x.size // 2, x.size):
            rep = check_removed_index_cancellation(B, n, 3)
            assert rep.passed

    def test_brute_force_agreement(self):
        # brute-force the triple sum on a small instance
        x, c, _ = random_instance(3, 6, min_R=6)
        B = weighted_cauchy_matrix(x, c)
        n, k = 2, 2
        Bm = np.delete(np.delete(B, n - 1, 0), n - 1, 1)
        P = np.linalg.matrix_power(Bm, k)
        idx = [i for i in range(6) if i != n - 1]
        total = 0.0
        for li, l in enumerate(idx):
            for mi, m in enumerate(idx):
                if l == m:
                    continue
                total += B[n - 1, l] * B[m, n - 1] * P[li, mi]
        assert abs(total) <= 1e-12 * max(abs(B).max() ** 2 * abs(P).max() * 30, 1.0)


class TestDiagonalPowerRecursion:
    def test_k2_row_energy(self):
        # (B^2)_{nn} = -sum_l b_{nl}^2
        x, c, _ = random_instance(1, 9, min_R=9)
        B = weighted_cauchy_matrix(x, c)
        for n in (1, 5, 9):
            lhs = (B @ B)[n - 1, n - 1]
            np.testing.assert_allclose(lhs, -(B[n - 1] ** 2).sum(), rtol=1e-12)
            assert check_diagonal_power_recursion(B, n, 2).passed

    def test_t4(self):
        assert check_diagonal_power_recursion(hilbert_toeplitz(4), 1, 4).passed

    def test_odd_powers_both_sides_zero(self):
        B = hilbert_toeplitz(6)
        rep = check_diagonal_power_recursion(B, 2, 3)
        assert rep.passed
        assert abs(np.linalg.matrix_power(B, 3)[1, 1]) <= 1e-13 * rep.scale

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random(self, k):
        x, c, _ = random_instance(5, 10, min_R=10)
        B = weighted_cauchy_matrix(x, c)
        assert check_diagonal_power_recursion(B, 4, k).passed


B5 = hilbert_toeplitz(5)
X6, C6 = np.arange(1.0, 7.0), np.ones(6)
OVERFLOW = "Cauchy matrix entries overflow the float range"
CAP = f"dimension exceeds the size cap of {MAX_DIM}"


@pytest.mark.parametrize("call,message", [
    (lambda: matrices.remove_index(B5, 2.5), "index must be an integer"),
    (lambda: check_removed_index_cancellation(B5, 2.5, 1), "index must be an integer"),
    (lambda: check_diagonal_power_recursion(B5, 2.5, 2), "index must be an integer"),
    (lambda: trace_power_norm_estimate(B5, 1.5), "power index k must be an integer"),
    (lambda: check_removed_index_cancellation(B5, 2, 1.5), "power k must be an integer"),
    (lambda: check_diagonal_power_recursion(B5, 2, 2.5), "power k must be an integer"),
    (lambda: check_diagonal_power_recursion(B5, 2, np.float64(2.0)),
     "power k must be an integer"),
    (lambda: newton_girard_power_sums([2.0, 3.0], 1.5), "L must be an integer"),
    (lambda: central_coefficient(2.5, 1), "M must be an integer"),
    (lambda: central_coefficient(3, 1.5), "N must be an integer"),
    (lambda: run_suite(2.5), "seeds must be an integer"),
    (lambda: run_suite(2, 7.5), "max_R must be an integer"),
    (lambda: run_suite(True, 5), "seeds must be an integer"),
    (lambda: random_instance(0, 7.5), "max_R must be an integer"),
    (lambda: check_even_power_positivity(X6, C6, 1.5), "half power k must be an integer"),
    (lambda: check_even_power_positivity(X6, C6, 1, trials=1.5), "trials must be an integer"),
    (lambda: check_centered_eigenvector_symmetry(2.5), "S must be an integer"),
    (lambda: principal_minor_sum(B5, True), "minor order k must be an integer"),
    (lambda: matrices.remove_index(B5, True), "index must be an integer"),
    (lambda: trace_power_norm_estimate(B5, True), "power index k must be an integer"),
    (lambda: toeplitz_hilbert_norm(True), "dimension must be an integer"),
    (lambda: hankel_hilbert_norm(True), "dimension must be an integer"),
    (lambda: skew_spectrum([[0, 1j], [1j, 0]]), "matrix must be real, not complex"),
    (lambda: det_matching([[0, 2 + 1j], [-2 - 1j, 0]]), "matrix must be real, not complex"),
    (lambda: det_lu(np.full((2, 2), np.nan)), "matrix entries must be finite"),
    (lambda: spectral_norm([[0, np.inf], [-np.inf, 0]]), "matrix entries must be finite"),
    (lambda: skew_spectrum([[0, np.inf], [-np.inf, 0]]), "matrix entries must be finite"),
    (lambda: matrices.prolate_matrix(5, 1 + 0j), "bandwidth w must be a real number, not (1+0j)"),
    (lambda: matrices.prolate_matrix(5, [7]), "bandwidth w must be a real number, not [7]"),
    (lambda: check_eigenvalue_distinctness(np.ones(3), skew_spectrum(hilbert_toeplitz(6))),
     "weight vector must have the same length as the node vector (6)"),
    (lambda: check_weighted_sum_identity(np.ones(3), skew_spectrum(hilbert_toeplitz(6))),
     "weight vector must have the same length as the node vector (6)"),
    (lambda: random_instance(2.5, 7), "seed must be an integer"),
    (lambda: random_instance(True, 7), "seed must be an integer"),
    (lambda: random_instance(-1, 7), "seed must be >= 0"),
    (lambda: check_even_power_positivity(X6, C6, 1, seed=1.5), "seed must be an integer"),
    (lambda: check_even_power_positivity(X6, C6, 1, seed=True), "seed must be an integer"),
    (lambda: check_even_power_positivity(X6, C6, 1, seed=-1), "seed must be >= 0"),
    (lambda: cauchy_matrix(np.array([0.0, 1j])), "nodes must be real, not complex"),
    (lambda: cauchy_matrix([0.0, 1j]), "nodes must be real, not complex"),
    (lambda: weighted_cauchy_matrix([0.0, 1.0], np.array([1 + 1j, 1])),
     "weights must be real, not complex"),
    (lambda: weighted_cauchy_matrix([0.0, 1.0], [1 + 1j, 1]), "weights must be real, not complex"),
    (lambda: check_even_power_positivity(X6, C6 + 0j, 1), "weights must be real, not complex"),
    (lambda: cauchy_matrix([0.0, 1e-320, 1.0]), OVERFLOW),
    (lambda: weighted_cauchy_matrix([0.0, 1.0], [1e200, 1e200]), OVERFLOW),
    (lambda: check_even_power_positivity([0.0, 1.0], [1e200, 1e200], 1), OVERFLOW),
    (lambda: cauchy_matrix([-1e308, 1e308]), "node differences overflow the float range"),
    (lambda: toeplitz_hilbert_norm(MAX_DIM + 1), CAP),
    (lambda: hankel_hilbert_norm(MAX_DIM + 1), CAP),
    (lambda: toeplitz_hilbert_top_pair(MAX_DIM + 1), CAP),
    (lambda: build_witness(MAX_DIM + 1), CAP),
    (lambda: check_odd_gap_lower_bound(MAX_DIM // 2), CAP),  # R = MAX_DIM + 1
    (lambda: random_nodes(MAX_DIM + 1, np.random.default_rng(0)), CAP),
    (lambda: random_instance(0, MAX_DIM + 1), f"max_R must be <= {MAX_DIM}"),
    (lambda: cauchy_matrix(np.arange(MAX_DIM + 1.0)), CAP),
    (lambda: matrices.write_matrix_csv(np.ones(3), io.StringIO()), "matrix must be square"),
    (lambda: matrices.write_matrix_csv(np.ones((2, 2, 2)), io.StringIO()),
     "matrix must be square"),
    (lambda: matrices.write_matrix_csv(np.eye(2) * 1j, io.StringIO()),
     "matrix must be real, not complex"),
], ids=["remove_index", "cancellation-n", "recursion-n", "trace_power", "cancellation-k",
        "recursion-k", "recursion-float64-k", "newton_girard", "central-M", "central-N",
        "suite-seeds", "suite-max_R", "suite-bool-seeds", "instance-max_R", "positivity-k",
        "positivity-trials", "centered-S", "minor-sum-bool", "remove_index-bool",
        "trace_power-bool", "toeplitz-norm-bool", "hankel-norm-bool", "spectrum-complex",
        "det_matching-complex", "det_lu-nan", "norm-inf", "spectrum-inf", "prolate-complex-w",
        "prolate-list-w", "distinctness-weights", "weighted-sum-weights", "instance-float-seed",
        "instance-bool-seed", "instance-negative-seed", "positivity-float-seed",
        "positivity-bool-seed", "positivity-negative-seed", "cauchy-complex-array",
        "cauchy-complex-list", "weighted-complex-array", "weighted-complex-list",
        "positivity-complex-weights", "cauchy-overflow", "weighted-overflow",
        "positivity-overflow", "cauchy-node-overflow", "toeplitz-norm-cap", "hankel-norm-cap",
        "top-pair-cap", "witness-cap", "odd-gap-cap", "random-nodes-cap", "instance-cap",
        "cauchy-cap", "csv-1-d", "csv-3-d", "csv-complex"])
def test_non_integer_index_or_power_fails_with_one_line(call, message):
    # a ValueError, not numpy's IndexError or TypeError from deeper down, nor
    # a value computed from input outside the function's domain
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


class TestEvenPowerPositivity:
    def test_k1_is_row_energy(self):
        x, c, _ = random_instance(2, 8)
        B = weighted_cauchy_matrix(x, c)
        diag = -np.diagonal(B @ B)
        np.testing.assert_allclose(diag, (B**2).sum(axis=1), rtol=1e-12)
        assert np.all(diag >= 0.0)

    def test_t6_k3(self):
        assert check_even_power_positivity(np.arange(1.0, 7.0), np.ones(6), 3).passed

    def test_doubling_weights_scales_by_2_to_4k(self):
        x, c, _ = random_instance(4, 7)
        for k in (1, 2):
            B1 = weighted_cauchy_matrix(x, c)
            B2 = weighted_cauchy_matrix(x, 2.0 * c)
            d1 = np.diagonal(np.linalg.matrix_power(B1, 2 * k))
            d2 = np.diagonal(np.linalg.matrix_power(B2, 2 * k))
            np.testing.assert_allclose(d2, 2.0 ** (4 * k) * d1, rtol=1e-12)

    def test_report_deterministic(self):
        x, c, _ = random_instance(6, 9)
        r1 = check_even_power_positivity(x, c, 2, trials=4, seed=3)
        r2 = check_even_power_positivity(x, c, 2, trials=4, seed=3)
        assert r1 == r2


class TestNormDominance:
    def test_uniform_weight_doubling(self):
        x, c, _ = random_instance(0, 10)
        rep = check_norm_dominance(x, c, x, 2.0 * c)
        assert rep.applicable and rep.passed
        # homogeneity: doubling all weights quadruples the norm
        n1 = spectral_norm(weighted_cauchy_matrix(x, c))
        n2 = spectral_norm(weighted_cauchy_matrix(x, 2.0 * c))
        assert n2 == pytest.approx(4.0 * n1, rel=1e-12)

    def test_node_spreading(self):
        x, c, _ = random_instance(1, 10)
        rep = check_norm_dominance(3.0 * x, c, x, c)
        assert rep.applicable and rep.passed

    def test_hypothesis_not_met_is_not_failure(self):
        x, c, _ = random_instance(2, 6)
        rep = check_norm_dominance(x, 2.0 * c, x, c)  # dominance reversed
        assert not rep.applicable
        assert rep.passed  # not counted as a failure

    @pytest.mark.parametrize("seed", range(12))
    def test_random_weight_shrink_pairs(self, seed):
        x, c, rng = random_instance(seed, 24)
        shrink = rng.uniform(0.0, 1.0, x.size)
        assert check_norm_dominance(x, c * shrink, x, c).passed


class TestEigenpairIdentities:
    def test_unit_weights_reduce_to_plain_form(self):
        # with unit weights the amplitude identity collapses to
        # mu^2 |u_n|^2 = sum_m a_mn^2 (|u_m|^2 + 2 Re(u_n conj(u_m)))
        x = np.arange(1.0, 6.0)
        dec = skew_spectrum(cauchy_matrix(x))
        A2 = cauchy_matrix(x) ** 2
        for j in np.flatnonzero(dec.mus > 0):
            u, mu = dec.U[:, j], dec.mus[j]
            rhs = A2 @ (np.abs(u) ** 2) + 2.0 * np.real(u * np.conj(A2 @ u))
            np.testing.assert_allclose(mu**2 * np.abs(u) ** 2, rhs, atol=1e-12)
            rep = check_eigenvector_amplitude_identity(x, np.ones(5), columns(dec, [j]))
            assert rep.passed

    def test_t3_top_pair(self):
        x = np.arange(1.0, 4.0)
        c = np.ones(3)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        rep = check_eigenvector_amplitude_identity(x, c, columns(dec, [0]))
        assert rep.passed and rep.max_residual <= 1e-10 * rep.scale

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_amplitude_every_pair_r20(self, seed):
        rng = np.random.default_rng(seed)
        x = random_nodes(20, rng)
        c = random_weights(20, rng)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        # one call: each pair's gap to the nearest other eigenvalue of dec
        assert check_eigenvector_amplitude_identity(x, c, dec).passed

    def test_coupling_zero_mode_exact(self):
        x = np.arange(1.0, 6.0)
        c = np.ones(5)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        assert dec.zero_multiplicity == 1
        rep = check_real_imag_coupling(x, c, columns(dec, dec.mus == 0.0))
        assert rep.passed
        assert rep.details["identity_residual"] == 0.0  # w = 0 exactly

    def test_coupling_t5_norm_split(self):
        x = np.arange(1.0, 6.0)
        c = np.ones(5)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        rep = check_real_imag_coupling(x, c, columns(dec, [0]))
        assert rep.passed
        assert rep.details["norm_split"] <= 1e-10

    @pytest.mark.parametrize("seed", [1, 7])
    def test_coupling_random_r10(self, seed):
        rng = np.random.default_rng(seed)
        x = random_nodes(10, rng)
        c = random_weights(10, rng)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        for j in np.flatnonzero(dec.mus > 0):
            assert check_real_imag_coupling(x, c, columns(dec, [j])).passed

    def test_weighted_sum_r1(self):
        zero_mode = SpectralDecomposition(np.zeros(1), np.ones((1, 1)), np.zeros((1, 1)))
        assert check_weighted_sum_identity(np.array([2.0]), zero_mode).passed

    def test_weighted_sum_t3_unit_weights(self):
        x = np.arange(1.0, 4.0)
        dec = skew_spectrum(cauchy_matrix(x))
        u = dec.U[:, 0]
        assert abs(np.sum(u)) ** 2 == pytest.approx(np.sum(np.abs(u) ** 2), abs=1e-12)
        assert check_weighted_sum_identity(np.ones(3), columns(dec, [0])).passed

    def test_weighted_sum_random_r15_all_pairs(self):
        rng = np.random.default_rng(123)
        x = random_nodes(15, rng)
        c = random_weights(15, rng)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        for j in range(dec.mus.size):  # zero modes included
            assert check_weighted_sum_identity(c, columns(dec, [j])).passed

    def test_one_bad_pair_fails_the_batch(self):
        rng = np.random.default_rng(5)
        x = random_nodes(12, rng)
        c = random_weights(12, rng)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        checks = [
            lambda d: check_eigenvector_amplitude_identity(x, c, d),
            lambda d: check_real_imag_coupling(x, c, d),
            lambda d: check_weighted_sum_identity(c, d),
        ]
        for check in checks:
            rep = check(dec)
            assert rep.passed and rep.details["pairs_checked"] == dec.mus.size
        V = dec.V.copy()
        V[0, 2] += 1e-6
        bad = replace(dec, V=V)
        for check in checks:
            assert not check(bad).passed
        zero_modes = SpectralDecomposition(np.zeros(2), np.eye(12)[:, :2], np.zeros((12, 2)))
        assert not check_eigenvector_amplitude_identity(x, c, zero_modes).applicable

    def test_empty_batch_is_rejected(self):
        x = np.arange(1.0, 4.0)
        c = np.ones(3)
        empty = columns(skew_spectrum(weighted_cauchy_matrix(x, c)), [])
        for check in (lambda d: check_real_imag_coupling(x, c, d),
                      lambda d: check_weighted_sum_identity(c, d)):
            with pytest.raises(ValueError, match="^at least one eigenpair is required$"):
                check(empty)
        # no nonzero mu: nothing to hold the amplitude identity to
        assert not check_eigenvector_amplitude_identity(x, c, empty).applicable


class TestEigenvalueDistinctness:
    def test_t4_two_distinct_pairs(self):
        x = np.arange(1.0, 5.0)
        rep = check_eigenvalue_distinctness(
            np.ones(4), skew_spectrum(weighted_cauchy_matrix(x, np.ones(4))))
        assert rep.applicable and rep.passed
        dec = skew_spectrum(hilbert_toeplitz(4))
        assert abs(dec.mus[0] - dec.mus[1]) > 1e-8 * dec.norm

    def test_zero_weight_hypothesis_not_met(self):
        c = np.array([1.0, 0.0, 1.0])
        dec = skew_spectrum(weighted_cauchy_matrix(np.array([0.0, 1.0, 2.0]), c))
        rep = check_eigenvalue_distinctness(c, dec)
        assert not rep.applicable

    @pytest.mark.parametrize("seed", range(8))
    def test_random_r12(self, seed):
        rng = np.random.default_rng(seed)
        x = random_nodes(12, rng)
        c = random_weights(12, rng)
        dec = skew_spectrum(weighted_cauchy_matrix(x, c))
        assert check_eigenvalue_distinctness(c, dec).passed


class TestRowNormBounds:
    def test_t3_explicit_numbers(self):
        A = hilbert_toeplitz(3)
        row_energy = (A**2).sum(axis=1).max()
        assert row_energy == 2.0  # middle row: 1 + 1
        n2 = spectral_norm(A) ** 2
        assert n2 == pytest.approx(2.25, abs=1e-12)
        assert row_energy <= n2 <= 3 * row_energy
        assert check_row_norm_bounds(np.arange(1.0, 4.0)).passed

    def test_hilbert_chain_recovers_pi_bound(self):
        # 3 * max row energy < 3 * 2 * zeta(2) = pi^2 for every R
        for R in (10, 50):
            rep = check_row_norm_bounds(np.arange(1.0, R + 1.0))
            assert rep.passed
            assert rep.details["norm_sq"] <= np.pi**2

    @pytest.mark.parametrize("seed", range(8))
    def test_random_r30(self, seed):
        rng = np.random.default_rng(seed)
        assert check_row_norm_bounds(random_nodes(30, rng)).passed


class TestMontgomeryVaughan:
    def test_integer_nodes(self):
        rep = check_montgomery_vaughan(np.arange(1.0, 31.0))
        assert rep.passed
        assert rep.details["delta"] == 1.0
        assert rep.details["norm_a"] < np.pi

    def test_two_close_nodes(self):
        eps = 1e-3
        rep = check_montgomery_vaughan(np.array([0.0, eps]))
        assert rep.passed
        # 2x2 closed form: ||A|| = 1/eps <= pi/eps
        assert rep.details["norm_a"] == pytest.approx(1.0 / eps, rel=1e-12)

    def test_farey_nodes(self):
        rep = check_montgomery_vaughan(farey_nodes(10))
        assert rep.passed
        assert "pi_bound_holds" in rep.details

    @pytest.mark.parametrize("seed", range(10))
    def test_random_nodes_r50(self, seed):
        rng = np.random.default_rng(seed)
        rep = check_montgomery_vaughan(random_nodes(50, rng))
        assert rep.passed


class TestCenteredSymmetry:
    def test_s0_trivial(self):
        assert check_centered_eigenvector_symmetry(0).passed

    def test_s1_explicit(self):
        rep = check_centered_eigenvector_symmetry(1)
        assert rep.passed
        # direct check on the top pair of the 3x3 matrix
        dec = skew_spectrum(hilbert_toeplitz(3))
        u = dec.U[:, 0]
        un = 1j * u / u[1]
        assert abs(un[0] + np.conj(un[2])) <= 1e-12

    @pytest.mark.parametrize("S", [2, 10, 50])
    def test_all_pairs(self, S):
        rep = check_centered_eigenvector_symmetry(S)
        assert rep.passed
        assert rep.max_residual <= 1e-9


class TestMonotonicityProbe:
    def test_s1_reports_comparison(self):
        rep, offsets, amp = probe_eigenvector_monotonicity(1)
        assert rep.probe and rep.passed
        np.testing.assert_array_equal(offsets, [-1, 0, 1])
        # T_3 top eigenvector: center amplitude strictly dominates
        assert amp[1] > amp[0]
        assert rep.details["conjecture_holds"] is False
        assert rep.details["monotone_decay_from_center"] is True

    def test_s10_flags_recorded(self):
        rep, offsets, amp = probe_eigenvector_monotonicity(10)
        assert {"conjecture_holds", "monotone_decay_from_center",
                "center_minimal", "center_maximal"} <= rep.details.keys()
        assert rep.details["center_maximal"] is True

    def test_profile_symmetric(self):
        _, _, amp = probe_eigenvector_monotonicity(25)
        np.testing.assert_allclose(amp, amp[::-1], atol=1e-11)


class TestSuite:
    def test_small_suite_all_pass_and_deterministic(self):
        reports = run_suite(seeds=5, max_R=12)
        assert not any(r.failed for r in reports)
        again = run_suite(seeds=5, max_R=12)
        assert reports == again  # bit-identical reports

    def test_report_invariant(self):
        for r in run_suite(seeds=3, max_R=10):
            assert isinstance(r, ResidualReport)
            assert r.passed == (r.max_residual <= r.tolerance * r.scale)
            assert r.scale > 0

    def test_seeded_max_R_is_refused_before_any_battery(self, monkeypatch):
        # seeds > 0 need max_R >= 4, and no max_R may pass MAX_DIM; each
        # refusal comes before the canonical batteries, which run as before
        # when there are no seeds
        batteries = []
        monkeypatch.setattr(identities, "_instance_battery",
                            lambda seed, x, c, rng: batteries.append(x.size) or [])
        for seeds, max_R, message in ((2, 3, "max_R must be >= 4"),
                                      (1, MAX_DIM + 1, f"max_R must be <= {MAX_DIM}")):
            with pytest.raises(ValueError) as exc:
                run_suite(seeds, max_R)
            assert str(exc.value) == message
        assert batteries == []
        run_suite(0, 3)
        assert batteries == [2, 3]

    def test_reports_hold_no_instance_dict(self):
        # a verify run holds all its reports at once, so each is slotted
        report = run_suite(seeds=1, max_R=5)[0]
        assert not hasattr(report, "__dict__")
        assert replace(report, scale=2.0).scale == 2.0

    def test_csv_schema(self):
        reports = run_suite(seeds=2, max_R=8)
        buf = io.StringIO()
        write_reports_csv(reports, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "name,seed,R,max_residual,scale,passed"
        assert len(lines) == len(reports) + 1


class TestBatterySharing:
    def test_each_matrix_and_norm_is_built_once(self, monkeypatch):
        x, c, rng = random_instance(4, 30, min_R=20)
        calls = Counter()

        def counting(fn, key):
            def wrapper(*args):
                calls[key(*args)] += 1
                return fn(*args)
            return wrapper

        def build_key(weights, xs):
            # every Cauchy build of the battery is one skew_quotient call
            if np.ndim(weights) == 0:
                return "A"
            same = np.array_equal(xs, x) and np.array_equal(weights, c)
            return "B" if same else "other"

        monkeypatch.setattr(identities, "skew_quotient",
                            counting(identities.skew_quotient, build_key))
        monkeypatch.setattr(identities, "weighted_cauchy_matrix",
                            counting(identities.weighted_cauchy_matrix, lambda xs, cs: "validated"))
        monkeypatch.setattr(identities, "cauchy_matrix",
                            counting(identities.cauchy_matrix, lambda xs: "validated"))
        monkeypatch.setattr(identities, "skew_norms",
                            counting(identities.skew_norms, lambda M: f"stack of {len(M)}"))
        monkeypatch.setattr(identities, "skew_spectrum",
                            counting(identities.skew_spectrum, lambda M: "spectrum"))
        reports = _instance_battery(4, x, c, rng)
        assert len(reports) == 11
        assert calls["A"] == 1
        assert calls["B"] == 1
        # two smaller dominance matrices, two even-power scalings, B(x, sqrt(delta))
        assert calls["other"] == 5
        # ||A||, ||B(x, sqrt(delta))|| and the two smaller dominance matrices
        # come from one stacked solve, and ||B|| from the one spectrum of B
        assert [(key, n) for key, n in calls.items() if key.startswith("stack")] == [
            ("stack of 4", 1)]
        assert calls["spectrum"] == 1
        # no build validates the record's nodes again
        assert calls["validated"] == 0

    @pytest.mark.parametrize("check, sizes", [
        (lambda x, c: check_norm_dominance(x, 0.5 * c, x, c), [2]),
        (lambda x, c: check_montgomery_vaughan(x), [2]),
        (lambda x, c: check_row_norm_bounds(x), [1]),
    ], ids=["norm_dominance", "montgomery_vaughan", "row_norm_bounds"])
    def test_public_checks_solve_their_norms_in_one_call(self, monkeypatch, check, sizes):
        stacks = []

        def counting(mats):
            stacks.append(len(mats))
            return skew_norms(mats)

        monkeypatch.setattr(identities, "skew_norms", counting)
        x, c, _ = random_instance(3, 12)
        check(x, c)
        assert stacks == sizes

    def test_battery_forms_each_complex_eigenvector_matrix_once(self, monkeypatch):
        # SpectralDecomposition.U, V + iW, is read by three eigenpair checks
        built = []
        form = SpectralDecomposition.U.func

        def counting(dec):
            built.append(1)
            return form(dec)

        U = cached_property(counting)
        U.__set_name__(SpectralDecomposition, "U")
        monkeypatch.setattr(SpectralDecomposition, "U", U)
        _instance_battery(4, *random_instance(4, 30, min_R=20))
        assert len(built) == 1

    def test_suite_validates_each_instances_nodes_once(self, monkeypatch):
        # one as_nodes per battery record, 9 canonical and 100 seeded: the
        # Montgomery-Vaughan gaps take the record's nodes as given
        as_nodes, calls = matrices.as_nodes, []

        def counting(x):
            calls.append(1)
            return as_nodes(x)

        monkeypatch.setattr(matrices, "as_nodes", counting)
        monkeypatch.setattr(identities, "as_nodes", counting)
        run_suite(100, 50)
        assert len(calls) == 109

    @pytest.mark.parametrize("seed", range(5))
    def test_public_checks_reproduce_the_battery(self, seed):
        x, c, rng = random_instance(seed, 30)
        battery = _instance_battery(seed, x, c, rng)
        # replay the battery's draws from the same generator state
        x, c, rng = random_instance(seed, 30)
        R = x.size
        n = int(rng.integers(1, R + 1))
        k1 = int(rng.integers(1, 4))
        k2 = int(rng.integers(2, 6))
        k_even = int(rng.integers(1, 4))
        seed_even = int(rng.integers(0, 2**31))
        shrink = rng.uniform(0.0, 1.0, R)
        stretch = 1.0 + rng.uniform(0.1, 2.0)

        def fresh():
            return x.copy(), c.copy()

        def spectrum():
            return skew_spectrum(weighted_cauchy_matrix(*fresh()))

        direct = [
            check_removed_index_cancellation(weighted_cauchy_matrix(*fresh()), n, k1),
            check_diagonal_power_recursion(weighted_cauchy_matrix(*fresh()), n, k2),
            check_even_power_positivity(*fresh(), k_even, trials=2, seed=seed_even),
            check_norm_dominance(x.copy(), c * shrink, *fresh()),
            check_norm_dominance(x * stretch, c.copy(), *fresh()),
            check_eigenvector_amplitude_identity(*fresh(), spectrum()),
            check_real_imag_coupling(*fresh(), spectrum()),
            check_weighted_sum_identity(c.copy(), spectrum()),
            check_eigenvalue_distinctness(c.copy(), spectrum()),
            check_row_norm_bounds(x.copy()),
            check_montgomery_vaughan(x.copy()),
        ]
        assert len(battery) == len(direct)
        for got, rep in zip(battery, direct):
            details = {"seed": seed, **rep.details, "R": R}
            if rep.name == "norm_dominance":
                # the battery reads ||B|| off B's spectrum, the public check
                # solves it with skew_norms: two backward-stable solves of one
                # matrix, at most 8 eps apart over 1000 seeded instances
                big = details["norm_big"]
                assert got.details["norm_big"] == pytest.approx(big, rel=1e-14, abs=0)
                details["norm_big"] = got.details["norm_big"]
            assert got == replace(rep, details=details)

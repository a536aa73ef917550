"""Numeric certification of the algebraic identities of the matrix family.

Every check is a pure function of its inputs returning a ResidualReport
(module ``reports``).  Exact algebraic cancellations (the removed-index sum,
the diagonal power recursion) are held to TOL_EXACT = 1e-12 of a
sum-of-absolute-terms scale, so heavy cancellation cannot produce false
passes.  Identities mediated by computed eigenpairs inherit the eigensolver
residual and are held to TOL_EIGEN = 1e-9; each takes a
spectra.SpectralDecomposition, is evaluated on all of its eigenpair columns
at once (zero modes last, at mu = 0), and reports the worst pair's residual
over that pair's scale (with scale 1).  Inequality checks carry INEQ_SLACK.
Conjectured bounds are recorded, never asserted.

Every check of the instance battery has a private body that runs on
validated data; its public ``check_*`` validates its arguments and calls
the same body.  The checks on a weighted-Cauchy instance (x, c) read what
they share from a private record, ``_Instance``: x and c, validated once
when it is made, A(x), B(x, c), B∘B, the node gaps delta and B's row-norm
upper bound, each built on first use, and B(x, sqrt(delta)), built anew on
each call.  Every Cauchy matrix on the record's nodes (A, B and the checks'
reweighted or stretched ones) is built through ``matrices.skew_quotient``
on weights derived from the validated c or from the node gaps, and the node
gaps are taken by ``matrices.node_gaps``; neither validates again.  The
record holds no norm: a check body takes every norm it reads as an
argument, solved by its caller with ``spectra.skew_norms``, the one
skew-norm solve.  A public check called with nodes (and weights) builds its
own matrices and solves their norms in one call; ``_instance_battery``
builds one record per instance, runs every body on that and no public
check, reads ||B|| off the spectrum of B that its eigenpair checks take,
forms |B| once for both dominance checks, and solves its four other skew
norms (||A||, ||B(x, sqrt(delta))|| and those of the two smaller dominance
matrices) in one ``skew_norms`` call, so each matrix is built once per
battery and dropped with it.  The eigenpair checks read U, |U|^2 and the
pair gaps that the decomposition forms once and holds.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .matrices import (
    MAX_DIM,
    as_dim,
    as_int,
    as_nodes,
    as_square,
    as_weights,
    cauchy_matrix,
    hilbert_toeplitz,
    node_gaps,
    remove_index,
    skew_quotient,
    weighted_cauchy_matrix,
)
from .spectra import (
    SpectralDecomposition,
    skew_norms,
    skew_spectrum,
    toeplitz_hilbert_top_pair,
)
from ._util import write_csv
from .reports import INEQ_SLACK, ResidualReport, residual_report

TOL_EXACT = 1e-12       # pure cancellation identities
TOL_EIGEN = 1e-9        # identities evaluated on computed eigenpairs
DISTINCT_REL = 1e-8     # eigenvalue separation threshold, relative to the norm
MIN_NODE_GAP = 1e-3     # enforced minimum separation of random nodes
MIN_SEEDED_R = 4        # smallest dimension of a seeded suite instance


def _floored_scales(nominal, mass, mus=None, norm_ub=None, gaps=None):
    """Per-pair scale floors for eigenpair-mediated identities.

    An identity evaluated as a double-precision sum with absolute term mass m
    cannot be verified below ~eps * m, so the pass threshold never dips under
    512 eps * m.  With ``mus`` given, pairs with mu > 0 also inherit the
    eigenvector error eps * norm / gap, where ``gaps`` holds, for each mu > 0
    in order, the distance to the nearest other signed eigenvalue (the
    decomposition's ``pair_gaps``, at most 2 mu), with sensitivity bounded by
    the term mass.  The floor only matters for eigenvalues orders of
    magnitude below the norm, where the nominal scale mu^2 ||u||_inf^2
    collapses.
    """
    cond = 512.0
    if mus is not None:
        # zero modes (mu = 0) keep the plain floor: an infinite gap gives 512
        sep = np.full(mus.shape, np.inf)
        sep[mus > 0] = gaps
        cond = np.maximum(512.0, 8.0 * norm_ub / np.maximum(sep, 1e-300))
    return np.maximum(nominal, mass * np.finfo(float).eps * cond / TOL_EIGEN)


class _Instance:
    """One weighted-Cauchy instance: the validated nodes ``x`` and weights
    ``c``, and the matrices its checks share, each built on first use and
    held until the record is dropped.  B(x, sqrt(delta)) is built for its
    norm alone and not held."""

    def __init__(self, x, c):
        self.x = as_nodes(x)
        self.c = as_weights(c, self.x.size)

    def weighted(self, c, stretch: float = 1.0) -> np.ndarray:
        """B(stretch * x, c) on the validated nodes, for weights c taken as
        given: every caller derives them from the validated ``c`` or from the
        node gaps, so they are finite and of length R.

        A stretch > 0 keeps the nodes increasing unless it rounds two of them
        together or overflows; the battery's stretch, below 3 on nodes at
        least MIN_NODE_GAP apart and below about 10 R, does neither.
        """
        return skew_quotient(c, self.x * stretch)

    @cached_property
    def A(self) -> np.ndarray:
        return skew_quotient(1.0, self.x)

    @cached_property
    def B(self) -> np.ndarray:
        return self.weighted(self.c)

    @cached_property
    def gaps(self) -> np.ndarray:
        """The per-node gaps delta_n of the Montgomery-Vaughan check."""
        return node_gaps(self.x)

    def B_delta(self) -> np.ndarray:
        """B(x, sqrt(delta)), the Montgomery-Vaughan matrix, built anew."""
        return self.weighted(np.sqrt(self.gaps))

    @cached_property
    def B_sq(self) -> np.ndarray:
        """B∘B, the entrywise square of B."""
        return self.B * self.B

    @cached_property
    def row_ub_b(self) -> float:
        """sqrt(3 * max row energy of B), a proven upper bound for ||B||."""
        return float(np.sqrt(3.0 * self.B_sq.sum(axis=1).max()))


CANONICAL_SIZES = (2, 3, 4, 5, 8, 13, 21, 34, 50)


def write_reports_csv(reports, target):
    header = ["name", "seed", "R", "max_residual", "scale", "passed"]
    rows = (
        (
            r.name,
            r.details.get("seed", -1),
            r.details.get("R", 0),
            r.max_residual,
            r.scale,
            r.passed and r.applicable,
        )
        for r in reports
    )
    write_csv(target, header, rows)


# ---------------------------------------------------------------------------
# Random instances.  numpy's default PCG64 generator seeded per instance, so
# suites are reproducible bit for bit from the seed alone.
# ---------------------------------------------------------------------------


def random_nodes(R: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted uniform nodes on [0, 10R] with minimum gap >= MIN_NODE_GAP."""
    R = as_dim(R)
    for _ in range(64):
        x = np.sort(rng.uniform(0.0, 10.0 * R, size=R))
        if R < 2 or float(np.diff(x).min()) >= MIN_NODE_GAP:
            return x
    # deterministic fallback: shift collisions apart, preserving order
    return x + MIN_NODE_GAP * np.arange(R)


def random_weights(R: int, rng: np.random.Generator) -> np.ndarray:
    """Weights with magnitude uniform in [0.1, 2] and random sign."""
    R = as_dim(R)
    mag = rng.uniform(0.1, 2.0, size=R)
    sign = rng.integers(0, 2, size=R) * 2 - 1
    return mag * sign


def random_instance(seed: int, max_R: int, min_R: int = MIN_SEEDED_R):
    """Seeded (nodes, weights, generator) triple with R drawn in [min_R, max_R]."""
    max_R = as_int(max_R, "max_R", as_int(min_R, "min_R", 1), MAX_DIM)
    rng = np.random.default_rng(as_int(seed, "seed", 0))
    R = int(rng.integers(min_R, max_R + 1))
    x = random_nodes(R, rng)
    c = random_weights(R, rng)
    return x, c, rng


# ---------------------------------------------------------------------------
# Exact cancellation identities on the matrix entries.
# ---------------------------------------------------------------------------


def _cross_terms(row, col, Bm, k: int) -> np.ndarray:
    """Terms row_l col_m (Bm^k)_{l,m}, zero for l = m."""
    terms = np.outer(row, col) * np.linalg.matrix_power(Bm, k)
    np.fill_diagonal(terms, 0.0)
    return terms


def check_removed_index_cancellation(B, n: int, k: int) -> ResidualReport:
    """Cross terms around a removed index cancel exactly:

    sum over l, m (both != n, l != m) of  b_{n,l} b_{m,n} (B_{-n}^k)_{l,m} = 0
    for every weighted-Cauchy matrix B.  Residual is measured against the sum
    of absolute terms.
    """
    return _removed_index_cancellation(as_square(B, real=True), n, as_int(k, "power k", 1))


def _removed_index_cancellation(B, n: int, k: int) -> ResidualReport:
    """The removed-index check on a real square B and a power k >= 1: the
    terms b_{n,l} b_{m,n} (B_{-n}^k)_{l,m} over l, m != n."""
    Bm = remove_index(B, n)
    row, col = np.delete(B[n - 1], n - 1), np.delete(B[:, n - 1], n - 1)
    S = math.fsum(_cross_terms(row, col, Bm, k).ravel().tolist())
    # scale from the same terms on |entries|: the full monomial mass of the
    # expanded sum, immune to cancellation inside the computed matrix power
    mass = float(_cross_terms(np.abs(row), np.abs(col), np.abs(Bm), k).sum())
    return residual_report("removed_index_cancellation", abs(S), mass,
                            TOL_EXACT, R=B.shape[0], n=n, k=k)


def _recursion_terms(B, Bm, b2, n: int, k: int):
    """(B^k)_{n,n} and, for r = 0..k-2, the pair of the summands
    b2_l (Bm^r)_{l,l} and their factor (B^{k-r-2})_{n,n}, for Bm = B_{-n}
    and b2_l = b_{n,l}^2 over l != n."""
    pows = [np.eye(B.shape[0])]
    for _ in range(k):
        pows.append(pows[-1] @ B)
    pows_m = [np.eye(Bm.shape[0])]
    for _ in range(k - 2):
        pows_m.append(pows_m[-1] @ Bm)
    return float(pows[k][n - 1, n - 1]), [
        (b2 * np.diagonal(pows_m[r]), float(pows[k - r - 2][n - 1, n - 1]))
        for r in range(k - 1)
    ]


def check_diagonal_power_recursion(B, n: int, k: int) -> ResidualReport:
    """Diagonal entries of powers obey a closed recursion:

    (B^k)_{n,n} = - sum_{r=0}^{k-2} sum_l b_{n,l}^2 (B_{-n}^r)_{l,l}
                  (B^{k-r-2})_{n,n}   for k >= 2.
    """
    return _diagonal_power_recursion(as_square(B, real=True), n, as_int(k, "power k", 2))


def _diagonal_power_recursion(B, n: int, k: int) -> ResidualReport:
    """The recursion check on a real square B and a power k >= 2."""
    Bm = remove_index(B, n)
    b2 = np.delete(B[n - 1], n - 1) ** 2
    lhs, terms = _recursion_terms(B, Bm, b2, n, k)
    rhs = -math.fsum(x for t, coeff in terms for x in (t * coeff).tolist())
    # the monomial mass (the same terms on |entries|, whose b2 is B's) keeps
    # the scale meaningful even when both sides cancel to zero, e.g. for odd k
    mass, terms_abs = _recursion_terms(np.abs(B), np.abs(Bm), b2, n, k)
    for t, coeff in terms_abs:
        mass += float(np.sum(t)) * coeff
    return residual_report("diagonal_power_recursion", abs(lhs - rhs), mass, TOL_EXACT,
                            R=B.shape[0], n=n, k=k)


def check_even_power_positivity(x, c, k: int, trials: int = 3, seed: int = 0) -> ResidualReport:
    """(-1)^k (B^{2k})_{n,n} is nonnegative and monotone in the weight sizes.

    Both facts follow from the diagonal entries of even powers being
    polynomials with positive coefficients in the squared entries; they are
    verified directly here, the second by random upward weight scalings.
    """
    return _even_power_positivity(_Instance(x, c), k, trials, seed)


def _even_power_positivity(inst: _Instance, k: int, trials: int, seed: int) -> ResidualReport:
    k, trials = as_int(k, "half power k", 1), as_int(trials, "trials", 0)
    seed = as_int(seed, "seed", 0)
    sign = (-1.0) ** k

    def signed_diag(B):
        return sign * np.diagonal(np.linalg.matrix_power(B, 2 * k))

    base = signed_diag(inst.B)
    scale = max(float(np.abs(base).max(initial=0.0)), 1.0)
    worst = max(0.0, float(-base.min(initial=0.0)))
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        factors = rng.uniform(1.0, 2.0, size=inst.x.size)
        scaled = signed_diag(inst.weighted(inst.c * factors))
        scale = max(scale, float(np.abs(scaled).max(initial=0.0)))
        worst = max(worst, float((base - scaled).max(initial=0.0)))
    return residual_report("even_power_positivity", worst, scale, TOL_EXACT,
                            R=inst.x.size, k=k, trials=trials, seed=seed)


def check_norm_dominance(x, c, x2, c2) -> ResidualReport:
    """Entrywise dominance of |entries| implies dominance of spectral norms.

    Hypothesis |b(x, c)| <= |b(x2, c2)| entrywise is verified first; when it
    fails the report is marked not applicable rather than failed.
    """
    B, B2 = weighted_cauchy_matrix(x, c), weighted_cauchy_matrix(x2, c2)
    if B.shape != B2.shape:
        raise ValueError("dominance pairs must have equal dimension")
    return _norm_dominance(B, np.abs(B2), *skew_norms([B, B2]).tolist())


def _norm_dominance(B, abs_B2, n1: float, n2: float) -> ResidualReport:
    """The dominance check of B against a B2 of the same size, with
    abs_B2 = |B2| entrywise, n1 = ||B|| and n2 = ||B2||."""
    margin = 1e-12 * max(1.0, float(abs_B2.max(initial=0.0)))
    if float((np.abs(B) - abs_B2).max(initial=0.0)) > margin:
        return residual_report("norm_dominance", 0.0, 1.0, INEQ_SLACK, applicable=False,
                                R=B.shape[0])
    return residual_report("norm_dominance", max(0.0, n1 - n2), 1.0, INEQ_SLACK,
                            R=B.shape[0], norm_small=n1, norm_big=n2)


# ---------------------------------------------------------------------------
# Identities mediated by eigenpairs.
# ---------------------------------------------------------------------------


def _worst_pair(name, residuals, scales, mus, **details) -> ResidualReport:
    """One report for a batch of pairs: the worst residual over its scale."""
    if not mus.size:
        raise ValueError("at least one eigenpair is required")
    ratios = residuals / np.where(scales > 0, scales, 1.0)
    j = int(np.argmax(ratios))
    return residual_report(name, ratios[j], 1.0, TOL_EIGEN, mu=float(mus[j]),
                            pairs_checked=ratios.size, **details)


def check_eigenvector_amplitude_identity(x, c, dec: SpectralDecomposition) -> ResidualReport:
    """Squared amplitudes of an eigenvector satisfy, for every n,

    mu^2 |u_n|^2 = sum_m a_{m,n}^2 (c_n^2 c_m^2 |u_m|^2
                                     + 2 c_n^3 c_m Re(u_n conj(u_m))).

    Evaluated on every column of ``dec`` at once.  Zero modes are dropped:
    the natural scale mu^2 ||u||_inf^2 degenerates; with none left the
    report is not applicable.  Each pair's distance to the nearest other
    eigenvalue of ``dec`` feeds the conditioning-aware scale floor; for a
    one-column ``dec`` that is 2 mu.
    """
    return _eigenvector_amplitude(_Instance(x, c), dec)


def _eigenvector_amplitude(inst: _Instance, dec: SpectralDecomposition) -> ResidualReport:
    keep = dec.mus != 0.0
    if not keep.any():
        return residual_report("eigenvector_amplitude", 0.0, 1.0, TOL_EIGEN,
                                applicable=False, R=inst.x.size)
    mus, U, P = dec.mus[keep], dec.U[:, keep], dec.U_abs2[:, keep]
    cc = inst.c[:, None]
    A2 = inst.A * inst.A
    energy = cc**2 * (A2 @ (cc**2 * P))
    rhs = energy + 2.0 * cc**3 * np.real(U * np.conj(A2 @ (cc * U)))
    lhs = mus**2 * P
    residuals = np.abs(lhs - rhs).max(axis=0)
    aU = np.abs(U)
    mass = (energy + 2.0 * np.abs(cc) ** 3 * (A2 @ (np.abs(cc) * aU)) * aU + lhs).max(axis=0)
    scales = _floored_scales(mus**2 * P.max(axis=0), mass, mus, inst.row_ub_b, dec.pair_gaps)
    return _worst_pair("eigenvector_amplitude", residuals, scales, mus, R=inst.x.size)


def check_real_imag_coupling(x, c, dec: SpectralDecomposition) -> ResidualReport:
    """Real and imaginary parts of an eigenvector are coupled entrywise:

    mu^2 v_n^2 = sum_m b_{n,m}^2 w_m^2
                 + 2 c_n^2 sum_{m != n} a_{n,m} w_m (mu v_m - b_{m,n} w_n),

    and for mu != 0 the two parts carry equal norm.  Evaluated on every
    column of ``dec`` at once, zero modes included; the scale floor as for
    the amplitude identity.  The norm-split defect is folded into each
    pair's residual so that ``passed`` covers both statements; the largest
    raw values are recorded in the details.
    """
    return _real_imag_coupling(_Instance(x, c), dec)


def _real_imag_coupling(inst: _Instance, dec: SpectralDecomposition) -> ResidualReport:
    c2 = inst.c[:, None] ** 2
    mus, V, W = dec.mus, dec.V, dec.W
    A, B = inst.A, inst.B
    energy = inst.B_sq @ (W**2)
    rhs = energy + 2.0 * c2 * (mus * (A @ (W * V)) - W * ((A * B.T) @ W))
    lhs = mus**2 * V**2
    residuals = np.abs(lhs - rhs).max(axis=0)
    aW = np.abs(W)
    mass = (energy
            + 2.0 * c2 * (mus * (np.abs(A) @ (aW * np.abs(V)))
                          + aW * ((np.abs(A) * np.abs(B.T)) @ aW))
            + np.abs(lhs)).max(axis=0)
    nonzero = mus > 0
    nominal = np.where(nonzero, mus**2 * dec.U_abs2.max(axis=0), 1.0)
    scales = _floored_scales(nominal, mass, mus, inst.row_ub_b, dec.pair_gaps)
    norm_split = np.where(
        nonzero, np.abs(np.linalg.norm(V, axis=0) - np.linalg.norm(W, axis=0)), 0.0)
    # rescale the norm-split defect onto the identity tolerance
    folded = np.maximum(residuals, norm_split * (TOL_EIGEN * scales) / 1e-10)
    return _worst_pair("real_imag_coupling", folded, scales, mus, R=inst.x.size,
                       identity_residual=float(residuals.max(initial=0.0)),
                       norm_split=float(norm_split.max(initial=0.0)))


def check_weighted_sum_identity(c, dec: SpectralDecomposition) -> ResidualReport:
    """The weighted component sum of an eigenvector collapses:

    |sum_r c_r u_r|^2 = sum_r |c_r u_r|^2,

    evaluated on every column of ``dec`` at once, zero modes included.
    """
    return _weighted_sum(as_weights(c, dec.V.shape[0]), dec)


def _weighted_sum(c, dec: SpectralDecomposition) -> ResidualReport:
    """The weighted-sum check with validated weights c."""
    U = dec.U
    lhs = np.abs(c @ U) ** 2
    rhs = c**2 @ dec.U_abs2
    mass = (np.abs(c) @ np.abs(U)) ** 2 + rhs
    return _worst_pair("weighted_sum_identity", np.abs(lhs - rhs),
                       _floored_scales(rhs, mass), dec.mus, R=c.size)


def check_eigenvalue_distinctness(c, dec: SpectralDecomposition) -> ResidualReport:
    """All R eigenvalues are distinct whenever every weight is nonzero:
    ``dec`` is the spectrum of a weighted-Cauchy matrix with weights ``c``."""
    return _eigenvalue_distinctness(as_weights(c, dec.V.shape[0]), dec)


def _eigenvalue_distinctness(c, dec: SpectralDecomposition) -> ResidualReport:
    """The distinctness check with validated weights c."""
    if np.any(c == 0.0):
        return residual_report("eigenvalue_distinctness", 0.0, 1.0, 0.0,
                                applicable=False, R=c.size)
    evs = dec.signed_eigenvalues()
    if evs.size < 2:
        return residual_report("eigenvalue_distinctness", 0.0, 1.0, 0.0, R=c.size,
                                min_gap=float("inf"))
    min_gap = float(np.diff(evs).min())
    threshold = DISTINCT_REL * dec.norm
    return residual_report("eigenvalue_distinctness", max(0.0, threshold - min_gap),
                            1.0, 0.0, R=c.size, min_gap=min_gap, threshold=threshold)


# ---------------------------------------------------------------------------
# Norm bounds.
# ---------------------------------------------------------------------------


def check_row_norm_bounds(x) -> ResidualReport:
    """The squared norm sits between the top row energy and three times it:

    max_m sum_n a_{m,n}^2  <=  ||A||^2  <=  3 max_m sum_n a_{m,n}^2.
    """
    A = cauchy_matrix(x)
    return _row_norm_bounds(A, float(skew_norms([A])[0]))


def _row_norm_bounds(A, norm_a: float) -> ResidualReport:
    row_energy = float((A * A).sum(axis=1).max())
    n2 = norm_a ** 2
    violation = max(0.0, row_energy - n2, n2 - 3.0 * row_energy)
    return residual_report("row_norm_bounds", violation, max(1.0, n2), INEQ_SLACK,
                            R=A.shape[0], row_energy=row_energy, norm_sq=n2)


def check_montgomery_vaughan(x) -> ResidualReport:
    """Montgomery-Vaughan bounds from the minimum node separations:

    ||A(x)|| <= pi / delta, and with weights sqrt(delta_n),
    ||B(x, sqrt(delta))|| <= 3 pi / 2.  Whether the conjectured bound pi
    holds as well is recorded in the details, never asserted.
    """
    inst = _Instance(x, np.ones(np.size(x)))
    return _montgomery_vaughan(inst, *skew_norms([inst.A, inst.B_delta()]).tolist())


def _montgomery_vaughan(inst: _Instance, norm_a: float, norm_delta: float) -> ResidualReport:
    """The Montgomery-Vaughan check on the instance's nodes, with
    norm_a = ||A|| and norm_delta = ||B(x, sqrt(delta))||."""
    x = inst.x
    delta = float(inst.gaps.min())
    bound_a = np.pi / delta
    violation = max(0.0, norm_a - bound_a, norm_delta - 1.5 * np.pi)
    return residual_report("montgomery_vaughan", violation, max(1.0, bound_a), INEQ_SLACK,
                            R=x.size, norm_a=norm_a, norm_b=norm_delta, delta=delta,
                            pi_bound_holds=bool(norm_delta <= np.pi))


# ---------------------------------------------------------------------------
# Centered eigenvector structure of the skew Hilbert matrix.
# ---------------------------------------------------------------------------


def check_centered_eigenvector_symmetry(S: int) -> ResidualReport:
    """Eigenvectors of the (2S+1)-dim skew Hilbert matrix, indexed -S..S and
    phased so the center component equals i, satisfy u_{-n} = -conj(u_n).

    Eigenvectors (pair vectors and kernel basis vectors alike) whose center
    component vanishes (below 1e-8 of the peak) cannot be phased this way
    and are recorded as skipped, not failed.
    """
    S = as_int(S, "S", 0)
    R = 2 * S + 1
    U = skew_spectrum(hilbert_toeplitz(R)).U
    center = U[S]
    phaseable = np.abs(center) > 1e-8 * np.abs(U).max(axis=0)
    N = 1j * U[:, phaseable] / center[phaseable]
    resid = np.abs(N[S::-1] + np.conj(N[S:])).max(axis=0) / np.abs(N).max(axis=0)
    checked = int(phaseable.sum())
    return residual_report("centered_symmetry", resid.max(initial=0.0), 1.0, TOL_EIGEN,
                            R=R, S=S, checked=checked, skipped=U.shape[1] - checked)


def probe_eigenvector_monotonicity(S: int):
    """Amplitude profile of the top eigenvector of the (2S+1)-dim skew
    Hilbert matrix, plus whether |u_n| increases strictly away from the
    center.  A conjecture probe: reported, never asserted.

    Returns ``(report, offsets, amplitudes)`` with offsets -S..S; S >= 1,
    since T_1 = 0 has no top eigenvector.
    """
    S = as_int(S, "S", 1)
    R = 2 * S + 1
    top = toeplitz_hilbert_top_pair(R)
    amp = np.abs(top.U[:, 0])
    offsets = np.arange(-S, S + 1)
    upper = amp[S:]
    holds = bool(np.all(np.diff(upper) > 0.0))
    # measured behaviour at every tested size is the opposite monotonicity:
    # the amplitude peaks at the center and decays outward
    decays = bool(np.all(np.diff(upper) < 0.0))
    center_minimal = bool(int(np.argmin(amp)) == S)
    center_maximal = bool(int(np.argmax(amp)) == S)
    report = residual_report("eigenvector_monotonicity_probe", 0.0, 1.0, 1.0, probe=True,
                              R=R, S=S, mu=top.norm, conjecture_holds=holds,
                              monotone_decay_from_center=decays,
                              center_minimal=center_minimal,
                              center_maximal=center_maximal)
    return report, offsets, amp


# ---------------------------------------------------------------------------
# Suite runner: seeded random instances plus canonical skew Hilbert matrices.
# ---------------------------------------------------------------------------


def _stamped(report: ResidualReport, details: dict) -> ResidualReport:
    """``report`` with its own details dict refilled from ``details``, key
    order included: the suite adds ``seed`` and ``R`` without copying the
    report, whose details dict no one else holds."""
    report.details.clear()
    report.details.update(details)
    return report


def _instance_battery(seed: int, x, c, rng: np.random.Generator):
    """Every instance check on (x, c), their random parameters drawn from
    ``rng`` up front, each run as its private body.  One record serves them
    all, so x and c are validated once and A(x), B(x, c), B∘B and B's
    row-norm upper bound are each built once, |B| is formed once for both
    dominance checks, ||B|| is the top mu of B's spectrum, and the four
    other norms (||A||, ||B(x, sqrt(delta))|| and the two smaller dominance
    matrices) come from one ``skew_norms`` call; the record goes when the
    battery returns."""
    inst = _Instance(x, c)
    x, c, B = inst.x, inst.c, inst.B
    R = x.size
    n = int(rng.integers(1, R + 1))
    k1 = int(rng.integers(1, 4))
    k2 = int(rng.integers(2, 6))
    k_even = int(rng.integers(1, 4))
    seed_even = int(rng.integers(0, 2**31))
    shrink = rng.uniform(0.0, 1.0, R)
    stretch = 1.0 + rng.uniform(0.1, 2.0)
    out = [
        _removed_index_cancellation(B, n, k1),
        _diagonal_power_recursion(B, n, k2),
        _even_power_positivity(inst, k_even, trials=2, seed=seed_even),
    ]
    dec = skew_spectrum(B)
    smaller = (inst.weighted(c * shrink), inst.weighted(c, stretch=stretch))
    norm_a, norm_delta, *norms_small = skew_norms(
        [inst.A, inst.B_delta(), *smaller]).tolist()
    abs_B = np.abs(B)
    out += (_norm_dominance(M, abs_B, norm, dec.norm) for M, norm in zip(smaller, norms_small))
    del smaller, abs_B  # not held through the eigenpair checks
    out.append(_eigenvector_amplitude(inst, dec))
    out.append(_real_imag_coupling(inst, dec))
    out.append(_weighted_sum(c, dec))
    out.append(_eigenvalue_distinctness(c, dec))
    out.append(_row_norm_bounds(inst.A, norm_a))
    out.append(_montgomery_vaughan(inst, norm_a, norm_delta))
    # a report's own seed wins; R is always the instance's
    return [_stamped(r, {"seed": seed, **r.details, "R": R}) for r in out]


def run_suite(seeds: int = 100, max_R: int = 50):
    """Run the full identity suite; returns the list of ResidualReports.

    ``seeds`` seeded random weighted-Cauchy instances with dimension drawn in
    [4, max_R], plus the canonical skew Hilbert matrices and the centered
    eigenvector checks.  Deterministic: the same arguments reproduce
    bit-identical reports.
    """
    # seeded instances need max_R >= MIN_SEEDED_R, and no max_R may pass
    # MAX_DIM: both are refused before any battery runs
    seeds = as_int(seeds, "seeds", 0)
    max_R = as_int(max_R, "max_R", MIN_SEEDED_R if seeds else None, MAX_DIM)
    reports: list[ResidualReport] = []
    for R in CANONICAL_SIZES:
        if R > max_R:
            continue
        x = np.arange(1.0, R + 1.0)
        c = np.ones(R)
        rng = np.random.default_rng(10_000 + R)
        reports.extend(_instance_battery(-1, x, c, rng))
    for S in (1, 5, 10):
        if 2 * S + 1 > max(max_R, 3):
            continue
        sym = check_centered_eigenvector_symmetry(S)
        probe, _, _ = probe_eigenvector_monotonicity(S)
        for rep in (sym, probe):
            reports.append(_stamped(rep, {"seed": -1, "R": 2 * S + 1, **rep.details}))
    for seed in range(seeds):
        x, c, rng = random_instance(seed, max_R)
        reports.extend(_instance_battery(seed, x, c, rng))
    return reports

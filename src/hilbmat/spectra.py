"""Eigendecompositions for the skew and symmetric matrices of the family.

A real skew matrix B has purely imaginary eigenvalues in pairs +/- i*mu with
mu >= 0, plus a zero eigenvalue of multiplicity R mod 2 in the generic
weighted-Cauchy case.  The decomposition diagonalizes the Hermitian matrix
i*B, whose real eigenvalues are the signed mu's, and stores each pair once
as a column of V and W: u = v + i*w is a unit eigenvector for +i*mu (so
B w = mu v, B v = -mu w).  Zero modes follow the pairs as columns with
mu = 0 and w = 0.  One threshold, ZERO_MU_REL times the norm, classifies
the eigenvalues: above it a pair's +mu, within it of zero a zero mode.

Every check that a matrix is skew or symmetric/Hermitian uses the fixed
relative tolerance 1e-12 * R (R the dimension, at least 1) times
max(1, max |entry|); it cannot be set.  A matrix whose max |entry| is not
finite (a NaN or an infinite entry) is refused there, with no pass of its own.

Norm-only queries stay in real arithmetic via -B^2.  ``skew_norms`` is the
one skew-norm solve: the norms of k skew matrices of one size R from one
batched ``eigvalsh`` on a (k, R, R) stack of their -M^2, each slice solved
as if alone; the skew branch of ``spectral_norm`` calls it on one matrix.
||T_R||, ||H_R|| and the top pair of T_R take one solve route,
``_top_eigen``, which holds the only dense/iterative decision, on the
dimension n of the positive semidefinite matrix it solves and the cutoff
and basis size its caller passes: up to the cutoff ``np.linalg.eigvalsh``
for a norm and ``np.linalg.eigh`` for a top pair, above it ``_top_ritz``,
thick-restart Rayleigh-Ritz in numpy.  Every solve holds one
``matrices.ToeplitzOperator``, built for it, which takes its circulant
spectra once, on the first product.
T_R is skew-centrosymmetric, so -T_R^2 is solved on its J-even block C^T C
for C = ``ToeplitzOperator.hilbert_parity(R)`` (n = ceil(R/2), dense up to
n = DENSE_CUTOFF, so R = 340), whose ``dense()`` is the dense side and whose
products C x and C^T z the matrix-free side, each one transform pair at the
length ``_fast_len(R - 1)`` (10000 at R = 10000), preconditioned by
``_parity_preconditioner(R)`` (generalized Davidson).  The top pair is built
from the J-even top eigenvector of -T_R^2 at every size, its T q taken as
P_o (C q_n) on the side that solved.  H_R is solved as it is (n = R, dense
up to _HANKEL_DENSE_CUTOFF, with an _HANKEL_NCV basis and no preconditioner
above: Lanczos) on the full-length matvec of ``ToeplitzOperator.hankel``.
No solve loads scipy, and an iterative solve that does not converge raises
``np.linalg.LinAlgError``.

Every LAPACK solve runs on one OpenBLAS thread: ``_one_blas_thread`` is a
decorator on each function that makes one, ``skew_norms``, ``spectral_norm``,
``skew_spectrum`` (its ``eigh`` and the ``svd`` of a kernel),
``trace_power_norm_estimate`` (its ``matrix_power``) and ``_top_eigen``
(dense build, Gram product, ``eigvalsh``/``eigh`` and ``_top_ritz``).  On 2
cores a second thread made these solves slower, not faster (an ``eigvalsh``
of gs-rate's R = 200 cosine Toeplitz matrix took a 40 ms median on two
threads, 2.2 ms on one), and its rounding moved the last bits of dense
norms; on one thread the ``sweep-gap``, ``hankel-gap`` and ``gs-rate`` bytes
do not depend on ``OPENBLAS_NUM_THREADS``.  The guard puts the caller's
thread count back on exit, exception or not; nested, or where numpy's
OpenBLAS is not found, it does nothing.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matrices import ToeplitzOperator, as_int, as_square

# Relative threshold below which a computed mu is classified as zero.  The
# determinant structure forces an exact zero eigenvalue for odd R, so the
# threshold only needs to absorb roundoff.
ZERO_MU_REL = 1e-10

# The matrix-free solve takes over in ``_top_eigen`` above this dimension of
# T_R's parity block, ceil(R/2), so R = 341 is the first iterative solve.  On
# 2 cores, at one OpenBLAS thread, a dense norm solve (block, C^T C and
# eigvalsh) took 0.85, 0.97 and 1.34 ms at n = 150, 170 and 200, against
# 0.94, 0.98 and 0.98 ms for the matrix-free solve, operators built included.
# A dense top pair (eigh) crossed near n = 130, but norms far outnumber pairs.
DENSE_CUTOFF = 170

# The stopping test of a norm solve, ||S y - theta y|| <= tol |theta|, and
# the bound on restarts.
_LANCZOS_OPTS = dict(tol=1e-11, maxiter=20000)

# A top-pair solve stops at 1e-13 theta: at 1e-11 the amplitudes |u_n| of the
# T_R top pair were off by 1.2e-12 at R = 601 and 2.8e-12 at R = 1001, at
# 1e-13 by 5.2e-15 and 1.3e-14, for two more products.
_PAIR_TOL = 1e-13

# Basis size of the T_R solve.  Its preconditioner approximates
# (sigma I - C^T C)^-1 at sigma = pi^2, the limit of ||T_R||^2, by
# (pi^2 I + SC^2)^-1 for the skew-circulant SC of T_R's symbol i(pi - x),
# which samples it off its jump at x = 0 (Chan and Ng, SIAM Rev. 38 (1996)
# 427-482).  Every norm solve from R = 341 to 10001 took 14 or 15 products
# and every top pair 15 to 17, so none restarts.  With sigma = 1.01 pi^2 a
# norm took 17, 23 and 46 products at R = 601, 2000 and 10000, with no
# preconditioner 87, 165 and 427, and the earlier unpreconditioned
# 32-vector Lanczos 96, 160 and 352.
_DAVIDSON_NCV = 20

# H_R's top eigenvalue is well isolated (lambda_2/lambda_1 = 0.44 at
# R = 256), so its solve takes its own cutoff and basis: with ncv = 8 every
# solve from R = 89 to 2000 took 8 products, and R = 5000..20000 took 12.
# On 2 cores, at one OpenBLAS thread, the dense build and eigvalsh took 0.20,
# 0.26, 0.27 and 0.30 ms at n = 76, 86, 88 and 94, the Lanczos solve with its
# operator built 0.24 to 0.27 ms (minima of 15 runs): they cross at n = 88.
_HANKEL_DENSE_CUTOFF = 88
_HANKEL_NCV = 8

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _find_openblas_threads():
    """``(get_num_threads, set_num_threads)`` of the OpenBLAS that numpy
    calls, or None where it is not found: numpy's bundled scipy-openblas
    exports them from numpy's own extension, a system OpenBLAS under the
    plain names."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
        try:
            get, put = (getattr(lib, name.format(verb)) for verb in ("get", "set"))
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_OPENBLAS_THREADS = _find_openblas_threads()


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread and put the caller's count back
    after it.  Nested, or with the functions not found, it does nothing."""
    count = _OPENBLAS_THREADS[0]() if _OPENBLAS_THREADS else 1
    if count <= 1:
        yield
        return
    set_num_threads = _OPENBLAS_THREADS[1]
    set_num_threads(1)
    try:
        yield
    finally:
        set_num_threads(count)


def _max_abs(A) -> float:
    """max |A|, 0 for an empty A; a real A takes no |A| temporary."""
    if np.iscomplexobj(A):
        return float(np.abs(A).max(initial=0.0))
    return float(max(A.max(initial=0.0), -A.min(initial=0.0)))


def finite_max_abs(M) -> float:
    """max |M|, 0 for an empty M; a NaN or infinite entry is a ValueError."""
    peak = _max_abs(M)
    if not math.isfinite(peak):
        raise ValueError("matrix entries must be finite")
    return peak


def _within_tol(M, skew: bool) -> bool:
    """Whether M is skew (D = M^T + M) or symmetric/Hermitian (D = M - M^H):
    max |D| <= 1e-12 * max(R, 1) * max(1, max |M|) for the size R of M.  A
    NaN or infinite entry is refused before D is formed."""
    tol = 1e-12 * max(M.shape[0], 1) * max(1.0, finite_max_abs(M))
    return _max_abs(M.T + M if skew else M - M.conj().T) <= tol


def require_skew(B) -> np.ndarray:
    """B as a real skew matrix, else a ValueError."""
    B = as_square(B, real=True)
    if not _within_tol(B, skew=True):
        raise ValueError("matrix is not skew-symmetric")
    return B


@_one_blas_thread()
def skew_norms(matrices) -> np.ndarray:
    """Spectral norms of k real skew R x R matrices, the slices of a
    (k, R, R) stack or the items of a sequence, one norm each: the one
    skew-norm solve.

    Each matrix passes ``require_skew``.  Slice i of one (k, R, R) stack
    receives -0.5 (N^T + N) for N = M_i M_i, the positive semidefinite -M_i^2
    symmetrized, and ||M_i|| is the square root of its top eigenvalue, from
    one batched ``eigvalsh``.  LAPACK solves each slice as it would solve it
    alone, so a norm does not depend on the stack it is in.
    """
    if getattr(matrices, "ndim", 3) != 3:  # an array's items are its slices
        raise ValueError("matrix stack must have shape (k, R, R)")
    mats = [require_skew(M) for M in matrices]
    R = mats[0].shape[0] if mats else 0
    if any(M.shape[0] != R for M in mats):
        raise ValueError("matrix stack must have shape (k, R, R)")
    if R == 0:
        return np.zeros(len(mats))
    stack = np.empty((len(mats), R, R))
    for M, out in zip(mats, stack):
        N = M @ M
        np.add(N.T, N, out=out)
    top = np.linalg.eigvalsh(np.multiply(stack, -0.5, out=stack))[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a real skew matrix B, one per column.

    ``mus`` is descending; column j of U = V + i*W is a unit eigenvector for
    +i*mus[j], so B W = V diag(mus) and B V = -W diag(mus).  A column with
    mu > 0 stands for the pair +/- i*mu, its real and imaginary parts of
    equal norm 1/sqrt(2).  Zero modes come last, with mu == 0.0 exactly, the
    real kernel basis in V and W = 0.  V and W are C-contiguous.  ``mus``,
    V and W are made read-only when the decomposition is built, so nothing
    formed from them goes stale.

    What the identity checks read of it is formed on first access, held by
    the decomposition and read-only: U, |U|^2 (``U_abs2``), the sorted
    signed eigenvalues (``signed_eigenvalues()``) and each pair's gap to its
    nearest other signed eigenvalue (``pair_gaps``).
    """

    mus: np.ndarray
    V: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        for a in (self.mus, self.V, self.W):
            _read_only(a)

    @cached_property
    def U(self) -> np.ndarray:
        """V + i W."""
        return _read_only(self.V + 1j * self.W)

    @cached_property
    def U_abs2(self) -> np.ndarray:
        """|U|^2, entrywise."""
        return _read_only(np.abs(self.U) ** 2)

    @property
    def norm(self) -> float:
        return float(self.mus[0]) if self.mus.size else 0.0

    @property
    def zero_multiplicity(self) -> int:
        return int(np.count_nonzero(self.mus == 0.0))

    @cached_property
    def _signed(self) -> np.ndarray:
        return _read_only(np.sort(np.concatenate([self.mus, -self.mus[self.mus > 0]])))

    def signed_eigenvalues(self) -> np.ndarray:
        """Imaginary parts of the eigenvalues: +mu and -mu for each mu > 0,
        0 for each zero mode, sorted."""
        return self._signed

    @cached_property
    def pair_gaps(self) -> np.ndarray:
        """For each mu > 0, in the order of ``mus``, the distance from mu to
        the nearest other signed eigenvalue: at most 2 mu, the distance to
        its partner -mu, and 0 for a repeated mu.  The positive mus are the
        top of the sorted signed eigenvalues, and rounding is monotone, so
        the nearest is one of a mu's two neighbours there."""
        evs = self._signed
        m = int(np.count_nonzero(self.mus > 0))
        steps = np.diff(evs[evs.size - m - 1:])  # below each positive mu
        gaps = steps.copy()
        np.minimum(gaps[:-1], steps[1:], out=gaps[:-1])  # and above it
        return _read_only(gaps[::-1])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _peak_positive(M) -> np.ndarray:
    """Scale each column of M by a unit factor that makes its
    largest-magnitude entry real and positive."""
    p = M[np.abs(M).argmax(axis=0), np.arange(M.shape[1])]
    # |p| is taken by hypot, as numpy's scalar abs takes it; its complex-array
    # abs can differ in the last bit
    return M * (np.conj(p) / np.hypot(p.real, p.imag))


@_one_blas_thread()
def skew_spectrum(B) -> SpectralDecomposition:
    """Decompose a real skew matrix into +/- i*mu eigenpairs and zero modes.

    Works on the Hermitian matrix i*B, whose eigenvalues are the signed mu's:
    that keeps eigenvalue gaps linear (the alternative of diagonalizing -B^2
    compresses small gaps quadratically and measurably degrades the
    eigenvectors of small eigenvalues).  One threshold, ZERO_MU_REL times
    the norm, splits the eigenvalues: above it the +mu of a pair, within it
    of zero a zero mode.  For mu > 0 the conjugate of the i*B eigenvector is
    the +i*mu eigenvector of B.  Every pair vector and kernel basis vector
    is phased so its largest-magnitude component is real positive.
    """
    B = require_skew(B)
    R = B.shape[0]
    if R == 0:
        return SpectralDecomposition(np.zeros(0), np.zeros((0, 0)), np.zeros((0, 0)))
    lam, U = np.linalg.eigh(1j * B)  # ascending real eigenvalues -mu..+mu
    thr = ZERO_MU_REL * float(max(abs(lam[0]), abs(lam[-1])))
    top, zero = lam > thr, np.abs(lam) <= thr
    if 2 * top.sum() + zero.sum() != R:
        raise np.linalg.LinAlgError(
            "eigenvalue pairing failed to account for the full spectrum"
        )
    P = _peak_positive(np.conj(U[:, top][:, ::-1]))  # mu descending
    # real orthonormal kernel basis from the real/imag parts of the complex
    # kernel vectors (the kernel of a real matrix is real), interleaved
    # Re z0, Im z0, Re z1, ...: a kernel of dimension >= 2 gets its basis
    # from the SVD, which depends on the column order; with no zero mode
    # (a generic even R) there is no SVD
    Z = U[:, zero]
    K = np.zeros((R, 0))
    if Z.shape[1]:
        left = np.linalg.svd(np.stack([Z.real, Z.imag], axis=2).reshape(R, -1),
                             full_matrices=False)[0]
        K = _peak_positive(left[:, :Z.shape[1]])
    # C order: the identity checks' matrix products round by memory layout
    return SpectralDecomposition(
        mus=np.concatenate([lam[top][::-1], np.zeros(K.shape[1])]),
        V=np.ascontiguousarray(np.hstack([P.real, K])),
        W=np.ascontiguousarray(np.hstack([P.imag, np.zeros_like(K)])))


@_one_blas_thread()
def spectral_norm(M) -> float:
    """Largest eigenvalue magnitude of a symmetric/Hermitian or skew matrix.

    A matrix that is not symmetric/Hermitian is tested for skewness once, by
    the ``require_skew`` of ``skew_norms``."""
    M = as_square(M)
    if M.shape[0] == 0:
        return 0.0
    if _within_tol(M, skew=False):
        return float(np.abs(np.linalg.eigvalsh(M)).max())
    if not np.iscomplexobj(M):
        try:
            return float(skew_norms([M])[0])
        except ValueError:  # M is square, real and finite: only its skew test refuses
            pass
    raise ValueError("spectral_norm expects a symmetric/Hermitian or skew matrix")


@_one_blas_thread()
def trace_power_norm_estimate(B, k: int) -> float:
    """Norm estimate ((-1)^k Tr(B^{2k}))^(1/2k) for a real skew matrix.

    Decreases monotonically in k towards the spectral norm and always lies in
    [norm, norm * R^(1/2k)].  Raises OverflowError when the powers leave
    double range; normalize the input first in that case.
    """
    k = as_int(k, "power index k", 1)
    B = require_skew(B)
    with np.errstate(over="ignore", invalid="ignore"):
        S = -(B @ B)
        P = np.linalg.matrix_power(S, k)
        tp = float(np.trace(P))
    if not np.isfinite(tp):
        raise OverflowError("trace power overflowed; rescale the matrix first")
    tp = max(tp, 0.0)
    return tp ** (1.0 / (2.0 * k))


# ---------------------------------------------------------------------------
# Norms and the top pair of the classical Toeplitz/Hankel Hilbert matrices.
# ---------------------------------------------------------------------------


def _top_ritz(apply, v0, ncv: int, tol: float, precondition=None):
    """Top eigenpair ``(theta, y)`` of the symmetric operator ``apply`` on
    n-vectors by thick-restart Rayleigh-Ritz from ``v0``: a basis V of at
    most ``ncv`` vectors, each orthogonalized by two passes of classical
    Gram-Schmidt, their products W = S V and H = V^T W.  With
    ``precondition`` it is generalized Davidson (Morgan and Scott, SIAM J.
    Sci. Stat. Comput. 7 (1986) 817-825): each step takes the top Ritz pair
    and grows V by ``precondition`` of its residual.  Without, it is Lanczos
    (Wu and Simon, SIAM J. Matrix Anal. Appl. 22 (2000) 602-616): V grows by
    the last product, whose first Gram-Schmidt pass gives its column of H,
    and the Ritz pair is taken when V is full; the last column of a full V
    and each Davidson column take their own product.  The pair is
    accepted when ||W y - theta V y|| <= tol |theta|.  A full basis restarts
    on its top ncv // 2 Ritz vectors (Lanczos then grows from the top
    residual); after ``_LANCZOS_OPTS["maxiter"]`` restarts the solve raises
    ``np.linalg.LinAlgError``.  A new vector that the second pass cuts to a
    quarter of its first-pass norm lies in V: then V is invariant (Lanczos)
    or, for a positive definite preconditioner, the residual is 0, and the
    top Ritz pair is returned as it is."""
    n, maxiter = v0.size, _LANCZOS_OPTS["maxiter"]
    V, W, H = np.empty((ncv, n)), np.empty((ncv, n)), np.empty((ncv, ncv))
    t, j, restarts, grown = v0, 0, 0, False
    while True:
        basis = V[:j]
        c = basis @ t
        if grown:  # c = V[:j] @ W[j-1]
            H[j - 1, :j] = H[:j, j - 1] = c
        t = t - c @ basis  # classical Gram-Schmidt, twice
        first = t @ t
        t -= (basis @ t) @ basis
        second = t @ t
        if second <= 0.25 * first:  # t was in the basis
            theta, S = np.linalg.eigh(H[:j, :j])
            return theta[-1], S[:, -1] @ basis
        np.divide(t, np.sqrt(second), out=V[j])
        W[j] = apply(V[j])
        j += 1
        grown = precondition is None and j < ncv
        if grown:
            t = W[j - 1]
            continue
        H[j - 1, :j] = H[:j, j - 1] = V[:j] @ W[j - 1]
        theta, S = np.linalg.eigh(H[:j, :j])  # ascending
        y = S[:, -1]
        t = y @ W[:j] - theta[-1] * (y @ V[:j])  # the residual
        if np.linalg.norm(t) <= tol * abs(theta[-1]):
            return theta[-1], y @ V[:j]
        if j == ncv:
            if restarts == maxiter:
                method = "Lanczos" if precondition is None else "Davidson"
                raise np.linalg.LinAlgError(
                    f"{method} did not converge after {maxiter} restarts")
            restarts, j = restarts + 1, ncv // 2
            keep = S[:, -j:].T
            V[:j], W[:j] = keep @ V, keep @ W
            H[:j, :j] = np.diag(theta[-j:])
        if precondition is not None:
            t = precondition(t)


@_one_blas_thread()
def _top_eigen(dense, apply, v0, cutoff: int, ncv: int, image=None, preconditioner=None):
    """Top eigenvalue of an n x n positive semidefinite S, n = ``v0.size``,
    which ``dense()`` builds and ``apply`` applies to an n-vector.  The one
    solver choice: dense while n <= cutoff (``eigvalsh`` for the value,
    ``eigh`` for a vector), ``_top_ritz`` from ``v0`` with a min(n, ncv)-vector
    basis above, preconditioned by ``preconditioner()`` when that is given, and
    stopped at tol = ``_LANCZOS_OPTS["tol"]`` for a value and ``_PAIR_TOL``
    for a vector.  With ``image``, a pair of maps (dense side, matrix-free
    side), returns ``(eigenvalue, q, image(q))`` for a unit top eigenvector
    q; the map of the side that solved is taken, and the preconditioner is
    built on the matrix-free side alone, so all-dense runs never build a
    circulant spectrum."""
    if v0.size <= cutoff:
        if image is None:
            return float(np.linalg.eigvalsh(dense())[-1])
        values, vectors = np.linalg.eigh(dense())  # ascending
        lam, q, lift = values[-1], vectors[:, -1], image[0]
    else:
        tol = _LANCZOS_OPTS["tol"] if image is None else _PAIR_TOL
        lam, q = _top_ritz(apply, v0, min(v0.size, ncv), tol,
                           None if preconditioner is None else preconditioner())
        if image is None:
            return float(lam)
        lift = image[1]
    q = q / float(np.linalg.norm(q))
    return float(lam), q, lift(q)


def _parity_preconditioner(R: int) -> ToeplitzOperator:
    """P_e^T M P_e (n x n, n = ceil(R/2), P_e the J-even basis of
    ``ToeplitzOperator.lift``) for the R x R symmetric Toeplitz
    (-1)-circulant M with eigenvalues g_k = 1/(x_k (2 pi - x_k)) at
    x_k = (2k + 1) pi / R.  M's first column p_r = (1/R) sum_k g_k cos(r x_k)
    is Re(e^{-i pi r/R} rfft(g)[r]) / R for r <= R/2 and p_{R-r} = -p_r; the
    block is p(i - j) + p(i + j - (R-1)), Toeplitz plus Hankel, with the
    middle row and column of an odd R scaled by 1/sqrt2."""
    x = (2.0 * np.arange(R) + 1.0) * (np.pi / R)
    half = R // 2 + 1
    p = np.empty(R)
    p[:half] = (np.exp(-1j * np.pi / R * np.arange(half))
                * np.fft.rfft(1.0 / (x * (2.0 * np.pi - x)))).real / R
    p[half:] = -p[R - half:0:-1]
    n = (R + 1) // 2
    weights = np.append(np.ones(n - 1), 2.0) if R % 2 else None
    return ToeplitzOperator(p[np.abs(np.arange(1 - n, n))],
                            p[np.abs(np.arange(1 - R, 2 * n - R))], (n, n), weights, weights)


def _toeplitz_top(C: ToeplitzOperator, vector=False):
    """Top eigenvalue of -T_R^2 on its J-even block, S = C^T C for the
    parity block C = ``ToeplitzOperator.hilbert_parity(R)`` (n = ceil(R/2));
    with ``vector``, the ``(eigenvalue, q_n, C q_n)`` of ``_top_eigen``.
    The matrix-free apply is C^T (C x), two products that each take one
    transform pair of length ``_fast_len(R - 1)``, preconditioned by
    ``_parity_preconditioner(R)``.  It starts from the even part of the
    all-ones vector.  The dense side drops the block once S is formed, and
    a top pair builds it again for C q_n, so no dense solve holds C, S and
    the eigenvectors at once."""
    R, n = sum(C.shape), C.shape[1]
    v0 = np.full(n, 1.0 / np.sqrt(R))
    v0[:R // 2] *= 2.0 * _INV_SQRT2  # P_e^T of the unit all-ones vector

    def gram():
        B = C.dense()
        return B.T @ B

    return _top_eigen(gram, lambda x: C.rmatvec(C.matvec(x)), v0, DENSE_CUTOFF,
                      _DAVIDSON_NCV, (lambda q: C.dense() @ q, C.matvec) if vector else None,
                      lambda: _parity_preconditioner(R).matvec)


def toeplitz_hilbert_norm(R: int) -> float:
    """Spectral norm of the R x R skew Hilbert matrix: sqrt of the top
    eigenvalue of C^T C for its ceil(R/2)-column parity block C (see
    ``ToeplitzOperator.hilbert_parity``).  Dense up to R = 2 DENSE_CUTOFF,
    above that a preconditioned Davidson solve with O(R log R) FFT products
    on the half-size block.
    """
    return float(np.sqrt(max(_toeplitz_top(ToeplitzOperator.hilbert_parity(R)), 0.0)))


def toeplitz_hilbert_top_pair(R: int) -> SpectralDecomposition:
    """Top eigenpair of the R x R skew Hilbert matrix as a one-column
    decomposition: v = q / sqrt(2) and w = -T q / (mu sqrt(2)) for the unit
    J-even top eigenvector q = P_e q_n of -T^2, q_n the top eigenvector of
    C^T C on the parity block (dense up to R = 2 DENSE_CUTOFF, Davidson
    above), and T q = P_o (C q_n).  Any unit q in the top eigenspace gives
    the same u = v + i w up to phase."""
    C = ToeplitzOperator.hilbert_parity(R)
    lam, q, Cq = _toeplitz_top(C, vector=True)
    mu = float(np.sqrt(max(lam, 0.0)))
    if mu == 0.0:
        raise ValueError("matrix has no nonzero eigenvalues")
    w = -C.lift(Cq, -1.0) / mu
    w /= float(np.linalg.norm(w))
    return SpectralDecomposition(np.array([mu]), (C.lift(q, 1.0) * _INV_SQRT2)[:, None],
                                 (w * _INV_SQRT2)[:, None])


def hankel_hilbert_norm(R: int) -> float:
    """Spectral norm of the R x R symmetric Hilbert matrix 1/(m+n-1).

    The matrix is positive definite, so the norm is its top eigenvalue, on
    the same route as ``toeplitz_hilbert_norm`` with n = R: dense up to
    R = _HANKEL_DENSE_CUTOFF, above it Lanczos with an _HANKEL_NCV basis.
    Both sides read T = ToeplitzOperator.hankel(R): H = T with its columns
    reversed, and H x = T (reverse x).
    """
    T = ToeplitzOperator.hankel(R)
    return _top_eigen(lambda: T.dense()[:, ::-1], lambda x: T.matvec(x[::-1]),
                      np.full(R, 1.0 / np.sqrt(R)), _HANKEL_DENSE_CUTOFF, _HANKEL_NCV)

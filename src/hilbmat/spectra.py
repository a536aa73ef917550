"""Eigendecompositions for the skew and symmetric matrices of the family.

A real skew matrix B has purely imaginary eigenvalues in pairs +/- i*mu with
mu >= 0, plus a zero eigenvalue of multiplicity R mod 2 in the generic
weighted-Cauchy case.  The decomposition diagonalizes the Hermitian matrix
i*B, whose real eigenvalues are the signed mu's, and reports each pair once
as a unit eigenvector u = v + i*w for +i*mu (so B w = mu v, B v = -mu w).

Norm-only queries stay in real arithmetic via -B^2.  ||T_R||, ||H_R|| and
the top pair of T_R take one solve route, ``_top_eigen``, which holds the
only dense/Lanczos decision: dense solves up to a size cutoff, Lanczos on
the FFT-based products of matrices.ToeplitzOperator above it.  The top pair
is built from the top eigenvector of -T_R^2 at every size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .matrices import ToeplitzOperator, as_square, hilbert_hankel, hilbert_toeplitz

# Relative threshold below which a computed mu is classified as zero.  The
# determinant structure forces an exact zero eigenvalue for odd R, so the
# threshold only needs to absorb roundoff.
ZERO_MU_REL = 1e-10

# Matrix-free Lanczos takes over above this size in ``_top_eigen``.
DENSE_CUTOFF = 256

# 1e-11 relative eigenvalue tolerance keeps norms accurate to ~1e-11 while
# roughly halving the iteration count against machine-precision stopping.
_LANCZOS_OPTS = dict(k=1, which="LA", tol=1e-11, maxiter=20000)


def default_tol(R: int) -> float:
    return 1e-12 * max(R, 1)


def _within_tol(D, M, tol=None) -> bool:
    """max |D| <= tol * max(1, max |M|); ``tol`` defaults by the size of M."""
    tol = default_tol(M.shape[0]) if tol is None else tol
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    return float(np.abs(D).max(initial=0.0)) <= tol * scale


def _neg_square(B) -> np.ndarray:
    """-B^2 of a dense real skew B, symmetrized: positive semidefinite."""
    S = -(B @ B)
    return 0.5 * (S + S.T)


def require_skew(B, tol=None) -> np.ndarray:
    B = as_square(B, dtype=float)
    if not _within_tol(B + B.T, B, tol):
        raise ValueError("matrix is not skew-symmetric")
    return B


def require_hermitian(S, tol=None) -> np.ndarray:
    S = as_square(S)
    if not _within_tol(S - S.conj().T, S, tol):
        raise ValueError("matrix is not symmetric/Hermitian")
    return S


@dataclass(frozen=True)
class EigenPair:
    """One +/- i*mu eigenvalue pair of a real skew matrix.

    The unit eigenvector for +i*mu is u = v + i*w, so B w = mu v and
    B v = -mu w.  For mu != 0 the real and imaginary parts carry equal
    Euclidean norm 1/sqrt(2).
    """

    mu: float
    v: np.ndarray
    w: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return self.v + 1j * self.w


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full spectrum of a real skew matrix: pairs sorted by mu descending."""

    pairs: list[EigenPair]
    zero_multiplicity: int
    zero_vectors: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @property
    def dim(self) -> int:
        return 2 * len(self.pairs) + self.zero_multiplicity

    @property
    def mus(self) -> np.ndarray:
        return np.array([p.mu for p in self.pairs])

    @property
    def norm(self) -> float:
        return self.pairs[0].mu if self.pairs else 0.0

    def signed_eigenvalues(self) -> np.ndarray:
        """All R imaginary parts: +mu_j, -mu_j and the zeros, sorted."""
        mus = self.mus
        return np.sort(np.concatenate([mus, -mus, np.zeros(self.zero_multiplicity)]))


def symmetric_eigen(S, tol=None):
    """Dense symmetric/Hermitian eigendecomposition, eigenvalues descending.

    Returns ``(values, vectors)`` with ``vectors[:, j]`` the unit eigenvector
    for ``values[j]``.  Raises ValueError for non-symmetric input and lets the
    LAPACK non-convergence error (np.linalg.LinAlgError) propagate.
    """
    S = require_hermitian(S, tol)
    values, vectors = np.linalg.eigh(S)
    return values[::-1].copy(), vectors[:, ::-1].copy()


def _fix_phase(u: np.ndarray) -> np.ndarray:
    """Rotate a complex vector so its largest-magnitude component is real > 0."""
    j = int(np.argmax(np.abs(u)))
    a = abs(u[j])
    return u if a == 0.0 else u * (np.conj(u[j]) / a)


def skew_spectrum(B, tol=None) -> SpectralDecomposition:
    """Decompose a real skew matrix into +/- i*mu eigenpairs and zero modes.

    Works on the Hermitian matrix i*B, whose eigenvalues are the signed mu's:
    that keeps eigenvalue gaps linear (the alternative of diagonalizing -B^2
    compresses small gaps quadratically and measurably degrades the
    eigenvectors of small eigenvalues).  For an eigenvalue mu > 0 the
    conjugate of the i*B eigenvector is the +i*mu eigenvector of B; its phase
    is fixed by making the largest-magnitude component real positive.
    """
    B = require_skew(B, tol)
    R = B.shape[0]
    lam, U = np.linalg.eigh(1j * B)  # ascending real eigenvalues -mu..+mu
    norm = float(max(abs(lam[0]), abs(lam[-1]))) if R else 0.0
    zero_thr = ZERO_MU_REL * norm

    pairs: list[EigenPair] = []
    for j in range(R - 1, -1, -1):
        if lam[j] <= zero_thr:
            break
        u = _fix_phase(np.conj(U[:, j]))
        pairs.append(EigenPair(mu=float(lam[j]), v=u.real.copy(), w=u.imag.copy()))

    zero_idx = [j for j in range(R) if abs(lam[j]) <= zero_thr]
    if 2 * len(pairs) + len(zero_idx) != R:
        raise np.linalg.LinAlgError(
            "eigenvalue pairing failed to account for the full spectrum"
        )
    if zero_idx:
        # real orthonormal kernel basis from the real/imag parts of the
        # complex kernel vectors (the kernel of a real matrix is real)
        cols = []
        for j in zero_idx:
            cols.append(U[:, j].real)
            cols.append(U[:, j].imag)
        left, sing, _ = np.linalg.svd(np.column_stack(cols), full_matrices=False)
        zeros = left[:, : len(zero_idx)]
        signs = np.where(zeros[np.abs(zeros).argmax(axis=0), np.arange(zeros.shape[1])] < 0, -1.0, 1.0)
        zeros = zeros * signs
    else:
        zeros = np.zeros((R, 0))
    return SpectralDecomposition(
        pairs=pairs, zero_multiplicity=len(zero_idx), zero_vectors=zeros
    )


def spectral_norm(M) -> float:
    """Largest eigenvalue magnitude of a symmetric/Hermitian or skew matrix."""
    M = as_square(M)
    if M.shape[0] == 0:
        return 0.0
    if _within_tol(M - M.conj().T, M):
        values = np.linalg.eigvalsh(M)
        return float(np.abs(values).max())
    if not np.iscomplexobj(M) and _within_tol(M + M.T, M):
        top = float(np.linalg.eigvalsh(_neg_square(M))[-1])
        return float(np.sqrt(max(top, 0.0)))
    raise ValueError("spectral_norm expects a symmetric/Hermitian or skew matrix")


def trace_power_norm_estimate(B, k: int) -> float:
    """Norm estimate ((-1)^k Tr(B^{2k}))^(1/2k) for a real skew matrix.

    Decreases monotonically in k towards the spectral norm and always lies in
    [norm, norm * R^(1/2k)].  Raises OverflowError when the powers leave
    double range; normalize the input first in that case.
    """
    if k < 1:
        raise ValueError("power index k must be >= 1")
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


def _top_eigen(dense, matvec, R: int, square=False, vector=False):
    """Top eigenvalue of the positive semidefinite S = A (S = -A^2 when
    ``square``) for A given by ``dense()`` and ``matvec``; with ``vector``,
    ``(eigenvalue, q, A q)`` for a unit top eigenvector q.  The one solver
    choice: dense up to DENSE_CUTOFF, Lanczos above.  A q is taken on the
    same side, so all-dense runs never load the FFT."""
    if R <= DENSE_CUTOFF:
        A = dense()
        S = _neg_square(A) if square else A
        if not vector:
            return spectral_norm(S)
        values, vectors = symmetric_eigen(S)
        lam, q, apply = values[0], vectors[:, 0], A.__matmul__
    else:
        op = LinearOperator((R, R), matvec=(lambda x: -matvec(matvec(x))) if square
                            else matvec, dtype=float)
        v0 = np.full(R, 1.0 / np.sqrt(R))
        ncv = min(R, 64)
        if not vector:
            lam = eigsh(op, v0=v0, ncv=ncv, return_eigenvectors=False, **_LANCZOS_OPTS)
            return float(lam[0])
        lam, vec = eigsh(op, v0=v0, ncv=ncv, **_LANCZOS_OPTS)
        lam, q, apply = lam[0], vec[:, 0], matvec
    q = q / float(np.linalg.norm(q))
    return float(lam), q, apply(q)


@lru_cache(maxsize=None)
def toeplitz_hilbert_norm(R: int) -> float:
    """Spectral norm of the R x R skew Hilbert matrix: sqrt of the top
    eigenvalue of S = -T^2, by Lanczos with O(R log R) matvecs at large R.
    Values are memoized: gap sweeps and bound checks revisit the same sizes.
    """
    lam = _top_eigen(lambda: hilbert_toeplitz(R), ToeplitzOperator.hilbert(R).matvec, R,
                     square=True)
    return float(np.sqrt(max(lam, 0.0)))


def toeplitz_hilbert_top_pair(R: int) -> EigenPair:
    """Top eigenpair of the R x R skew Hilbert matrix: v = q / sqrt(2) and
    w = -T q / (mu sqrt(2)) from the unit top eigenvector q of -T^2."""
    lam, q, Tq = _top_eigen(lambda: hilbert_toeplitz(R), ToeplitzOperator.hilbert(R).matvec,
                            R, square=True, vector=True)
    mu = float(np.sqrt(max(lam, 0.0)))
    if mu == 0.0:
        raise ValueError("matrix has no nonzero eigenvalues")
    w = -Tq / mu
    w /= float(np.linalg.norm(w))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return EigenPair(mu=mu, v=q * inv_sqrt2, w=w * inv_sqrt2)


@lru_cache(maxsize=None)
def hankel_hilbert_norm(R: int) -> float:
    """Spectral norm of the R x R symmetric Hilbert matrix 1/(m+n-1).

    The matrix is positive definite, so the norm is its top eigenvalue.  The
    matrix-free product evaluates H x = T (reverse x) with a Toeplitz T.
    """
    m = np.arange(R, dtype=float)
    # T[m, k] = 1/(m - k + R): column 1/R..1/(2R-1), first row 1/R, 1/(R-1), .., 1
    T = ToeplitzOperator(1.0 / (m + R), 1.0 / (R - m))
    return _top_eigen(lambda: hilbert_hankel(R), lambda x: T.matvec(x[::-1]), R)

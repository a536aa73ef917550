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
max(1, max |entry|); it cannot be set.

Norm-only queries stay in real arithmetic via -B^2.  ||T_R||, ||H_R|| and
the top pair of T_R take one solve route, ``_top_eigen``, which holds the
only dense/Lanczos decision: up to a size cutoff ``spectral_norm`` for a
norm and ``np.linalg.eigh`` for a top pair, above it Lanczos on the matvec
of a ``ToeplitzOperator.hilbert`` or ``.hankel`` built for the solve.  That
operator takes its circulant spectrum once, on the first matvec, at a fast
FFT length, and only then loads ``scipy.fft``.  The top pair is built from
the top eigenvector of -T_R^2 at every size.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _within_tol(D, M) -> bool:
    """max |D| <= 1e-12 * max(R, 1) * max(1, max |M|) for the size R of M."""
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    return float(np.abs(D).max(initial=0.0)) <= 1e-12 * max(M.shape[0], 1) * scale


def _neg_square(B) -> np.ndarray:
    """-B^2 of a dense real skew B, symmetrized: positive semidefinite."""
    S = -(B @ B)
    return 0.5 * (S + S.T)


def require_skew(B) -> np.ndarray:
    B = as_square(B, dtype=float)
    if not _within_tol(B + B.T, B):
        raise ValueError("matrix is not skew-symmetric")
    return B


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenpairs of a real skew matrix B, one per column.

    ``mus`` is descending; column j of U = V + i*W is a unit eigenvector for
    +i*mus[j], so B W = V diag(mus) and B V = -W diag(mus).  A column with
    mu > 0 stands for the pair +/- i*mu, its real and imaginary parts of
    equal norm 1/sqrt(2).  Zero modes come last, with mu == 0.0 exactly, the
    real kernel basis in V and W = 0.  V and W are C-contiguous.
    """

    mus: np.ndarray
    V: np.ndarray
    W: np.ndarray

    @property
    def U(self) -> np.ndarray:
        return self.V + 1j * self.W

    @property
    def norm(self) -> float:
        return float(self.mus[0]) if self.mus.size else 0.0

    @property
    def zero_multiplicity(self) -> int:
        return int(np.count_nonzero(self.mus == 0.0))

    def signed_eigenvalues(self) -> np.ndarray:
        """Imaginary parts of the eigenvalues: +mu and -mu for each mu > 0,
        0 for each zero mode, sorted."""
        return np.sort(np.concatenate([self.mus, -self.mus[self.mus > 0]]))


def _peak_positive(M) -> np.ndarray:
    """Scale each column of M by a unit factor that makes its
    largest-magnitude entry real and positive."""
    p = M[np.abs(M).argmax(axis=0), np.arange(M.shape[1])]
    # |p| is taken by hypot, as numpy's scalar abs takes it; its complex-array
    # abs can differ in the last bit
    return M * (np.conj(p) / np.hypot(p.real, p.imag))


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
    # from the SVD, which depends on the column order
    Z = U[:, zero]
    left = np.linalg.svd(np.stack([Z.real, Z.imag], axis=2).reshape(R, -1),
                         full_matrices=False)[0]
    K = _peak_positive(left[:, :Z.shape[1]])
    # C order: the identity checks' matrix products round by memory layout
    return SpectralDecomposition(
        mus=np.concatenate([lam[top][::-1], np.zeros(K.shape[1])]),
        V=np.ascontiguousarray(np.hstack([P.real, K])),
        W=np.ascontiguousarray(np.hstack([P.imag, np.zeros_like(K)])))


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
        values, vectors = np.linalg.eigh(S)  # ascending
        lam, q, apply = values[-1], vectors[:, -1], A.__matmul__
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


def toeplitz_hilbert_top_pair(R: int) -> SpectralDecomposition:
    """Top eigenpair of the R x R skew Hilbert matrix as a one-column
    decomposition: v = q / sqrt(2) and w = -T q / (mu sqrt(2)) from the unit
    top eigenvector q of -T^2."""
    lam, q, Tq = _top_eigen(lambda: hilbert_toeplitz(R), ToeplitzOperator.hilbert(R).matvec,
                            R, square=True, vector=True)
    mu = float(np.sqrt(max(lam, 0.0)))
    if mu == 0.0:
        raise ValueError("matrix has no nonzero eigenvalues")
    w = -Tq / mu
    w /= float(np.linalg.norm(w))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return SpectralDecomposition(np.array([mu]), (q * inv_sqrt2)[:, None],
                                 (w * inv_sqrt2)[:, None])


@lru_cache(maxsize=None)
def hankel_hilbert_norm(R: int) -> float:
    """Spectral norm of the R x R symmetric Hilbert matrix 1/(m+n-1).

    The matrix is positive definite, so the norm is its top eigenvalue.  The
    matrix-free product evaluates H x = T (reverse x) with the Toeplitz
    T = ToeplitzOperator.hankel(R).
    """
    T = ToeplitzOperator.hankel(R)
    return _top_eigen(lambda: hilbert_hankel(R), lambda x: T.matvec(x[::-1]), R)

"""Eigendecompositions for the skew and symmetric matrices of the family.

A real skew matrix B has purely imaginary eigenvalues in pairs +/- i*mu with
mu >= 0, plus a zero eigenvalue of multiplicity R mod 2 in the generic
weighted-Cauchy case.  The decomposition diagonalizes the Hermitian matrix
i*B, whose real eigenvalues are the signed mu's, and reports each pair once
as a unit eigenvector u = v + i*w for +i*mu (so B w = mu v, B v = -mu w).

Norm-only queries stay in real arithmetic via -B^2.  Large Toeplitz/Hankel
instances get a matrix-free path: the FFT-based products of
matrices.ToeplitzOperator under a Lanczos extremal-eigenvalue solve.
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

# Matrix-free Lanczos takes over above this size for T_R / H_R norms.
DENSE_CUTOFF = 256

# 1e-11 relative eigenvalue tolerance keeps norms accurate to ~1e-11 while
# roughly halving the iteration count against machine-precision stopping.
_LANCZOS_OPTS = dict(k=1, which="LA", tol=1e-11, maxiter=20000)


def default_tol(R: int) -> float:
    return 1e-12 * max(R, 1)


def require_skew(B, tol=None) -> np.ndarray:
    B = as_square(B, dtype=float)
    R = B.shape[0]
    tol = default_tol(R) if tol is None else tol
    scale = max(1.0, float(np.abs(B).max(initial=0.0)))
    if float(np.abs(B + B.T).max(initial=0.0)) > tol * scale:
        raise ValueError("matrix is not skew-symmetric")
    return B


def require_hermitian(S, tol=None) -> np.ndarray:
    S = as_square(S)
    R = S.shape[0]
    tol = default_tol(R) if tol is None else tol
    scale = max(1.0, float(np.abs(S).max(initial=0.0)))
    if float(np.abs(S - S.conj().T).max(initial=0.0)) > tol * scale:
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
    R = M.shape[0]
    if R == 0:
        return 0.0
    scale = max(1.0, float(np.abs(M).max(initial=0.0)))
    atol = default_tol(R) * scale
    if float(np.abs(M - M.conj().T).max(initial=0.0)) <= atol:
        values = np.linalg.eigvalsh(M)
        return float(np.abs(values).max())
    if not np.iscomplexobj(M) and float(np.abs(M + M.T).max(initial=0.0)) <= atol:
        S = -(M @ M)
        S = 0.5 * (S + S.T)
        top = float(np.linalg.eigvalsh(S)[-1])
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
# Matrix-free norms for the classical Toeplitz/Hankel Hilbert matrices.
# ---------------------------------------------------------------------------


def _lanczos_top(matvec, R: int, return_vector=False):
    """Top eigenvalue (and unit eigenvector) of the symmetric R x R operator
    whose product is ``matvec``."""
    op = LinearOperator((R, R), matvec=matvec, dtype=float)
    v0 = np.full(R, 1.0 / np.sqrt(R))
    ncv = min(R, 64)
    if return_vector:
        lam, vec = eigsh(op, v0=v0, ncv=ncv, **_LANCZOS_OPTS)
        return float(lam[0]), vec[:, 0]
    lam = eigsh(op, v0=v0, ncv=ncv, return_eigenvectors=False, **_LANCZOS_OPTS)
    return float(lam[0])


def _neg_square(T: ToeplitzOperator):
    """Product of S = -T^2, positive semidefinite for a real skew T."""
    return lambda x: -T.matvec(T.matvec(x))


@lru_cache(maxsize=None)
def toeplitz_hilbert_norm(R: int) -> float:
    """Spectral norm of the R x R skew Hilbert matrix.

    Dense solve below the cutoff; above it, Lanczos on S = -T^2 with
    FFT-based Toeplitz matvecs (O(R log R) per iteration).  Values are
    memoized: gap sweeps and bound checks revisit the same sizes.
    """
    if R <= DENSE_CUTOFF:
        return spectral_norm(hilbert_toeplitz(R))
    lam = _lanczos_top(_neg_square(ToeplitzOperator.hilbert(R)), R)
    return float(np.sqrt(max(lam, 0.0)))


def toeplitz_hilbert_top_pair(R: int) -> EigenPair:
    """Top eigenpair of the R x R skew Hilbert matrix."""
    if R <= DENSE_CUTOFF:
        dec = skew_spectrum(hilbert_toeplitz(R))
        if not dec.pairs:
            raise ValueError("matrix has no nonzero eigenvalues")
        return dec.pairs[0]
    T = ToeplitzOperator.hilbert(R)
    lam, q = _lanczos_top(_neg_square(T), R, return_vector=True)
    mu = float(np.sqrt(max(lam, 0.0)))
    q = q / float(np.linalg.norm(q))
    w = -T.matvec(q) / mu
    w /= float(np.linalg.norm(w))
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return EigenPair(mu=mu, v=q * inv_sqrt2, w=w * inv_sqrt2)


@lru_cache(maxsize=None)
def hankel_hilbert_norm(R: int) -> float:
    """Spectral norm of the R x R symmetric Hilbert matrix 1/(m+n-1).

    The matrix is positive definite, so the norm is its top eigenvalue.  The
    matrix-free path evaluates H x = T (reverse x) with a Toeplitz T.
    """
    if R <= DENSE_CUTOFF:
        return spectral_norm(hilbert_hankel(R))
    m = np.arange(R, dtype=float)
    # T[m, k] = 1/(m - k + R): column 1/R..1/(2R-1), first row 1/R, 1/(R-1), .., 1
    T = ToeplitzOperator(1.0 / (m + R), 1.0 / (R - m))
    return _lanczos_top(lambda x: T.matvec(x[::-1]), R)

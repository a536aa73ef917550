"""Constructors for the structured matrices of the weighted Hilbert family.

Builders return plain float64 ndarrays, except that ``toeplitz_from_symbol``
returns a complex matrix for a complex symbol.  The Cauchy builders assemble
their strict upper triangle and mirror it with negation; every Toeplitz-family
matrix is read from one (column, row) pair by ``ToeplitzOperator``, and the
skew Hilbert matrix T_R takes row = -column.  Either way ``M.T == -M`` and
``M.diagonal() == 0`` hold exactly rather than to roundoff.
Node vectors must be strictly increasing; sorting is the caller's job, which
keeps gap computations O(R) and sign conventions unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import matmul_toeplitz, toeplitz

from ._util import write_csv

# Everything here is dense and desk-scale; refuse accidental monsters.
MAX_DIM = 20000


def as_nodes(values) -> np.ndarray:
    """Validate a node vector: 1-D, finite, strictly increasing, R >= 1."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("node vector must be one-dimensional")
    if x.size < 1:
        raise ValueError("node vector must have length >= 1")
    if x.size > MAX_DIM:
        raise ValueError(f"node vector exceeds the size cap of {MAX_DIM}")
    if not np.all(np.isfinite(x)):
        raise ValueError("nodes must be finite")
    if x.size > 1 and np.any(np.diff(x) <= 0.0):
        raise ValueError("nodes must be strictly increasing (hence distinct)")
    return x


def as_weights(values, R: int) -> np.ndarray:
    """Validate a weight vector of length R (must match its node vector)."""
    c = np.asarray(values, dtype=float)
    if c.ndim != 1 or c.size != R:
        raise ValueError(f"weight vector must have the same length as the node vector ({R})")
    if not np.all(np.isfinite(c)):
        raise ValueError("weights must be finite")
    return c


def as_dim(R) -> int:
    """Validate a matrix dimension: an integer with 1 <= R <= MAX_DIM."""
    if not isinstance(R, (int, np.integer)):
        raise ValueError("dimension must be an integer")
    if R < 1:
        raise ValueError("dimension must be >= 1")
    if R > MAX_DIM:
        raise ValueError(f"dimension exceeds the size cap of {MAX_DIM}")
    return int(R)


def as_square(M, dtype=None) -> np.ndarray:
    """``M`` as an ndarray (cast to ``dtype`` when given); must be a square matrix."""
    M = np.asarray(M, dtype=dtype)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    return M


def hilbert_coeffs(r) -> np.ndarray:
    """Skew Hilbert coefficients c_r = 1/r at integer offsets r, with c_0 = 0."""
    r = np.asarray(r, dtype=float)
    return np.divide(1.0, r, out=np.zeros(r.shape), where=r != 0)


def prolate_coeffs(r, w) -> np.ndarray:
    """Prolate coefficients c_r = sin(2*pi*w*r)/r at integer offsets r, with
    c_0 = 2*pi*w.  Requires 0 < w < 1/2; c_{-r} = c_r exactly."""
    w = float(w)
    if not 0.0 < w < 0.5:
        raise ValueError("bandwidth w must lie in the open interval (0, 1/2)")
    r = np.asarray(r, dtype=float)
    return np.divide(np.sin(2.0 * np.pi * w * r), r,
                     out=np.full(r.shape, 2.0 * np.pi * w), where=r != 0)


def cauchy_matrix(x) -> np.ndarray:
    """Skew matrix with entries 1/(x_m - x_n) off the diagonal, 0 on it."""
    x = as_nodes(x)
    return weighted_cauchy_matrix(x, np.ones(x.size))


def weighted_cauchy_matrix(x, c) -> np.ndarray:
    """Skew matrix with entries c_m c_n / (x_m - x_n) off the diagonal."""
    x = as_nodes(x)
    c = as_weights(c, x.size)
    R = x.size
    upper = np.zeros((R, R))
    iu, ju = np.triu_indices(R, k=1)
    upper[iu, ju] = c[iu] * c[ju] / (x[iu] - x[ju])
    return upper - upper.T


class ToeplitzOperator:
    """Toeplitz matrix with entry (m, n) = col[m - n] for m >= n and
    row[n - m] for m < n; ``row[0]`` is ignored in favour of ``col[0]``.

    ``dense()`` assembles the matrix; ``matvec(x)`` applies it to a real or
    complex vector in O(R log R) through FFT-based circulant embedding.
    """

    def __init__(self, col, row):
        self.col = np.asarray(col)
        self.row = np.asarray(row)

    @classmethod
    def hilbert(cls, R: int) -> "ToeplitzOperator":
        """Skew Hilbert matrix T_R: column 0, 1, 1/2, .., 1/(R-1), row = -column.

        Matrix-free use is not bound by the dense size cap MAX_DIM.
        """
        col = hilbert_coeffs(np.arange(R))
        return cls(col, -col)

    def dense(self) -> np.ndarray:
        return toeplitz(self.col, self.row)

    def matvec(self, x) -> np.ndarray:
        return matmul_toeplitz((self.col, self.row), x)


def hilbert_toeplitz(R) -> np.ndarray:
    """Finite skew Hilbert matrix: entries 1/(m - n), equal nodes 1..R."""
    return ToeplitzOperator.hilbert(as_dim(R)).dense()


def hilbert_hankel(R) -> np.ndarray:
    """Finite symmetric Hilbert matrix: entries 1/(m + n - 1)."""
    R = as_dim(R)
    idx = np.arange(R, dtype=float)
    return 1.0 / (idx[:, None] + idx[None, :] + 1.0)


def prolate_matrix(R, w) -> np.ndarray:
    """Symmetric Toeplitz matrix sin(2*pi*w*(m-n))/(m-n), diagonal 2*pi*w.

    Requires 0 < w < 1/2.  The first column doubles as the first row, so
    symmetry is exact.
    """
    vals = prolate_coeffs(np.arange(as_dim(R)), w)
    return ToeplitzOperator(vals, vals).dense()


def toeplitz_from_symbol(coeffs, R) -> np.ndarray:
    """Toeplitz matrix with entry (m, n) = c_{m-n}.

    ``coeffs`` is either a mapping r -> c_r (absent keys are zero) or an
    object whose ``coeff`` method maps an integer array of offsets to their
    coefficients (see symbols.SymbolSeries); it is called once, with every
    offset |r| <= R - 1.
    """
    R = as_dim(R)
    offsets = np.arange(-(R - 1), R)
    if hasattr(coeffs, "coeff"):
        values = coeffs.coeff(offsets)
    else:
        values = np.array([coeffs.get(int(r), 0.0) for r in offsets])
    if np.all(np.isreal(values)):
        values = values.real.astype(float)
    # values[R - 1 + r] = c_r: the column runs r = 0..R-1, the row r = 0..-(R-1)
    return ToeplitzOperator(values[R - 1:], values[R - 1::-1]).dense()


def remove_index(M: np.ndarray, n: int) -> np.ndarray:
    """Principal submatrix with 1-based row and column n removed."""
    M = as_square(M)
    R = M.shape[0]
    if not 1 <= n <= R:
        raise ValueError(f"index {n} out of range 1..{R}")
    return np.delete(np.delete(M, n - 1, axis=0), n - 1, axis=1)


@dataclass(frozen=True)
class GapReport:
    """Minimum node separations: global delta and per-node nearest distance."""

    delta: float
    per_node: np.ndarray


def min_gaps(x) -> GapReport:
    """Per-node nearest-neighbour distances of a sorted node vector, R >= 2."""
    x = as_nodes(x)
    if x.size < 2:
        raise ValueError("min_gaps needs at least two nodes")
    d = np.diff(x)
    per_node = np.empty(x.size)
    per_node[0] = d[0]
    per_node[-1] = d[-1]
    if x.size > 2:
        per_node[1:-1] = np.minimum(d[:-1], d[1:])
    return GapReport(delta=float(per_node.min()), per_node=per_node)


def write_matrix_csv(M, target):
    """Dump a real matrix as CSV, one row per line, 17 significant digits."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        raise ValueError("CSV dump supports real matrices only")
    header = [f"c{j}" for j in range(M.shape[1])]
    write_csv(target, header, ([float(v) for v in row] for row in M))

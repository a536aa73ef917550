"""Constructors for the structured matrices of the weighted Hilbert family.

Builders return plain float64 ndarrays, except that ``toeplitz_from_symbol``
returns a complex matrix for a complex ``symbols.SymbolSeries``.  The Cauchy
builders divide the full outer product c_m c_n by the node differences
x_m - x_n in one pass and set the diagonal to +0.0, so the two triangles
are exact negations of each other, signed zeros included, and a build
that overflows is refused; every Toeplitz-family matrix is a
``ToeplitzOperator`` held as its offset coefficients c_{-(R-1)}, ..,
c_{R-1}, and the skew Hilbert matrix T_R takes c_{-r} = -c_r from the
closed form 1/r.  Either way ``M.T == -M`` and
``M.diagonal() == 0`` hold exactly rather than to roundoff.  The symmetric
Hilbert matrix H_R is written once, as ``ToeplitzOperator.hankel``: H_R with
its columns reversed, a Toeplitz matrix.  ``ToeplitzOperator.hilbert_parity``
is the half-size block of T_R between its J-even and J-odd vectors (J
reverses the index order), on which the norm of T_R is solved: a
rectangular Toeplitz-plus-Hankel block, the same class with a Hankel part
and a column weight, whose ``dense()`` is its dense build.  Every
matrix-free product of a real vector, M x or M^T z, goes through one transform,
``ToeplitzOperator._transform``, at the 5-smooth FFT length
``_fast_len(m + n - 1)``: 2R - 1 for a square operator and R - 1 for the
parity block.  An operator takes its spectra with ``numpy.fft.rfft`` on its
first product; a complex one has only its dense build.  Node vectors must
be strictly increasing; sorting is the caller's job, which keeps
``min_gaps`` (an array of nearest-neighbour distances) O(R) and sign
conventions unambiguous.
"""

from __future__ import annotations

import math
from numbers import Real

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._util import write_csv

# The largest dimension of every route, dense or matrix-free (``as_dim``):
# a dense build then holds 3.2 GB, a matrix-free solve a 20 x 10000 basis.
MAX_DIM = 20000

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def as_real(values, name: str) -> np.ndarray:
    """``values`` as a float ndarray; a complex input is refused with
    "<name> must be real, not complex" rather than cast, which would drop its
    imaginary part: the one real-number rule, for vectors and matrices."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise ValueError(f"{name} must be real, not complex")
    return np.asarray(values, dtype=float)


def as_nodes(values) -> np.ndarray:
    """Validate a node vector: 1-D, real, finite, strictly increasing, R >= 1,
    with a finite span x[-1] - x[0], the largest difference x_m - x_n."""
    x = as_real(values, "nodes")
    if x.ndim != 1:
        raise ValueError("node vector must be one-dimensional")
    if x.size < 1:
        raise ValueError("node vector must have length >= 1")
    as_dim(x.size)
    if not np.all(np.isfinite(x)):
        raise ValueError("nodes must be finite")
    if x.size > 1:
        with np.errstate(over="ignore"):  # an overflowing step is +-inf, refused below
            if np.any(np.diff(x) <= 0.0):
                raise ValueError("nodes must be strictly increasing (hence distinct)")
        if not math.isfinite(float(x[-1]) - float(x[0])):
            raise ValueError("node differences overflow the float range")
    return x


def as_weights(values, R: int) -> np.ndarray:
    """Validate a real weight vector of length R (must match its node vector)."""
    c = as_real(values, "weights")
    if c.ndim != 1 or c.size != R:
        raise ValueError(f"weight vector must have the same length as the node vector ({R})")
    if not np.all(np.isfinite(c)):
        raise ValueError("weights must be finite")
    return c


def as_int(value, name: str, low=None, high=None) -> int:
    """``value``, a Python or numpy integer but not a bool, as an int with
    low <= value <= high (None is no bound): the one integer rule.  Else
    "<name> must be an integer", "<name> must be >= <low>" or "... <= <high>"."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer")
    value = int(value)
    if low is not None and value < low:
        raise ValueError(f"{name} must be >= {low}")
    if high is not None and value > high:
        raise ValueError(f"{name} must be <= {high}")
    return value


def as_dim(R) -> int:
    """Validate a matrix dimension: an integer with 1 <= R <= MAX_DIM, the one
    size rule of every route, dense or matrix-free."""
    R = as_int(R, "dimension", 1)
    if R > MAX_DIM:
        raise ValueError(f"dimension exceeds the size cap of {MAX_DIM}")
    return R


def as_square(M, real: bool = False) -> np.ndarray:
    """``M`` as an ndarray, a float one under ``as_real`` when ``real``;
    must be square."""
    M = as_real(M, "matrix") if real else np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    return M


def hilbert_coeffs(r) -> np.ndarray:
    """Skew Hilbert coefficients c_r = 1/r at integer offsets r, with c_0 = 0."""
    r = np.asarray(r, dtype=float)
    return np.divide(1.0, r, out=np.zeros(r.shape), where=r != 0)


def prolate_coeffs(r, w) -> np.ndarray:
    """Prolate coefficients c_r = sin(2*pi*w*r)/r at integer offsets r, with
    c_0 = 2*pi*w.  Requires a real number w, not a bool, with 0 < w < 1/2:
    the one bandwidth rule.  c_{-r} = c_r exactly."""
    if isinstance(w, bool) or not isinstance(w, Real):
        raise ValueError(f"bandwidth w must be a real number, not {w!r}")
    w = float(w)
    if not 0.0 < w < 0.5:
        raise ValueError("bandwidth w must lie in the open interval (0, 1/2)")
    r = np.asarray(r, dtype=float)
    return np.divide(np.sin(2.0 * np.pi * w * r), r,
                     out=np.full(r.shape, 2.0 * np.pi * w), where=r != 0)


def skew_quotient(weights, x) -> np.ndarray:
    """c_m c_n / (x_m - x_n) for the weight vector c = ``weights``, or
    1 / (x_m - x_n) for ``weights`` = 1.0, diagonal zeroed, on nodes x and
    weights taken as given: they must already have passed ``as_nodes`` and
    ``as_weights``, which are not run again here.  A build that overflows
    is refused rather than returned with infinite entries, from the
    floating-point overflow flag of its own products and quotients."""
    # the diagonal's 0/0 (or c_m^2/0) is overwritten with +0.0
    with np.errstate(over="raise", divide="ignore", invalid="ignore"):
        try:
            numerator = np.multiply.outer(weights, weights) if np.ndim(weights) else weights
            M = numerator / np.subtract.outer(x, x)
        except FloatingPointError:
            raise ValueError("Cauchy matrix entries overflow the float range") from None
    np.fill_diagonal(M, 0.0)
    return M


def cauchy_matrix(x) -> np.ndarray:
    """Skew matrix with entries 1/(x_m - x_n) off the diagonal, 0 on it."""
    return skew_quotient(1.0, as_nodes(x))


def weighted_cauchy_matrix(x, c) -> np.ndarray:
    """Skew matrix with entries c_m c_n / (x_m - x_n) off the diagonal, 0 on it.

    The full quotient is taken in one pass and its diagonal set to +0.0.
    c_m c_n is symmetric and x_m - x_n exactly antisymmetric in IEEE
    arithmetic, so each entry below the diagonal is the exact negation of
    its mirror: ``M.T == -M`` and ``M.diagonal() == 0`` hold exactly, and
    bit for bit, signed zeros included.  A zero entry keeps the sign of its
    quotient, so one of each mirrored pair of zeros is -0.0: below the
    diagonal for a zero weight beside a negative one, above it for a zero
    weight beside a positive one.
    """
    x = as_nodes(x)
    return skew_quotient(as_weights(c, x.size), x)


def _fast_len(m: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c >= m, a length that pocketfft
    transforms fast; below 30000 it is scipy.fft.next_fast_len(m, real=True)."""
    best = 1 << (m - 1).bit_length()  # the least power of two >= m
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-m // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class ToeplitzOperator:
    """An m x n Toeplitz matrix, optionally plus a Hankel matrix, with
    optional row weights u and column weights w: entry (i, j) is

        (coeffs[n-1 + i - j] + hankel_coeffs[i + j]) / sqrt(u[i] w[j]),

    the Toeplitz coefficients t(r) held at the offsets r = i - j from
    -(n-1) to m-1 and the Hankel coefficients k(s) at the sums s = i + j
    from 0 to m+n-2, each a vector of length m + n - 1.  Without ``shape``
    the matrix is square, R x R for 2R - 1 coefficients.

    ``dense()`` adds up one strided view of each vector.  ``matvec(x)`` and
    ``rmatvec(z)`` apply a real operator and its transpose to a real vector
    in O((m + n) log(m + n)) through one transform: with
    V = rfft(v, N) at N = ``_fast_len(m + n - 1)``, the product is
    irfft(A V + B conj(V), N)[:size], where A is the spectrum of t(r)
    placed at r mod N (conj(A) for the transpose, whose Toeplitz part is
    reversed) and B that of k(s) placed at s.  conj(V) is the spectrum of
    the cyclic reversal of v, so B conj(V) is the Hankel product with no
    phase factor.  The spectra are taken once, on the first product.
    """

    def __init__(self, coeffs, hankel_coeffs=None, shape=None, column_weights=None,
                 row_weights=None):
        coeffs = np.asarray(coeffs)
        if shape is None:
            if coeffs.ndim != 1 or coeffs.size % 2 == 0:
                raise ValueError("Toeplitz coefficients must be a 1-D array of odd length 2R - 1")
            shape = ((coeffs.size + 1) // 2,) * 2
        m, n = shape
        if hankel_coeffs is not None:
            hankel_coeffs = np.asarray(hankel_coeffs)
        if coeffs.shape != (m + n - 1,) or (hankel_coeffs is not None
                                            and hankel_coeffs.shape != coeffs.shape):
            raise ValueError(f"a {m} x {n} matrix needs coefficient vectors of length "
                             f"{m + n - 1}")
        self.coeffs, self.hankel_coeffs, self.shape = coeffs, hankel_coeffs, (m, n)
        # each scale 1/sqrt(weights), for the products
        self.column_weights, self._column_scale = self._weights(column_weights, n, "column")
        self.row_weights, self._row_scale = self._weights(row_weights, m, "row")
        self._spectra = None  # (N, A, B), built by the first product

    @staticmethod
    def _weights(weights, size: int, name: str):
        """``(weights, 1/sqrt(weights))`` for a float vector of length
        ``size``, or ``(None, None)``."""
        if weights is None:
            return None, None
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (size,):
            raise ValueError(f"{name} weights must be a vector of length {size}")
        return weights, 1.0 / np.sqrt(weights)

    @classmethod
    def hilbert(cls, R: int) -> "ToeplitzOperator":
        """Skew Hilbert matrix T_R: c_r = 1/r, c_0 = 0."""
        R = as_dim(R)
        return cls(hilbert_coeffs(np.arange(1 - R, R)))

    @classmethod
    def hankel(cls, R: int) -> "ToeplitzOperator":
        """H_R with its columns reversed, H_R = T J (J reverses the index
        order): c_r = 1/(R + r), so coeffs = 1, 1/2, .., 1/(2R-1)."""
        return cls(1.0 / np.arange(1, 2 * as_dim(R), dtype=float))

    @classmethod
    def hilbert_parity(cls, R: int) -> "ToeplitzOperator":
        """The floor(R/2) x ceil(R/2) block C that maps J-even to J-odd
        vectors under the skew Hilbert matrix T_R (J reverses the index order).

        T_R is skew-centrosymmetric, J T_R J = -T_R, so in the orthonormal
        bases of ``lift``, (e_i + e_{R-1-i})/sqrt2 (with e_mid appended for
        odd R) and (e_i - e_{R-1-i})/sqrt2, it splits as [[0, -C^T], [C, 0]]
        (Cantoni and Butler, Linear Algebra Appl. 13 (1976) 275-288), and
        ||T_R|| = sigma_max(C).  C[i, j] = c(i - j) + c(i + j - (R-1)) with
        c(r) = 1/r and c(0) = 0, Toeplitz plus Hankel; for odd R the two
        parts agree on the middle column, which has weight 2 and so reads
        sqrt2 c(i - (R-1)/2).
        """
        R = as_dim(R)
        h, n = R // 2, (R + 1) // 2
        return cls(hilbert_coeffs(np.arange(1 - n, h)), hilbert_coeffs(np.arange(1 - R, 0)),
                   (h, n), np.append(np.ones(h), 2.0) if n > h else None)

    def dense(self) -> np.ndarray:
        """The m x n matrix as a fresh C-contiguous array: strided views
        that read entry (i, j) at coeffs[n-1 + i - j] and hankel_coeffs[i + j]
        added up, then scaled by the column and row weights."""
        m, n = self.shape
        step = self.coeffs.strides[0]
        M = as_strided(self.coeffs[n - 1:], shape=(m, n), strides=(step, -step)).copy()
        if self.hankel_coeffs is not None:
            hankel = self.hankel_coeffs
            M += as_strided(hankel, shape=(m, n), strides=hankel.strides * 2)
        # 1/sqrt(w) as sqrt(w)/w: at w = 2 a column 2c then reads sqrt(2) c exactly
        if self.column_weights is not None:
            M *= np.sqrt(self.column_weights) / self.column_weights
        if self.row_weights is not None:
            M *= (np.sqrt(self.row_weights) / self.row_weights)[:, None]
        return M

    def _checked(self, x, size: int, name: str) -> np.ndarray:
        """x as an array, which must be a real 1-D vector of length ``size``."""
        x = np.asarray(x)
        if x.shape != (size,):
            raise ValueError(f"{name} needs a 1-D vector of length {size}, "
                             f"got shape {x.shape}")
        if np.iscomplexobj(x):
            raise ValueError(f"{name} needs a real vector, got dtype {x.dtype}")
        return x

    def _build_spectra(self):
        if np.iscomplexobj(self.coeffs) or np.iscomplexobj(self.hankel_coeffs):
            raise ValueError("matvec needs a real operator; a complex Toeplitz matrix "
                             "has only its dense build")
        m, n = self.shape
        N = _fast_len(max(m + n - 1, m, n))  # m + n - 1 unless a side is empty
        column = np.zeros(N)
        column[np.arange(1 - n, m) % N] = self.coeffs  # t(r) at r mod N
        B = None if self.hankel_coeffs is None else np.fft.rfft(self.hankel_coeffs, N)
        return N, np.fft.rfft(column), B

    def _transform(self, v, transpose: bool, size: int) -> np.ndarray:
        """irfft(A V + B conj(V), N)[:size] for V = rfft(v, N) of a real v,
        with conj(A) for A under ``transpose``."""
        if self._spectra is None:
            self._spectra = self._build_spectra()
        N, A, B = self._spectra
        V = np.fft.rfft(v, N)
        W = (np.conj(A) if transpose else A) * V
        if B is not None:
            W += B * np.conj(V)
        return np.fft.irfft(W, N)[:size]

    def matvec(self, x) -> np.ndarray:
        """M x for a vector x of length n."""
        m, n = self.shape
        x = self._checked(x, n, "matvec")
        if self.column_weights is not None:
            x = x * self._column_scale
        y = self._transform(x, False, m)
        return y if self.row_weights is None else y * self._row_scale

    def rmatvec(self, z) -> np.ndarray:
        """M^T z for a vector z of length m."""
        m, n = self.shape
        z = self._checked(z, m, "rmatvec")
        if self.row_weights is not None:
            z = z * self._row_scale
        y = self._transform(z, True, n)
        return y if self.column_weights is None else y * self._column_scale

    def lift(self, x, sign: float) -> np.ndarray:
        """For a J-parity block such as ``hilbert_parity(R)``, R = m + n:
        the R-vector P_e x (sign = 1, x of length n) or P_o x (sign = -1,
        length m), sum_i x_i (e_i + sign e_{R-1-i})/sqrt2 over i < R // 2,
        plus x_mid e_mid for the middle entry of an odd R."""
        m, n = self.shape
        R, h = m + n, (m + n) // 2
        x = self._checked(x, n if sign > 0 else m, "lift")
        y = np.zeros(R)
        y[:h] = x[:h] * _INV_SQRT2
        y[::-1][:h] = sign * y[:h]
        if x.size > h:
            y[h] = x[h]
        return y


def hilbert_toeplitz(R) -> np.ndarray:
    """Finite skew Hilbert matrix: entries 1/(m - n), equal nodes 1..R."""
    return ToeplitzOperator.hilbert(R).dense()


def hilbert_hankel(R) -> np.ndarray:
    """Finite symmetric Hilbert matrix: entries 1/(m + n - 1), the dense
    ``ToeplitzOperator.hankel`` with its columns reversed."""
    return ToeplitzOperator.hankel(R).dense()[:, ::-1]


def prolate_matrix(R, w) -> np.ndarray:
    """Symmetric Toeplitz matrix sin(2*pi*w*(m-n))/(m-n), diagonal 2*pi*w.

    Requires 0 < w < 1/2.  The coefficients c_r, r >= 0, are mirrored to
    c_{-r}, so symmetry is exact.
    """
    half = prolate_coeffs(np.arange(as_dim(R)), w)
    return ToeplitzOperator(np.concatenate((half[:0:-1], half))).dense()


def toeplitz_from_symbol(series, R) -> np.ndarray:
    """Toeplitz matrix of a symbols.SymbolSeries: entry (m, n) = series.coeff(m - n)."""
    R = as_dim(R)
    values = series.coeff(np.arange(-(R - 1), R))
    if np.all(np.isreal(values)):
        values = values.real.astype(float)
    return ToeplitzOperator(values).dense()


def remove_index(M: np.ndarray, n: int) -> np.ndarray:
    """Principal submatrix with 1-based row and column n removed."""
    M = as_square(M)
    n = as_int(n, "index", 1, M.shape[0])
    return np.delete(np.delete(M, n - 1, axis=0), n - 1, axis=1)


def min_gaps(x) -> np.ndarray:
    """Per-node nearest-neighbour distances of a sorted node vector, R >= 2;
    their minimum is the separation delta."""
    return node_gaps(as_nodes(x))


def node_gaps(x) -> np.ndarray:
    """``min_gaps`` on nodes x taken as given: x must already have passed
    ``as_nodes``, which is not run again here."""
    if x.size < 2:
        raise ValueError("min_gaps needs at least two nodes")
    d = np.diff(x)
    per_node = np.empty(x.size)
    per_node[0] = d[0]
    per_node[-1] = d[-1]
    if x.size > 2:
        per_node[1:-1] = np.minimum(d[:-1], d[1:])
    return per_node


def write_matrix_csv(M, target):
    """Dump a real square matrix as CSV, one row per line, 17 significant digits."""
    M = as_square(M, real=True)
    header = [f"c{j}" for j in range(M.shape[1])]
    write_csv(target, header, ([float(v) for v in row] for row in M))

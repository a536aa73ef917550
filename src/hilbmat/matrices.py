"""Constructors for the structured matrices of the weighted Hilbert family.

Builders return plain float64 ndarrays, except that ``toeplitz_from_symbol``
returns a complex matrix for a complex ``symbols.SymbolSeries``.  The Cauchy
builders divide the full outer product c_m c_n by the node differences
x_m - x_n in one pass and set the diagonal to +0.0, so the two triangles
are exact negations of each other, signed zeros included; every
Toeplitz-family matrix is a ``ToeplitzOperator`` held as its offset
coefficients c_{-(R-1)}, .., c_{R-1}, and the skew Hilbert matrix T_R takes
c_{-r} = -c_r from the closed form 1/r.  Either way ``M.T == -M`` and
``M.diagonal() == 0`` hold exactly rather than to roundoff.  The symmetric
Hilbert matrix H_R is written once, as ``ToeplitzOperator.hankel``: H_R with
its columns reversed, a Toeplitz matrix.  ``hilbert_parity_block`` is the
half-size block of T_R between its J-even and J-odd vectors (J reverses the
index order), on which the norm of T_R is solved, and
``HilbertParityOperator`` its matrix-free twin.  A real operator's
matrix-free product T x goes through one circulant spectrum, built on its
first matvec at the 5-smooth FFT length ``_fast_len(2R - 1)`` with
``numpy.fft.rfft``; a complex one has only its dense build.  The parity
twin applies the Toeplitz-plus-Hankel block C and C^T directly, each
through one transform pair at ``_fast_len(R - 1)``, about half the length
of a full T_R product; both place coefficients at their offsets mod the
FFT length through one helper, ``_offset_spectrum``.  Node vectors
must be strictly increasing; sorting is the caller's job, which keeps
``min_gaps`` (an array of nearest-neighbour distances) O(R) and sign
conventions unambiguous.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._util import write_csv

# Everything here is dense and desk-scale; refuse accidental monsters.
MAX_DIM = 20000

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


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


def as_dim(R, cap=MAX_DIM) -> int:
    """Validate a matrix dimension: an integer with 1 <= R <= cap; matrix-free
    sizes pass ``cap=None``, which sets no upper bound."""
    if not isinstance(R, (int, np.integer)):
        raise ValueError("dimension must be an integer")
    if R < 1:
        raise ValueError("dimension must be >= 1")
    if cap is not None and R > cap:
        raise ValueError(f"dimension exceeds the size cap of {cap}")
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


def skew_quotient(numerator, x) -> np.ndarray:
    """numerator / (x_m - x_n), diagonal zeroed, on nodes x taken as given:
    x must already have passed ``as_nodes``, which is not run again here."""
    # the diagonal's 0/0 (or c_m^2/0) is overwritten with +0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        M = numerator / np.subtract.outer(x, x)
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
    c = as_weights(c, x.size)
    return skew_quotient(np.multiply.outer(c, c), x)


def _fast_len(m: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c >= m, a length that pocketfft
    transforms fast; below 30000 it is scipy.fft.next_fast_len(m, real=True)."""
    best = 1 << (m - 1).bit_length()  # the least power of two >= m
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < m:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _offset_spectrum(values, offsets, n: int) -> np.ndarray:
    """rfft of the length-n vector that holds values[k] at offsets[k] mod n
    and zeros elsewhere; the offsets must be distinct mod n."""
    column = np.zeros(n)
    column[np.asarray(offsets) % n] = values
    return np.fft.rfft(column)


class ToeplitzOperator:
    """Toeplitz matrix of size R held as its 2R - 1 offset coefficients
    c_{-(R-1)}, .., c_{R-1}: entry (m, n) = c_{m-n} = ``coeffs[R-1 + m - n]``.

    ``dense()`` assembles the R x R matrix; ``matvec(x)`` applies a real
    operator to a real or complex vector of length R in O(R log R) by
    circulant embedding.  The embedding's spectrum is built once per
    operator, on the first matvec, at the FFT length ``_fast_len(2R - 1)``;
    each matvec then costs one forward and one inverse ``numpy.fft`` real
    transform of x.
    """

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs)
        if coeffs.ndim != 1 or coeffs.size % 2 == 0:
            raise ValueError("Toeplitz coefficients must be a 1-D array of odd length 2R - 1")
        self.coeffs = coeffs
        self.R = (coeffs.size + 1) // 2
        self._product = None  # built by the first matvec

    @classmethod
    def hilbert(cls, R: int) -> "ToeplitzOperator":
        """Skew Hilbert matrix T_R: c_r = 1/r, c_0 = 0.

        Matrix-free use is not bound by the dense size cap MAX_DIM.
        """
        R = as_dim(R, cap=None)
        return cls(hilbert_coeffs(np.arange(1 - R, R)))

    @classmethod
    def hankel(cls, R: int) -> "ToeplitzOperator":
        """H_R with its columns reversed, H_R = T J (J reverses the index
        order): c_r = 1/(R + r), so coeffs = 1, 1/2, .., 1/(2R-1).

        Matrix-free use is not bound by the dense size cap MAX_DIM.
        """
        return cls(1.0 / np.arange(1, 2 * as_dim(R, cap=None), dtype=float))

    def dense(self) -> np.ndarray:
        """The R x R matrix as a fresh C-contiguous array, copied from a
        strided view of coeffs that reads entry (m, n) at coeffs[R-1 + m - n]."""
        step = self.coeffs.strides[0]
        return as_strided(self.coeffs[self.R - 1:], shape=(self.R, self.R),
                          strides=(step, -step)).copy()

    def _circulant_product(self):
        """x -> T x through the circulant of fast length n >= 2R - 1 whose
        first column holds c_r at r mod n: its leading R x R block is T.  Its
        spectrum is taken once, here; a complex x is applied by its real and
        imaginary parts."""
        if np.iscomplexobj(self.coeffs):
            raise ValueError("matvec needs a real operator; a complex Toeplitz matrix "
                             "has only its dense build")
        R = self.R
        n = _fast_len(2 * R - 1)
        spectrum = _offset_spectrum(self.coeffs, np.arange(1 - R, R), n)

        def apply(x):
            if np.iscomplexobj(x):
                return apply(x.real) + 1j * apply(x.imag)
            return np.fft.irfft(spectrum * np.fft.rfft(x, n), n)[:R]
        return apply

    def matvec(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.R,):
            raise ValueError(f"matvec needs a 1-D vector of length {self.R}, "
                             f"got shape {x.shape}")
        if self._product is None:
            self._product = self._circulant_product()
        return self._product(x)


def hilbert_toeplitz(R) -> np.ndarray:
    """Finite skew Hilbert matrix: entries 1/(m - n), equal nodes 1..R."""
    return ToeplitzOperator.hilbert(as_dim(R)).dense()


def hilbert_hankel(R) -> np.ndarray:
    """Finite symmetric Hilbert matrix: entries 1/(m + n - 1), the dense
    ``ToeplitzOperator.hankel`` with its columns reversed."""
    return ToeplitzOperator.hankel(as_dim(R)).dense()[:, ::-1]


def hilbert_parity_block(R) -> np.ndarray:
    """The floor(R/2) x ceil(R/2) block C that maps J-even to J-odd vectors
    under the skew Hilbert matrix T_R (J reverses the index order).

    T_R is skew-centrosymmetric, J T_R J = -T_R, so in the orthonormal bases
    (e_i + e_{R-1-i})/sqrt2 (with e_mid appended for odd R) and
    (e_i - e_{R-1-i})/sqrt2 it splits as [[0, -C^T], [C, 0]] (Cantoni and
    Butler, Linear Algebra Appl. 13 (1976) 275-288), and ||T_R|| = sigma_max(C).
    Entries C[i, j] = 1/(i-j) + 1/(i+j-R+1), the diagonal term being 0; for
    odd R the last (middle) column is sqrt2/(i - (R-1)/2).  Both terms are
    strided views of one coefficient vector each, c(i - j) read at offset
    n - 1 + i - j and c(i + j - (R-1)) at i + j, so no index grid is built.
    """
    R = as_dim(R)
    h, n = R // 2, (R + 1) // 2
    toeplitz = hilbert_coeffs(np.arange(1 - n, h))
    hankel = hilbert_coeffs(np.arange(1 - R, 0))
    step = toeplitz.strides[0]
    C = (as_strided(toeplitz[n - 1:], shape=(h, n), strides=(step, -step))
         + as_strided(hankel, shape=(h, n), strides=(step, step)))
    if n > h:
        C[:, h] = np.sqrt(2.0) * toeplitz[:h]
    return C


class HilbertParityOperator:
    """Matrix-free ``hilbert_parity_block(R)``: C x and C^T z for real
    vectors in O(R log R), each through one forward and one inverse real
    transform at the FFT length N = ``_fast_len(R - 1)``.

    C = (T + H) D with the Toeplitz part T[i, j] = c(i - j), the Hankel part
    H[i, j] = c(i + j - (R-1)), c(r) = 1/r, and D scaling the middle entry
    by 1/sqrt2 for odd R.  Both parts fit one circulant of length N >= R - 1:
    with X = rfft(D x, N), C x = irfft(A X + B conj(X), N)[:floor(R/2)],
    where A is the spectrum of c(r) placed at r mod N and B that of
    c(s - (R-1)) placed at s = i + j, 0 <= s <= R - 2; conj(X) is the
    spectrum of the cyclic reversal of D x, so B conj(X) is the Hankel
    product with no phase factor.  C^T z = D irfft(conj(A) Z + B conj(Z),
    N)[:ceil(R/2)] for Z = rfft(z, N), conj(A) being the spectrum of the
    reversed Toeplitz part.  A and B are built on the first product.
    ``lift`` maps block vectors back to length R.  Matrix-free use is not
    bound by the dense size cap MAX_DIM.
    """

    def __init__(self, R: int):
        R = as_dim(R, cap=None)
        self.R = R
        self.shape = (R // 2, (R + 1) // 2)
        self._spectra = None  # (N, A, conj(A), B), built by the first product

    def _checked(self, x, size: int) -> np.ndarray:
        """x as an array, which must be a 1-D vector of length ``size``."""
        x = np.asarray(x)
        if x.shape != (size,):
            raise ValueError(f"parity lift needs a 1-D vector of length {size}, "
                             f"got shape {x.shape}")
        return x

    def _build_spectra(self):
        h, n = self.shape
        N = _fast_len(self.R - 1)
        r = np.arange(1 - n, h)  # Toeplitz offsets i - j
        s = np.arange(self.R - 1)  # Hankel sums i + j
        A = _offset_spectrum(hilbert_coeffs(r), r, N)
        return N, A, np.conj(A), _offset_spectrum(hilbert_coeffs(s - (self.R - 1)), s, N)

    def _product(self, v, transpose: bool, size: int) -> np.ndarray:
        if self._spectra is None:
            self._spectra = self._build_spectra()
        N, A, A_reversed, B = self._spectra
        V = np.fft.rfft(v, N)
        return np.fft.irfft((A_reversed if transpose else A) * V + B * np.conj(V), N)[:size]

    def lift(self, x, sign: float) -> np.ndarray:
        """The R-vector P_e x (sign = 1, x of length ceil(R/2)) or P_o x
        (sign = -1, length floor(R/2)): sum_i x_i (e_i + sign e_{R-1-i})/sqrt2
        over i < R // 2, plus x_mid e_mid for the middle entry of an odd R."""
        R, h = self.R, self.R // 2
        size = self.shape[1] if sign > 0 else h
        x = self._checked(x, size)
        y = np.zeros(R)
        y[:h] = x[:h] * _INV_SQRT2
        y[::-1][:h] = sign * y[:h]
        if size > h:
            y[h] = x[h]
        return y

    def matvec(self, x) -> np.ndarray:
        """C x for a real vector x of length ceil(R/2)."""
        h, n = self.shape
        x = self._checked(x, n)
        if n > h:
            x = x.astype(float)
            x[h] *= _INV_SQRT2
        return self._product(x, False, h)

    def rmatvec(self, z) -> np.ndarray:
        """C^T z for a real vector z of length floor(R/2)."""
        h, n = self.shape
        y = self._product(self._checked(z, h), True, n)
        if n > h:
            y[h] *= _INV_SQRT2
        return y


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
    R = M.shape[0]
    if not 1 <= n <= R:
        raise ValueError(f"index {n} out of range 1..{R}")
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
    """Dump a real matrix as CSV, one row per line, 17 significant digits."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        raise ValueError("CSV dump supports real matrices only")
    header = [f"c{j}" for j in range(M.shape[1])]
    write_csv(target, header, ([float(v) for v in row] for row in M))

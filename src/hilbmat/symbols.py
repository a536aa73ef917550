"""Toeplitz symbol machinery: symbols, quadratic forms, convergence rates.

A symbol is a Fourier series f(x) = sum_r c_r exp(i r x) on [0, 2*pi];
``matrices.toeplitz_from_symbol`` builds its Toeplitz matrix, entry
(m, n) = c_{m-n}.  A closed-form ``SymbolSeries`` gives c_r at every
offset; only a trigonometric polynomial holds c_{-K}, .., c_K, and its
c_r = 0 for |r| > K.  For any unit coefficient
vector u, the trigonometric polynomial phi(x) = (2*pi)^(-1/2) sum_n u_n
e^{i(n-1)x} satisfies u* C_R u = integral of f |phi|^2 (quadratic-form
identity), and this module evaluates the integral side independently of the
matrix side: by exact uniform-grid quadrature when f is a trigonometric
polynomial, and by exact piecewise antiderivatives against the Fourier
expansion of |phi|^2 for the two discontinuous closed forms (the sawtooth
symbol of the skew Hilbert matrix and the band indicator of the prolate
matrix), where generic quadrature would suffer from the Gibbs phenomenon.

Sign note: with the (m, n) = c_{m-n} convention, the coefficients c_r = 1/r
generate exactly the skew Hilbert matrix, and the corresponding closed-form
symbol is i*(pi - x) on (0, 2*pi), vanishing at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import write_csv
from .matrices import as_dim, hilbert_coeffs, prolate_coeffs, prolate_matrix, toeplitz_from_symbol
from .spectra import spectral_norm

# Uniform-grid quadrature on [0, 2*pi] is exact for trigonometric polynomials
# of degree < number of points; f |phi|^2 has degree K + R - 1, and
# 8 max(R, K) + 64 points leave margin over it.
GRID_POINTS_PER_DIM = 8
GRID_POINTS_EXTRA = 64

# Double precision floor for gap measurements pi - |largest eigenvalue|.
GAP_FLOOR = 1e-13

# Grid on which _smooth_symbol_peak locates the maximum before Newton refines it.
_PEAK_GRID_POINTS = 8192


def _as_offsets(r) -> np.ndarray:
    r = np.asarray(r)
    if not np.issubdtype(r.dtype, np.integer) and not np.all(
            np.isfinite(r) & (np.floor(r) == r)):
        raise ValueError("coefficient offsets must be integers")
    return r.astype(np.int64)


@dataclass(frozen=True, eq=False)
class SymbolSeries:
    """A closed-form symbol, or a trigonometric polynomial given by its
    Fourier coefficients c_{-K}, .., c_K.

    ``kind`` names a closed form, evaluated exactly and at every offset:
    "hilbert" (sawtooth i*(pi - x)) or "prolate" (band indicator of height
    pi, bandwidth parameter ``w``, 0 < w < 1/2); it takes no ``coeffs``.  An
    untagged series (``kind`` None) is the trigonometric polynomial
    sum_{|r| <= K} c_r e^{irx}: ``coeffs`` holds its finite c_r in the
    ``ToeplitzOperator`` layout, c_r = coeffs[K + r], and c_r = 0 beyond.
    """

    coeffs: np.ndarray | None = None
    kind: str | None = None
    w: float | None = None

    def __post_init__(self):
        if self.kind not in (None, "hilbert", "prolate"):
            raise ValueError(f"symbol kind must be 'hilbert', 'prolate' or None, not {self.kind!r}")
        if self.kind is not None and self.coeffs is not None:
            raise ValueError(f"a {self.kind} symbol is its closed form and takes no coefficients")
        if self.kind != "prolate" and self.w is not None:
            raise ValueError("only a prolate symbol takes a bandwidth w")
        if self.kind == "prolate":
            prolate_coeffs(0, self.w)  # the one bandwidth rule
        if self.kind is None:
            coeffs = np.asarray(self.coeffs)
            if coeffs.ndim != 1 or coeffs.size % 2 == 0:
                raise ValueError("symbol coefficients must be a 1-D array of odd length 2K + 1")
            if not np.all(np.isfinite(coeffs)):
                raise ValueError("symbol coefficients must be finite")
            object.__setattr__(self, "coeffs", coeffs)

    @property
    def K(self) -> int:
        """Band half-width of an untagged series; a closed form has none."""
        if self.kind is not None:
            raise ValueError(f"a {self.kind} symbol is its closed form and has no band K")
        return self.coeffs.size // 2

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs) -> "SymbolSeries":
        """The trigonometric polynomial of a mapping r -> c_r; K is the largest |r|."""
        offsets = _as_offsets(list(coeffs))
        K = int(np.abs(offsets).max(initial=0))
        vector = np.zeros(2 * K + 1, dtype=complex)
        vector[K + offsets] = [complex(v) for v in coeffs.values()]
        return cls(vector)

    @classmethod
    def hilbert(cls) -> "SymbolSeries":
        return cls(kind="hilbert")

    @classmethod
    def prolate(cls, w: float) -> "SymbolSeries":
        return cls(kind="prolate", w=w)

    @classmethod
    def cosine(cls) -> "SymbolSeries":
        return cls(np.array([1.0, 0.0, 1.0]))

    @classmethod
    def constant(cls, c0) -> "SymbolSeries":
        return cls(np.array([complex(c0)]))

    # -- coefficient access --------------------------------------------------

    def coeff(self, r):
        """c_r at an integer offset r, or elementwise at an integer array of
        offsets (a scalar for a scalar r).  A hilbert or prolate series takes
        every offset from its closed form; an untagged series is 0 beyond its
        band.  A non-integral offset is a ValueError."""
        r = _as_offsets(r)
        if self.kind == "hilbert":
            out = hilbert_coeffs(r)
        elif self.kind == "prolate":
            out = prolate_coeffs(r, self.w)
        else:
            out = np.where(np.abs(r) > self.K, 0.0,
                           self.coeffs[np.clip(r, -self.K, self.K) + self.K])
        return out if out.ndim else out.item()

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """Symbol value(s) at x in [0, 2*pi]: the closed form of a hilbert or
        prolate series, the coefficient sum otherwise."""
        x = np.asarray(x, dtype=float)
        if not np.all((0.0 <= x) & (x <= 2.0 * np.pi)):
            raise ValueError("x must lie in [0, 2*pi]")
        if self.kind == "hilbert":
            interior = (x > 0.0) & (x < 2.0 * np.pi)
            out = np.where(interior, 1j * (np.pi - x), 0.0 + 0.0j)
        elif self.kind == "prolate":
            band = (x <= 2.0 * np.pi * self.w) | (x >= 2.0 * np.pi * (1.0 - self.w))
            out = np.where(band, np.pi, 0.0).astype(complex)
        else:
            out = np.zeros_like(x, dtype=complex)
            # c_{-r} is added right after c_r, so a real even symbol sums to a real value
            for r in sorted(np.flatnonzero(self.coeffs) - self.K, key=lambda r: (abs(r), -r)):
                out += self.coeffs[self.K + r] * np.exp(1j * int(r) * x)
        return out if out.ndim else complex(out)


# ---------------------------------------------------------------------------
# Trigonometric polynomials phi built from unit coefficient vectors.
# ---------------------------------------------------------------------------


def phi_values(u, x):
    """phi(x) = (2*pi)^(-1/2) sum_n u_n exp(i (n-1) x), vectorized in x."""
    u = np.asarray(u, dtype=complex)
    x = np.asarray(x, dtype=float)
    n = np.arange(u.size)
    return np.exp(1j * np.outer(x, n)) @ u / np.sqrt(2.0 * np.pi)


def phi_sq_fourier(u):
    """Fourier coefficients d_k of |phi|^2 for k = -(R-1) .. R-1.

    |phi(x)|^2 = sum_k d_k exp(i k x) with d_k = (2*pi)^(-1)
    sum_m u_m conj(u_{m-k}); returned as (offsets, coefficients).
    """
    u = np.asarray(u, dtype=complex)
    R = u.size
    s = np.correlate(u, u, mode="full")  # s[R-1+k] = sum_m u_{m+k} conj(u_m)
    offsets = np.arange(-(R - 1), R)
    return offsets, s / (2.0 * np.pi)


def grid_quadrature(series: SymbolSeries, u) -> complex:
    """Uniform-grid value of the integral of f |phi|^2 over [0, 2*pi].

    Exact to roundoff for a trigonometric polynomial f: the grid of
    8 max(R, K) + 64 points has more points than the integrand degree
    K + R - 1; a closed form is a ValueError.  phi is evaluated on the grid
    by one zero-padded inverse FFT of u; ``phi_values`` is its definition.
    """
    if series.kind is not None:
        raise ValueError("grid_quadrature needs a trigonometric polynomial, "
                         f"not the {series.kind} closed form")
    u = np.asarray(u, dtype=complex)
    npoints = GRID_POINTS_PER_DIM * max(u.size, series.K) + GRID_POINTS_EXTRA
    x = 2.0 * np.pi * np.arange(npoints) / npoints
    fx = series.eval(x)
    phi = npoints * np.fft.ifft(u, npoints) / np.sqrt(2.0 * np.pi)
    return complex(np.sum(fx * np.abs(phi) ** 2) * (2.0 * np.pi / npoints))


def _exact_hilbert_integral(u) -> complex:
    # integral of i*(pi - x) e^{ikx} over [0, 2*pi] is -2*pi/k for k != 0, 0 at k = 0
    offsets, d = phi_sq_fourier(u)
    nz = offsets != 0
    return complex(np.sum(d[nz] * (-2.0 * np.pi / offsets[nz])))


def _interval_exp_integral(k: np.ndarray, a: float, b: float) -> np.ndarray:
    out = np.empty(k.shape, dtype=complex)
    nz = k != 0
    kk = k[nz]
    out[nz] = (np.exp(1j * kk * b) - np.exp(1j * kk * a)) / (1j * kk)
    out[~nz] = b - a
    return out


def _exact_prolate_integral(w: float, u) -> complex:
    offsets, d = phi_sq_fourier(u)
    k = offsets.astype(float)
    part1 = _interval_exp_integral(k, 0.0, 2.0 * np.pi * w)
    part2 = _interval_exp_integral(k, 2.0 * np.pi * (1.0 - w), 2.0 * np.pi)
    return complex(np.pi * np.sum(d * (part1 + part2)))


def integral_side(series: SymbolSeries, u) -> complex:
    """Integral of f |phi|^2 over [0, 2*pi], by the appropriate exact route."""
    if series.kind == "hilbert":
        return _exact_hilbert_integral(u)
    if series.kind == "prolate":
        return _exact_prolate_integral(series.w, u)
    return grid_quadrature(series, u)


def quadratic_form(series: SymbolSeries, u):
    """Both sides of the quadratic-form identity u* C_R u = integral f |phi|^2.

    Returns ``(matrix_side, integral_side)``; C_R is built from the series.
    """
    u = np.asarray(u, dtype=complex)
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > 1e-10:
        raise ValueError("coefficient vector must have unit Euclidean norm")
    C = toeplitz_from_symbol(series, u.size)
    matrix = complex(np.vdot(u, C @ u))
    return matrix, integral_side(series, u)


# ---------------------------------------------------------------------------
# Convergence-rate experiments.
# ---------------------------------------------------------------------------


def _smooth_symbol_peak(series: SymbolSeries):
    """(max value, argmax, second derivative) of a smooth real symbol.

    Returns None when the symbol is degenerate for the rate law (vanishing
    curvature at the peak, e.g. a constant symbol).
    """
    x = np.linspace(0.0, 2.0 * np.pi, _PEAK_GRID_POINTS, endpoint=False)
    fx = series.eval(x).real
    j = int(np.argmax(fx))
    x0 = float(x[j])
    # Newton refinement on f' using the analytic derivatives of the series.
    rs = np.arange(-series.K, series.K + 1)
    cs = series.coeffs
    for _ in range(60):
        e = np.exp(1j * rs * x0)
        d1 = float(np.sum(1j * rs * cs * e).real)
        d2 = float(np.sum(-(rs**2) * cs * e).real)
        if d2 == 0.0:
            break
        step = d1 / d2
        x0 -= step
        if abs(step) < 1e-14:
            break
    e = np.exp(1j * rs * x0)
    fmax = float(np.sum(cs * e).real)
    fpp = float(np.sum(-(rs**2) * cs * e).real)
    if abs(fpp) < 1e-9 * max(1.0, abs(fmax)):
        return None
    return fmax, x0 % (2.0 * np.pi), fpp


def gs_rate_check(series: SymbolSeries, R_list):
    """Spectral-norm convergence rate table for a smooth real symbol.

    The symbol is the trigonometric polynomial of an untagged series.  For a
    symbol with a unique quadratic maximum the gap max f - ||C_R|| behaves
    like pi^2 |f''(x0)| / (2 R^2).  Returns ``(rows, peak)`` where rows are
    (R, gap, predicted, ratio) and peak is the (max, argmax, f'') triple, or
    ``(None, None)`` when the symbol is degenerate for the rate law.  A
    closed-form (hilbert or prolate) series, a symbol that is not real
    (c_{-r} != conj(c_r) for some r), an empty ``R_list`` and a size that
    ``matrices.as_dim`` refuses are each a ValueError before any solve.
    """
    if series.kind is not None:
        raise ValueError("gs_rate_check needs a trigonometric polynomial, "
                         f"not the {series.kind} closed form")
    if len(R_list) == 0:
        raise ValueError("R_list must not be empty")
    R_list = [as_dim(R) for R in R_list]
    if not np.array_equal(series.coeffs[::-1], np.conj(series.coeffs)):
        raise ValueError("gs_rate_check needs a real symbol: c_{-r} must equal conj(c_r)")
    peak = _smooth_symbol_peak(series)
    if peak is None:
        return None, None
    fmax, x0, fpp = peak
    rows = []
    for R in R_list:
        norm = spectral_norm(toeplitz_from_symbol(series, R))
        gap = fmax - norm
        predicted = np.pi**2 * abs(fpp) / (2.0 * R**2)
        rows.append((R, float(gap), float(predicted), float(gap / predicted)))
    return rows, peak


def prolate_gap(w: float, R_list):
    """Gaps pi - ||P_R|| for the prolate matrix, plus a log-linear decay fit.

    The gap decays exponentially in R and crosses the double-precision floor
    quickly (by R of a few dozen for moderate w); rows beyond the floor carry
    NaN log-gaps and are excluded from the slope fit.  Returns
    ``(rows, slope)`` with rows (R, gap, log_gap); slope is None when fewer
    than two rows stay above the floor.  A bad w, an empty ``R_list`` and a
    size ``matrices.as_dim`` refuses are each a ValueError before any solve.
    """
    prolate_coeffs(0, w)  # rejects a bad bandwidth before any solve
    if len(R_list) == 0:
        raise ValueError("R_list must not be empty")
    rows = []
    for R in [as_dim(r) for r in R_list]:
        norm = spectral_norm(prolate_matrix(R, w))
        gap = float(np.pi - norm)
        log_gap = float(np.log(gap)) if gap > GAP_FLOOR else float("nan")
        rows.append((R, gap, log_gap))
    valid = [(R, lg) for R, _, lg in rows if np.isfinite(lg)]
    slope = None
    if len(valid) >= 2:
        Rs = np.array([v[0] for v in valid], dtype=float)
        lgs = np.array([v[1] for v in valid])
        slope = float(np.polyfit(Rs, lgs, 1)[0])
    return rows, slope


def write_gs_rate_csv(rows, target):
    write_csv(target, ["R", "gap", "predicted", "ratio"], rows)


def write_prolate_csv(rows, target):
    write_csv(target, ["R", "gap", "log_gap"], rows)

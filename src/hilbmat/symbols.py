"""Toeplitz symbol machinery: symbols, quadratic forms, convergence rates.

A symbol is a Fourier series f(x) = sum_r c_r exp(i r x) on [0, 2*pi]; its
Toeplitz matrix has entry (m, n) = c_{m-n}.  For any unit coefficient vector
u, the trigonometric polynomial phi(x) = (2*pi)^(-1/2) sum_n u_n e^{i(n-1)x}
satisfies  u* C_R u = integral of f |phi|^2  (quadratic-form identity), and
this module evaluates the integral side independently of the matrix side:
by exact uniform-grid quadrature when f is a finite trigonometric
polynomial, and by exact piecewise antiderivatives against the Fourier
expansion of |phi|^2 for the two discontinuous closed forms (the sawtooth
symbol of the skew Hilbert matrix and the band indicator of the prolate
matrix), where generic quadrature would suffer from the Gibbs phenomenon.

Sign note: with the (m, n) = c_{m-n} convention, the coefficients c_r = 1/r
generate exactly the skew Hilbert matrix, and the corresponding closed-form
symbol is i*(pi - x) on (0, 2*pi), vanishing at the endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import write_csv
from .matrices import hilbert_coeffs, prolate_coeffs, prolate_matrix, toeplitz_from_symbol
from .spectra import spectral_norm

# Uniform-grid quadrature on [0, 2*pi] is exact for trigonometric polynomials
# of degree < number of points; 8R + 64 leaves margin over degree 2(R-1)
# integrands plus symbol truncation.
GRID_POINTS_PER_DIM = 8
GRID_POINTS_EXTRA = 64

# Double precision floor for gap measurements pi - |largest eigenvalue|.
GAP_FLOOR = 1e-13

# Grid on which _smooth_symbol_peak locates the maximum before Newton refines it.
_PEAK_GRID_POINTS = 8192


@dataclass(frozen=True)
class SymbolSeries:
    """Fourier coefficients c_r for |r| <= K, optionally with a closed form.

    ``kind`` tags a closed form: "hilbert" (sawtooth i*(pi - x)) and
    "prolate" (band indicator of height pi, bandwidth parameter ``w``) are
    evaluated exactly; "cosine" (2 cos x) and "constant" are finite, so their
    coefficient sum is already exact.  Tagged series can extend their
    coefficient band on demand; untagged series are undefined beyond K.
    """

    coeffs: dict
    K: int
    kind: str | None = None
    w: float | None = field(default=None)

    def __post_init__(self):
        if self.K < 0:
            raise ValueError("coefficient band K must be >= 0")
        for r in self.coeffs:
            if abs(int(r)) > self.K:
                raise ValueError(f"coefficient index {r} outside band |r| <= {self.K}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_coeffs(cls, coeffs, K=None) -> "SymbolSeries":
        coeffs = {int(r): complex(v) for r, v in coeffs.items()}
        if K is None:
            K = max((abs(r) for r in coeffs), default=0)
        return cls(coeffs=coeffs, K=int(K))

    @classmethod
    def hilbert(cls, K: int) -> "SymbolSeries":
        r = np.arange(-K, K + 1)
        coeffs = dict(zip(r.tolist(), hilbert_coeffs(r).tolist()))
        return cls(coeffs=coeffs, K=K, kind="hilbert")

    @classmethod
    def prolate(cls, w: float, K: int) -> "SymbolSeries":
        r = np.arange(-K, K + 1)
        coeffs = dict(zip(r.tolist(), prolate_coeffs(r, w).tolist()))
        return cls(coeffs=coeffs, K=K, kind="prolate", w=w)

    @classmethod
    def cosine(cls) -> "SymbolSeries":
        return cls(coeffs={1: 1.0, -1: 1.0}, K=1, kind="cosine")

    @classmethod
    def constant(cls, c0) -> "SymbolSeries":
        return cls(coeffs={0: complex(c0)}, K=0, kind="constant")

    # -- coefficient access --------------------------------------------------

    def coeff(self, r):
        """c_r at an integer offset r, or elementwise at an integer array of
        offsets (a scalar for a scalar r).  A hilbert or prolate series takes
        every offset from its closed form; the finite kinds are 0 beyond the
        band, and an untagged series is undefined there.  A non-integral
        offset is a ValueError."""
        r = np.asarray(r)
        if not np.issubdtype(r.dtype, np.integer) and not np.all(
                np.isfinite(r) & (np.floor(r) == r)):
            raise ValueError("coefficient offsets must be integers")
        r = r.astype(np.int64)
        if self.kind == "hilbert":
            out = hilbert_coeffs(r)
        elif self.kind == "prolate":
            out = prolate_coeffs(r, self.w)
        else:
            outside = np.abs(r) > self.K
            if self.kind not in ("cosine", "constant") and outside.any():
                raise ValueError(f"coefficient c_{r[outside].flat[0]} undefined: band is "
                                 f"|r| <= {self.K} and no closed form")
            band = np.array([self.coeffs.get(k, 0.0) for k in range(-self.K, self.K + 1)])
            out = np.where(outside, 0.0, band[np.clip(r, -self.K, self.K) + self.K])
        return out if out.ndim else out.item()

    # -- evaluation ----------------------------------------------------------

    def eval(self, x):
        """Symbol value(s) at x in [0, 2*pi]: the closed form of a hilbert or
        prolate series, the coefficient sum otherwise."""
        x = np.asarray(x, dtype=float)
        if np.any((x < 0.0) | (x > 2.0 * np.pi)):
            raise ValueError("x must lie in [0, 2*pi]")
        if self.kind == "hilbert":
            out = 1j * (np.pi - x)
            interior = (x > 0.0) & (x < 2.0 * np.pi)
            out = np.where(interior, out, 0.0 + 0.0j)
            return out if out.ndim else complex(out)
        if self.kind == "prolate":
            band = (x <= 2.0 * np.pi * self.w) | (x >= 2.0 * np.pi * (1.0 - self.w))
            out = np.where(band, np.pi, 0.0).astype(complex)
            return out if out.ndim else complex(out)
        out = np.zeros_like(x, dtype=complex)
        for r, c in self.coeffs.items():
            out += c * np.exp(1j * r * x)
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


def grid_quadrature(series: SymbolSeries, u, npoints=None) -> complex:
    """Uniform-grid value of the integral of f |phi|^2 over [0, 2*pi].

    Exact to roundoff whenever f is a trigonometric polynomial and the grid
    has more points than the integrand degree.
    """
    u = np.asarray(u, dtype=complex)
    R = u.size
    if npoints is None:
        npoints = GRID_POINTS_PER_DIM * R + GRID_POINTS_EXTRA
    x = 2.0 * np.pi * np.arange(npoints) / npoints
    fx = series.eval(x)
    px = np.abs(phi_values(u, x)) ** 2
    return complex(np.sum(fx * px) * (2.0 * np.pi / npoints))


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
    cs = series.coeff(rs)
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

    For a twice-differentiable symbol with a unique quadratic maximum the gap
    max f - ||C_R|| behaves like pi^2 |f''(x0)| / (2 R^2).  Returns
    ``(rows, peak)`` where rows are (R, gap, predicted, ratio) and peak is
    the (max, argmax, f'') triple, or ``(None, None)`` when the symbol is
    degenerate for the rate law.
    """
    peak = _smooth_symbol_peak(series)
    if peak is None:
        return None, None
    fmax, x0, fpp = peak
    rows = []
    for R in R_list:
        # the symbol under study is the finite polynomial itself, so
        # coefficients beyond the band are exact zeros
        C = toeplitz_from_symbol(dict(series.coeffs), int(R))
        norm = spectral_norm(C)
        gap = fmax - norm
        predicted = np.pi**2 * abs(fpp) / (2.0 * R**2)
        rows.append((int(R), float(gap), float(predicted), float(gap / predicted)))
    return rows, peak


def prolate_gap(w: float, R_list):
    """Gaps pi - ||P_R|| for the prolate matrix, plus a log-linear decay fit.

    The gap decays exponentially in R and crosses the double-precision floor
    quickly (by R of a few dozen for moderate w); rows beyond the floor carry
    NaN log-gaps and are excluded from the slope fit.  Returns
    ``(rows, slope)`` with rows (R, gap, log_gap); slope is None when fewer
    than two rows stay above the floor.
    """
    prolate_coeffs(0, w)  # rejects a bad bandwidth before any solve
    if len(R_list) == 0:
        raise ValueError("R_list must not be empty")
    rows = []
    for R in R_list:
        norm = spectral_norm(prolate_matrix(int(R), w))
        gap = float(np.pi - norm)
        log_gap = float(np.log(gap)) if gap > GAP_FLOOR else float("nan")
        rows.append((int(R), gap, log_gap))
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

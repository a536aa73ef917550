"""Spectral-gap experiments for the classical Hilbert matrices.

The skew Hilbert matrix norm approaches pi from below; the gap pi - ||T_R||
is bracketed between pi/(2R) and (pi e log R + 2 pi e^3)/R.  The upper
bracket is certified constructively: a unit coefficient vector built from
powers of the Dirichlet kernel concentrates its trigonometric polynomial
near x = 0, and its tail energy bounds the Rayleigh quotient.  The kernel
coefficients are exact integers and every integral is analytic, so the
certificate is quadrature-free.  T_R is real skew, so the witness u = x + iy
has u* T_R u = 2i x^T T_R y, one real product; that and the sums are float64,
so the certificate is not interval-rigorous.  ``check_witness`` holds its five
inequalities with no slack; the gap lower bounds carry INEQ_SLACK.

The Hankel Hilbert matrix converges far more slowly (like 1/log^2 R), which
the hankel sweep records without asserting any constant-level agreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import write_csv
from .matrices import ToeplitzOperator, as_dim, as_int
from .reports import INEQ_SLACK, ResidualReport, residual_report
from .spectra import hankel_hilbert_norm, toeplitz_hilbert_norm


def _toeplitz_gap_row(R: int) -> tuple:
    """Row (R, norm, gap, rescaled_gap) of the figure-1 table from one solve
    of ||T_R||; the rescaled gap is NaN below R = 2, where log R is 0."""
    norm = toeplitz_hilbert_norm(R)
    gap = float(np.pi - norm)
    return R, norm, gap, gap * R / math.log(R) if R >= 2 else math.nan


def hilbert_toeplitz_gap(R: int) -> float:
    """Gap pi - ||T_R||; strictly positive and decreasing in R."""
    return _toeplitz_gap_row(R)[2]


def rescaled_gap(R: int) -> float:
    """(pi - ||T_R||) * R / log R, the quantity conjectured to flatten."""
    R = as_dim(R)
    if R < 2:
        raise ValueError("rescaled gap needs R >= 2 (log R > 0)")
    return _toeplitz_gap_row(R)[3]


def _hankel_gap_row(R: int) -> tuple:
    """Row (R, norm, gap, ratio) of the Hankel table from one solve of
    ||H_R||; the ratio against pi^5 / (2 log^2 R) is NaN below R = 2."""
    norm = hankel_hilbert_norm(R)
    gap = float(np.pi - norm)
    return R, norm, gap, gap / (np.pi**5 / (2.0 * math.log(R) ** 2)) if R >= 2 else math.nan


def hilbert_hankel_gap(R: int):
    """Gap pi - ||H_R|| plus the ratio against pi^5 / (2 log^2 R), NaN at R = 1.

    The ratio is informational only: the 1/log^2 asymptotic regime is far
    beyond desk scale, so no constant-level agreement is asserted anywhere.
    """
    return _hankel_gap_row(R)[2:]


def check_odd_gap_lower_bound(S: int) -> ResidualReport:
    """For R = 2S+1: ||T_R||^2 < pi^2 - 6/(S+1), so the gap exceeds
    3 / (pi (S+1))."""
    S = as_dim(S)
    R, norm, gap, _ = _toeplitz_gap_row(2 * S + 1)
    violation = max(
        0.0,
        norm**2 - (np.pi**2 - 6.0 / (S + 1)),
        3.0 / (np.pi * (S + 1)) - gap,
    )
    return residual_report("odd_gap_lower_bound", violation, 1.0, INEQ_SLACK,
                           R=R, S=S, norm=norm, gap=gap)


def check_universal_gap_lower_bound(R: int) -> ResidualReport:
    """pi - ||T_R|| > pi / (2R) for every R."""
    R = as_dim(R)
    gap = hilbert_toeplitz_gap(R)
    violation = max(0.0, np.pi / (2.0 * R) - gap)
    return residual_report("universal_gap_lower_bound", violation, 1.0, INEQ_SLACK,
                           R=R, gap=gap)


# ---------------------------------------------------------------------------
# Dirichlet-kernel-power witness.  All integrals are evaluated symbolically
# on Fourier coefficients: the kernel power has integer coefficients, its
# squared modulus is a finite trigonometric polynomial, and exp(i k x) has an
# elementary antiderivative on any interval, so the tail-energy certificate
# carries no quadrature error.
# ---------------------------------------------------------------------------


def _times_ones(p: list, M: int) -> list:
    """Multiply an integer polynomial by 1 + t + .. + t^(M-1) (running sums)."""
    n = len(p)
    out = []
    run = 0
    for i in range(n + M - 1):
        if i < n:
            run += p[i]
        if i - M >= 0:
            run -= p[i - M]
        out.append(run)
    return out


def _ones_power(M: int, K: int, p=(1,)) -> list:
    """Exact integer coefficients of p(t) (1 + t + .. + t^(M-1))^K."""
    for _ in range(K):
        p = _times_ones(p, M)
    return p


def central_coefficient(M: int, N: int) -> int:
    """Central coefficient of (1 + t + .. + t^(M-1))^(2N), exactly.

    Equals the sum of squared coefficients of the N-th power, i.e. the mean
    squared modulus of the N-th Dirichlet-kernel power times 2 pi.
    """
    M, N = as_int(M, "M", 2), as_int(N, "N", 1)
    p = _ones_power(M, 2 * N)
    return p[N * (M - 1)]


def check_central_coefficient_bounds(M: int, N: int) -> ResidualReport:
    """Exact integer bounds on the central coefficient b:

    M^(2N) / (N(M-1)+1)  <=  b  <=  M^(2N-1),

    verified in integer arithmetic (the lower bound cross-multiplied).
    """
    b = central_coefficient(M, N)
    lower_ok = M ** (2 * N) <= b * (N * (M - 1) + 1)
    upper_ok = b <= M ** (2 * N - 1)
    ok = lower_ok and upper_ok
    return residual_report("central_coefficient_bounds", 0.0 if ok else 1.0, 1.0, 0.0,
                           M=M, N=N, lower_ok=lower_ok, upper_ok=upper_ok)


@dataclass(frozen=True)
class WitnessParams:
    """Witness shape parameters: kernel width M, power N, cutoff gamma."""

    R: int
    M: int
    N: int
    gamma: float


@dataclass(frozen=True)
class WitnessCertificate:
    """Constructive upper-bound certificate for pi - ||T_R||.

    ``epsilon`` is the exact tail energy of the witness polynomial beyond the
    cutoff, ``epsilon_bound`` its closed-form bound, ``rayleigh`` the
    magnitude of the witness Rayleigh quotient (computed from the matrix;
    ``rayleigh_integral`` is the independent integral-side value), and both
    ``gap_bound = gamma + 2 pi epsilon`` and the paper's closed form
    ``final_bound`` dominate pi - rayleigh.
    """

    params: WitnessParams
    epsilon: float
    epsilon_bound: float
    rayleigh: float
    gap_bound: float
    rayleigh_integral: float
    norm_t: float
    final_bound: float


def witness_params(R: int) -> WitnessParams:
    """Parameter choice M = [2R/log R], N = [log R / 2], gamma = pi e log R / R.

    Needs N >= 1, i.e. R >= 8; the kernel power then fits: N(M-1)+1 <= R.
    """
    R = as_dim(R)
    if R < 8:
        raise ValueError("witness construction needs R >= 8 (floor(log R / 2) >= 1)")
    log_r = math.log(R)
    M = int(2 * R / log_r)
    N = int(log_r / 2)
    gamma = math.pi * math.e * log_r / R
    return WitnessParams(R=R, M=M, N=N, gamma=gamma)


def build_witness(R: int) -> WitnessCertificate:
    """Build the witness vector for T_R and certify its Rayleigh quotient."""
    params = witness_params(R)
    R, M, N, gamma = params.R, params.M, params.N, params.gamma
    L = N * (M - 1)

    coeffs_n = _ones_power(M, N)          # integer coefficients, degree L
    coeffs_2n = _ones_power(M, N, coeffs_n)  # autocorrelation via palindromy
    e0 = coeffs_2n[L]
    # int / int is correctly rounded at any size
    ratios = np.array([coeffs_2n[L + k] / e0 for k in range(1, L + 1)])
    ks = np.arange(1, L + 1, dtype=float)
    sine_sum = float(np.sum(ratios * np.sin(ks * gamma / 2.0) / ks))

    # exact tail energy of |phi|^2 over [gamma, 2 pi]
    epsilon = (2.0 * math.pi - gamma) / (2.0 * math.pi) - (2.0 / math.pi) * sine_sum
    # closed-form bound, in log space to dodge M^(2N) overflow at large R
    log_bound = (
        math.log(N * (M - 1) + 1)
        - 2.0 * N * math.log(M)
        - math.log(2.0 * N - 1.0)
        + (2.0 * N - 1.0) * (math.log(2.0 * math.pi) - math.log(gamma))
    )
    epsilon_bound = math.exp(log_bound)

    # integral-side Rayleigh magnitude: |pi - integral of x |phi|^2|
    rayleigh_integral = abs(2.0 * sine_sum)

    # matrix-side Rayleigh quotient of the padded, phase-shifted coefficients
    amplitude = np.array([float(b) for b in coeffs_n]) / math.sqrt(float(e0))
    phase = np.arange(L + 1, dtype=float) * (gamma / 2.0)
    x, y = np.zeros(R), np.zeros(R)
    x[: L + 1], y[: L + 1] = amplitude * np.cos(phase), -amplitude * np.sin(phase)
    rayleigh = abs(2.0 * float(x @ ToeplitzOperator.hilbert(R).matvec(y)))

    return WitnessCertificate(
        params=params,
        epsilon=float(epsilon),
        epsilon_bound=float(epsilon_bound),
        rayleigh=float(rayleigh),
        gap_bound=float(gamma + 2.0 * math.pi * epsilon),
        rayleigh_integral=float(rayleigh_integral),
        norm_t=float(toeplitz_hilbert_norm(R)),
        final_bound=float(
            math.pi * math.e * math.log(R) / R + 2.0 * math.pi * math.e**3 / R
        ),
    )


def check_witness(cert: WitnessCertificate) -> ResidualReport:
    """The certificate's five inequalities, held exactly (tolerance 0):

    0 <= epsilon <= epsilon_bound,  rayleigh <= ||T_R||,
    pi - rayleigh <= gap_bound,  pi - rayleigh <= final_bound.
    """
    gap = np.pi - cert.rayleigh
    violation = max(0.0, -cert.epsilon, cert.epsilon - cert.epsilon_bound,
                    cert.rayleigh - cert.norm_t, gap - cert.gap_bound, gap - cert.final_bound)
    return residual_report("witness_certificate", violation, 1.0, 0.0,
                           R=cert.params.R)


# ---------------------------------------------------------------------------
# Sweeps and CSV emission.
# ---------------------------------------------------------------------------


def figure1_r_values(R_max: int = 10000, dense: bool = False) -> list:
    """Default sweep grid: every R below 100, geometric spacing above."""
    R_max = as_int(as_dim(R_max), "R_max", 2)
    if dense:
        return list(range(2, R_max + 1))
    values = set(range(2, min(100, R_max) + 1))
    r = 100.0
    while r < R_max:
        r *= 1.1
        values.add(min(int(round(r)), R_max))
    values.add(R_max)
    return sorted(values)


def sweep_figure1(R_max: int = 10000, dense: bool = False):
    """Rows (R, norm, gap, rescaled_gap) over the sweep grid, in R order."""
    return [_toeplitz_gap_row(R) for R in figure1_r_values(R_max, dense)]


def write_figure1_csv(rows, target):
    write_csv(target, ["R", "norm", "gap", "rescaled_gap"], rows)


def write_figure2_csv(offsets, amplitudes, target):
    write_csv(target, ["n", "abs_u_n"],
              ((int(n), float(a)) for n, a in zip(offsets, amplitudes)))


def write_witness_csv(certs, target):
    rows = (
        (
            c.params.R, c.params.M, c.params.N, c.params.gamma,
            c.epsilon, c.epsilon_bound, c.rayleigh, c.gap_bound,
        )
        for c in certs
    )
    write_csv(target, ["R", "M", "N", "gamma", "epsilon", "epsilon_bound",
                       "rayleigh", "gap_bound"], rows)


def sweep_hankel(R_max: int = 500):
    """Rows (R, norm, gap, wilf_ratio) for the Hankel Hilbert matrices."""
    return [_hankel_gap_row(R) for R in range(1, as_dim(R_max) + 1)]


def write_hankel_csv(rows, target):
    write_csv(target, ["R", "norm", "gap", "wilf_ratio"], rows)

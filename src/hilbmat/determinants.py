"""Determinants of skew matrices by three independent routes.

The primary route expands det(B) over perfect matchings of {1, .., R}: for
weighted-Cauchy matrices the determinant equals the sum over matchings of
the product of squared matched entries (all cross terms cancel through the
Cauchy cocycle identity), i.e. the hafnian of B∘B, which vanishes for odd R.
One recursion, ``_matching_sums``, gives all principal-minor sums, read
through one entry, ``principal_minor_sum``; the determinant is the top sum.
It expands along the lowest free index and memoizes on the free-index
bitmask for the length of one call, so no cache outlives the call and the
work is bounded by 2^R states rather than (R-1)!! matchings.  Every term is a
product of squares, hence nonnegative, so plain summation is accurate.  Two
oracles cross-check it: an LU determinant and a Pfaffian computed by skew
elimination, whose square is the determinant of any even skew matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import as_square
from .spectra import require_skew

# Matching sums visit up to 2^R free-index masks: about 0.6 s at R = 22.
MATCHING_CAP = 22


def _matching_sums(W) -> tuple:
    """m[j] = sum over all j-edge matchings of the product of W[a, b] over
    their edges, for j = 0..R//2 (W symmetric, only a < b is read).

    The lowest free index is either left out or matched to a later free
    index; the memo on the free-index mask lives for this call only.
    """
    rows = np.asarray(W, dtype=float).tolist()
    R = len(rows)
    memo = {0: (1.0,)}

    def rec(free: int) -> tuple:
        if free not in memo:
            a = (free & -free).bit_length() - 1
            rest = free ^ (1 << a)
            out = list(rec(rest))
            out += [0.0] * (free.bit_count() // 2 + 1 - len(out))
            for b in range(a + 1, R):
                if rest >> b & 1:
                    for j, v in enumerate(rec(rest ^ (1 << b))):
                        out[j + 1] += rows[a][b] * v
            memo[free] = tuple(out)
        return memo[free]

    return rec((1 << R) - 1)


def det_matching(B, check: bool = False) -> float:
    """Determinant via the perfect-matching expansion in squared entries.

    Valid for matrices of weighted-Cauchy form (the expansion drops all cross
    terms, which only cancel for that class).  ``check=True`` cross-checks
    against the squared Pfaffian and raises if they disagree, which flags
    inputs outside the weighted-Cauchy class.
    """
    B = require_skew(B)
    value = principal_minor_sum(B, B.shape[0])
    if check and value:  # a zero sum (as at every odd R) zeroes every Pfaffian term
        ref = pfaffian(B) ** 2
        if abs(value - ref) > 1e-10 * max(1.0, abs(ref)):
            raise ValueError(
                "matching expansion disagrees with Pfaffian^2: "
                "input is not of weighted-Cauchy form "
                f"(matching={value!r}, pfaffian^2={ref!r})"
            )
    return value


def det_lu(M) -> float:
    """Determinant via partially pivoted LU factorization (oracle route)."""
    M = as_square(M, dtype=float)
    if M.shape[0] == 0:
        return 1.0
    return float(np.linalg.det(M))


def pfaffian(B) -> float:
    """Pfaffian of an even-dimensional real skew matrix.

    Skew Gaussian elimination with partial pivoting; sign convention
    Pf([[0, b], [-b, 0]]) = b.  Satisfies pfaffian(B)^2 = det(B).
    """
    B = require_skew(B)
    R = B.shape[0]
    if R % 2 == 1:
        raise ValueError("the Pfaffian of an odd-dimensional matrix is undefined here (0 determinant)")
    if R == 0:
        return 1.0
    A = B.astype(float, copy=True)
    value = 1.0
    for k in range(0, R - 1, 2):
        pivot = k + 1 + int(np.argmax(np.abs(A[k + 1 :, k])))
        if pivot != k + 1:
            A[[k + 1, pivot], k:] = A[[pivot, k + 1], k:]
            A[k:, [k + 1, pivot]] = A[k:, [pivot, k + 1]]
            value = -value
        if A[k + 1, k] == 0.0:
            return 0.0
        value *= A[k, k + 1]
        if k + 2 < R:
            tau = A[k, k + 2 :] / A[k, k + 1]
            col = A[k + 2 :, k + 1]
            A[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return value


def principal_minor_sum(B, k: int) -> float:
    """Sum of all k x k principal minors, via the matching expansion.

    Each even principal minor of a weighted-Cauchy matrix is the matching sum
    of its squared entries, so the total is the sum over all k/2-edge
    matchings of {1, .., R}: one entry of ``_matching_sums``, and k = R is
    ``det_matching``.  Equals the k-th elementary symmetric function of the
    eigenvalues, with sigma_0 = 1.  Odd k gives exactly zero at any size,
    before the cap, since every odd principal minor of a skew matrix vanishes.
    """
    B = require_skew(B)
    R = B.shape[0]
    if not 0 <= k <= R:
        raise ValueError("minor order k must satisfy 0 <= k <= R")
    if k % 2 == 1:
        return 0.0
    if R > MATCHING_CAP:
        raise ValueError(f"matching sums capped at R = {MATCHING_CAP}")
    return _matching_sums(B * B)[k // 2]


def newton_girard_power_sums(sigmas, L: int) -> list:
    """Power sums s_1..s_L from elementary symmetric functions sigma_1..

    Classical Newton-Girard recursion
    s_l = sum_{i=1}^{l-1} (-1)^(i-1) sigma_i s_{l-i} + (-1)^(l-1) l sigma_l,
    with sigma_i = 0 beyond the supplied list.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    sig = list(sigmas)

    def sigma(i: int) -> float:
        return float(sig[i - 1]) if i <= len(sig) else 0.0

    s: list[float] = []
    for l in range(1, L + 1):
        total = math.fsum(
            (-1.0) ** (i - 1) * sigma(i) * s[l - i - 1] for i in range(1, l)
        )
        total += (-1.0) ** (l - 1) * l * sigma(l)
        s.append(total)
    return s

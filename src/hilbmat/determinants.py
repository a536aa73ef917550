"""Determinants of skew matrices by three independent routes.

The primary route expands det(B) over perfect matchings of {1, .., R}: for
weighted-Cauchy matrices the determinant equals the sum over matchings of
the product of squared matched entries (all cross terms cancel through the
Cauchy cocycle identity), i.e. the hafnian of B∘B, which vanishes for odd R.
One DP, ``_matching_sums``, gives all principal-minor sums at once, or in
its perfect-matching mode the determinant alone, one float per state, in
about half the time.  It is read through one private entry,
``_squared_matching_sums``, which holds the size cap, on a matrix its public
caller has checked once.  An odd order is an exact 0 before the size cap,
with no DP run.  The DP runs vertex by vertex
over the set of earlier vertices still waiting for a partner, at most
sum_{k <= min(v, R - v)} C(v, k) sets at step v (16,384 at the peak for
R = 22) rather than (R-1)!! matchings.
Every term is a product of squares, hence nonnegative, so plain summation
is accurate.  Two oracles cross-check it: an LU determinant and a
Pfaffian computed by skew elimination, whose square is the determinant of
any even skew matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .matrices import as_int, as_square
from .spectra import finite_max_abs, require_skew

# At R = 22 the matching DP takes about 0.015 s for the determinant and
# 0.033 s for all the sums, on one core of a 2-core Xeon (see _matching_sums).
MATCHING_CAP = 22

# Entries gathered at once by the matching DP (512 KB of float64); a step
# with more (earlier vertex, state, edge count) entries runs in row blocks.
_GATHER_BLOCK = 1 << 16


def _matching_sums(W, top_only: bool = False):
    """m[j] = sum over all j-edge matchings of the product of W[a, b] over
    their edges, for j = 0..R//2 (W symmetric, only a < b is read); with
    ``top_only``, the sum over perfect matchings alone, one float (0.0 for
    odd R).

    A DP over the vertices v = 0..R-1 whose state is the set O of earlier
    vertices still waiting for a later partner, held as sorted int64 masks
    beside one polynomial in the edge count each.  At v each state leaves v
    out, opens it (O | {v}) or closes it with a u in O (O - {u}, times
    W[u, v], one edge more).  A set larger than the R - 1 - v vertices after
    v can never close and is dropped, so step v holds at most
    sum_{k <= min(v, R - v)} C(v, k) states: 16,384 at the peak for R = 22.
    A kept state O' pulls its closes from O' | {u} for each earlier u not in
    O', found by binary search.  With ``top_only`` no vertex is left out, so
    a state holds one float, the sum over the ways to reach it, and a kept
    state starts at 0 and holds only its closes.  The sums run in a fixed
    order without BLAS, and the arrays live for this call only.
    """
    W = np.asarray(W, dtype=float)
    R = W.shape[0]
    J = 1 if top_only else R // 2 + 1  # floats per state
    bits = np.left_shift(1, np.arange(R, dtype=np.int64))[:, None]
    masks = np.zeros(1, dtype=np.int64)  # one set O per state, sorted
    sizes = np.zeros(1, dtype=np.int64)  # |O|
    # one row per state, then a zero row
    P = np.zeros(2) if top_only else np.zeros((2, J))
    P.flat[0] = 1.0
    for v in range(R):
        room = R - 1 - v  # vertices after v
        stay, opens = sizes <= room, sizes < room
        kept = masks[stay]
        # v left out here, v closed below; a perfect matching leaves none out
        left = np.zeros(kept.size) if top_only else P[:-1][stay]
        block = _GATHER_BLOCK // (v * J) if v else 1
        for a in range(0, kept.size, block):
            t = kept[a : a + block]
            src = bits[:v] | t  # row u: O' | {u}, sorted along each row
            free = src != t  # u in O' pulls the zero row with weight 0
            src = np.where(free, np.searchsorted(masks, src), masks.size)
            w = np.where(free, W[:v, v, None], 0.0)
            if top_only:
                left[a : a + block] += np.einsum("ut,ut->t", w, P[src])
            else:
                left[a : a + block, 1:] += np.einsum("ut,utj->tj", w, P[src, :-1])
        P = np.concatenate([left, P[:-1][opens], P[-1:]])
        masks = np.concatenate([kept, masks[opens] | bits[v]])
        sizes = np.concatenate([sizes[stay], sizes[opens] + 1])
    return float(P[0]) if top_only else tuple(P[0].tolist())


def det_matching(B) -> float:
    """Determinant via the perfect-matching expansion in squared entries.

    Valid for matrices of weighted-Cauchy form (the expansion drops all cross
    terms, which only cancel for that class).
    """
    B = require_skew(B)
    return 0.0 if B.shape[0] % 2 else _squared_matching_sums(B, top_only=True)


def det_lu(M) -> float:
    """Determinant via partially pivoted LU factorization (oracle route) of a
    real square matrix with finite entries."""
    M = as_square(M, real=True)
    finite_max_abs(M)
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


def principal_minor_sums(B) -> tuple:
    """sigma_0, .., sigma_R: the sums of all k x k principal minors for
    k = 0..R, from one run of the matching DP.

    Each even principal minor of a weighted-Cauchy matrix is the matching sum
    of its squared entries, so sigma_k is the sum over all k/2-edge matchings
    of {1, .., R}, the entry k/2 of ``_matching_sums``.  sigma_R is
    ``det_matching`` up to rounding, as the two modes of the DP add the same
    terms in different orders: at most 2 ulp (1.4 eps relative) apart over
    341 random and Hilbert instances with R = 2..22.  These are the
    elementary symmetric functions of the eigenvalues, with sigma_0 = 1; odd
    orders are exactly zero, since every odd principal minor of a skew
    matrix vanishes.
    """
    B = require_skew(B)
    sums = _squared_matching_sums(B)
    return tuple(0.0 if k % 2 else sums[k // 2] for k in range(B.shape[0] + 1))


def principal_minor_sum(B, k: int) -> float:
    """sigma_k, the sum of all k x k principal minors: entry k of
    ``principal_minor_sums``, except that sigma_R is ``det_matching``, from
    the perfect matchings alone.  k = 0 gives exactly 1.0 and odd k exactly
    zero at any size, before the cap, with no DP run."""
    B = require_skew(B)
    k = as_int(k, "minor order k", 0, B.shape[0])
    if k == 0:
        return 1.0
    if k % 2:
        return 0.0
    if k == B.shape[0]:
        return _squared_matching_sums(B, top_only=True)
    return _squared_matching_sums(B)[k // 2]


def _squared_matching_sums(B, top_only: bool = False):
    """``_matching_sums`` of B∘B for a B that has passed ``require_skew``,
    refused above the size cap."""
    if B.shape[0] > MATCHING_CAP:
        raise ValueError(f"matching sums capped at R = {MATCHING_CAP}")
    return _matching_sums(B * B, top_only)


def newton_girard_power_sums(sigmas, L: int) -> list:
    """Power sums s_1..s_L from elementary symmetric functions sigma_1..

    Classical Newton-Girard recursion
    s_l = sum_{i=1}^{l-1} (-1)^(i-1) sigma_i s_{l-i} + (-1)^(l-1) l sigma_l,
    with sigma_i = 0 beyond the supplied list.
    """
    L = as_int(L, "L", 1)
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

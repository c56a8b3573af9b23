"""Gowers uniformity norms of non-negative functions on Z_N.

||f||_{U^d} is the 2^d-th root of the average of all multiplicative
derivatives over (d+1)-tuples, with counting measure by default.  The U^2
box sum is the squared l^2 mass of the correlation

    F(h) = sum_x f(x) f(x + h),

and for d >= 3 the U^d box sum is the sum over h of the U^{d-1} box sums of
f * f(. + h), so the memory stays O(N^2) per order even for U^4.  U^1 equals
the l^1 mass, and U^2 admits an independent Fourier route (DFT fourth moment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CapExceededError

U_CAPS = {1: 65536, 2: 4096, 3: 256, 4: 64}


def _check_cap(n, d, cap):
    if d not in U_CAPS:
        raise CapExceededError(f"uniformity order {d} is out of scope")
    limit = U_CAPS[d] if cap is None else cap
    if n > limit:
        raise CapExceededError(f"N = {n} exceeds the U^{d} cap {limit}")


def _shift_matrix(f):
    n = len(f)
    idx = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    return f[idx]


def _box_sum(f, d):
    """sum over x, h_1..h_d of the product of f over all 2^d shifts; for
    d >= 3, the sum over h of the U^{d-1} box sums of f * f(. + h)."""
    if d == 1:
        return float(f.sum()) ** 2
    if d == 2:
        corr = f @ _shift_matrix(f)
        return float(np.sum(corr**2))
    shifts = _shift_matrix(f)
    return sum(_box_sum(f * shifts[:, h], d - 1) for h in range(len(f)))


def gowers_norm(f, d, measure_weight=1.0, cap=None) -> float:
    """||f||_{U^d(Z_N)} with counting measure scaled by ``measure_weight``."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("f must be a vector on Z_N")
    if np.any(f < 0):
        raise ValueError("f must be non-negative")
    if d < 1:
        raise ValueError("d must be at least 1")
    _check_cap(len(f), d, cap)
    s = _box_sum(f, d)
    lam = float(measure_weight) ** (d + 1)
    return (lam * s) ** (1.0 / (1 << d))


def u2_via_fourier(f) -> float:
    """U^2 norm as the fourth moment of the DFT: (sum |f^|^4 / N)^{1/4}."""
    f = np.asarray(f, dtype=float)
    fhat = np.fft.fft(f)
    return float((np.sum(np.abs(fhat) ** 4) / len(f)) ** 0.25)


def parallelogram_count(f) -> float:
    """Number (with multiplicity) of quadruples x, x+h, x+k, x+h+k in supp."""
    return _box_sum(np.asarray(f, dtype=float), 2)


def parallelepiped_count(f) -> float:
    """Number of combinatorial boxes on triples of shifts."""
    return _box_sum(np.asarray(f, dtype=float), 3)


def logconvexity_theta(d) -> Fraction:
    """Interpolation weight with (d+1)/2^d = theta d/2^{d-1} + (1-theta)(d+2)/2^{d+1}."""
    return Fraction(d, 3 * d - 2)


def gowers_logconvexity_margin(f, d) -> float:
    """||f||_{U^{d-1}}^theta ||f||_{U^{d+1}}^{1-theta} - ||f||_{U^d} >= 0."""
    if d < 2:
        raise ValueError("log-convexity needs d >= 2")
    theta = float(logconvexity_theta(d))
    lo = gowers_norm(f, d - 1)
    mid = gowers_norm(f, d)
    hi = gowers_norm(f, d + 1)
    return lo**theta * hi ** (1.0 - theta) - mid


@dataclass(frozen=True)
class GowersProfile:
    """Norms ||f||_{U^d} for d = 1..D with abscissae (d+1)/2^d."""

    orders: tuple
    abscissae: tuple
    norms: tuple


def gowers_profile(f, max_order) -> GowersProfile:
    orders = tuple(range(1, max_order + 1))
    norms = tuple(gowers_norm(f, d) for d in orders)
    abscissae = tuple((d + 1) / (1 << d) for d in orders)
    return GowersProfile(orders=orders, abscissae=abscissae, norms=norms)


def real_line_u2_ratio(samples, spacing):
    """||f||_{U^2} / (||f||_{U^1}^{1/2} ||f||_{U^3}^{1/2}) for a compactly
    supported sampled function on the real line.

    The samples are zero-padded to four times their length so the cyclic box
    sums equal the real-line integrals, and each sum carries the grid spacing
    as measure weight.  The ratio is at most 1 by log-convexity; how far below
    1 it can stay over rich families is open, so scans report values without
    asserting a gap.
    """
    f = np.asarray(samples, dtype=float)
    support = len(f)
    padded = np.zeros(4 * support)
    padded[:support] = f
    u1 = gowers_norm(padded, 1, measure_weight=spacing)
    u2 = gowers_norm(padded, 2, measure_weight=spacing)
    u3 = gowers_norm(padded, 3, measure_weight=spacing, cap=len(padded))
    return u2 / math.sqrt(u1 * u3)


def u2_ratio_scan(functions, spacing):
    """Ratios over a caller-supplied family of sampled real-line functions."""
    return [real_line_u2_ratio(f, spacing) for f in functions]

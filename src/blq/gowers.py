"""Gowers uniformity norms of non-negative functions on Z_N.

||f||_{U^d} is the 2^d-th root of the average of all multiplicative
derivatives over (d+1)-tuples, with counting measure by default.  The U^2
box sum is the squared l^2 mass of the correlation

    F(h) = sum_x f(x) f(x + h),

and for d >= 3 the U^d box sum is the sum over h of the U^{d-1} box sums of
f * f(. + h), so the memory stays O(N^2) per order even for U^4.  U^1 equals
the l^1 mass, and U^2 admits an independent Fourier route (DFT fourth moment).

The shift table f(x + h) holds the length-N windows of f followed by its
first N - 1 entries.  The U^3 step stacks the tables of a block of rows
f * f(. + h), at most ROW_BLOCK_CELLS entries and at least one row, and
takes their correlations in one batched product; each row is the same gemv
on the same C-contiguous table as a lone U^2 sum, and the per-shift sums are
added in shift order, so every box sum is bitwise the one-shift-at-a-time
recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import CapExceededError, InputError, count, exponent, nonnegative
from .grid import ROW_BLOCK_CELLS

U_CAPS = {1: 65536, 2: 4096, 3: 256, 4: 64}


def _check_cap(n, d, cap):
    if d not in U_CAPS:
        raise CapExceededError(f"uniformity order {d} is out of scope")
    limit = U_CAPS[d] if cap is None else cap
    if n > limit:
        raise CapExceededError(f"N = {n} exceeds the U^{d} cap {limit}")


def _shift_rows(g):
    """C-contiguous g[..., (x + h) % n] at [..., x, h]: length-n windows of g
    followed by its first n - 1 entries, bit for bit g[idx] with idx the
    cyclic sum table.  (``sliding_window_view`` builds the same windows, but
    its first call adds 0.25 MB to the peak RSS of a desk-suite pass.)"""
    n = g.shape[-1]
    doubled = np.concatenate([g, g[..., : n - 1]], axis=-1)
    windows = as_strided(doubled, g.shape + (n,), doubled.strides + doubled.strides[-1:], writeable=False)
    return np.ascontiguousarray(windows)


def _box_sum(f, d):
    """sum over x, h_1..h_d of the product of f over all 2^d shifts; for
    d >= 3, the sum over h of the U^{d-1} box sums of f * f(. + h)."""
    n = len(f)
    if d == 1 or n == 0:
        return float(f.sum()) ** 2
    if d == 2:
        return float(np.sum((f @ _shift_rows(f)) ** 2))
    # row h is f * f(. + h): the shift table is symmetric in (x, h)
    gs = f * _shift_rows(f)
    if d > 3:
        return sum(_box_sum(g, d - 1) for g in gs)
    # the U^2 box sums of a block of rows at once (see the module docstring)
    step = max(1, ROW_BLOCK_CELLS // (n * n))
    sums = []
    for r in range(0, n, step):
        g = gs[r : r + step]
        corr = np.matmul(g[:, None, :], _shift_rows(g))[:, 0, :]
        sums += np.sum(corr**2, axis=1).tolist()
    return sum(sums)


def gowers_norm(f, d, measure_weight=1.0, cap=None) -> float:
    """||f||_{U^d(Z_N)} with counting measure scaled by ``measure_weight``."""
    f = nonnegative(f, "f")
    if f.ndim != 1:
        raise InputError("f must be a vector on Z_N")
    d = count(d, "d")
    _check_cap(len(f), d, None if cap is None else count(cap, "cap"))
    lam = exponent(measure_weight, "measure_weight") ** (d + 1)
    s = _box_sum(f, d)
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
    count(d, "d", minimum=2)
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
    orders = tuple(range(1, count(max_order, "max_order") + 1))
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

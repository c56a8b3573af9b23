import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from blq import gowers
from blq.errors import CapExceededError
from blq.gowers import (
    U_CAPS,
    _box_sum,
    gowers_logconvexity_margin,
    gowers_norm,
    gowers_profile,
    logconvexity_theta,
    parallelepiped_count,
    parallelogram_count,
    real_line_u2_ratio,
    u2_via_fourier,
)


def brute_force_norm(f, d):
    """Direct sum over all (d+1)-tuples from the definition."""
    n = len(f)
    total = 0.0
    for hs in itertools.product(range(n), repeat=d):
        prod = np.ones(n)
        for bits in itertools.product((0, 1), repeat=d):
            shift = sum(b * h for b, h in zip(bits, hs)) % n
            prod = prod * np.roll(f, -shift)
        total += prod.sum()
    return total ** (1.0 / (1 << d))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_streaming_matches_bruteforce(d):
    f = np.random.default_rng(2).uniform(size=8)
    assert gowers_norm(f, d) == pytest.approx(brute_force_norm(f, d), rel=1e-12)


def test_u4_matches_bruteforce_small():
    f = np.random.default_rng(5).uniform(size=5)
    assert gowers_norm(f, 4) == pytest.approx(brute_force_norm(f, 4), rel=1e-12)


def test_delta_function_norms_are_one():
    f = np.zeros(16)
    f[3] = 1.0
    for d in (1, 2, 3, 4):
        assert gowers_norm(f, d) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_constant_function_norms(d):
    n = 16
    assert gowers_norm(np.ones(n), d) == pytest.approx(n ** ((d + 1) / 2**d), rel=1e-12)


def test_u1_is_l1_mass():
    f = np.random.default_rng(1).uniform(size=40)
    assert gowers_norm(f, 1) == pytest.approx(f.sum(), rel=1e-14)


def test_u2_fourier_cross_check():
    rng = np.random.default_rng(7)
    for n in (16, 64, 128):
        f = rng.uniform(size=n) * (rng.uniform(size=n) < 0.6)
        assert abs(gowers_norm(f, 2) - u2_via_fourier(f)) < 1e-9


def test_caps_enforced():
    with pytest.raises(CapExceededError):
        gowers_norm(np.ones(257), 3)
    with pytest.raises(CapExceededError):
        gowers_norm(np.ones(65), 4)
    with pytest.raises(CapExceededError):
        gowers_norm(np.ones(4), 5)


def test_orders_outside_the_scope_raise_with_or_without_a_cap():
    for cap in (None, 100):
        with pytest.raises(CapExceededError, match="order 5 is out of scope"):
            gowers_norm(np.ones(4), 5, cap=cap)
        with pytest.raises(CapExceededError, match="order 7 is out of scope"):
            gowers_norm(np.ones(4), 7, cap=cap)
    assert gowers_norm(np.ones(4), 4, cap=100) == pytest.approx(4 ** (5 / 16), rel=1e-14)


def _reference_shift_matrix(f):
    n = len(f)
    return f[(np.arange(n)[:, None] + np.arange(n)[None, :]) % n]


def _reference_box_sum(f, d):
    """The unrolled U^2, U^3 and U^4 box sums, one loop per order."""
    n = len(f)
    if d == 2:
        return float(np.sum((f @ _reference_shift_matrix(f)) ** 2))
    total = 0.0
    if d == 3:
        shifts = _reference_shift_matrix(f)
        for h1 in range(n):
            g = f * shifts[:, h1]
            total += float(np.sum((g @ _reference_shift_matrix(g)) ** 2))
        return total
    for h1 in range(n):
        g1 = f * np.roll(f, -h1)
        for h2 in range(n):
            g12 = g1 * np.roll(g1, -h2)
            total += float(np.sum((g12 @ _reference_shift_matrix(g12)) ** 2))
    return total


def _per_shift_box_sum(f, d):
    """The per-shift recursion: one gathered shift table and one gemv per h."""
    if d == 1:
        return float(f.sum()) ** 2
    if d == 2:
        return float(np.sum((f @ _reference_shift_matrix(f)) ** 2))
    shifts = _reference_shift_matrix(f)
    return sum(_per_shift_box_sum(f * shifts[:, h], d - 1) for h in range(len(f)))


def _box_sum_inputs(sizes):
    rng = np.random.default_rng(31)
    for n in sizes:
        yield rng.uniform(size=n)
        yield rng.uniform(size=n) * (rng.uniform(size=n) < 0.5)
        yield (rng.uniform(size=n) < 0.4).astype(float)


def test_box_sums_are_bitwise_the_unrolled_loops():
    for f in _box_sum_inputs((2, 3, 7, 16, 33, 64)):
        for d in (2, 3):
            assert _box_sum(f, d) == _reference_box_sum(f, d)


def test_stacked_box_sums_are_bitwise_the_per_shift_recursion():
    # 65 and 100 leave a partial last block of shifts at U^3
    for f in _box_sum_inputs((1, 2, 7, 31, 64, 65, 100)):
        for d in (1, 2, 3, 4):
            if len(f) <= U_CAPS[d]:
                assert _box_sum(f, d) == _per_shift_box_sum(f, d)


def test_real_line_ratio_is_bitwise_the_per_shift_recursion(monkeypatch):
    samples = np.exp(-math.pi * (np.arange(48) / 16.0 - 1.5) ** 2)
    ratio = real_line_u2_ratio(samples, 1.0 / 16.0)
    monkeypatch.setattr(gowers, "_box_sum", _per_shift_box_sum)
    assert ratio == real_line_u2_ratio(samples, 1.0 / 16.0)


def test_u4_box_sum_matches_the_unrolled_loop():
    for f in _box_sum_inputs((2, 5, 12, 24)):
        ref = _reference_box_sum(f, 4)
        assert abs(_box_sum(f, 4) - ref) <= 1e-13 * ref


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        gowers_norm(np.array([1.0, -1.0]), 2)


def test_logconvexity_theta_closed_form():
    for d in (2, 3):
        theta = logconvexity_theta(d)
        lhs = Fraction(d + 1, 2**d)
        rhs = theta * Fraction(d, 2 ** (d - 1)) + (1 - theta) * Fraction(d + 2, 2 ** (d + 1))
        assert lhs == rhs
    assert logconvexity_theta(2) == Fraction(1, 2)


def test_logconvexity_margins_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        f = rng.uniform(size=64) * (rng.uniform(size=64) < 0.5)
        if f.sum() == 0:
            continue
        assert gowers_logconvexity_margin(f, 2) >= -1e-12


def test_logconvexity_equality_cases():
    assert abs(gowers_logconvexity_margin(np.ones(32), 2)) < 1e-12
    delta = np.zeros(32)
    delta[5] = 1.0
    assert abs(gowers_logconvexity_margin(delta, 2)) < 1e-12


def test_scaling_covariance_exact():
    f = np.random.default_rng(11).uniform(size=32)
    lam, c = 3.0, 1.75
    for d in (1, 2, 3):
        scaled = gowers_norm(c * f, d, measure_weight=lam)
        expected = c * lam ** ((d + 1) / 2**d) * gowers_norm(f, d)
        assert scaled == pytest.approx(expected, rel=1e-12)


def brute_parallelograms(a):
    n = len(a)
    x, h, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    total = (
        a[x % n] * a[(x + h) % n] * a[(x + k) % n] * a[(x + h + k) % n]
    ).sum()
    return float(total)


def brute_parallelepipeds(a):
    n = len(a)
    x, h, k, l = np.meshgrid(*([np.arange(n)] * 4), indexing="ij")
    total = (
        a[x % n]
        * a[(x + h) % n]
        * a[(x + k) % n]
        * a[(x + l) % n]
        * a[(x + h + k) % n]
        * a[(x + h + l) % n]
        * a[(x + k + l) % n]
        * a[(x + h + k + l) % n]
    ).sum()
    return float(total)


def test_counts_match_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(5):
        a = (rng.uniform(size=16) < 0.4).astype(float)
        assert parallelogram_count(a) == pytest.approx(brute_parallelograms(a), rel=1e-12)
        assert parallelepiped_count(a) == pytest.approx(brute_parallelepipeds(a), rel=1e-12)


def test_parallelepiped_corollary_on_sets():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a = (rng.uniform(size=32) < rng.uniform(0.2, 0.8)).astype(float)
        size = a.sum()
        if size < 2:
            continue
        s2 = parallelogram_count(a)
        s3 = parallelepiped_count(a)
        delta = s2 / size**3
        assert s3 >= delta**4 * size**4 - 1e-9


def test_profile_norms_and_abscissae():
    f = np.random.default_rng(31).uniform(size=32)
    prof = gowers_profile(f, 3)
    assert prof.orders == (1, 2, 3) and prof.abscissae == (1.0, 0.75, 0.5)
    assert prof.norms == tuple(gowers_norm(f, d) for d in (1, 2, 3))


def test_real_line_ratio_scan_reports_below_one():
    spacing = 1.0 / 32.0
    xs = np.arange(64) * spacing
    family = [
        np.exp(-math.pi * (xs - 1.0) ** 2),
        ((xs >= 0.25) & (xs <= 1.25)).astype(float),
        np.exp(-math.pi * (xs - 1.0) ** 2) * (1.0 + 0.3 * np.sin(8 * xs)),
    ]
    ratios = [real_line_u2_ratio(f, spacing) for f in family]
    # log-convexity forces every ratio <= 1; the scan only reports the values
    assert all(r <= 1.0 + 1e-9 for r in ratios)

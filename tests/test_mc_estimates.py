"""Monte Carlo estimates against closed forms: does the reported stderr cover
the true error?  Each family runs over seeds 0-39; every deviation must lie
within 4 stderr and at least 85% of a family within 2 stderr."""

import itertools

import numpy as np
import pytest

from blq.tomography import DirectionSet, restricted_xray_constant, xx_constant_via_mc, xx_gamma_constant

SEEDS = range(40)


def _assert_covered(estimates, exact):
    z = np.array([abs(e.value - exact) / e.stderr for e in estimates])
    assert z.max() <= 4.0, f"largest deviation {z.max():.2f} stderr"
    assert np.mean(z <= 2.0) >= 0.85, f"{np.mean(z > 2.0):.1%} of the family beyond 2 stderr"


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("p,q", [(2.0, 0.5), (1.5, 0.3), (3.0, 0.8)])
def test_wedge_constant_stderr_covers_the_closed_form(d, p, q):
    estimates = [xx_constant_via_mc(d, p, q, 4000, seed) for seed in SEEDS]
    _assert_covered(estimates, xx_gamma_constant(d, p, q))


def _exact_restricted_constant(vectors, p, q, d):
    """Mean of |det|^a over all n^d index tuples (a repeated direction counts
    as 0), raised to 1/(dq)."""
    a = d * q * (1.0 / p - 1.0) / (d - 1)
    idx = np.array(list(itertools.product(range(len(vectors)), repeat=d)))
    wedge = np.abs(np.linalg.det(vectors[idx]))
    wedge[[len(set(t)) < d for t in idx]] = 0.0
    return float(np.mean(wedge**a)) ** (1.0 / (d * q))


@pytest.mark.parametrize("d,dirs", [(2, DirectionSet.uniform_circle(16)), (3, DirectionSet.fibonacci_sphere(12))])
@pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
def test_restricted_constant_stderr_covers_the_exact_mean(d, dirs, p):
    q = 1.0 / (1.0 - d * (1.0 - 1.0 / p) / (d - 1))  # on the scaling line
    estimates = [restricted_xray_constant(dirs, p, q, d, 4000, seed) for seed in SEEDS]
    _assert_covered(estimates, _exact_restricted_constant(dirs.vectors, p, q, d))

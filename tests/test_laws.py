"""Exact laws of the constants and bounds across the layers.

Change of variables (Bennett-Carbery-Christ-Tao, arXiv:math/0505065): for
invertible T on R^d and U_i on R^{d_i},

    BLg(U_i B_i T) = |det T|^{-1} prod |det U_i|^{-c_i} BLg(B),

and ABLg, a prefactor times BLg^{1/p-1} that depends only on (theta, p) and
the dimensions, moves by that factor to the power 1/p - 1.  Both constants are
unchanged when one permutation is applied to the maps, the exponents and theta.

Dilation of the tomographic bound: f_lam(x) = f(x / lam) has
||f_lam||_p = lam^{d/p} ||f||_p and ||T_k f_lam||_q = lam^{k + (d-k)/q} ||T_k f||_q,
and on the scaling line (1/d)(1 - 1/q) = (1/(d-k))(1 - 1/p) the two powers
agree, so ||T_k f||_q / ||f||_p does not move.  On the grid, doubling the box
with the same values doubles every length of the quadrature exactly, so only
the final powers round.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blq.catalog import NAMED_DATA, named_datum, random_adjoint_draws
from blq.data import BLDatum, derive_adjoint_exponents
from blq.gaussian import abl_gaussian_constant, bl_gaussian_constant
from blq.grid import GridFunction, lp_norm, random_grid_function
from blq.tomography import DirectionSet, kplane_transform, scaling_exponent_q, xray_transform

REL = 1e-9
PRESETS = sorted(NAMED_DATA)
SEEDS = st.integers(0, 2**32 - 1)


def _well_conditioned(rng, n):
    """Orthogonal x diag(singular values in [0.5, 2]) x orthogonal."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ q2


def _change_of_variables(datum, seed):
    """The datum (U_i B_i T, c) for seeded well-conditioned T and U_i, and the
    factor |det T|^{-1} prod |det U_i|^{-c_i} by which BLg moves."""
    rng = np.random.default_rng(seed)
    T = _well_conditioned(rng, datum.ambient_dim)
    U = [_well_conditioned(rng, di) for di in datum.dims]
    moved = BLDatum(tuple(u @ b @ T for u, b in zip(U, datum.maps)), datum.exact_exponents)
    log_factor = -math.log(abs(np.linalg.det(T)))
    log_factor -= sum(c * math.log(abs(np.linalg.det(u))) for c, u in zip(datum.exponents, U))
    return moved, math.exp(log_factor)


@pytest.mark.parametrize("name", PRESETS)
@settings(max_examples=4, deadline=None)
@given(seed=SEEDS)
def test_bl_constant_moves_by_the_change_of_variables_factor(name, seed):
    datum = named_datum(name)
    moved, factor = _change_of_variables(datum, seed)
    assert bl_gaussian_constant(moved).value == pytest.approx(factor * bl_gaussian_constant(datum).value, rel=REL)


@pytest.mark.parametrize("name", PRESETS)
@settings(max_examples=3, deadline=None)
@given(seed=SEEDS)
def test_adjoint_constant_moves_by_the_factor_to_the_power_one_over_p_minus_one(name, seed):
    datum = named_datum(name)
    moved, factor = _change_of_variables(datum, seed)
    for params in random_adjoint_draws(datum, seed, n=2):
        expected = abl_gaussian_constant(datum, params).value * factor ** (1.0 / params.p - 1.0)
        assert abl_gaussian_constant(moved, params).value == pytest.approx(expected, rel=REL)


@pytest.mark.parametrize("name", PRESETS)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_constants_are_invariant_under_one_permutation_of_maps_exponents_and_theta(name, data):
    base = named_datum(name)
    perm = data.draw(st.permutations(range(base.k)))
    if perm == sorted(perm):
        perm = perm[::-1]
    seed = data.draw(SEEDS)
    datum, _ = _change_of_variables(base, seed)  # maps without the preset's symmetries
    permuted = BLDatum(tuple(datum.maps[i] for i in perm), tuple(datum.exact_exponents[i] for i in perm))
    assert bl_gaussian_constant(permuted).value == pytest.approx(bl_gaussian_constant(datum).value, rel=REL)
    for params in random_adjoint_draws(datum, seed, n=2):
        theta = [params.theta[i] for i in perm]
        permuted_params = derive_adjoint_exponents(permuted.exponents, theta, params.p)
        expected = abl_gaussian_constant(datum, params).value
        assert abl_gaussian_constant(permuted, permuted_params).value == pytest.approx(expected, rel=REL)


DILATION_REL = 1e-13
TOMOGRAPHIC_BOUNDS = {
    # name: (box, resolution, k, transform)
    "k1-sampled-d2": (((-1.5, 2.0), (-1.0, 1.25)), (12, 10), 1, lambda f: xray_transform(f, DirectionSet.uniform_circle(12))),
    "k1-sampled-d3": (((-1.0, 1.0), (-0.75, 1.0), (-1.0, 0.5)), (8, 6, 7), 1,
                      lambda f: xray_transform(f, DirectionSet.fibonacci_sphere(10))),
    "k1-deposit-d3": (((-1.0, 1.0), (-0.75, 1.0), (-1.0, 0.5)), (8, 6, 7), 1,
                      lambda f: xray_transform(f, DirectionSet.fibonacci_sphere(10), method="deposit")),
    "k2-haar16-d3": (((-1.0, 1.0), (-0.75, 1.0), (-1.0, 0.5)), (8, 6, 7), 2, lambda f: kplane_transform(f, 16, seed=3)),
}


@pytest.mark.parametrize("name", sorted(TOMOGRAPHIC_BOUNDS))
@settings(max_examples=5, deadline=None)
@given(p=st.floats(0.3, 1.4), seed=SEEDS)
def test_tomographic_bound_is_invariant_under_dilation(name, p, seed):
    box, resolution, k, transform = TOMOGRAPHIC_BOUNDS[name]
    f = random_grid_function(box, resolution, seed=seed, zero_fraction=0.2)
    dilated = GridFunction(tuple((2.0 * lo, 2.0 * hi) for lo, hi in box), resolution, f.values)
    q = scaling_exponent_q(p, f.dim, k)
    ratio = transform(f).lq(q) / lp_norm(f, p)
    assert transform(dilated).lq(q) / lp_norm(dilated, p) == pytest.approx(ratio, rel=DILATION_REL)

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

Automorphisms of finite abelian groups: for automorphisms A of the source G
and T_i of each target G_i, the data B_i and T_i B_i A have the same BLs and
ABLs.  A maps the preimage intersections of one tuple (H_i) bijectively onto
those of (T_i^{-1} H_i), and the subgroups H of G to A H with #(B_i A H) =
#(B_i H), so both suprema are maxima of one expression over the same integer
tables, and the values are equal, not merely close.

Affine maps of Z_N: for a unit u and any a, x -> u x + a is a bijection of
Z_N that carries each (d+1)-tuple (x, h_1, ..., h_d) to (u x + a, u h_1, ...,
u h_d), so g(x) = f(u x + a) has the same box sums and Gowers norms as f; the
shift tables only reorder the products, so the norms agree to rounding.

Aligned binning: the coordinate projections of Loomis-Whitney on a square grid
(one extent and one cell count on every axis) have as default target the
source grid less one axis, so every cell centre lands in the middle of a
target cell and each pushforward is the exact marginal of the piecewise-
constant f.  A refinement splits the marginal's cells the same way, so no
marginal norm moves: the margin's drift is 0, and f and its refinements have
one margin, up to rounding.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blq.catalog import NAMED_DATA, discrete_instances, loomis_whitney, named_datum, random_adjoint_draws
from blq.data import BLDatum, derive_adjoint_exponents
from blq.discrete import GroupHom, abls_constant, bls_constant
from blq.gaussian import abl_gaussian_constant, bl_gaussian_constant
from blq.gowers import U_CAPS, gowers_norm
from blq.grid import GridFunction, adjoint_margin, lp_norm, random_grid_function
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


DISCRETE = {name: (maps, [float(x) for x in c]) for name, maps, c in discrete_instances(256)}


def _automorphism(group, rng, steps=12):
    """A seeded automorphism of ``group`` as an integer matrix on coordinates:
    a product of unit multiples of one coordinate, shears e_j -> e_j + k e_i
    (a homomorphism when k n_j = 0 mod n_i; its inverse is the shear by -k)
    and swaps of two coordinates of equal order.  Row i is reduced mod n_i."""
    n = np.array(group.factors)
    r = len(n)
    a = np.eye(r, dtype=np.int64)
    for _ in range(steps):
        e = np.eye(r, dtype=np.int64)
        kind, i, j = rng.integers(3), *rng.integers(r, size=2)
        if kind == 0:
            e[i, i] = rng.choice([u for u in range(1, n[i]) if math.gcd(u, int(n[i])) == 1] or [1])
        elif kind == 1 and i != j:
            e[i, j] = rng.choice([k for k in range(n[i]) if k * n[j] % n[i] == 0])
        elif kind == 2 and n[i] == n[j]:
            e[[i, j]] = e[[j, i]]
        a = (e @ a) % n[:, None]
    return a


def _hom(matrix, source, target):
    return GroupHom(tuple(tuple(int(x) for x in row) for row in matrix), source, target)


@pytest.mark.parametrize("name", sorted(DISCRETE))
@settings(max_examples=10, deadline=None)
@given(seed=SEEDS)
def test_discrete_constants_are_invariant_under_automorphisms(name, seed):
    maps, c = DISCRETE[name]
    source = maps[0].source
    rng = np.random.default_rng(seed)
    a = _automorphism(source, rng)
    assert len(set(_hom(a, source, source).image_indices().tolist())) == source.order  # a bijection
    moved = tuple(
        _hom(_automorphism(m.target, rng) @ np.array(m.matrix) @ a, source, m.target) for m in maps
    )
    assert bls_constant(moved, c)[0] == bls_constant(maps, c)[0]
    for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
        assert abls_constant(moved, c, p)[0] == abls_constant(maps, c, p)[0]


@pytest.mark.parametrize("n", [12, 16, 32, 64])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_gowers_norms_are_invariant_under_affine_maps_of_z_n(n, data):
    u = data.draw(st.sampled_from([u for u in range(1, n) if math.gcd(u, n) == 1]), label="u")
    a = data.draw(st.integers(0, n - 1), label="a")
    f = np.random.default_rng(data.draw(SEEDS, label="seed")).random(n)
    g = f[(u * np.arange(n) + a) % n]
    for d in [d for d in range(1, 5) if n <= U_CAPS[d]]:
        assert gowers_norm(g, d) == pytest.approx(gowers_norm(f, d), rel=1e-12, abs=0.0)


ALIGNED_ULPS = 16  # rounding allowance of the aligned-grid law, in ulps of the margin's scale (at most 5 seen)
# mode -> (theta in dimension d, p)
ALIGNED_PARAMS = {
    "forward": (lambda d: (1.0 / d,) * d, 0.5),
    "reverse": (lambda d: (2.0,) + (-1.0 / (d - 1),) * (d - 1), 2.0),
}


@pytest.mark.parametrize("d, n", [(2, 16), (2, 24), (3, 8), (3, 12)])
@pytest.mark.parametrize("box", [(-1.0, 1.0), (-0.5, 2.5)], ids=["centred", "shifted"])
@pytest.mark.parametrize("mode", sorted(ALIGNED_PARAMS))
@settings(max_examples=3, deadline=None)
@given(seed=SEEDS)
def test_aligned_coordinate_projections_bin_without_drift(d, n, box, mode, seed):
    datum = loomis_whitney(d)
    theta, p = ALIGNED_PARAMS[mode]
    params = derive_adjoint_exponents(datum.exponents, theta(d), p)
    assert params.mode == mode
    f = random_grid_function((box,) * d, (n,) * d, seed=seed, zero_fraction=0.2)
    margins = [adjoint_margin(g, datum, params, 1.0) for g in (f, f.refine(), f.refine().refine())]
    ulp = np.finfo(float).eps * max(1.0, abs(margins[0].lhs), abs(margins[0].rhs))
    for m in margins:
        scale = max(1.0, abs(m.lhs), abs(m.rhs))
        assert abs(m.quadrature_estimate - 1e-12 * scale) <= ALIGNED_ULPS * ulp  # the drift, less the 1e-12 floor
        assert abs(m.margin - margins[0].margin) <= ALIGNED_ULPS * ulp

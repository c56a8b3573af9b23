import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blq.catalog import conjugate_datum, finner_cyclic4, finner_mixed, loomis_whitney, young
from blq.data import derive_adjoint_exponents
from blq import grid
from blq.entropy import log_lambda
from blq.errors import CoverageError, InputError, MassError
from blq.gaussian import SpdMatrix, bl_gaussian_constant, gaussian_pushforward
from blq.grid import (
    GridFunction,
    GridSpec,
    InequalityMargin,
    adjoint_margin,
    gaussian_grid,
    grid_pushforward,
    lp_norm,
    mesh_points,
    random_grid_function,
    rank_one_distance,
)

BOX2 = ((-8.0, 8.0), (-8.0, 8.0))


def test_lp_norm_indicator():
    f = GridFunction.indicator_box(((0, 1), (0, 1)), ((-2, 2), (-2, 2)), (128, 128))
    for p in (0.5, 1.0, 2.0, math.inf):
        assert lp_norm(f, p) == pytest.approx(1.0, rel=1e-12)


def test_lp_norm_scaled_indicator():
    f = GridFunction.from_callable(
        lambda x: 2.0 * ((x >= 0) & (x <= 1)), ((-2.0, 2.0),), (256,)
    )
    # (integral of f^{1/2})^2 = (sqrt 2)^2 = 2
    assert lp_norm(f, 0.5) == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0])
def test_lp_norm_gaussian_closed_form(p):
    f = GridFunction.from_callable(
        lambda x: np.exp(-math.pi * x**2), ((-8.0, 8.0),), (4096,)
    )
    assert lp_norm(f, p) == pytest.approx(p ** (-1.0 / (2.0 * p)), rel=1e-4)


def test_pushforward_identity_is_identity():
    f = random_grid_function(BOX2, (32, 32), seed=1)
    g = grid_pushforward(f, np.eye(2), GridSpec(box=f.box, resolution=f.resolution))
    assert np.allclose(g.values, f.values, atol=1e-12)


def test_pushforward_unit_square_slices():
    f = GridFunction.indicator_box(((0, 1), (0, 1)), ((-2, 2), (-2, 2)), (128, 128))
    g = grid_pushforward(f, np.array([[1.0, 0.0]]))
    centers = g.centers()[0]
    inside = (centers > 0.02) & (centers < 0.98)
    assert np.allclose(g.values[inside], 1.0, atol=1e-12)
    assert g.mass == pytest.approx(f.mass, rel=1e-14)


def test_pushforward_matches_gaussian_closed_form():
    f = gaussian_grid(np.eye(2), ((-6.0, 6.0), (-6.0, 6.0)), (256, 256))
    g = grid_pushforward(f, np.array([[1.0, 0.0]]))
    centers = g.centers()[0]
    closed = np.exp(-math.pi * centers**2)
    assert np.max(np.abs(g.values - closed)) / closed.max() < 1e-3


def test_pushforward_generic_map_matches_cell_averages():
    A = SpdMatrix.from_matrix([[1.4, 0.4], [0.4, 0.8]])
    f = gaussian_grid(A.matrix, BOX2, (256, 256))
    B = np.array([[1.0, 0.5]])
    g = grid_pushforward(f, B)
    amp, A_b = gaussian_pushforward(A, B)
    centers = g.centers()[0]
    # the binned pushforward estimates cell averages of the closed form
    h = g.cell_sizes[0]
    sub = centers[:, None] + h * (np.arange(10)[None, :] + 0.5) / 10.0 - h / 2.0
    averaged = (amp * np.exp(-math.pi * A_b.matrix[0, 0] * sub**2)).mean(axis=1)
    assert np.max(np.abs(g.values - averaged)) / averaged.max() < 1e-3


def test_pushforward_mass_conservation_exact():
    rng = np.random.default_rng(3)
    for _ in range(10):
        f = random_grid_function(BOX2, (64, 64), seed=int(rng.integers(1 << 30)))
        B = rng.standard_normal((1, 2))
        for _ in range(2):  # a cache miss, then a hit
            g = grid_pushforward(f, B)
            assert abs(g.mass - f.mass) < 1e-12 * f.mass


def test_pushforward_coverage_error():
    f = GridFunction.indicator_box(((0, 1), (0, 1)), ((-2, 2), (-2, 2)), (64, 64))
    small = GridSpec(box=((-0.25, 0.25),), resolution=(16,))
    with pytest.raises(CoverageError) as err:
        grid_pushforward(f, np.array([[1.0, 0.0]]), small)
    assert 0.0 < err.value.escaping_fraction <= 1.0


def test_refine_and_coarsen_are_exact_inverses():
    f = random_grid_function(BOX2, (16, 16), seed=5)
    g = f.refine()
    assert g.mass == pytest.approx(f.mass, rel=1e-14)
    assert lp_norm(g, 0.7) == pytest.approx(lp_norm(f, 0.7), rel=1e-13)
    back = g.values.reshape(16, 2, 16, 2).mean(axis=(1, 3))  # the average of each 2x2 block
    assert np.allclose(back, f.values, atol=1e-14)


def test_margin_p_one_is_equality():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.4, 0.6), 1.0)
    f = random_grid_function(BOX2, (64, 64), seed=9)
    m = adjoint_margin(f, datum, params, 1.0)
    assert abs(m.margin) <= m.quadrature_estimate


def test_margin_product_indicator_equality():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 0.5)
    f = GridFunction.indicator_box(((0, 1), (0, 2.5)), BOX2, (256, 256))
    m = adjoint_margin(f, datum, params, 1.0)
    assert abs(m.margin) <= m.quadrature_estimate


def test_margin_gaussian_ratio_is_prefactor():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 0.5)
    f = gaussian_grid(np.eye(2), BOX2, (256, 256))
    m = adjoint_margin(f, datum, params, 1.0)
    assert m.margin > 0
    assert m.lhs / m.rhs == pytest.approx(4.0 * (1.0 / 3.0) ** 1.5, rel=1e-3)


def test_margin_nonproduct_strictly_positive():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 0.5)
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_grid_function(BOX2, (64, 64), seed=int(rng.integers(1 << 30)))
        assert rank_one_distance(f) > 0.1
        m = adjoint_margin(f, datum, params, 1.0)
        assert m.margin >= 3.0 * m.quadrature_estimate


@pytest.mark.parametrize("resolution", [(16,), (4, 4, 4)])
def test_rank_one_distance_rejects_a_grid_that_is_not_2d(resolution):
    f = random_grid_function(((-1.0, 1.0),) * len(resolution), resolution, seed=0)
    with pytest.raises(InputError, match="2-D grids"):
        rank_one_distance(f)


@pytest.mark.parametrize(
    "datum,resolution",
    [
        (loomis_whitney(2), (32, 32)),
        (loomis_whitney(3), (16, 16, 16)),
        (young(), (32, 32)),
        (finner_mixed(), (16, 16, 16)),
    ],
    ids=["lw2", "lw3", "young", "finner"],
)
def test_forward_margins_never_violated(datum, resolution):
    bl = bl_gaussian_constant(datum).value
    d = datum.ambient_dim
    box = ((0.0, 1.0),) * d
    rng = np.random.default_rng(101)
    for t in range(500):
        f = random_grid_function(
            box, resolution, seed=int(rng.integers(1 << 30)),
            zero_fraction=0.3 if t % 2 else 0.0,
        )
        if f.mass == 0:
            continue
        raw = rng.uniform(0.1, 1.0, size=datum.k)
        params = derive_adjoint_exponents(datum.exponents, raw / raw.sum(), rng.uniform(0.3, 0.95))
        m = adjoint_margin(f, datum, params, bl)
        assert m.margin >= -m.quadrature_estimate


def test_reverse_transfer_inequality_d3():
    # one marginal is controlled by the others when the input is bounded by 1
    datum = loomis_whitney(3)
    params = derive_adjoint_exponents(datum.exponents, (-1.0, -1.0, 3.0), math.inf)
    rng = np.random.default_rng(55)
    for _ in range(100):
        f = random_grid_function(((0, 1),) * 3, (16, 16, 16), seed=int(rng.integers(1 << 30)))
        f = GridFunction(f.box, f.resolution, f.values / f.values.max())
        m = adjoint_margin(f, datum, params, 1.0)
        assert m.margin >= -m.quadrature_estimate


def test_zero_function_rejected():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 0.5)
    f = GridFunction.constant(0.0, BOX2, (8, 8))
    with pytest.raises(MassError):
        adjoint_margin(f, datum, params, 1.0)


def test_signed_values_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        GridFunction(((0, 1),), (4,), np.array([1.0, -0.5, 0.0, 2.0]))


def test_tiny_values_flushed():
    f = GridFunction(((0.0, 1.0),), (4,), np.array([1e-310, 0.5, 0.25, 0.0]))
    assert math.isfinite(lp_norm(f, 0.5))


def test_conjugated_datum_margins_still_certified():
    datum = conjugate_datum(young(), seed=77)
    bl = bl_gaussian_constant(datum).value
    params = derive_adjoint_exponents(datum.exponents, (0.3, 0.3, 0.4), 0.6)
    rng = np.random.default_rng(78)
    for _ in range(20):
        f = random_grid_function(((-1, 1), (-1, 1)), (48, 48), seed=int(rng.integers(1 << 30)))
        m = adjoint_margin(f, datum, params, bl)
        assert m.margin >= -m.quadrature_estimate


def _reference_pushforward(f, B, target):
    """Uncached pushforward values by the meshgrid -> points -> matmul route,
    or the escaping mass fraction when the image leaves the target box."""
    B = np.asarray(B, dtype=float)
    mesh = np.meshgrid(*f.centers(), indexing="ij")
    images = np.stack([m.ravel() for m in mesh], axis=1) @ B.T
    masses = f.values.ravel() * f.cell_volume
    idx, inside = [], np.ones(images.shape[0], dtype=bool)
    for a, ((lo, hi), n) in enumerate(zip(target.box, target.resolution)):
        y = images[:, a]
        tol = 1e-12 * max(hi - lo, 1.0)
        inside &= (y >= lo - tol) & (y <= hi + tol)
        idx.append(np.clip(np.floor((y - lo) / ((hi - lo) / n)).astype(np.int64), 0, n - 1))
    if not inside.all():
        return float(masses[~inside].sum()) / float(masses.sum())
    acc = np.bincount(
        np.ravel_multi_index(idx, target.resolution), weights=masses, minlength=int(np.prod(target.resolution))
    )
    t_cell_vol = float(np.prod([(hi - lo) / n for (lo, hi), n in zip(target.box, target.resolution)]))
    return (acc / t_cell_vol).reshape(target.resolution)


def _pushforward_or_fraction(f, B, target):
    try:
        return grid_pushforward(f, B, target).values
    except CoverageError as exc:
        return exc.escaping_fraction


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    seed=st.integers(0, 2**31 - 1),
    strided=st.booleans(),
    explicit_target=st.booleans(),
)
def test_cached_pushforward_matches_cold_and_reference(d, seed, strided, explicit_target):
    rng = np.random.default_rng(seed)
    d_t = int(rng.integers(1, d + 1))
    res = tuple(int(n) for n in rng.integers(2, {1: 200, 2: 40, 3: 14, 4: 7}[d], size=d))
    f = random_grid_function(((-1.0, 1.5),) * d, res, seed=seed, zero_fraction=0.3)
    B = rng.standard_normal((d_t, 2 * d))[:, ::2] if strided else rng.standard_normal((d_t, d))
    target = None
    if explicit_target:
        target = GridSpec(box=((-1.5, 2.0),) * d_t, resolution=tuple(int(n) for n in rng.integers(3, 30, size=d_t)))
    grid._OPERATORS.clear()
    cold = _pushforward_or_fraction(f, B, target)
    warm = _pushforward_or_fraction(f, B, target)
    expected = _reference_pushforward(f, B, target or grid._auto_target(f, B))
    if isinstance(expected, float):
        assert cold == warm == expected
    else:
        assert np.array_equal(cold, expected) and np.array_equal(warm, expected)


def test_cache_hit_raises_coverage_error_with_that_calls_fraction():
    B = np.array([[1.0, 0.0]])
    small = GridSpec(box=((-0.25, 0.25),), resolution=(16,))
    f = GridFunction.indicator_box(((0, 1), (0, 1)), ((-2, 2), (-2, 2)), (64, 64))
    g = GridFunction.indicator_box(((-2, 0), (0, 1)), ((-2, 2), (-2, 2)), (64, 64))
    grid._OPERATORS.clear()
    fractions = []
    for h in (f, f, g):
        with pytest.raises(CoverageError) as err:
            grid_pushforward(h, B, small)
        fractions.append(err.value.escaping_fraction)
    assert len(grid._OPERATORS) == 0  # an escaping geometry is not cached
    assert fractions[0] == fractions[1] == _reference_pushforward(f, B, small)
    assert fractions[2] == _reference_pushforward(g, B, small) != fractions[0]


def _held_bytes():
    return sum(index.nbytes for _, index in grid._OPERATORS.values())


def test_bin_index_cache_stays_within_its_cap():
    rng = np.random.default_rng(9)
    grid._OPERATORS.clear()
    for i in range(60):
        f = random_grid_function(((-1.0, 1.0),) * 3, (48, 48, 48), seed=i)
        grid_pushforward(f, rng.standard_normal((2, 3)))
        assert _held_bytes() <= grid._OPERATORS_CAP_BYTES
    assert 1 < len(grid._OPERATORS) < 60
    # an entry is (target, int32 index of every source cell)
    assert all(
        isinstance(target, GridSpec) and index.dtype == np.int32 and index.size == 48**3
        for target, index in grid._OPERATORS.values()
    )
    # an entry larger than the cap is kept alone
    big = GridFunction.constant(1.0, ((-1.0, 1.0),) * 2, (1100, 1100))
    B = np.array([[1.0, 0.5]])
    g = grid_pushforward(big, B)
    assert len(grid._OPERATORS) == 1 and _held_bytes() == 4 * 1100 * 1100 > grid._OPERATORS_CAP_BYTES
    ((target, index),) = grid._OPERATORS.values()
    assert target == grid._auto_target(big, B) == GridSpec(g.box, g.resolution) and index.dtype == np.int32
    grid._OPERATORS.clear()


def test_the_cache_evicts_before_it_builds_an_index(monkeypatch):
    # an index being built never sits beside the entries its arrival evicts
    grid._OPERATORS.clear()
    held = []
    original = grid._bin_index
    monkeypatch.setattr(grid, "_bin_index", lambda f, B, t: held.append(_held_bytes()) or original(f, B, t))
    f = GridFunction.constant(1.0, BOX2, (700, 700))  # a 1.96 MB index: two fit under the cap
    Bs = np.random.default_rng(3).standard_normal((4, 1, 2))
    for B in Bs:
        grid_pushforward(f, B)
    assert held == [0, 4 * 700**2, 4 * 700**2, 4 * 700**2] and len(grid._OPERATORS) == 2
    # a hit moves its entry to the newest end: the next miss evicts the other one
    grid_pushforward(f, Bs[2])
    grid_pushforward(f, Bs[0])
    keys = [B.tobytes() for B in (Bs[2], Bs[0])]
    assert [key[3] for key in grid._OPERATORS] == keys and held[-1] == 4 * 700**2
    grid._OPERATORS.clear()


def test_a_target_past_int32_raises_before_anything_is_built():
    import tracemalloc

    f = GridFunction.constant(1.0, BOX2, (4, 4))
    B = np.eye(2)
    wide = GridSpec(box=BOX2, resolution=(50_000, 50_000))  # 2.5e9 cells: 20 GB of float64 bin counts
    grid._OPERATORS.clear()
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="2\\^31 - 1 cells"):
            grid_pushforward(f, B, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and len(grid._OPERATORS) == 0


def test_margin_from_sides_sign_scale_and_estimate():
    fwd = InequalityMargin.from_sides(2.0, 5.0, "forward", drift=0.25)
    assert (fwd.lhs, fwd.rhs, fwd.margin, fwd.mode) == (2.0, 5.0, 3.0, "forward")
    assert fwd.relative_margin == 3.0 / 5.0
    assert fwd.quadrature_estimate == 0.25 + 1e-12 * 5.0
    rev = InequalityMargin.from_sides(-7.0, 5.0, "reverse", drift=0.5)
    assert (rev.margin, rev.mode) == (-12.0, "reverse")
    assert rev.relative_margin == -12.0 / 7.0
    assert rev.quadrature_estimate == 0.5 + 1e-12 * 7.0
    assert not rev.certified
    small = InequalityMargin.from_sides(0.25, 0.5, "reverse", drift=0.0)
    assert small.margin == -0.25 and small.relative_margin == -0.25  # scale floors at 1
    assert small.quadrature_estimate == 1e-12


def test_margin_from_sides_exact_has_zero_estimate():
    m = InequalityMargin.from_sides(3.0, 3.0 + 1e-15, "forward")
    assert m.quadrature_estimate == 0.0
    assert m.certified
    with pytest.raises(ValueError, match="margin mode"):
        InequalityMargin.from_sides(1.0, 2.0, "Forward")


@pytest.mark.parametrize("resolution", [(5,), (4, 3), (3, 2, 4)])
def test_mesh_points_lay_points_out_in_values_order(resolution):
    box = tuple((-1.0 - a, 2.0 + a) for a in range(len(resolution)))
    axes = grid.grid_centers(box, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = mesh_points(axes)
    assert np.array_equal(pts, np.stack([m.ravel() for m in mesh], axis=1))
    # row i is the centre of the cell whose value is values.ravel()[i]
    f = GridFunction.from_callable(lambda *x: sum((a + 3) * 10.0**k for k, a in enumerate(x)), box, resolution)
    expected = sum((pts[:, k] + 3) * 10.0**k for k in range(len(resolution)))
    assert np.array_equal(f.values.ravel(), expected)



def _whole_grid_bin_index(f, B, target):
    """The int64 bin index and escape mask of every cell centre, each target
    coordinate one whole-grid outer sum of per-axis terms."""
    axes = f.centers()
    flat = np.zeros(f.values.size, dtype=np.int64)
    inside = np.ones(f.values.size, dtype=bool)
    for a, ((lo, hi), n) in enumerate(zip(target.box, target.resolution)):
        y = 0.0
        for j, c in enumerate(axes):
            shape = [1] * f.dim
            shape[j] = c.size
            y = y + (c * B[a, j]).reshape(shape)
        y = np.broadcast_to(y, f.resolution).ravel()
        tol = 1e-12 * max(hi - lo, 1.0)
        inside &= (y >= lo - tol) & (y <= hi + tol)
        flat = flat * n + np.clip(np.floor((y - lo) / ((hi - lo) / n)).astype(np.int64), 0, n - 1)
    return flat, ~inside


@pytest.mark.parametrize("res", [(300, 700), (40, 50, 60), (21, 18, 24, 26)], ids=["d2", "d3", "d4"])
def test_row_blocked_bin_index_is_the_whole_grid_index(res):
    d = len(res)
    blocks = grid.row_blocks(res)
    assert len(blocks) > 1 and blocks[-1][0].stop > res[0]  # several blocks, the last one partial
    f = random_grid_function(((-1.0, 1.5),) * d, res, seed=d, zero_fraction=0.3)
    B = np.random.default_rng(d).standard_normal((2, d))
    target = grid._auto_target(f, B)
    flat = grid._bin_index(f, B, target)
    expected, escaping = _whole_grid_bin_index(f, B, target)
    assert not escaping.any()
    assert flat.dtype == np.int32 and np.array_equal(flat, expected)
    # an escaping geometry raises with the escaping mass fraction of the whole-grid mask
    small = GridSpec(box=tuple((0.5 * lo, 0.5 * hi) for lo, hi in target.box), resolution=target.resolution)
    escaping = _whole_grid_bin_index(f, B, small)[1]
    masses = f.values.ravel() * f.cell_volume
    assert escaping.any()
    for build in (lambda: grid._bin_index(f, B, small), lambda: grid_pushforward(f, B, small)):
        grid._OPERATORS.clear()
        with pytest.raises(CoverageError) as err:
            build()
        assert err.value.escaping_fraction == float(masses[escaping].sum()) / float(masses.sum())
    grid._OPERATORS.clear()


@pytest.mark.parametrize(
    "make",
    [
        lambda: GridSpec(((0, 1),), (4, 4)),
        lambda: GridSpec(((0, 1), (0, 1)), (4,)),
        lambda: GridFunction(((0, 1),), (4, 4), np.ones((4, 4))),
        lambda: GridFunction(((0, 1),) * 3, (4, 4), np.ones((4, 4))),
    ],
    ids=["spec-short-box", "spec-long-box", "function-short-box", "function-long-box"],
)
def test_box_and_resolution_must_have_the_same_axes(make):
    with pytest.raises(ValueError, match="axes"):
        make()


def test_grid_spec_rejects_an_empty_axis():
    with pytest.raises(ValueError, match="positive extent"):
        GridSpec(((0.0, 1.0), (2.0, 2.0)), (4, 4))


@pytest.mark.parametrize("resolution", [(0, 4), (4, -4), (0,), (-1,)])
def test_grid_spec_rejects_fewer_than_one_cell(resolution):
    box = ((0.0, 1.0),) * len(resolution)
    with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
        GridSpec(box, resolution)
    with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
        GridFunction(box, resolution, np.zeros(tuple(max(n, 0) for n in resolution)))


def test_cell_volume_is_the_numpy_product_bitwise():
    """GridFunction took np.prod of the cell sizes; reports keep their bytes."""
    rng = np.random.default_rng(8)
    for _ in range(2000):
        d = int(rng.integers(1, 7))
        lo = rng.uniform(-10.0, 10.0, size=d)
        spec = GridSpec(tuple(zip(lo, lo + rng.uniform(1e-3, 20.0, size=d))), rng.integers(1, 9, size=d))
        assert spec.cell_volume == float(np.prod(spec.cell_sizes))


def _two_sided_margin(f, datum, params, bl_value):
    """adjoint_margin as it was when the refined pass recomputed ||f||_p."""

    def sides(g):
        lhs = lp_norm(g, params.p)
        norms = (lp_norm(grid_pushforward(g, b), q) for b, q in zip(datum.maps, params.p_i))
        return lhs, math.exp(params.log_rhs(norms, bl_value))

    lhs, rhs = sides(f)
    lhs_fine, rhs_fine = sides(f.refine())
    return InequalityMargin.from_sides(lhs, rhs, params.mode, abs((rhs - lhs) - (rhs_fine - lhs_fine)))


@pytest.mark.parametrize(
    "datum, theta, p, resolution",
    [
        (loomis_whitney(2), (0.4, 0.6), 0.6, (48, 40)),
        (conjugate_datum(young(), seed=5), (0.3, 0.3, 0.4), 0.7, (32, 32)),
        (loomis_whitney(3), (0.2, 0.3, 0.5), 0.5, (12, 10, 14)),
        (loomis_whitney(2), (-1.0, 2.0), 2.0, (40, 48)),
        (loomis_whitney(3), (-1.0, -1.0, 3.0), math.inf, (12, 14, 10)),
    ],
    ids=["forward-d2", "forward-d2-conjugated", "forward-d3", "reverse-d2", "reverse-d3"],
)
def test_adjoint_margin_sides_are_the_two_sided_arithmetic_bitwise(datum, theta, p, resolution):
    params = derive_adjoint_exponents(datum.exponents, theta, p)
    assert params.mode == ("forward" if p < 1 else "reverse")
    bl = bl_gaussian_constant(datum).value if params.mode == "forward" else 1.0
    d = len(resolution)
    for seed in range(4):
        f = random_grid_function(((-1.0, 1.0),) * d, resolution, seed=seed, zero_fraction=0.3 * (seed % 2))
        if params.mode == "reverse":
            f = GridFunction(f.box, f.resolution, f.values / f.values.max())
        got, want = adjoint_margin(f, datum, params, bl), _two_sided_margin(f, datum, params, bl)
        assert (got.lhs, got.rhs, got.margin, got.relative_margin, got.mode) == (
            want.lhs, want.rhs, want.margin, want.relative_margin, want.mode
        )
        # the drifts differ by the rounding of ||f||_p on the refined grid, so
        # they agree relative to the margin's scale (a drift can be near 0)
        scale = max(1.0, abs(want.lhs), abs(want.rhs))
        assert abs(got.quadrature_estimate - want.quadrature_estimate) <= 1e-12 * scale


def test_adjoint_margin_takes_the_norm_of_f_once(monkeypatch):
    datum = loomis_whitney(3)
    params = derive_adjoint_exponents(datum.exponents, (0.2, 0.3, 0.5), 0.5)
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 10, 12), seed=4)
    calls = []
    original = grid.lp_norm

    def counting(g, p):
        calls.append((g.resolution, p))
        return original(g, p)

    monkeypatch.setattr(grid, "lp_norm", counting)
    grid.adjoint_margin(f, datum, params, 1.0)
    assert [c for c in calls if len(c[0]) == f.dim] == [(f.resolution, params.p)]
    assert len(calls) == 1 + 2 * datum.k  # every marginal, of f and of its refinement


def _parent_lp_norm(f, p):
    if p == math.inf:
        return float(f.values.max())
    vals = np.where(f.values < 1e-300, 0.0, f.values)
    return (float(np.sum(vals**p)) * f.cell_volume) ** (1.0 / p)


@pytest.mark.parametrize("scale", [1.0, 1e-290])
@pytest.mark.parametrize("p", [0.3, 0.5, 0.9, 1.0, 1.7, 3.0])
def test_lp_norm_is_bitwise_the_flush_then_power_form(p, scale):
    # zeros, and entries below the 1e-300 flush; at scale 1e-290 their powers
    # for p < 1 would move the norm if they were not flushed
    vals = scale * random_grid_function(BOX2, (64, 64), seed=8, zero_fraction=0.3).values
    vals[::7, ::5] = 1e-310
    f = GridFunction(BOX2, (64, 64), vals)
    assert lp_norm(f, p) == _parent_lp_norm(f, p)


def _parent_auto_target(f, B):
    corners = np.array(list(itertools.product(*f.box)))
    images = corners @ B.T
    box = tuple((float(a), float(b)) for a, b in zip(images.min(axis=0), images.max(axis=0)))
    return GridSpec(box, (max(f.resolution),) * images.shape[1])


def _parent_log_rhs(f, datum, params, bl_value):
    """The marginal norms of the adjoint inequality with every grid built by
    the public constructor, each target and bin index rebuilt and each
    pushforward taking its own masses."""
    norms = []
    for b, q in zip(datum.maps, params.p_i):
        target = _parent_auto_target(f, np.asarray(b, dtype=float))
        vals = _reference_pushforward(f, b, target)
        norms.append(_parent_lp_norm(GridFunction(target.box, target.resolution, vals), q))
    return params.log_rhs(norms, bl_value)


def _parent_margin(f, datum, params, bl_value):
    lhs = _parent_lp_norm(f, params.p)
    rhs = math.exp(_parent_log_rhs(f, datum, params, bl_value))
    vals = f.values
    for ax in range(f.dim):
        vals = np.repeat(vals, 2, axis=ax)
    fine = GridFunction(f.box, tuple(2 * n for n in f.resolution), vals)
    rhs_fine = math.exp(_parent_log_rhs(fine, datum, params, bl_value))
    return lhs, rhs, abs((rhs - lhs) - (rhs_fine - lhs))


MARGIN_CASES = {
    2: (lambda: conjugate_datum(loomis_whitney(2), seed=5), (44, 38), ((0.4, 0.6), 0.7), ((1.5, -0.5), 2.0)),
    3: (lambda: conjugate_datum(loomis_whitney(3), seed=6), (14, 12, 10), ((0.2, 0.5, 0.3), 0.6), ((1.6, -0.3, -0.3), 2.0)),
    4: (
        lambda: conjugate_datum(finner_cyclic4(), seed=7),
        (7, 6, 8, 5),
        ((0.1, 0.2, 0.3, 0.4), 0.8),
        ((1.6, -0.2, -0.2, -0.2), 2.0),
    ),
}


@pytest.mark.parametrize("zero_fraction", [0.0, 0.3])
@pytest.mark.parametrize("mode", ["forward", "reverse"])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_margin_is_bitwise_the_uncached_margin(d, mode, zero_fraction):
    make, res, forward, reverse = MARGIN_CASES[d]
    datum = make()
    params = derive_adjoint_exponents(datum.exponents, *(forward if mode == "forward" else reverse))
    assert params.mode == mode
    f = random_grid_function(((-1.0, 1.5),) * d, res, seed=d, zero_fraction=zero_fraction)
    lhs, rhs, drift = _parent_margin(f, datum, params, 1.3)
    expected = InequalityMargin.from_sides(lhs, rhs, mode, drift)
    grid._OPERATORS.clear()
    cold = adjoint_margin(f, datum, params, 1.3)
    warm = adjoint_margin(f, datum, params, 1.3)
    assert cold == warm == expected  # lhs, rhs, margin and estimate, bit for bit
    grid._OPERATORS.clear()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_log_lambda_is_bitwise_the_uncached_quotient(d):
    make, res, forward, _ = MARGIN_CASES[d]
    datum = make()
    params = derive_adjoint_exponents(datum.exponents, *forward)
    f = random_grid_function(((-1.0, 1.5),) * d, res, seed=d + 10, zero_fraction=0.3)
    expected = math.log(_parent_lp_norm(f, params.p)) - _parent_log_rhs(f, datum, params, 1.3)
    grid._OPERATORS.clear()
    assert log_lambda(f, datum, params, 1.3) == expected  # cold
    assert log_lambda(f, datum, params, 1.3) == expected  # warm
    grid._OPERATORS.clear()


def test_a_cache_hit_skips_the_default_target(monkeypatch):
    f = random_grid_function(BOX2, (24, 20), seed=2)
    g = random_grid_function(BOX2, (24, 20), seed=3)
    B = np.array([[1.0, 0.4], [-0.3, 0.8]])
    grid._OPERATORS.clear()
    cold = grid_pushforward(f, B)
    calls = []
    original = grid._auto_target
    monkeypatch.setattr(grid, "_auto_target", lambda *args: calls.append(args) or original(*args))
    warm = grid_pushforward(f, B)
    other = grid_pushforward(g, B)  # same geometry, other values
    assert calls == []
    assert (warm.box, warm.resolution) == (cold.box, cold.resolution) == (other.box, other.resolution)
    assert np.array_equal(warm.values, cold.values)
    assert np.array_equal(other.values, _reference_pushforward(g, B, original(g, B)))
    grid._OPERATORS.clear()
    grid_pushforward(f, B)  # a miss builds the default target once
    assert len(calls) == 1
    grid._OPERATORS.clear()


def test_a_margin_computes_the_refined_masses_once(monkeypatch):
    datum = finner_mixed()  # 4 maps of R^3
    params = derive_adjoint_exponents(datum.exponents, (0.1, 0.2, 0.3, 0.4), 0.7)
    f = random_grid_function(((-1.0, 1.0),) * 3, (10, 12, 8), seed=4)
    seen = []
    original = grid.GridFunction.masses.func
    counted = functools.cached_property(lambda g: seen.append(g.resolution) or original(g))
    counted.__set_name__(grid.GridFunction, "masses")
    monkeypatch.setattr(grid.GridFunction, "masses", counted)
    adjoint_margin(f, datum, params, 1.0)
    # the caller's grid and the refinement: each once for all 4 maps
    assert seen == [(10, 12, 8), (20, 24, 16)]
    assert np.array_equal(f.masses, f.values.ravel() * f.cell_volume) and len(seen) == 2  # kept on f


def test_public_constructor_copies_and_checks_its_values():
    raw = np.ones((4, 3))
    f = GridFunction(((0.0, 1.0), (0.0, 2.0)), (4, 3), raw)
    raw[0, 0] = 5.0
    assert f.values[0, 0] == 1.0 and not f.values.flags.writeable
    for bad, match in ((math.nan, "finite"), (math.inf, "finite"), (-1.0, "non-negative")):
        vals = np.ones((4, 3))
        vals[1, 2] = bad
        with pytest.raises(ValueError, match=match):
            GridFunction(((0.0, 1.0), (0.0, 2.0)), (4, 3), vals)


def test_library_built_grids_are_read_only():
    f = random_grid_function(BOX2, (12, 10), seed=1, zero_fraction=0.3, smooth=1)
    fine = f.refine()
    g = grid_pushforward(f, np.array([[1.0, 0.5]]))
    for h in (f, fine, g):
        assert not h.values.flags.writeable and h.values.shape == h.resolution
        assert h.values.dtype == np.float64 and h.values.flags.c_contiguous
    assert np.array_equal(fine.masses, fine.values.ravel() * fine.cell_volume)
    with pytest.raises(ValueError, match="resolution must be an integer >= 1"):
        random_grid_function(BOX2, (0, 4), seed=1)  # the geometry is still checked


@pytest.mark.parametrize("scale", [1e-170, 1e-158])
def test_pushforward_onto_vanishing_cells_is_rejected(scale):
    # the target cell volume underflows to 0 or to a subnormal, so a bin's
    # mass over it is not finite
    f = random_grid_function(BOX2, (8, 8), seed=1)
    with np.errstate(divide="ignore", over="ignore"), pytest.raises(ValueError, match="finite"):
        grid_pushforward(f, scale * np.eye(2))
    assert np.all(np.isfinite(grid_pushforward(f, 1e-150 * np.eye(2)).values))


@pytest.mark.parametrize("p", [math.nan, True, False, np.bool_(True), 0.0, -1.0, -math.inf])
def test_lp_norm_rejects_nan_bool_and_non_positive_exponents(p):
    f = random_grid_function(BOX2, (8, 8), seed=1)
    with pytest.raises(ValueError, match="p must be"):
        lp_norm(f, p)

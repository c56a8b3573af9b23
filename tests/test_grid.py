import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blq.catalog import conjugate_datum, finner_mixed, loomis_whitney, young
from blq.data import derive_adjoint_exponents
from blq import grid
from blq.errors import CoverageError, MassError
from blq.gaussian import SpdMatrix, bl_gaussian_constant, gaussian_pushforward
from blq.grid import (
    GridFunction,
    GridSpec,
    adjoint_margin,
    gaussian_grid,
    grid_pushforward,
    load_grid_function,
    lp_norm,
    random_grid_function,
    rank_one_distance,
    save_grid_function,
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
    g = f.refine(2)
    assert g.mass == pytest.approx(f.mass, rel=1e-14)
    assert lp_norm(g, 0.7) == pytest.approx(lp_norm(f, 0.7), rel=1e-13)
    back = g.coarsen(2)
    assert np.allclose(back.values, f.values, atol=1e-14)


def test_margin_p_one_is_equality():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.4, 0.6), 1.0)
    f = random_grid_function(BOX2, (64, 64), seed=9)
    m = adjoint_margin(f, datum, params, 1.0)
    assert abs(m.margin) <= m.quadrature_estimate


def test_margin_product_indicator_equality():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.5, 0.5), 0.5)
    f = GridFunction.indicator_box(((0, 1), (0, 2.5)), BOX2, (256, 256))
    m = adjoint_margin(f, datum, params, 1.0)
    assert abs(m.margin) <= m.quadrature_estimate


def test_margin_gaussian_ratio_is_prefactor():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.5, 0.5), 0.5)
    f = gaussian_grid(np.eye(2), BOX2, (256, 256))
    m = adjoint_margin(f, datum, params, 1.0)
    assert m.margin > 0
    assert m.lhs / m.rhs == pytest.approx(4.0 * (1.0 / 3.0) ** 1.5, rel=1e-3)


def test_margin_nonproduct_strictly_positive():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.5, 0.5), 0.5)
    rng = np.random.default_rng(17)
    for _ in range(5):
        f = random_grid_function(BOX2, (64, 64), seed=int(rng.integers(1 << 30)))
        assert rank_one_distance(f) > 0.1
        m = adjoint_margin(f, datum, params, 1.0)
        assert m.margin >= 3.0 * m.quadrature_estimate


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
        params = derive_adjoint_exponents(datum, raw / raw.sum(), rng.uniform(0.3, 0.95))
        m = adjoint_margin(f, datum, params, bl)
        assert m.margin >= -m.quadrature_estimate


def test_reverse_transfer_inequality_d3():
    # one marginal is controlled by the others when the input is bounded by 1
    datum = loomis_whitney(3)
    params = derive_adjoint_exponents(datum, (-1.0, -1.0, 3.0), math.inf)
    rng = np.random.default_rng(55)
    for _ in range(100):
        f = random_grid_function(((0, 1),) * 3, (16, 16, 16), seed=int(rng.integers(1 << 30)))
        f = GridFunction(f.box, f.resolution, f.values / f.values.max())
        m = adjoint_margin(f, datum, params, 1.0)
        assert m.margin >= -m.quadrature_estimate


def test_margin_mode_mismatch_rejected():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.5, 0.5), 0.5)
    f = random_grid_function(BOX2, (16, 16), seed=1)
    with pytest.raises(ValueError):
        adjoint_margin(f, datum, params, 1.0, mode="reverse")


def test_zero_function_rejected():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.5, 0.5), 0.5)
    f = GridFunction.constant(0.0, BOX2, (8, 8))
    with pytest.raises(MassError):
        adjoint_margin(f, datum, params, 1.0)


def test_signed_values_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        GridFunction(((0, 1),), (4,), np.array([1.0, -0.5, 0.0, 2.0]))


def test_tiny_values_flushed():
    f = GridFunction(((0.0, 1.0),), (4,), np.array([1e-310, 0.5, 0.25, 0.0]))
    assert math.isfinite(lp_norm(f, 0.5))


@pytest.mark.parametrize("payload", ["binary", "csv"])
def test_grid_file_roundtrip(tmp_path, payload):
    f = random_grid_function(((0, 2), (-1, 1)), (8, 12), seed=2)
    path = tmp_path / f"grid.{payload}.blq"
    save_grid_function(f, path, payload=payload)
    g = load_grid_function(path)
    assert g.box == f.box and g.resolution == f.resolution
    assert np.allclose(g.values, f.values, rtol=0, atol=0 if payload == "binary" else 1e-16)


def test_conjugated_datum_margins_still_certified():
    datum = conjugate_datum(young(), seed=77)
    bl = bl_gaussian_constant(datum).value
    params = derive_adjoint_exponents(datum, (0.3, 0.3, 0.4), 0.6)
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
    grid._BIN_INDEX_CACHE.clear()
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
    grid._BIN_INDEX_CACHE.clear()
    fractions = []
    for h in (f, f, g):
        with pytest.raises(CoverageError) as err:
            grid_pushforward(h, B, small)
        fractions.append(err.value.escaping_fraction)
    assert len(grid._BIN_INDEX_CACHE) == 1
    assert fractions[0] == fractions[1] == _reference_pushforward(f, B, small)
    assert fractions[2] == _reference_pushforward(g, B, small) != fractions[0]


def test_bin_index_cache_stays_within_its_cap():
    cache = grid._BIN_INDEX_CACHE
    rng = np.random.default_rng(9)
    cache.clear()
    for i in range(60):
        f = random_grid_function(((-1.0, 1.0),) * 3, (48, 48, 48), seed=i)
        grid_pushforward(f, rng.standard_normal((2, 3)))
        assert cache.nbytes <= cache.cap_bytes
    assert 1 < len(cache) < 60
    # an entry larger than the cap is kept alone
    big = GridFunction.constant(1.0, ((-1.0, 1.0),) * 2, (1100, 1100))
    grid_pushforward(big, np.array([[1.0, 0.5]]))
    assert len(cache) == 1 and cache.nbytes == 4 * 1100 * 1100 > cache.cap_bytes
    cache.clear()

import math

import numpy as np
import pytest
import scipy.integrate

from blq import tomography
from blq.errors import InputError, ParameterDomainError
from blq.grid import GridFunction, gaussian_grid, lp_norm, random_grid_function
from blq.tomography import (
    DirectionSet,
    averaged_projection_margin,
    gauss_wedge_integral_mc,
    haar_planes,
    kplane_entropy_sequence,
    kplane_transform,
    lower_bound_margin_from_tomograms,
    projection_shadow_measure,
    radial_moment_factor,
    restricted_xray_constant,
    scaling_exponent_q,
    tomography_lower_bound_margin,
    wedge_moment,
    xray_transform,
    xray_transform_batch,
    xx_constant_via_mc,
    xx_gamma_constant,
    xx_inequality_margin,
    xx_r_exponent,
)

BOX = ((-2.0, 2.0), (-2.0, 2.0))


def turned_circle(n, turn):
    """``DirectionSet.uniform_circle(n)`` turned by ``turn`` radians, so no
    direction lies on a grid axis."""
    angles = turn + 2.0 * math.pi * np.arange(n) / n
    return DirectionSet.from_vectors(np.stack([np.cos(angles), np.sin(angles)], axis=1))


def test_direction_set_validation():
    with pytest.raises(ValueError):
        DirectionSet(np.array([[1.0, 1.0]]), np.array([1.0]))
    with pytest.raises(ValueError):
        DirectionSet(np.array([[1.0, 0.0]]), np.array([0.5]))
    ds = DirectionSet.uniform_circle(8)
    assert len(ds) == 8 and ds.weights.sum() == pytest.approx(1.0)


def test_xray_unit_square_chords():
    f = GridFunction.indicator_box(((0, 1), (0, 1)), BOX, (128, 128))
    tom = xray_transform(f, DirectionSet.uniform_circle(4))
    # the support of each profile has measure ~1 and interior height ~1
    for i in range(4):
        profile = tom.values[i]
        assert profile.max() == pytest.approx(1.0, abs=2e-2)
        support = float(np.sum(profile > 0.5) * tom.offset_cell_volume)
        assert support == pytest.approx(1.0, abs=0.05)


def test_xray_disk_chord_lengths():
    f = GridFunction.from_callable(
        lambda x, y: (x**2 + y**2 <= 1.0).astype(float), BOX, (256, 256)
    )
    tom = xray_transform(f, DirectionSet.uniform_circle(8))
    ax = tom.offsets_axes[0]
    sel = np.abs(ax) <= 0.8
    chord = 2.0 * np.sqrt(1.0 - ax[sel] ** 2)
    assert np.max(np.abs(tom.values[0][sel] - chord) / chord) < 2e-2


@pytest.mark.parametrize("method", ["sample", "deposit"])
def test_xray_l1_invariance(method):
    rng = np.random.default_rng(4)
    for seed in rng.integers(0, 1 << 30, size=3):
        f = random_grid_function(((-4, 4), (-4, 4)), (128, 128), seed=int(seed))
        tom = xray_transform(f, DirectionSet.uniform_circle(90), method=method)
        assert tom.l1() / f.mass == pytest.approx(1.0, abs=1e-3)
    g = gaussian_grid(np.eye(2), ((-6, 6), (-6, 6)), (128, 128))
    tom = xray_transform(g, DirectionSet.uniform_circle(90), method=method)
    assert tom.l1() / g.mass == pytest.approx(1.0, abs=1e-3)


def test_xray_rotation_equivariance():
    f = random_grid_function(BOX, (64, 64), seed=2)
    dirs = DirectionSet.uniform_circle(8)
    base = xray_transform(f, dirs)
    rotated = xray_transform(GridFunction(f.box, f.resolution, np.rot90(f.values)), dirs)
    assert np.max(np.abs(rotated.values - np.roll(base.values, 2, axis=0))) < 1e-9


def test_xray_empty_directions_rejected():
    f = random_grid_function(BOX, (16, 16), seed=0)
    with pytest.raises(ValueError):
        xray_transform(f, DirectionSet(np.zeros((0, 2)), np.zeros(0)))


@pytest.mark.parametrize(
    "make",
    [
        lambda: DirectionSet.from_vectors([]),
        lambda: DirectionSet.from_vectors(np.zeros((0, 3))),
        lambda: DirectionSet.uniform_circle(0),
        lambda: DirectionSet.fibonacci_sphere(0),
        lambda: DirectionSet.great_circle(0),
        lambda: DirectionSet(np.zeros((0, 2)), np.zeros(0)),
    ],
    ids=["from_vectors", "from_vectors-3d", "uniform_circle", "fibonacci_sphere", "great_circle", "constructor"],
)
def test_empty_direction_sets_are_rejected(make):
    with pytest.raises(ValueError, match="direction set is empty"):
        make()


def test_kplane_gaussian_profiles_are_gaussian():
    f = gaussian_grid(np.eye(3), ((-4, 4),) * 3, (48,) * 3)
    tom = kplane_transform(f, 16, seed=3)
    ax = tom.offsets_axes[0]
    closed = np.exp(-math.pi * ax**2)
    for i in range(len(tom.weights)):
        err = np.sum(np.abs(tom.values[i] - closed)) * tom.offset_cell_volume
        assert err < 2e-2


def test_kplane_scaling_linearity():
    f = random_grid_function(((-2.0, 2.0),) * 3, (16, 16, 16), seed=9)
    lam = 2.5
    g = GridFunction(f.box, f.resolution, lam * f.values)
    frames = haar_planes(3, 2, 6, seed=1)
    a = kplane_transform(f, frames)
    b = kplane_transform(g, frames)
    assert np.allclose(b.values, lam * a.values, rtol=1e-12, atol=1e-12)


def test_kplane_scope_errors():
    f = random_grid_function(BOX, (8, 8), seed=0)
    with pytest.raises(ValueError, match="d = 3"):
        kplane_transform(f, 4)  # planes of R^3 only


def test_scaling_line_solver():
    q = scaling_exponent_q(0.5, 2)
    assert q == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert scaling_exponent_q(1.0, 3, k=2) == pytest.approx(1.0)


def test_lower_bound_margin_p_equals_one():
    f = random_grid_function(BOX, (64, 64), seed=11)
    m = tomography_lower_bound_margin(f, 1.0, 1.0, dirs=DirectionSet.uniform_circle(60))
    assert abs(m.margin) <= m.quadrature_estimate


def test_lower_bound_margin_square_indicator():
    f = GridFunction.indicator_box(((0, 1), (0, 1)), BOX, (128, 128))
    q = scaling_exponent_q(0.5, 2)
    m = tomography_lower_bound_margin(f, 0.5, q, dirs=DirectionSet.uniform_circle(360))
    assert m.certified
    assert m.margin > 0


def test_off_line_exponents_rejected():
    f = random_grid_function(BOX, (16, 16), seed=1)
    with pytest.raises(ParameterDomainError, match="scaling line"):
        tomography_lower_bound_margin(f, 0.5, 0.9)


def test_restricted_constant_p_one():
    mu = DirectionSet.fibonacci_sphere(32)
    est = restricted_xray_constant(mu, 1.0, 1.0, 3, 1000, seed=0)
    assert est.value == 1.0 and est.stderr == 0.0


def test_restricted_constant_great_circle_vanishes():
    mu = DirectionSet.great_circle(64)
    p = 0.5
    est = restricted_xray_constant(mu, p, scaling_exponent_q(p, 3), 3, 20000, seed=1)
    assert est.value < 1e-3


def _reference_restricted_mean(mu, a, d, n_mc, seed):
    """The restricted constant's Monte Carlo mean, drawn the long way: a draw
    that repeats a direction has wedge exactly 0."""
    idx = np.random.default_rng(seed).choice(len(mu), size=(n_mc, d), p=mu.weights)
    wedge = tomography._wedge_modulus(mu.vectors[idx])
    wedge[[len(set(row)) < d for row in idx.tolist()]] = 0.0
    return float((wedge**a).mean())


def test_rank_deficient_restricted_constant_is_exactly_zero_without_draws(monkeypatch):
    p = 0.5
    q = scaling_exponent_q(p, 3)
    a = 3 * q * (1.0 / p - 1.0) / 2
    circle = DirectionSet.great_circle(128)
    # the draws give exactly 0 too, since every det has a zero column
    assert _reference_restricted_mean(circle, a, 3, 5000, seed=3) == 0.0
    pole = np.array([[0.0, 0.0, 1.0]])
    weightless_pole = DirectionSet(np.concatenate([circle.vectors, pole]), np.append(circle.weights, 0.0))

    def no_draws(*args, **kwargs):
        raise AssertionError("a rank-deficient support needs no draws")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    for mu in (circle, weightless_pole):
        est = restricted_xray_constant(mu, p, q, 3, 100_000, seed=3)
        assert (est.value, est.stderr, est.mean, est.mean_stderr, est.n_samples) == (0.0, 0.0, 0.0, 0.0, 100_000)
    monkeypatch.undo()
    # with exponent a = 0 the constant stays 1
    assert restricted_xray_constant(circle, 1.0, 1.0, 3, 1000, seed=0).value == 1.0


def test_full_rank_restricted_constant_keeps_its_monte_carlo():
    p = 0.5
    q = scaling_exponent_q(p, 3)
    a = 3 * q * (1.0 / p - 1.0) / 2
    mu = DirectionSet.fibonacci_sphere(32)
    est = restricted_xray_constant(mu, p, q, 3, 5000, seed=3)
    assert est.mean == _reference_restricted_mean(mu, a, 3, 5000, seed=3) > 0.0
    assert est.value == est.mean ** (1.0 / (3 * q))


def test_restricted_draws_that_repeat_a_direction_have_wedge_exactly_zero():
    p = 0.5
    q = scaling_exponent_q(p, 3)
    a = 3 * q * (1.0 / p - 1.0) / 2
    rng = np.random.default_rng(8)
    v = rng.standard_normal((3, 3))
    mu = DirectionSet.from_vectors(v / np.linalg.norm(v, axis=1, keepdims=True))
    # only the 6 orders of three distinct directions have a wedge, and their
    # moduli agree to rounding; the other 21 of 27 draws are exact zeros, not
    # rounding noise raised to the power a ~ 1e-10
    idx = np.random.default_rng(5).choice(3, size=(3000, 3), p=mu.weights)
    distinct = np.mean([len(set(row)) == 3 for row in idx.tolist()])
    wedge = abs(np.linalg.det(mu.vectors))
    est = restricted_xray_constant(mu, p, q, 3, 3000, seed=5)
    assert est.mean == pytest.approx(distinct * wedge**a, rel=1e-14)


def test_restricted_constant_uniform_matches_sin_moment():
    p = 0.5
    d = 2
    q = scaling_exponent_q(p, d)
    a = d * q * (1.0 / p - 1.0) / (d - 1)
    oracle = scipy.integrate.quad(lambda t: math.sin(t) ** a / math.pi, 0.0, math.pi)[0]
    mu = DirectionSet.uniform_circle(512)
    est = restricted_xray_constant(mu, p, q, d, 200_000, seed=5)
    assert est.mean == pytest.approx(oracle, abs=4.0 * est.mean_stderr + 1e-4)


@pytest.mark.parametrize("q", [0.1 * i for i in range(1, 10)])
def test_wedge_moment_matches_sin_oracle(q):
    oracle = scipy.integrate.quad(
        lambda t: math.sin(t) ** (1.0 - q) / math.pi, 0.0, math.pi
    )[0]
    assert abs(wedge_moment(2, q) - oracle) < 1e-10


@pytest.mark.parametrize("q", [0.1 * i for i in range(1, 10)])
def test_wedge_moment_matches_the_d3_sphere_law(q):
    # E |w_1 ^ w_2 ^ w_3|^{1-q} = (int_0^1 (1 - s^2)^{(1-q)/2} ds) / (2 - q)
    law = scipy.integrate.quad(lambda s: (1.0 - s * s) ** ((1.0 - q) / 2.0), 0.0, 1.0)[0] / (2.0 - q)
    assert abs(wedge_moment(3, q) - law) < 1e-14


def test_gamma_constant_limits():
    assert xx_gamma_constant(2, 2.0, 1.0 - 1e-9) == pytest.approx(1.0, abs=1e-6)
    # d=2, q -> 0: the inner moment tends to the mean of |sin|, which is 2/pi
    assert wedge_moment(2, 1e-9) == pytest.approx(2.0 / math.pi, rel=1e-6)
    with pytest.raises(ParameterDomainError):
        xx_gamma_constant(2, 0.5, 0.5)


def test_gauss_wedge_integral_matches_closed_form():
    for d in (2, 3):
        a = 0.5
        closed = 1.0
        for ell in range(d):
            closed *= radial_moment_factor(d - ell, a)
        est = gauss_wedge_integral_mc(d, a, 100_000, seed=2)
        assert est.mean == pytest.approx(closed, abs=4.0 * est.mean_stderr + 1e-5)


@pytest.mark.parametrize("seed", [4, 11])
@pytest.mark.parametrize("d", [2, 3])
def test_blocked_wedge_draws_are_the_whole_array_draw(d, seed):
    n_mc = 3 * 2**15 + 5  # the last block is partial
    x = np.random.default_rng(seed).standard_normal((n_mc, d, d)) / math.sqrt(2.0 * math.pi)
    vals = tomography._wedge_modulus(x) ** 0.5
    est = gauss_wedge_integral_mc(d, 0.5, n_mc, seed)
    assert est.mean == est.value == float(vals.mean())
    assert est.mean_stderr == est.stderr == float(vals.std(ddof=1) / math.sqrt(n_mc))


@pytest.mark.parametrize("n_mc", [0, -1, 16.0])
def test_wedge_mc_rejects_a_sample_count_that_is_no_positive_integer(n_mc):
    with pytest.raises(InputError, match="n_mc"):
        gauss_wedge_integral_mc(2, 0.5, n_mc, seed=1)
    with pytest.raises(InputError, match="n_mc"):
        xx_constant_via_mc(2, 2.0, 0.5, n_mc, seed=1)


@pytest.mark.parametrize("d", [2, 3])
def test_wedge_modulus_is_the_determinant_within_hadamards_bound(d):
    x = np.random.default_rng(20 + d).standard_normal((10_000, d, d)) * np.exp(np.arange(d))
    bound = 8 * np.finfo(float).eps * np.prod(np.linalg.norm(x, axis=2), axis=1)
    assert np.all(np.abs(tomography._wedge_modulus(x) - np.abs(np.linalg.det(x))) <= bound)


@pytest.mark.parametrize("d", [2, 3])
def test_wedge_modulus_of_a_zero_column_is_exactly_zero(d):
    x = np.random.default_rng(d).standard_normal((2000, d, d))
    for k in range(d):
        y = x.copy()
        y[:, :, k] = 0.0  # a great-circle stack of d = 3 has a zero last column
        assert not np.any(tomography._wedge_modulus(y))


def test_wedge_modulus_of_repeated_rows_is_exactly_zero():
    """Both rows at d = 2, and rows 1 and 2 at d = 3, whose first-row cofactors
    vanish; a repeat of row 0 at d = 3 leaves rounding noise, which
    ``restricted_xray_constant`` zeroes by draw index."""
    x = np.random.default_rng(6).standard_normal((2000, 3, 3))
    x[:, 2] = x[:, 1]
    y = x[:, :2, :2].copy()
    y[:, 1] = y[:, 0]
    assert not np.any(tomography._wedge_modulus(x)) and not np.any(tomography._wedge_modulus(y))


@pytest.mark.parametrize("d", [1, 4, 5])
def test_wedge_modulus_falls_back_to_lu_bit_for_bit(d):
    x = np.random.default_rng(d).standard_normal((500, d, d))
    assert np.array_equal(tomography._wedge_modulus(x), np.abs(np.linalg.det(x)))


def test_wedge_mc_memory_peak():
    import tracemalloc

    tracemalloc.start()
    try:
        gauss_wedge_integral_mc(3, 0.5, 10**6, seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one (10^6, 3, 3) draw alone is 72 MB; only the 8 MB of powers and std's 8 MB temporary are whole
    assert peak <= 24 * 2**20


def test_gamma_constant_vs_mc():
    for d in (2, 3):
        exact = xx_gamma_constant(d, 2.0, 0.5)
        mc = xx_constant_via_mc(d, 2.0, 0.5, 200_000, seed=7)
        assert mc.value == pytest.approx(exact, rel=0.01)


def test_xx_r_exponent_on_condition():
    d, p, q = 2, 2.0, 0.5
    r = xx_r_exponent(d, p, q)
    lhs = (1.0 / q - 1.0 / p) * (1.0 - 1.0 / r)
    rhs = (1.0 / (d - 1)) * (1.0 - 1.0 / p) * (1.0 / q - 1.0)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_xx_three_norm_inequality_seeded():
    rng = np.random.default_rng(13)
    dirs = DirectionSet.uniform_circle(60)
    for _ in range(100):
        f = random_grid_function(BOX, (64, 64), seed=int(rng.integers(1 << 30)), smooth=1)
        m = xx_inequality_margin(f, 2.0, 0.5, dirs)
        assert m.margin >= -m.quadrature_estimate


def test_gaussian_entropy_sequence_constant_d2():
    f = gaussian_grid(np.eye(2), ((-6.0, 6.0), (-6.0, 6.0)), (256, 256))
    seq = kplane_entropy_sequence(f, dirs=DirectionSet.uniform_circle(180))
    assert len(seq) == 2
    assert seq[0] == pytest.approx(0.5, abs=1e-6)
    assert abs(seq[1] - seq[0]) < 1e-3


def test_entropy_sequence_shape_and_mixture_monotone_d3():
    base = gaussian_grid(np.eye(3) * 1.3, ((-4.0, 4.0),) * 3, (48,) * 3)
    bump = gaussian_grid(np.eye(3) * 0.6, ((-4.0, 4.0),) * 3, (48,) * 3)
    f = GridFunction(base.box, base.resolution, base.values + 0.6 * bump.values)
    seq = kplane_entropy_sequence(f, n_planes=96, dirs=DirectionSet.fibonacci_sphere(96))
    assert len(seq) == 3
    assert all(math.isfinite(s) for s in seq)
    halved = GridFunction(f.box, (24,) * 3, f.values.reshape(24, 2, 24, 2, 24, 2).mean(axis=(1, 3, 5)))
    coarse = kplane_entropy_sequence(halved, n_planes=48, dirs=DirectionSet.fibonacci_sphere(48))
    tol = [abs(a - b) + 1e-4 for a, b in zip(seq, coarse)]
    assert seq[1] >= seq[0] - (tol[0] + tol[1])
    assert seq[2] >= seq[1] - (tol[1] + tol[2])


def test_norm_monotonicity_chain_d3():
    f = random_grid_function(((-2.0, 2.0),) * 3, (32,) * 3, seed=11, smooth=1)
    p = 0.7
    t1 = xray_transform(f, DirectionSet.fibonacci_sphere(96), method="deposit")
    t2 = kplane_transform(f, 96, seed=5)
    n0 = lp_norm(f, p)
    n1 = t1.lq(scaling_exponent_q(p, 3, 1))
    n2 = t2.lq(scaling_exponent_q(p, 3, 2))
    assert n0 <= n1 <= n2


def test_projection_shadow_exact_box():
    f = GridFunction.indicator_box(((0, 1), (0, 0.5)), BOX, (64, 64))
    # axis direction: shadow of the box on the line orthogonal to e1 has
    # length equal to the x-extent including the half-cell skirt of the cells
    shadow = projection_shadow_measure(f, np.array([0.0, 1.0]))
    assert shadow == pytest.approx(1.0, abs=2 * f.cell_sizes[0])


def test_averaged_projection_inequality_box_unions():
    rng = np.random.default_rng(19)
    for _ in range(20):
        vals = np.zeros((64, 64))
        for _ in range(int(rng.integers(1, 4))):
            x0, y0 = rng.integers(5, 40, size=2)
            w, h = rng.integers(4, 20, size=2)
            vals[x0 : x0 + w, y0 : y0 + h] = 1.0
        f = GridFunction(BOX, (64, 64), vals)
        m = averaged_projection_margin(f, DirectionSet.uniform_circle(180))
        assert m.margin >= -m.quadrature_estimate


def _reference_deposit(f, projections, n_v):
    """Per-direction cloud-in-cell deposit written out the long way: the
    offset axis, the (N, d) cell centres and one bincount per cell corner."""
    radius = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in f.box))
    cell = 2.0 * radius / n_v
    axis = (np.arange(n_v) + 0.5) * cell - radius
    mesh = np.meshgrid(*f.centers(), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    masses = f.values.ravel() * f.cell_volume
    out = []
    for q in projections:
        y = np.atleast_2d((pts @ q).T).T
        m = y.shape[1]
        pos = (y + radius) / cell - 0.5
        base = np.floor(pos).astype(np.int64)
        frac = pos - base
        acc = np.zeros(n_v**m)
        for corner in range(1 << m):
            idx = base.copy()
            w = masses.copy()
            for a in range(m):
                bit = (corner >> a) & 1
                idx[:, a] = np.clip(base[:, a] + bit, 0, n_v - 1)
                w = w * (frac[:, a] if bit else 1.0 - frac[:, a])
            flat = idx[:, 0]
            for a in range(1, m):
                flat = flat * n_v + idx[:, a]
            acc += np.bincount(flat, weights=w, minlength=n_v**m)
        out.append(acc.reshape((n_v,) * m) / cell**m)
    return axis, np.array(out)


@pytest.mark.parametrize("d", [2, 3])
def test_xray_deposit_matches_reference_loop_bitwise(d):
    from blq.tomography import _orthonormal_complement

    f = random_grid_function(((-2.0, 2.0),) * d, (20,) * d, seed=30 + d, zero_fraction=0.2)
    dirs = turned_circle(12, 0.1) if d == 2 else DirectionSet.fibonacci_sphere(10)
    tom = xray_transform(f, dirs, t_resolution=24, method="deposit")
    frames = [_orthonormal_complement(w) for w in dirs.vectors]
    axis, values = _reference_deposit(f, frames, 24)
    assert np.array_equal(tom.values, values)
    assert len(tom.offsets_axes) == d - 1
    assert all(np.array_equal(a, axis) for a in tom.offsets_axes)


def test_kplane_deposit_matches_reference_loop_bitwise():
    f = random_grid_function(((-2.0, 2.0),) * 3, (16, 16, 16), seed=12, zero_fraction=0.2)
    tom = kplane_transform(f, 9, seed=4, t_resolution=20)
    normals = []
    for q in haar_planes(3, 2, 9, 4):
        normal = np.cross(q[:, 0], q[:, 1])
        normal /= np.linalg.norm(normal)
        normals.append(normal)
    axis, values = _reference_deposit(f, normals, 20)
    assert np.array_equal(tom.values, values)
    assert np.array_equal(tom.directions, np.array(normals))
    assert len(tom.offsets_axes) == 1 and np.array_equal(tom.offsets_axes[0], axis)


def _reference_sample(f, dirs, t_resolution=None, line_step=None):
    """Sampled x-ray transform written out the long way: the (N, d) line
    points of each offset chunk through scipy's ``map_coordinates`` on the
    zero-padded samples, then the trapezoid sum over each chunk."""
    from scipy import ndimage

    d = f.dim
    n_v = t_resolution or (2 * max(f.resolution) if d == 2 else max(f.resolution))
    radius = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in f.box))
    cell = 2.0 * radius / n_v
    axis = (np.arange(n_v) + 0.5) * cell - radius
    offs = np.stack([m.ravel() for m in np.meshgrid(*([axis] * (d - 1)), indexing="ij")], axis=1)
    step = line_step or (min(f.cell_sizes) / 2.0)
    n_t = int(math.ceil(2.0 * radius / step))
    t_nodes = np.linspace(-radius, radius, n_t + 1)
    t_w = np.full(n_t + 1, t_nodes[1] - t_nodes[0])
    t_w[0] *= 0.5
    t_w[-1] *= 0.5
    cells = np.array(f.cell_sizes)
    lo = np.array([b[0] for b in f.box])
    padded = np.pad(f.values, 1)
    out = []
    for omega in dirs.vectors:
        if d == 2:
            frame = np.array([[-omega[1]], [omega[0]]])
        else:
            h = np.eye(d)[int(np.argmin(np.abs(omega)))]
            v = h - (h @ omega) * omega
            v /= np.linalg.norm(v)
            frame = np.stack([v, np.cross(omega, v)], axis=1)
        base = offs @ frame.T
        acc = np.zeros(len(offs))
        chunk = max(1, int(4_000_000 // max(1, n_t + 1)))
        for s in range(0, len(offs), chunk):
            blk = base[s : s + chunk]
            pts = (blk[:, None, :] + t_nodes[None, :, None] * omega[None, None, :]).reshape(-1, d)
            u = (pts - lo) / cells + 0.5
            vals = ndimage.map_coordinates(padded, u.T, order=1, mode="constant", cval=0.0, prefilter=False)
            acc[s : s + chunk] = vals.reshape(len(blk), n_t + 1) @ t_w
        out.append(acc.reshape((n_v,) * (d - 1)))
    return np.array(out)


@pytest.mark.parametrize(
    "box, resolution, dirs, kwargs",
    [
        (BOX, (24, 24), turned_circle(10, 0.1), {}),
        (((-2.0, 3.0), (-1.0, 2.0)), (20, 28), DirectionSet.uniform_circle(7), {"t_resolution": 31, "line_step": 0.09}),
        # radius 5 and step 0.25 put many samples on integer u, u = 0 and u = n + 1 included
        (((0.0, 3.0), (0.0, 4.0)), (6, 8), DirectionSet.uniform_circle(4), {"t_resolution": 20}),
        (((-2.0, 2.0), (-1.0, 1.5), (-3.0, 1.0)), (10, 8, 12), DirectionSet.fibonacci_sphere(12), {}),
    ],
    ids=["2d-default", "2d-step", "2d-axis-aligned", "3d-box"],
)
def test_xray_sample_matches_reference_loop_bitwise(box, resolution, dirs, kwargs):
    f = random_grid_function(box, resolution, seed=len(resolution) + resolution[0], zero_fraction=0.2)
    tom = xray_transform(f, dirs, **kwargs)
    assert np.array_equal(tom.values, _reference_sample(f, dirs, **kwargs))


@pytest.mark.parametrize("shape", [(7, 9), (5, 6, 4)])
def test_interp_linear_is_scipy_order_one_bitwise(shape):
    """A scipy whose order-1 arithmetic changes fails here, not in a digest."""
    from scipy import ndimage

    from blq.tomography import _LinearInterp

    rng = np.random.default_rng(sum(shape))
    padded = np.pad(rng.random(shape), 1)
    n = np.array(padded.shape, dtype=float)
    scattered = rng.uniform(-1.5, n + 0.5, size=(4000, len(shape)))  # inside, on the ring and outside
    lattice = rng.integers(-1, padded.shape, size=(500, len(shape))).astype(float)  # integer u
    halves = lattice[:200] + 0.5
    edges = np.where(rng.random((300, len(shape))) < 0.5, 0.0, n - 1.0)  # exactly on u = 0 or n - 1
    edges[:, 0] = rng.uniform(0.0, n[0] - 1.0, size=300)
    coords = np.concatenate([scattered, lattice, halves, edges])
    interp = _LinearInterp(padded.shape, len(coords))
    interp.locate([c.copy() for c in coords.T])
    got = np.empty(len(coords))
    interp.values(padded.ravel(), got)
    want = ndimage.map_coordinates(padded, coords.T, order=1, mode="constant", cval=0.0, prefilter=False)
    assert np.array_equal(got, want)
    assert len(coords) // 5 < np.count_nonzero(got) < len(coords)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"line_step": 0}, "line_step"),
        ({"line_step": 0.0}, "line_step"),
        ({"line_step": -0.1}, "line_step"),
        ({"t_resolution": 0}, "t_resolution"),
        ({"t_resolution": -3}, "t_resolution"),
        ({"t_resolution": 0, "method": "deposit"}, "t_resolution"),
    ],
)
def test_xray_rejects_nonpositive_step_and_resolution(kwargs, name):
    f = random_grid_function(BOX, (8, 8), seed=1)
    with pytest.raises(ValueError, match=name):
        xray_transform(f, DirectionSet.uniform_circle(4), **kwargs)


@pytest.mark.parametrize("line_step", [0.25, 0.0, -1.0])
def test_deposit_xray_rejects_any_line_step(line_step):
    f = random_grid_function(BOX, (8, 8), seed=1)
    dirs = DirectionSet.uniform_circle(4)
    with pytest.raises(InputError, match="line_step applies to method='sample' only"):
        xray_transform(f, dirs, line_step=line_step, method="deposit")
    assert np.array_equal(
        xray_transform(f, dirs, line_step=None, method="deposit").values, xray_transform(f, dirs, method="deposit").values
    )


def test_xray_none_keeps_the_default_step_and_resolution():
    f = random_grid_function(BOX, (8, 8), seed=1)
    dirs = DirectionSet.uniform_circle(4)
    default = xray_transform(f, dirs)
    explicit = xray_transform(f, dirs, t_resolution=16, line_step=0.25)
    assert np.array_equal(xray_transform(f, dirs, t_resolution=None, line_step=None).values, default.values)
    assert np.array_equal(explicit.values, default.values)


@pytest.mark.parametrize("t_resolution", [0, -2])
def test_kplane_rejects_nonpositive_resolution(t_resolution):
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    with pytest.raises(ValueError, match="t_resolution"):
        kplane_transform(f, 4, t_resolution=t_resolution)


def test_kplane_none_keeps_the_default_resolution():
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    default = kplane_transform(f, 4, seed=1)
    assert default.values.shape == (4, 16)
    assert np.array_equal(kplane_transform(f, 4, seed=1, t_resolution=16).values, default.values)


@pytest.mark.parametrize("t_resolution", [2.5, 16.0, "16", True])
def test_t_resolution_must_be_an_integer(t_resolution):
    f = random_grid_function(BOX, (8, 8), seed=1)
    f3 = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    dirs = DirectionSet.uniform_circle(4)
    for transform in (
        lambda: xray_transform(f, dirs, t_resolution=t_resolution),
        lambda: xray_transform(f, dirs, t_resolution=t_resolution, method="deposit"),
        lambda: xray_transform_batch([f, f], dirs, t_resolution=t_resolution),
        lambda: kplane_transform(f3, 4, t_resolution=t_resolution),
    ):
        with pytest.raises(ValueError, match="t_resolution must be an integer"):
            transform()


def test_numpy_integer_t_resolution_is_the_python_int():
    f = random_grid_function(BOX, (8, 8), seed=1)
    dirs = DirectionSet.uniform_circle(4)
    want = xray_transform(f, dirs, t_resolution=12).values
    assert np.array_equal(xray_transform(f, dirs, t_resolution=np.int64(12)).values, want)


def _batch_functions(kind, box, resolution):
    if kind == "indicator":
        inner = tuple((0.6 * lo + 0.1 * k, 0.5 * hi - 0.1 * k) for k, (lo, hi) in enumerate(box))
        return [GridFunction.indicator_box(inner, box, resolution), GridFunction.indicator_box(box, box, resolution)]
    smooth = 2 if kind == "smooth" else 0
    return [random_grid_function(box, resolution, seed=s, zero_fraction=0.2, smooth=smooth) for s in range(3)]


@pytest.mark.parametrize(
    "kind, box, resolution, dirs, kwargs",
    [
        ("random", BOX, (24, 24), turned_circle(10, 0.1), {}),
        ("smooth", ((-2.0, 3.0), (-1.0, 2.0)), (20, 28), DirectionSet.uniform_circle(7), {}),
        ("indicator", BOX, (16, 16), DirectionSet.uniform_circle(12), {}),
        ("random", ((-2.0, 2.0), (-1.0, 1.5), (-3.0, 1.0)), (10, 8, 12), DirectionSet.fibonacci_sphere(12), {}),
        ("smooth", BOX, (24, 24), DirectionSet.uniform_circle(9), {"t_resolution": 31, "line_step": 0.09}),
        ("indicator", ((-1.0, 1.0),) * 3, (8, 8, 8), DirectionSet.fibonacci_sphere(6), {"t_resolution": 5}),
    ],
    ids=["2d-random", "2d-smooth", "2d-indicator", "3d-fibonacci", "2d-step-resolution", "3d-indicator-resolution"],
)
def test_batch_is_the_single_transform_bitwise(kind, box, resolution, dirs, kwargs):
    fs = _batch_functions(kind, box, resolution)
    batch = xray_transform_batch(fs, dirs, **kwargs)
    assert len(batch) == len(fs)
    for f, tom in zip(fs, batch):
        single = xray_transform(f, dirs, **kwargs)
        assert np.array_equal(tom.values, single.values)
        assert np.array_equal(tom.directions, single.directions)
        assert tom.offset_cell_volume == single.offset_cell_volume
        assert all(np.array_equal(a, b) for a, b in zip(tom.offsets_axes, single.offsets_axes))
    (alone,) = xray_transform_batch(fs[-1:], dirs, **kwargs)
    assert np.array_equal(alone.values, batch[-1].values)
    assert np.array_equal(xray_transform_batch(fs[::-1], dirs, **kwargs)[0].values, batch[-1].values)


@pytest.mark.parametrize(
    "fs, match",
    [
        ([], "at least one function"),
        ([random_grid_function(BOX, (8, 8), seed=1), random_grid_function(BOX, (8, 10), seed=1)], "share box"),
        ([random_grid_function(BOX, (8, 8), seed=1), random_grid_function(((-2.0, 2.0), (-2.0, 2.5)), (8, 8), seed=1)],
         "share box"),
    ],
    ids=["empty", "resolution", "box"],
)
def test_batch_rejects_empty_and_mismatched_functions(fs, match):
    with pytest.raises(ValueError, match=match):
        xray_transform_batch(fs, DirectionSet.uniform_circle(4))


@pytest.mark.parametrize("n_functions", [1, 8, 9])
@pytest.mark.parametrize(
    "box, resolution, dirs, n_v",
    [
        (BOX, (12, 12), turned_circle(9, 0.1), None),
        (BOX, (12, 12), DirectionSet.uniform_circle(10), 7),
        (((-1.0, 1.0),) * 3, (6, 6, 6), DirectionSet.fibonacci_sphere(7), None),
        (((-1.0, 1.0),) * 3, (6, 6, 6), DirectionSet.fibonacci_sphere(6), 5),
    ],
    ids=["2d-default", "2d-explicit", "3d-default", "3d-explicit"],
)
def test_with_half_is_the_explicit_pair_bitwise(monkeypatch, box, resolution, dirs, n_v, n_functions):
    """Each triple is f (from any iterable), its transform with n_v offsets
    (the sampled default when None) and its check on every other direction,
    from the first, with max(2, n_v // 2) offsets; each next() runs exactly
    one check."""
    fs = [random_grid_function(box, resolution, seed=s, smooth=1) for s in range(n_functions)]
    n = n_v or (2 * max(resolution) if len(box) == 2 else max(resolution))
    half = DirectionSet.from_vectors(dirs.vectors[::2])
    want = [(xray_transform(f, dirs, t_resolution=n), xray_transform(f, half, t_resolution=max(2, n // 2))) for f in fs]
    checks = []

    def counting(f, *args, **kwargs):
        checks.append(f)
        return xray_transform(f, *args, **kwargs)

    monkeypatch.setattr(tomography, "xray_transform", counting)
    pairs = tomography._with_half(iter(fs), dirs, n_v)
    for k, (f, expected) in enumerate(zip(fs, want), 1):
        got_f, *got = next(pairs)
        assert len(checks) == k and checks[-1] is f and got_f is f
        for tom, ref in zip(got, expected, strict=True):
            assert np.array_equal(tom.values, ref.values)
            assert np.array_equal(tom.directions, ref.directions)
            assert np.array_equal(tom.weights, ref.weights)
            assert all(np.array_equal(a, b) for a, b in zip(tom.offsets_axes, ref.offsets_axes, strict=True))
            assert tom.offset_cell_volume == ref.offset_cell_volume
    assert next(pairs, None) is None and len(checks) == n_functions


def test_batch_memory_peak():
    import tracemalloc

    box = ((-4.0, 4.0), (-4.0, 4.0))
    fs = [random_grid_function(box, (96, 96), seed=s, smooth=1) for s in range(8)]
    tracemalloc.start()
    try:
        xray_transform_batch(fs, DirectionSet.uniform_circle(120))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # per function: the (192, 273) line-sample buffer 0.40 MiB, the tomogram 0.18 MiB and
    # the padded values 0.07 MiB; shared: the 3.4 MiB geometry of one block of 2^15 samples
    assert peak <= 10 * 2**20


@pytest.mark.parametrize(
    "planes, match",
    [
        (0, "plane set is empty"),
        (-1, "plane_samples must be an integer >= 0"),
        ([], "plane set is empty"),
        (np.zeros((0, 3, 2)), "plane set is empty"),
    ],
    ids=["k2-zero", "k2-negative", "k2-empty-frames", "k2-empty-array"],
)
def test_empty_plane_sets_are_rejected(planes, match):
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    with pytest.raises(ValueError, match=match):
        kplane_transform(f, planes)


@pytest.mark.parametrize("planes", [True, False])
def test_plane_count_must_not_be_a_bool(planes):
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    with pytest.raises(ValueError, match="plane_samples must be an integer"):
        kplane_transform(f, planes)


@pytest.mark.parametrize("dirs", [DirectionSet.fibonacci_sphere(32), 32.0, "32", True, [32]])
def test_plane_margin_takes_a_plane_count(dirs):
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    with pytest.raises(ValueError, match="plane"):
        tomography_lower_bound_margin(f, 0.7, scaling_exponent_q(0.7, 3, 2), k=2, dirs=dirs)


@pytest.mark.parametrize("p", [0.5, 0.7, 0.9])
def test_plane_lower_bound_margins_on_a_16_cube(p):
    box = ((-2.0, 2.0),) * 3
    functions = [
        GridFunction.indicator_box(((-1.0, 0.5), (-0.5, 1.0), (-1.25, 1.25)), box, (16,) * 3),
        gaussian_grid(np.diag([1.0, 0.7, 1.4]), box, (16,) * 3),
        random_grid_function(box, (16,) * 3, seed=7, smooth=1),
    ]
    q = scaling_exponent_q(p, 3, 2)
    for f in functions:
        m = tomography_lower_bound_margin(f, p, q, k=2, dirs=32, seed=3)
        assert m.margin > 0
        assert tomography_lower_bound_margin(f, p, q, k=2, dirs=np.int64(32), seed=3) == m
    default = tomography_lower_bound_margin(functions[0], p, q, k=2)
    assert default == tomography_lower_bound_margin(functions[0], p, q, k=2, dirs=64)


def test_plane_margin_halves_the_same_draw():
    """The halved check keeps every other plane of the one Haar draw, as the
    line margin keeps every other direction, with half the offsets."""
    f = GridFunction.indicator_box(((-1.0, 0.5), (-0.5, 1.0), (-1.25, 1.25)), ((-2.0, 2.0),) * 3, (16,) * 3)
    q = scaling_exponent_q(0.5, 3, 2)
    frames = haar_planes(3, 2, 32, 3)
    tom = kplane_transform(f, frames, t_resolution=16)
    half = kplane_transform(f, frames[::2], t_resolution=8)
    expected = lower_bound_margin_from_tomograms(tom, half, f, 0.5, q, 2)
    assert tomography_lower_bound_margin(f, 0.5, q, k=2, dirs=32, seed=3) == expected


@pytest.mark.parametrize("d, k", [(2, 2), (3, 3), (2, 5)])
def test_plane_dimension_not_below_the_space_is_a_scope_error(d, k):
    with pytest.raises(ParameterDomainError, match="k < d"):
        scaling_exponent_q(0.7, d, k)
    with pytest.raises(ParameterDomainError, match="k < d"):
        tomography._check_scaling_line(0.7, 0.5, d, k)


def test_plane_margin_on_a_plane_is_a_scope_error():
    f = random_grid_function(BOX, (8, 8), seed=0)
    with pytest.raises(ParameterDomainError, match="k = 2 in d = 2"):
        tomography_lower_bound_margin(f, 0.7, 0.5, k=2)


E3 = np.eye(3)


@pytest.mark.parametrize(
    "frame",
    [
        np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
        2.0 * E3[:, :2],
        E3[:, :2] + 1e-6,
        E3,
        E3[:, :1],
        E3[:2, :2],
    ],
    ids=["parallel", "scaled", "skewed", "3x3", "3x1", "2x2"],
)
def test_explicit_plane_frames_must_be_orthonormal_3x2(frame):
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    with pytest.raises(ValueError, match="orthonormal"):
        kplane_transform(f, [E3[:, :2], frame])


def test_near_orthonormal_and_haar_frames_pass():
    f = random_grid_function(((-1.0, 1.0),) * 3, (8, 8, 8), seed=2)
    frames = haar_planes(3, 2, 8, seed=4)
    assert max(np.max(np.abs(q.T @ q - np.eye(2))) for q in frames) <= tomography.FRAME_TOL
    tom = kplane_transform(f, frames + [E3[:, :2] + 1e-12])
    assert np.all(np.isfinite(tom.values)) and math.isfinite(tom.lq(2.0))

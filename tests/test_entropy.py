import math
from fractions import Fraction

import numpy as np
import pytest

from blq.catalog import conjugate_datum, holder_identity, loomis_whitney, young
from blq.data import derive_adjoint_exponents
from blq.entropy import (
    default_theta,
    entropic_bl_margin,
    entropy_power,
    log_lambda,
    p_entropy_probe,
    power_curvature_exact,
    power_curvature_fd,
    renyi_bl_margin,
    renyi_entropy,
    shannon_entropy,
)
from blq.errors import MassError
from blq.gaussian import bl_gaussian_constant
from blq.grid import GridFunction, gaussian_grid, grid_pushforward, lp_norm, random_grid_function

BOX2 = ((-8.0, 8.0), (-8.0, 8.0))


def test_uniform_density_entropy_is_log_m():
    f = np.full(7, 1.0)
    for p in (0.3, 1.0, 2.5):
        assert renyi_entropy(f, p) == pytest.approx(math.log(7), rel=1e-12)


def test_two_point_density():
    f = np.array([0.5, 0.5])
    for p in (0.5, 1.0, 4.0):
        assert renyi_entropy(f, p) == pytest.approx(math.log(2), rel=1e-12)


def test_gaussian_differential_entropy():
    # N(0, I_d) has entropy (d/2) log(2 pi e) = 1.41894 d
    for d, res in ((1, 4096), (2, 256)):
        quad = np.eye(d) / (2.0 * math.pi)
        f = gaussian_grid(quad, ((-12.0, 12.0),) * d, (res,) * d)
        assert shannon_entropy(f) == pytest.approx(1.4189385332 * d, abs=1e-3)


def test_renyi_tends_to_shannon():
    f = gaussian_grid(np.eye(2), BOX2, (128, 128))
    h1 = shannon_entropy(f)
    slopes = []
    for eps in (1e-2, 1e-3):
        slopes.append(abs(renyi_entropy(f, 1.0 - eps) - h1) / eps)
    assert slopes[0] == pytest.approx(slopes[1], rel=0.2)
    assert abs(renyi_entropy(f, 1.0 + 1e-3) - h1) <= 2 * slopes[1] * 1e-3


def test_zero_mass_rejected():
    with pytest.raises(MassError):
        shannon_entropy(np.zeros(4))


def test_entropic_margin_product_gaussian_is_zero():
    lw = loomis_whitney(2)
    f = gaussian_grid(np.eye(2), BOX2, (256, 256))
    assert abs(entropic_bl_margin(f, lw, 1.0)) < 1e-3


def test_entropic_margin_holder_identity_exact():
    datum = holder_identity(2)
    f = gaussian_grid(np.diag([1.0, 2.0]), BOX2, (128, 128))
    assert entropic_bl_margin(f, datum, 1.0) == pytest.approx(0.0, abs=1e-9)


def test_entropic_margin_correlated_gaussian_is_mutual_information():
    lw = loomis_whitney(2)
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    f = gaussian_grid(np.linalg.inv(sigma) / (2.0 * math.pi), ((-10.0, 10.0),) * 2, (256, 256))
    margin = entropic_bl_margin(f, lw, 1.0)
    assert margin == pytest.approx(-0.5 * math.log(np.linalg.det(sigma)), abs=1e-3)
    assert margin > 0


def test_probe_indicator_nonpositive():
    lw = loomis_whitney(2)
    f = GridFunction.indicator_box(((0.0, 2.0), (0.0, 0.75)), ((-4.0, 4.0),) * 2, (128, 128))
    assert p_entropy_probe(f, 0.5, lw, bl_value=1.0) <= 1e-9


def test_entropy_power_monotone_in_p():
    f = gaussian_grid(np.eye(2), BOX2, (128, 128))
    values = [entropy_power(f, p) for p in (0.3, 0.5, 0.7, 0.9, 1.0)]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_counterexample_curvature_to_1e12():
    fd = power_curvature_fd(Fraction(1, 4))
    assert abs(fd - 0.4096) < 1e-12
    assert power_curvature_exact(Fraction(1, 4)) == 0.4096
    # curvature is positive below 1/2 (the convexity failure window)
    assert power_curvature_fd(Fraction(1, 3)) > 0
    assert power_curvature_fd(Fraction(3, 4)) < 0


@pytest.mark.parametrize(
    "datum, theta, p",
    [(loomis_whitney(2), (0.4, 0.6), 0.7), (conjugate_datum(young(), seed=3), (0.2, 0.5, 0.3), 0.45)],
    ids=["lw2", "young-conjugated"],
)
def test_log_lambda_is_the_marginal_norm_loop_bitwise(datum, theta, p):
    params = derive_adjoint_exponents(datum.exponents, theta, p)
    for seed in range(3):
        f = random_grid_function(((-1.0, 1.0),) * 2, (40, 36), seed=seed, smooth=seed)
        norms = (lp_norm(grid_pushforward(f, b), q) for b, q in zip(datum.maps, params.p_i))
        want = math.log(lp_norm(f, params.p)) - params.log_rhs(norms, 1.7)
        assert log_lambda(f, datum, params, 1.7) == want


def _log_z_and_slope(g, r):
    """log Z and d/dr log ||g||_r = -(log Z)/r^2 + (sum g^r log g w)/(r Z) on
    g's cell values, for Z = sum g^r w (a zero cell adds nothing to either sum)."""
    v = g.values[g.values > 0]
    z = float(np.sum(v**r)) * g.cell_volume
    return math.log(z), -math.log(z) / r**2 + float(np.sum(v**r * np.log(v))) * g.cell_volume / (r * z)


def _log_lambda_and_scaled_slope(f, datum, theta, p, bl):
    """log Lambda and p^2 d/dp log Lambda in closed form, where the derived
    exponents move as dp_i/dp = p_i^2 (c_i/theta_i)/p^2."""
    params = derive_adjoint_exponents(datum.exponents, theta, p)
    log_z, slope = _log_z_and_slope(f, p)
    marginals = [_log_z_and_slope(grid_pushforward(f, b), q) for b, q in zip(datum.maps, params.p_i)]
    log_lam = log_z / p - (1.0 / p - 1.0) * math.log(bl)
    for c, t, q, (log_zi, slope_i) in zip(datum.exponents, theta, params.p_i, marginals):
        log_lam -= t * log_zi / q
        slope -= t * slope_i * q * q * (c / t) / p**2
    return params, log_lam, p**2 * slope + math.log(bl)


DERIVATIVE_CASES = [
    (datum, theta, p, seed, zero_fraction, smooth)
    for datum, theta in [
        (loomis_whitney(2), (0.4, 0.6)),
        (conjugate_datum(young(), seed=3), (0.2, 0.5, 0.3)),
        (conjugate_datum(loomis_whitney(2), seed=5), (0.3, 0.7)),
    ]
    for p, seed, zero_fraction, smooth in [(0.45, 1, 0.3, 0), (0.7, 2, 0.6, 0), (0.9, 3, 0.0, 2)]
]


def test_derivative_identity_of_the_quotient():
    # p^2 d/dp log Lambda = log(bl) - H(f^p/..) + sum c_i H(f_i^{p_i}/..), to rounding
    bl = 1.3
    for datum, theta, p, seed, zero_fraction, smooth in DERIVATIVE_CASES:
        f = random_grid_function(((-1.0, 1.0),) * 2, (40, 36), seed=seed, zero_fraction=zero_fraction, smooth=smooth)
        assert (f.values == 0).any() == (smooth == 0)  # zero cells, or a smoothed function
        params, log_lam, lhs = _log_lambda_and_scaled_slope(f, datum, theta, p, bl)
        assert log_lam == pytest.approx(log_lambda(f, datum, params, bl), rel=1e-12, abs=1e-12)
        rhs = math.log(bl) - entropy_power(f, p)
        for c, b, q in zip(datum.exponents, datum.maps, params.p_i):
            rhs += c * entropy_power(grid_pushforward(f, b), q)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (datum.k, p, seed)
        # at theta_i proportional to c_i d_i the right-hand side is minus the p-entropy probe
        lhs = _log_lambda_and_scaled_slope(f, datum, default_theta(datum), p, bl)[2]
        probe = p_entropy_probe(f, p, datum, bl)
        assert abs(lhs + probe) <= 1e-12 * max(1.0, abs(probe)), (datum.k, p, seed)


def test_default_theta_sums_to_one():
    lw = loomis_whitney(3)
    theta = default_theta(lw)
    assert sum(theta) == pytest.approx(1.0, abs=1e-14)
    params = derive_adjoint_exponents(lw.exponents, theta, 0.5)
    assert params.mode == "forward"


def _reference_values_measure(f):
    """The entropy inputs as the parent computed them: a grid's values with its
    cell volume, an array through a DiscreteDensity with unit weights."""
    if isinstance(f, GridFunction):
        return f.values.ravel(), np.full(f.values.size, f.cell_volume)
    v = np.array(f, dtype=float)
    if np.any(v < 0) or not np.all(np.isfinite(v)):
        raise ValueError("values must be finite and non-negative")
    return v.ravel(), np.ones_like(v).ravel()


def _reference_shannon(f):
    v, w = _reference_values_measure(f)
    mass = float(np.sum(v * w))
    if mass <= 0 or not math.isfinite(mass):
        raise MassError("entropy needs positive finite mass")
    g = v / mass
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(g > 0, -g * np.log(g), 0.0)
    return float(np.sum(t * w))


def _reference_renyi(f, p):
    v, w = _reference_values_measure(f)
    mass = float(np.sum(v * w))
    g = v / mass
    norm_p = float(np.sum(g**p * w)) ** (1.0 / p)
    return (p / (1.0 - p)) * math.log(norm_p)


def _reference_entropy_power(f, p):
    v, w = _reference_values_measure(f)
    tilted = np.array(v ** float(p), dtype=float)
    mass = float(np.sum(tilted * w))
    g = tilted / mass
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(g > 0, -g * np.log(g), 0.0)
    return float(np.sum(t * w))


def _entropy_inputs():
    rng = np.random.default_rng(8)
    grid = gaussian_grid(np.array([[1.3, 0.2], [0.2, 0.9]]), ((-6.0, 6.0),) * 2, (96, 80))
    values = rng.uniform(size=(40, 30)) * (rng.uniform(size=(40, 30)) < 0.7)
    return [
        grid,
        GridFunction(BOX2, (40, 30), values),
        values,
        rng.exponential(size=500) * (rng.uniform(size=500) < 0.5),
        [0.0, 3.0, 1e-300, 2.5],
    ]


def test_entropies_are_bitwise_the_density_path():
    for f in _entropy_inputs():
        assert shannon_entropy(f) == _reference_shannon(f)
        for p in (0.3, 2.5):
            assert renyi_entropy(f, p) == _reference_renyi(f, p)
            assert entropy_power(f, p) == _reference_entropy_power(f, p)


@pytest.mark.parametrize("bad", [-1e-3, math.nan])
def test_negative_or_nan_array_rejected(bad):
    values = np.array([0.5, bad, 1.0])
    for call in (shannon_entropy, lambda v: renyi_entropy(v, 0.3), lambda v: entropy_power(v, 2.5)):
        with pytest.raises(ValueError, match="finite and non-negative"):
            call(values)


def _scenario_10_densities():
    """The four densities of scenario 10 (loomis_whitney_2 at resolution 256)
    and its indicator probe input."""
    d, grid = 2, (BOX2, (256, 256))
    product = gaussian_grid(np.eye(d), *grid)
    densities = [
        product,
        gaussian_grid(np.linalg.inv(np.eye(d) + 0.5 * (np.ones((d, d)) - np.eye(d))), *grid),
        GridFunction.indicator_box(((0.0, 2.0),) * d, *grid),
        GridFunction(*grid, product.values + 0.5 * gaussian_grid(2.0 * np.eye(d), *grid).values),
    ]
    return densities + [GridFunction.indicator_box(((0.0, 1.5),) * d, *grid)]


def test_entropic_margins_are_bitwise_the_three_marginal_loops():
    # test-local copies of the loops that the shared marginal total replaced
    def shannon_margin(f, datum, bl):
        f = f.normalized()
        margin = math.log(bl) - shannon_entropy(f)
        for c, b in zip(datum.exponents, datum.maps):
            margin += c * shannon_entropy(grid_pushforward(f, b))
        return margin

    def renyi_margin(f, datum, params, bl):
        f = f.normalized()
        margin = math.log(bl) - renyi_entropy(f, params.p)
        for c, b, q in zip(datum.exponents, datum.maps, params.p_i):
            margin += c * renyi_entropy(grid_pushforward(f, b), q)
        return margin

    def probe(f, p, datum, bl):
        params = derive_adjoint_exponents(datum.exponents, default_theta(datum), p)
        total = entropy_power(f, p) - math.log(bl)
        for c, b, q in zip(datum.exponents, datum.maps, params.p_i):
            total -= c * entropy_power(grid_pushforward(f, b), q)
        return total

    datum = loomis_whitney(2)
    bl = bl_gaussian_constant(datum).value
    ps = [derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 1.0 - eps) for eps in (1e-2, 1e-3)]
    for f in _scenario_10_densities():
        # float.hex tells -0.0 from 0.0, which a report prints differently
        assert entropic_bl_margin(f, datum, bl).hex() == shannon_margin(f, datum, bl).hex()
        for params in ps:
            assert renyi_bl_margin(f, datum, params, bl).hex() == renyi_margin(f, datum, params, bl).hex()
        assert p_entropy_probe(f, 0.5, datum, bl).hex() == probe(f, 0.5, datum, bl).hex()

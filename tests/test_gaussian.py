import math

import numpy as np
import pytest

from blq.catalog import (
    NAMED_DATA,
    conjugate_datum,
    finner_cyclic4,
    finner_mixed,
    holder_identity,
    loomis_whitney,
    named_datum,
    seeded_feasible_data,
    young,
)
from blq.data import BLDatum, derive_adjoint_exponents
from blq.errors import ParameterDomainError, ScalingConditionError
from blq.gaussian import (
    SpdMatrix,
    _cho_factor,
    _cho_solve,
    abl_gaussian_constant,
    bl_gaussian_constant,
    gaussian_pushforward,
    identity_ai_residual,
    perturbation_gap,
    quotient_log_gradient,
    quotient_log_objective,
    quotient_supremum,
)
from blq.grid import GridSpec


def young_closed_form():
    # best constant of the convolution triple: (prod (1-c)^{1-c} / c^c)^{1/2}
    c = 2.0 / 3.0
    return (((1 - c) ** (1 - c) / c**c) ** 3) ** 0.5


def random_spd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return SpdMatrix.from_matrix(g @ g.T + scale * np.eye(n))


def test_pushforward_identity_map():
    A = SpdMatrix.from_matrix([[2.0, 0.3], [0.3, 1.0]])
    amp, A_b = gaussian_pushforward(A, np.eye(2))
    assert amp == pytest.approx(1.0, rel=1e-12)
    assert np.allclose(A_b.matrix, A.matrix, atol=1e-12)


def test_pushforward_coordinate_projection():
    amp, A_b = gaussian_pushforward(SpdMatrix.from_matrix(np.eye(2)), np.array([[1.0, 0.0]]))
    assert A_b.matrix == pytest.approx(np.array([[1.0]]))
    assert amp == pytest.approx(1.0)
    amp2, A_b2 = gaussian_pushforward(
        SpdMatrix.from_matrix(np.diag([4.0, 1.0])), np.array([[1.0, 0.0]])
    )
    assert A_b2.matrix == pytest.approx(np.array([[4.0]]))
    assert amp2 == pytest.approx(1.0)
    # total mass of the pushforward equals det(A)^{-1/2}
    mass = amp2 * math.exp(-0.5 * A_b2.logdet())
    assert mass == pytest.approx(0.5, rel=1e-12)


def test_pushforward_mass_preservation_random():
    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d + 1))
        A = random_spd(rng, d)
        B = rng.standard_normal((k, d))
        amp, A_b = gaussian_pushforward(A, B)
        mass = amp * math.exp(-0.5 * A_b.logdet())
        assert mass == pytest.approx(math.exp(-0.5 * A.logdet()), rel=1e-10)


@pytest.mark.parametrize(
    "datum,expected",
    [
        (holder_identity(2), 1.0),
        (loomis_whitney(2), 1.0),
        (loomis_whitney(3), 1.0),
        (finner_cyclic4(), 1.0),
    ],
)
def test_bl_constant_classical_values(datum, expected):
    res = bl_gaussian_constant(datum)
    assert res.converged
    assert res.value == pytest.approx(expected, rel=1e-6)


def test_bl_constant_young():
    res = bl_gaussian_constant(young())
    assert res.converged
    assert res.value == pytest.approx(young_closed_form(), rel=1e-6)
    assert res.value == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-6)


def test_bl_constant_orthogonal_invariance():
    rng = np.random.default_rng(5)
    base = loomis_whitney(3)
    v0 = bl_gaussian_constant(base).value
    for _ in range(3):
        maps = []
        for b in base.maps:
            q, _ = np.linalg.qr(rng.standard_normal((b.shape[0], b.shape[0])))
            maps.append(q @ b)
        datum = BLDatum(maps=tuple(maps), exponents=base.exponents)
        assert bl_gaussian_constant(datum).value == pytest.approx(v0, rel=1e-6)


def test_fixed_point_consistency_at_convergence():
    datum = conjugate_datum(young(), seed=99)
    res = bl_gaussian_constant(datum)
    assert res.converged
    A = sum(
        c * (b.T @ a.matrix @ b)
        for c, b, a in zip(datum.exponents, datum.maps, res.argmax)
    )
    A_inv = np.linalg.inv(A)
    for b, a in zip(datum.maps, res.argmax):
        lhs = np.linalg.inv(a.matrix)
        rhs = b @ A_inv @ b.T
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-8


def test_quotient_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    datum = conjugate_datum(young(), seed=4)
    h = 1e-6
    for _ in range(10):
        spd = random_spd(rng, 2)
        G = quotient_log_gradient(datum, spd.matrix, spd.chol)
        E = rng.standard_normal((2, 2))
        E = 0.5 * (E + E.T)
        S_up, S_down = spd.matrix + h * E, spd.matrix - h * E
        fd = (
            quotient_log_objective(datum, S_up, _cho_factor(S_up))
            - quotient_log_objective(datum, S_down, _cho_factor(S_down))
        ) / (2 * h)
        analytic = float(np.sum(G * E))
        assert fd == pytest.approx(analytic, rel=1e-5)


def test_identity_holder_trivial():
    res = identity_ai_residual(holder_identity(2))
    assert res.residual < 1e-10
    assert res.left_log == pytest.approx(0.0, abs=1e-10)


def test_identity_lw_and_young():
    assert identity_ai_residual(loomis_whitney(2)).residual < 1e-6
    res = identity_ai_residual(young())
    assert res.residual < 1e-5
    # both sides equal the squared constant 3/4
    assert math.exp(res.left_log) == pytest.approx(0.75, rel=1e-5)
    assert math.exp(res.right_log) == pytest.approx(0.75, rel=1e-5)


def test_identity_rejects_scaling_violation():
    datum = BLDatum(maps=(np.array([[1.0, 0.0]]),), exponents=(1.0,))
    with pytest.raises(ScalingConditionError):
        identity_ai_residual(datum)


def test_abl_p_one_is_unity():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 1.0)
    res = abl_gaussian_constant(datum, params)
    assert res.value == 1.0 and res.cross_check == 1.0


def test_abl_lw_equals_prefactor():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 0.5)
    res = abl_gaussian_constant(datum, params)
    assert res.value == pytest.approx(4.0 * (1.0 / 3.0) ** 1.5, rel=1e-8)
    assert res.value == pytest.approx(res.cross_check, rel=1e-10)


def test_abl_holder_identity_map():
    datum = holder_identity(2)
    params = derive_adjoint_exponents(datum.exponents, (1.0,), 0.5)
    res = abl_gaussian_constant(datum, params)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_abl_cross_check_on_conjugated_young():
    datum = conjugate_datum(young(), seed=31)
    params = derive_adjoint_exponents(datum.exponents, (0.25, 0.35, 0.4), 0.6)
    res = abl_gaussian_constant(datum, params)
    assert res.converged
    assert res.value == pytest.approx(res.cross_check, rel=1e-8)


def test_abl_from_one_solve_pair_is_bitwise_abl_gaussian_constant():
    from blq.catalog import random_adjoint_draws
    from blq.data import adjoint_gaussian_prefactor
    from blq.gaussian import _abl_from_solves

    datum = conjugate_datum(young(), seed=31)
    quot, bl = quotient_supremum(datum), bl_gaussian_constant(datum)
    for params in random_adjoint_draws(datum, seed=4, n=5):
        pref = adjoint_gaussian_prefactor(params, datum.dims, datum.ambient_dim)
        once = _abl_from_solves(pref, params, quot, bl)
        res = abl_gaussian_constant(datum, params)
        assert (once.value, once.cross_check) == (res.value, res.cross_check)
        assert (once.converged, once.iterations, once.residual) == (res.converged, res.iterations, res.residual)
        assert once.argmax is None
        assert np.array_equal(res.argmax.matrix, SpdMatrix.from_matrix(quot.argmax.inv()).matrix)


def test_divergence_signal_for_infeasible_datum():
    datum = BLDatum(maps=(np.eye(2), np.array([[1.0, 0.0]])), exponents=(0.5, 1.0))
    res = bl_gaussian_constant(datum)
    assert res.diverged or not res.converged
    assert res.value > 1e10


def test_fixed_point_converges_on_named_and_seeded_data():
    data = [(name, named_datum(name)) for name in NAMED_DATA] + seeded_feasible_data(40)
    for label, datum in data:
        res = bl_gaussian_constant(datum)
        assert res.converged and not res.diverged, label


def test_ascent_only_path_matches_fixed_point():
    # the fixed point on the tuple side and the ascent on the quotient side
    # are independent optimizers; they meet through sup Q = BLg^2
    datum = conjugate_datum(young(), seed=12)
    res = quotient_supremum(datum)
    assert res.converged
    assert res.value == pytest.approx(bl_gaussian_constant(datum).value ** 2, rel=1e-6)


def test_quotient_supremum_matches_squared_constant():
    res = quotient_supremum(loomis_whitney(2))
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-8)


def _reference_ascent_spd_blocks(value_and_grad, blocks, max_iter=20_000, gtol=1e-9, armijo=1e-4):
    """Preconditioned ascent over a list of SPD blocks written out the long
    way: a value-and-gradient callback, per-block directions and Cholesky
    trial checks, one joint Armijo step."""
    blocks = [np.array(b, dtype=float) for b in blocks]
    val, grads = value_and_grad(blocks)
    step = 1.0
    it = 0
    gnorm = math.inf
    stalled = 0
    while it < max_iter:
        it += 1
        chols = [np.linalg.cholesky(s) for s in blocks]
        gnorm_sq = 0.0
        dirs = []
        for s, g, L in zip(blocks, grads, chols):
            m = L.T @ g @ L
            gnorm_sq += float(np.sum(m * m))
            dirs.append(s @ g @ s)
        gnorm = math.sqrt(gnorm_sq)
        if gnorm <= gtol * (1.0 + abs(val)):
            return blocks, val, True, gnorm, it
        t = min(step * 2.0, 4.0)
        accepted = False
        while t > 1e-16:
            trial = [s + t * d for s, d in zip(blocks, dirs)]
            try:
                for m in trial:
                    np.linalg.cholesky(m)
                new_val, new_grads = value_and_grad(trial)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            if new_val >= val + armijo * t * gnorm_sq:
                gain = new_val - val
                blocks, val, grads = trial, new_val, new_grads
                step = t
                accepted = True
                stalled = stalled + 1 if gain < 1e-14 * (1.0 + abs(val)) else 0
                break
            t *= 0.5
        if not accepted or stalled >= 20:
            return blocks, val, gnorm <= 1e-6 * (1.0 + abs(val)), gnorm, it
    return blocks, val, False, gnorm, it


@pytest.mark.parametrize(
    "datum",
    [
        young(),
        loomis_whitney(3),
        finner_mixed(),
        holder_identity(2, k=2),
        conjugate_datum(young(), seed=31),
        conjugate_datum(loomis_whitney(4), seed=5),
        conjugate_datum(finner_mixed(), seed=8),
    ],
)
def test_quotient_supremum_is_bitwise_the_block_ascent(datum):
    def vg(blocks):
        (S,) = blocks
        L = _cho_factor(S)
        return quotient_log_objective(datum, S, L), [quotient_log_gradient(datum, S, L)]

    blocks, val, converged, gnorm, it = _reference_ascent_spd_blocks(vg, [np.eye(datum.ambient_dim)])
    res = quotient_supremum(datum)
    assert res.value == (math.inf if val > 700 else math.exp(val))
    assert (res.iterations, res.converged, res.residual) == (it, converged, gnorm)
    assert np.array_equal(res.argmax.matrix, SpdMatrix.from_matrix(blocks[0]).matrix)


def test_ascent_takes_the_gradient_at_accepted_iterates_only(monkeypatch):
    import blq.gaussian

    calls = []

    def counting(datum, S, chol):
        calls.append(S)
        return quotient_log_gradient(datum, S, chol)

    monkeypatch.setattr(blq.gaussian, "quotient_log_gradient", counting)
    res = quotient_supremum(conjugate_datum(loomis_whitney(4), seed=3))  # 83 trials, 34 iterations
    # S = I, then at most one accepted step per iteration; no rejected trial
    assert len(calls) <= res.iterations + 1


def _factor_shapes(monkeypatch):
    import blq.gaussian

    shapes = []

    def counting(a):
        shapes.append(np.shape(a))
        return _cho_factor(a)

    monkeypatch.setattr(blq.gaussian, "_cho_factor", counting)
    return shapes


def test_quotient_ascent_factors_each_trial_once(monkeypatch):
    import blq.gaussian

    datum = conjugate_datum(loomis_whitney(4), seed=3)  # S is 4 x 4, every B S B^T 3 x 3
    objective_calls = []

    def counting(*args):
        objective_calls.append(args)
        return quotient_log_objective(*args)

    monkeypatch.setattr(blq.gaussian, "quotient_log_objective", counting)
    shapes = _factor_shapes(monkeypatch)
    quotient_supremum(datum)
    # one factor per objective call serves its gradient and the next metric; one more for the argmax
    assert shapes.count((4, 4)) == len(objective_calls) + 1 == 85


def test_fixed_point_factors_k_plus_two_matrices_an_iteration(monkeypatch):
    datum = conjugate_datum(loomis_whitney(4), seed=3)
    shapes = _factor_shapes(monkeypatch)
    res = bl_gaussian_constant(datum)
    k = len(datum.maps)
    # A, the k matrices A_i and M per iteration, then the k argmax matrices; the seed factors none
    assert len(shapes) == res.iterations * (k + 2) + k == 304


def test_perturbation_rejects_theta_equals_c():
    hold = holder_identity(2, k=2)
    params = derive_adjoint_exponents(hold.exponents, hold.exponents, 0.5)
    with pytest.raises(ParameterDomainError):
        perturbation_gap(hold, params, GridSpec(box=((-8, 8), (-8, 8)), resolution=(64, 64)))


def test_perturbation_vanishes_near_p_one():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.9, 0.1), 0.999)
    res = perturbation_gap(datum, params, GridSpec(box=((-8, 8), (-8, 8)), resolution=(128, 128)))
    assert abs(res.coefficient) < 1e-8


def test_perturbation_positive_and_stable():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.9, 0.1), 0.5)
    res_lo = perturbation_gap(
        datum, params, grid=GridSpec(box=((-8, 8), (-8, 8)), resolution=(256, 256))
    )
    res_hi = perturbation_gap(
        datum, params, grid=GridSpec(box=((-8, 8), (-8, 8)), resolution=(512, 512))
    )
    assert res_lo.coefficient > 0
    assert res_hi.coefficient == pytest.approx(res_lo.coefficient, rel=0.05)
    # the grid functional moves by eps * coefficient to first order
    assert res_hi.direct_ratio_delta == pytest.approx(1e-3 * res_hi.coefficient, rel=0.05)


def test_spd_matrix_validation():
    with pytest.raises(ValueError):
        SpdMatrix.from_matrix([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        SpdMatrix.from_matrix([[1.0, 2.0], [2.0, 1.0]])


def _reference_cone(datum, j, kappa, radius, box, resolution):
    """Cell centres, |x|^2 and the projector quadratics, built the long way."""
    from blq.grid import grid_centers

    mesh = np.meshgrid(*grid_centers(box, resolution), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    norm_sq = np.sum(pts * pts, axis=1)
    proj = []
    for b in datum.maps:
        P = b.T @ np.linalg.solve(b @ b.T, b)
        proj.append(np.sum(pts * (pts @ P.T), axis=1))
    return norm_sq, proj, (proj[j] >= kappa * norm_sq) & (norm_sq >= radius**2)


def _reference_gap_sum(datum, params, j, kappa, radius, box, resolution):
    norm_sq, proj, mask = _reference_cone(datum, j, kappa, radius, box, resolution)
    p = params.p
    total = -(p ** (datum.ambient_dim / 2.0)) * np.exp(-math.pi * p * norm_sq[mask])
    for t, q, di, quad in zip(params.theta, params.p_i, datum.dims, proj):
        total += t * (q ** (di / 2.0)) * np.exp(-math.pi * (norm_sq[mask] - (1.0 - q) * quad[mask]))
    cell_vol = 1.0
    for (lo, hi), n in zip(box, resolution):
        cell_vol *= (hi - lo) / n
    return float(np.sum(total) * cell_vol)


def _reference_direct_delta(datum, params, j, kappa, radius, box, resolution, eps):
    from blq.entropy import log_lambda
    from blq.grid import GridFunction

    norm_sq, _, mask = _reference_cone(datum, j, kappa, radius, box, resolution)
    f_vals = np.exp(-math.pi * norm_sq)
    g_vals = f_vals + eps * np.where(mask, -f_vals, 0.0)
    f = GridFunction(box, resolution, f_vals.reshape(resolution))
    g = GridFunction(box, resolution, g_vals.reshape(resolution))
    return math.exp(log_lambda(g, datum, params, 1.0) - log_lambda(f, datum, params, 1.0)) - 1.0


def _check_gap_against_reference(res):
    from blq.grid import GridSpec

    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.9, 0.1), 0.5)
    box = ((-8.0, 8.0), (-8.0, 8.0))
    gap = perturbation_gap(datum, params, grid=GridSpec(box=box, resolution=res))
    j = gap.j_index
    kappa = (1.0 - 0.5 * (params.p + params.p_i[j])) / (1.0 - params.p_i[j])
    fine = _reference_gap_sum(datum, params, j, kappa, gap.radius, box, res)
    coarse = _reference_gap_sum(datum, params, j, kappa, gap.radius, box, tuple(n // 2 for n in res))
    assert gap.coefficient == fine
    assert gap.quadrature_estimate == abs(fine - coarse)
    assert gap.direct_ratio_delta == _reference_direct_delta(datum, params, j, kappa, gap.radius, box, res, 1e-3)


def test_perturbation_gap_matches_reference_integrands_bitwise():
    _check_gap_against_reference((256, 256))


@pytest.mark.parametrize("res", [(600, 500), (1030, 70)])
def test_row_blocked_perturbation_gap_matches_whole_grid_bitwise(res):
    from blq.grid import row_blocks

    blocks = row_blocks(res)
    assert len(blocks) > 1 and blocks[-1][0].stop > res[0]  # several blocks, the last one partial
    _check_gap_against_reference(res)


def test_perturbation_gap_memory_peak_on_the_scenario_grid():
    import tracemalloc

    from blq import grid

    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.9, 0.1), 0.5)
    spec = grid.GridSpec(box=((-8.0, 8.0),) * 2, resolution=(1024, 1024))
    grid._OPERATORS.clear()
    tracemalloc.start()
    try:
        perturbation_gap(datum, params, grid=spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        grid._OPERATORS.clear()
    # the (N, 2) cell centres alone are 16 MiB; what is whole is one function's
    # 8 MiB of values with its L^p temporaries, and one map's 4 MiB bin index
    assert peak <= 48 * 2**20


def test_cholesky_helpers_are_bitwise_scipy():
    from scipy.linalg import cho_factor, cho_solve

    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 5))
        g = rng.standard_normal((n, n))
        a = g @ g.T + 0.1 * np.eye(n)
        b = rng.standard_normal((n, int(rng.integers(1, 4))))
        c = _cho_factor(a)
        assert np.array_equal(np.tril(c), np.tril(cho_factor(a, lower=True)[0]))
        assert not np.triu(c, 1).any()
        assert np.array_equal(_cho_solve(c, b), cho_solve((c, True), b))
        assert np.array_equal(_cho_solve(c, b[:, 0]), cho_solve((c, True), b[:, 0]))


def test_cholesky_helpers_raise_as_scipy_did():
    with pytest.raises(np.linalg.LinAlgError):
        _cho_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ValueError):
        _cho_factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    c = _cho_factor(np.eye(2))
    with pytest.raises(ValueError):
        _cho_solve(c, np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        _cho_solve(np.array([[1.0, 0.0], [np.inf, 1.0]]), np.ones(2))

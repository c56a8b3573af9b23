import math

import numpy as np
import pytest

from blq.catalog import (
    conjugate_datum,
    finner_cyclic4,
    holder_identity,
    loomis_whitney,
    young,
)
from blq.data import BLDatum, derive_adjoint_exponents
from blq.errors import ParameterDomainError, ScalingConditionError
from blq.gaussian import (
    SpdMatrix,
    abl_gaussian_constant,
    bl_gaussian_constant,
    gaussian_pushforward,
    identity_ai_residual,
    perturbation_gap,
    quotient_log_gradient,
    quotient_log_objective,
    quotient_supremum,
)


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
        datum = BLDatum(maps=tuple(maps), exponents=base.exponents, ambient_dim=3)
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
        S = random_spd(rng, 2).matrix
        G = quotient_log_gradient(datum, S)
        E = rng.standard_normal((2, 2))
        E = 0.5 * (E + E.T)
        fd = (
            quotient_log_objective(datum, S + h * E)
            - quotient_log_objective(datum, S - h * E)
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
    datum = BLDatum(maps=(np.array([[1.0, 0.0]]),), exponents=(1.0,), ambient_dim=2)
    with pytest.raises(ScalingConditionError):
        identity_ai_residual(datum)


def test_abl_p_one_is_unity():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.5, 0.5), 1.0)
    res = abl_gaussian_constant(datum, params)
    assert res.value == 1.0 and res.cross_check == 1.0


def test_abl_lw_equals_prefactor():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.5, 0.5), 0.5)
    res = abl_gaussian_constant(datum, params)
    assert res.value == pytest.approx(4.0 * (1.0 / 3.0) ** 1.5, rel=1e-8)
    assert res.value == pytest.approx(res.cross_check, rel=1e-10)


def test_abl_holder_identity_map():
    datum = holder_identity(2)
    params = derive_adjoint_exponents(datum, (1.0,), 0.5)
    res = abl_gaussian_constant(datum, params)
    assert res.value == pytest.approx(1.0, rel=1e-10)


def test_abl_cross_check_on_conjugated_young():
    datum = conjugate_datum(young(), seed=31)
    params = derive_adjoint_exponents(datum, (0.25, 0.35, 0.4), 0.6)
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
        assert np.array_equal(once.argmax.matrix, res.argmax.matrix)


def test_divergence_signal_for_infeasible_datum():
    datum = BLDatum(
        maps=(np.eye(2), np.array([[1.0, 0.0]])), exponents=(0.5, 1.0), ambient_dim=2
    )
    res = bl_gaussian_constant(datum, max_iter=4000)
    assert res.diverged or not res.converged
    assert res.value > 1e10


def test_ascent_only_path_matches_fixed_point():
    datum = conjugate_datum(young(), seed=12)
    fp = bl_gaussian_constant(datum)
    asc = bl_gaussian_constant(datum, use_fixed_point=False)
    assert asc.value == pytest.approx(fp.value, rel=1e-6)


def test_quotient_supremum_matches_squared_constant():
    datum = loomis_whitney(2)
    res = quotient_supremum(datum)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-8)


def test_perturbation_rejects_theta_equals_c():
    hold = holder_identity(2, k=2)
    params = derive_adjoint_exponents(hold, hold.exponents, 0.5)
    with pytest.raises(ParameterDomainError):
        perturbation_gap(hold, params)


def test_perturbation_vanishes_near_p_one():
    from blq.grid import GridSpec

    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.9, 0.1), 0.999)
    res = perturbation_gap(
        datum, params, eps=None, grid=GridSpec(box=((-8, 8), (-8, 8)), resolution=(128, 128))
    )
    assert abs(res.coefficient) < 1e-8


def test_perturbation_positive_and_stable():
    from blq.grid import GridSpec

    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum, (0.9, 0.1), 0.5)
    res_lo = perturbation_gap(
        datum, params, eps=1e-3, grid=GridSpec(box=((-8, 8), (-8, 8)), resolution=(256, 256))
    )
    res_hi = perturbation_gap(
        datum, params, eps=1e-3, grid=GridSpec(box=((-8, 8), (-8, 8)), resolution=(512, 512))
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


def test_result_serialization_shape():
    res = bl_gaussian_constant(loomis_whitney(2))
    payload = res.to_json_dict()
    assert payload["converged"] is True
    assert payload["argmax_dims"] == [1, 1]
    assert len(payload["argmax_flat"]) == 2

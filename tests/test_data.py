import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blq.catalog import holder_identity, loomis_whitney, young
from blq.data import (
    BLDatum,
    adjoint_gaussian_prefactor,
    derive_adjoint_exponents,
    validate_datum,
)
from blq.errors import DatumError, ParameterDomainError


def test_loomis_whitney_feasible():
    report = validate_datum(loomis_whitney(2))
    assert report.scaling_ok
    assert report.verdict == "feasible(heuristic)"
    assert all(c.passed for c in report.tested_subspaces)


def test_identity_datum_feasible():
    datum = BLDatum(maps=(np.eye(2),), exponents=(1.0,))
    report = validate_datum(datum)
    assert report.verdict == "feasible(heuristic)"


def test_single_projection_scaling_fails():
    datum = BLDatum(maps=(np.array([[1.0, 0.0]]),), exponents=(1.0,))
    report = validate_datum(datum)
    assert not report.scaling_ok
    assert report.verdict == "infeasible"


def test_subspace_violation_detected():
    # scaling holds (1/2*2 + 1*1 = 2) but ker of the projection violates the
    # dimension criterion: dim = 1 > 1/2*1 + 1*0
    datum = BLDatum(maps=(np.eye(2), np.array([[1.0, 0.0]])), exponents=(0.5, 1.0))
    report = validate_datum(datum)
    assert report.scaling_ok
    assert report.verdict == "infeasible"
    bad = [c for c in report.tested_subspaces if not c.passed]
    assert bad


def test_non_surjective_map_rejected():
    with pytest.raises(DatumError, match="map 1"):
        BLDatum(maps=(np.eye(2), np.array([[1.0, 0.0], [2.0, 0.0]])), exponents=(1.0, 1.0))


def test_validate_deterministic_given_seed():
    datum = loomis_whitney(3)
    a = validate_datum(datum, n_random=7, seed=123)
    b = validate_datum(datum, n_random=7, seed=123)
    assert a == b


def test_lw_adjoint_exponents_by_hand():
    # c_i (1 - 1/p) = theta_i (1 - 1/p_i) with c=1, theta=1/2, p=1/2
    # gives 1 - 1/p_i = 2 * (1 - 2) = -2, so p_i = 1/3
    params = derive_adjoint_exponents(loomis_whitney(2).exponents, (0.5, 0.5), 0.5)
    assert params.p_i == pytest.approx((1 / 3, 1 / 3), abs=1e-15)
    assert params.mode == "forward"


def test_p_equal_one_gives_unit_exponents():
    params = derive_adjoint_exponents(young().exponents, (0.2, 0.3, 0.5), 1.0)
    assert params.p_i == (1.0, 1.0, 1.0)


def test_holder_theta_equals_c_gives_p():
    datum = holder_identity(2, k=2)
    for p in (0.3, 0.63, 0.9):
        params = derive_adjoint_exponents(datum.exponents, datum.exponents, p)
        assert params.p_i == pytest.approx((p, p), rel=1e-14)


def test_exponent_relation_residuals_seeded():
    rng = np.random.default_rng(7)
    datum = young()
    worst = 0.0
    for _ in range(1000):
        raw = rng.uniform(0.05, 1.0, size=3)
        theta = raw / raw.sum()
        p = rng.uniform(0.05, 1.0)
        params = derive_adjoint_exponents(datum.exponents, theta, p)
        worst = max(worst, max(abs(r) for r in params.residuals(datum.exponents)))
    assert worst < 1e-12


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(min_value=0.05, max_value=0.95),
    p=st.floats(min_value=0.05, max_value=1.0),
)
def test_exponent_relation_residual_property(t, p):
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (t, 1.0 - t), p)
    assert max(abs(r) for r in params.residuals(datum.exponents)) < 1e-12


def test_reverse_mode_exponents_transfer_case():
    # one positive weight, p = inf: marginal-transfer exponents in dimension 3
    datum = loomis_whitney(3)
    params = derive_adjoint_exponents(datum.exponents, (-1.0, -1.0, 3.0), math.inf)
    assert params.mode == "reverse"
    assert params.p_i == pytest.approx((2 / 3, 2 / 3, 6 / 5), rel=1e-14)


def test_reverse_sign_pattern_validation():
    datum = loomis_whitney(2)
    with pytest.raises(ParameterDomainError):
        derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 2.0)  # all positive but p > 1
    with pytest.raises(ParameterDomainError):
        derive_adjoint_exponents(datum.exponents, (-1.0, 2.0), 0.5)  # mixed signs with p < 1
    with pytest.raises(ParameterDomainError):
        derive_adjoint_exponents(datum.exponents, (0.4, 0.4), 0.5)  # does not sum to one


def test_prefactor_unit_cases():
    datum = young()
    params = derive_adjoint_exponents(datum.exponents, (0.2, 0.3, 0.5), 1.0)
    assert adjoint_gaussian_prefactor(params, datum.dims, 2) == pytest.approx(1.0, abs=1e-15)
    hold = holder_identity(2, k=2)
    for p in (0.3, 0.8):
        params = derive_adjoint_exponents(hold.exponents, hold.exponents, p)
        assert adjoint_gaussian_prefactor(params, hold.dims, 2) == pytest.approx(1.0, abs=1e-14)


def test_prefactor_lw_value():
    datum = loomis_whitney(2)
    params = derive_adjoint_exponents(datum.exponents, (0.5, 0.5), 0.5)
    # p^{-d/2p} prod p_i^{theta_i d_i/2p_i} = 4 * (1/3)^{3/2}
    assert adjoint_gaussian_prefactor(params, datum.dims, 2) == pytest.approx(
        4.0 * (1.0 / 3.0) ** 1.5, rel=1e-14
    )


def test_prefactor_not_one_off_degenerate_cases():
    datum = loomis_whitney(2)
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0.1, 0.9)
        p = rng.uniform(0.2, 0.9)
        params = derive_adjoint_exponents(datum.exponents, (t, 1.0 - t), p)
        assert abs(adjoint_gaussian_prefactor(params, datum.dims, 2) - 1.0) > 1e-6


def test_rational_exponent_roundtrip():
    datum = BLDatum.from_json_dict(
        {"maps": [[[1, 0]], [[0, 1]], [[1, -1]]], "c": ["2/3", "2/3", "2/3"]}
    )
    assert datum.exact_exponents == (Fraction(2, 3),) * 3
    assert datum.scaling_defect() == 0
    # the dict the removed ``to_json_dict`` wrote: float maps, exponents as strings
    again = BLDatum.from_json_dict({"maps": [[[1.0, 0.0]], [[0.0, 1.0]], [[1.0, -1.0]]], "c": ["2/3", "2/3", "2/3"]})
    assert again.exact_exponents == datum.exact_exponents
    assert all(np.array_equal(a, b) for a, b in zip(again.maps, datum.maps))


@pytest.mark.parametrize(
    "c, exact",
    [
        ((1, 1), (Fraction(1), Fraction(1))),
        ((Fraction(1, 2), "1/2"), (Fraction(1, 2),) * 2),
        ((2.0, "3/4"), (Fraction(2), Fraction(3, 4))),
        ((0.5, 0.5), None),
        (("1/2", 0.3), None),
    ],
)
def test_datum_is_built_from_maps_and_exponents(c, exact):
    """d is the maps' column count; exact exponents are Fractions only when every c_i is rational."""
    assert [f.name for f in dataclasses.fields(BLDatum) if f.init] == ["maps", "exponents"]
    datum = BLDatum(([[1.0, 0.0, 0.0]], np.eye(3)[1:]), c)
    assert datum.ambient_dim == 3 and datum.dims == (1, 2)
    assert datum.exact_exponents == exact
    assert datum.exponents == tuple(float(Fraction(x)) for x in c)
    assert all(type(x) is float for x in datum.exponents)
    again = BLDatum.from_json_dict({"maps": [[[1.0, 0.0, 0.0]], [[0, 1, 0], [0, 0, 1]]], "c": list(c)})
    assert again.exact_exponents == exact and again.exponents == datum.exponents


def test_maps_must_share_the_ambient_dimension():
    with pytest.raises(DatumError, match="map 1 is not a d_i x 2 matrix"):
        BLDatum((np.eye(2), np.eye(3)), (1, 1))
    with pytest.raises(DatumError, match="map 0"):
        BLDatum((np.ones(2),), (1,))


def test_bad_exponent_rejected():
    with pytest.raises(DatumError):
        BLDatum(maps=(np.eye(2),), exponents=(-1.0,))


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_non_finite_exponent_rejected(c):
    with pytest.raises(DatumError, match="finite"):
        BLDatum(maps=(np.eye(2),), exponents=(c,))
    with pytest.raises(DatumError, match="finite"):
        BLDatum.from_json_dict({"maps": [[[1.0, 0.0]], [[0.0, 1.0]]], "c": [1.0, c]})


def test_verdict_monotone_in_test_family_size():
    # a datum caught as infeasible by the deterministic family stays
    # infeasible no matter how many extra random subspaces are added
    datum = BLDatum(maps=(np.eye(2), np.array([[1.0, 0.0]])), exponents=(0.5, 1.0))
    for n_random in (0, 5, 40):
        assert validate_datum(datum, n_random=n_random).verdict == "infeasible"


def _log_rhs_by_hand(params, norms, bl_value):
    s = 0.0 if math.isinf(params.p) else 1.0 / params.p
    log_rhs = (s - 1.0) * math.log(bl_value)
    for t, n in zip(params.theta, norms):
        log_rhs += t * math.log(n)
    return log_rhs


def test_log_rhs_bitwise_equals_the_hand_loop():
    rng = np.random.default_rng(21)
    reverse = derive_adjoint_exponents(loomis_whitney(3).exponents, (-1.0, -1.0, 3.0), math.inf)
    cases = [reverse]
    for _ in range(200):
        k = int(rng.integers(1, 5))
        raw = rng.uniform(0.1, 1.0, size=k)
        theta = raw / raw.sum()
        cases.append(derive_adjoint_exponents(theta, theta, rng.uniform(0.05, 1.0)))
    for params in cases:
        for _ in range(5):
            norms = list(np.exp(rng.uniform(-20.0, 20.0, size=len(params.theta))))
            bl_value = float(np.exp(rng.uniform(-5.0, 5.0)))
            got = params.log_rhs((n for n in norms), bl_value)
            assert got == _log_rhs_by_hand(params, norms, bl_value)


def test_log_rhs_consumes_the_norms_in_order_after_the_bl_term():
    params = derive_adjoint_exponents(young().exponents, (0.2, 0.3, 0.5), 0.5)
    seen = []

    def norms():
        for i in range(3):
            seen.append(i)
            yield 2.0 + i

    assert params.log_rhs(norms(), 3.0) == _log_rhs_by_hand(params, [2.0, 3.0, 4.0], 3.0)
    assert seen == [0, 1, 2]


def test_derive_adjoint_exponents_takes_plain_exponents():
    datum = loomis_whitney(2)
    assert derive_adjoint_exponents([Fraction(1), Fraction(1)], (0.3, 0.7), 0.6) == derive_adjoint_exponents(
        datum.exponents, (0.3, 0.7), 0.6
    )
    with pytest.raises(ParameterDomainError, match="theta length must match the number of maps"):
        derive_adjoint_exponents((1.0, 1.0, 1.0), (0.5, 0.5), 0.5)

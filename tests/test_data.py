import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from blq.catalog import (
    NAMED_DATA,
    conjugate_datum,
    holder_identity,
    loomis_whitney,
    named_datum,
    seeded_feasible_data,
    young,
)
from blq.data import (
    RANK_TOL,
    SCALING_TOL,
    BLDatum,
    _rank,
    adjoint_gaussian_prefactor,
    derive_adjoint_exponents,
    validate_datum,
)
from blq.errors import DatumError, ParameterDomainError
from blq.tomography import scaling_exponent_q


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


def test_validate_is_deterministic():
    datum = conjugate_datum(loomis_whitney(3), 5)
    a, b = validate_datum(datum), validate_datum(datum)
    assert a == b
    assert [c.label for c in a.tested_subspaces] == [c.label for c in b.tested_subspaces]


def _old_family(datum, n_random=20, seed=0):
    """The family validate_datum screened before it was pruned: the zero and
    full subspaces, the kernels and their pairwise intersections, the
    coordinate subspaces, and n_random seeded random subspaces per dimension."""
    d = datum.ambient_dim
    family = [np.zeros((d, 0)), np.eye(d)]
    family += [k for k in (null_space(b) for b in datum.maps) if k.shape[1] > 0]
    for a, b in itertools.combinations(datum.maps, 2):
        inter = null_space(np.vstack([a, b]))
        if 0 < inter.shape[1] < d:
            family.append(inter)
    axes = [(a,) for a in range(d)] if d > 8 else [s for r in range(1, d) for s in itertools.combinations(range(d), r)]
    family += [np.eye(d)[:, list(s)] for s in axes]
    rng = np.random.default_rng(seed)
    for dim in range(1, d):
        for _ in range(n_random):
            q, _ = np.linalg.qr(rng.standard_normal((d, dim)))
            family.append(q)
    return family


def _weighted_image_dim(datum, basis):
    """sum c_i dim(B_i V) by validate_datum's rank rule; 0 for the zero subspace."""
    if basis.shape[1] == 0:
        return 0.0
    return sum(
        c * _rank(b @ basis, RANK_TOL * np.linalg.norm(b, 2)) for c, b in zip(datum.exponents, datum.maps)
    )


def _old_verdict(datum):
    ok = all(basis.shape[1] <= _weighted_image_dim(datum, basis) + SCALING_TOL for basis in _old_family(datum))
    return "feasible(heuristic)" if datum.satisfies_scaling() and ok else "infeasible"


def _kernel_violation(turn):
    """Scaling holds (1/2 * 2 + 1 * 1 = 2), but dim ker B_1 = 1 > 1/2 * 1 + 1 * 0."""
    return BLDatum(maps=(np.eye(2), np.array([[1.0, 0.0]]) @ turn), exponents=(0.5, 1.0))


# scaling fails; the kernel is a coordinate axis; the kernel is off the axes
# (the datum turned by 45 degrees, and seeded conjugates of it), so that no
# coordinate subspace fails and only the kernel can
INFEASIBLE = [
    ("single projection", BLDatum(maps=(np.array([[1.0, 0.0]]),), exponents=(1.0,))),
    ("coordinate kernel", _kernel_violation(np.eye(2))),
    ("turned kernel", _kernel_violation(np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0))),
] + [(f"conjugate #{s}", conjugate_datum(_kernel_violation(np.eye(2)), s)) for s in range(10)]
FEASIBLE = [(name, named_datum(name)) for name in NAMED_DATA] + seeded_feasible_data(40)


@pytest.mark.parametrize(
    "datum, expected",
    [(datum, "feasible(heuristic)") for _, datum in FEASIBLE] + [(datum, "infeasible") for _, datum in INFEASIBLE],
    ids=[label for label, _ in FEASIBLE + INFEASIBLE],
)
def test_pruned_family_decides_as_the_old_family(datum, expected):
    """Dropping the zero, full and random subspaces changes no verdict."""
    assert _old_verdict(datum) == expected
    assert validate_datum(datum).verdict == expected


def test_a_kernel_off_the_axes_is_caught_by_the_kernel_member():
    # B_1 applied to its own kernel is rounding noise, which the rank rule
    # relative to ||B_1|| reads as rank 0
    for label, datum in INFEASIBLE[2:]:
        failed = [c.label for c in validate_datum(datum).tested_subspaces if not c.passed]
        assert failed == ["ker B_1"], label


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5), k=st.integers(1, 4))
def test_random_subspaces_pass_whenever_scaling_holds(seed, d, k):
    """A generic V of dimension m has dim(B_i V) = min(m, d_i) >= m d_i / d, so
    once sum(c_i d_i) = d it satisfies dim V <= sum(c_i dim(B_i V))."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, d + 1, size=k)
    raw = rng.uniform(0.1, 1.0, size=k)
    c = raw * d / float(np.dot(raw, dims))  # scaling holds, to rounding
    datum = BLDatum(tuple(rng.standard_normal((int(di), d)) for di in dims), tuple(c))
    assert datum.satisfies_scaling()
    for dim in range(1, d):
        for _ in range(5):
            basis, _ = np.linalg.qr(rng.standard_normal((d, dim)))
            assert dim <= _weighted_image_dim(datum, basis) + SCALING_TOL


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


def _outcome(call):
    """call()'s value, or the type of the error it raised."""
    try:
        return call()
    except ParameterDomainError as exc:
        return type(exc)


def _derived_by_hand(exponents, theta, p):
    """p_i, mode and residuals with 1/p written as a branch: 0.0 at p = inf."""
    s = 0.0 if math.isinf(p) else 1.0 / p
    mode = "forward" if all(t > 0 for t in theta) and p <= 1 else "reverse"
    p_i = []
    for c, t in zip(exponents, theta):
        q = 1.0 / (1.0 + (c / t) * (s - 1.0))
        p_i.append(min(q, 1.0) if mode == "forward" else q)
    residuals = tuple(c * (1.0 - s) - t * (1.0 - 1.0 / q) for c, t, q in zip(exponents, theta, p_i))
    return tuple(p_i), mode, residuals


def _prefactor_by_hand(params, dims, d):
    log_c = 0.0
    if not math.isinf(params.p):
        e0 = -d / (2.0 * params.p)
        if e0 != 0.0:
            log_c += e0 * math.log(params.p)
    for t, di, q in zip(params.theta, dims, params.p_i):
        e = t * di / (2.0 * q)
        if e != 0.0:
            log_c += e * math.log(q)
    return math.exp(log_c)


def _scaling_q_by_hand(p, d, k):
    s = 0.0 if math.isinf(p) else 1.0 / p
    denom = 1.0 - (d / (d - k)) * (1.0 - s)
    return ParameterDomainError if denom <= 0 else 1.0 / denom


@pytest.mark.parametrize("p", [0.3, 0.5, 1.0, 2.0, math.inf])
def test_one_over_p_is_zero_at_infinity_without_a_branch(p):
    datum = conjugate_datum(loomis_whitney(3), seed=4)
    for theta in [(0.2, 0.3, 0.5), (-1.0, -1.0, 3.0), (3.0, -1.0, -1.0)]:
        if p > 1 if all(t > 0 for t in theta) else p < 1:  # forward needs p <= 1, reverse p >= 1
            continue
        params = derive_adjoint_exponents(datum.exponents, theta, p)
        assert (params.p_i, params.mode, params.residuals(datum.exponents)) == _derived_by_hand(
            datum.exponents, theta, p
        )
        got = adjoint_gaussian_prefactor(params, datum.dims, datum.ambient_dim)
        assert got == _prefactor_by_hand(params, datum.dims, datum.ambient_dim)
    for d, k in [(2, 1), (3, 1), (3, 2), (4, 1)]:
        assert _outcome(lambda: scaling_exponent_q(p, d, k)) == _scaling_q_by_hand(p, d, k)


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

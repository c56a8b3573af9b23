"""The input contract: every public callable rejects malformed input loudly.

One row per (public callable, argument).  Hypothesis draws the malformed
values of a row (NaN, +-inf, bools, non-integer counts, negative entries,
wrong shapes), and each must raise a ``ValueError`` that is also a
``BLQError`` with a one-line message, with warnings turned into errors: no
value comes back, no numpy warning and no bare numpy or LAPACK error escapes.
A second test checks that every callable ``blq`` exports has a row here,
and a third that every row names a parameter its callable still has.
"""

import inspect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blq
from blq.catalog import loomis_whitney
from blq.data import AdjointParams, BLDatum, adjoint_gaussian_prefactor, derive_adjoint_exponents
from blq.discrete import (
    FiniteAbelianGroup,
    GroupHom,
    abls_constant,
    bls_constant,
    discrete_adjoint_margin,
    discrete_adjoint_margins,
    discrete_pushforward,
    enumerate_subgroups,
)
from blq.entropy import entropic_bl_margin, p_entropy_probe, renyi_entropy, shannon_entropy
from blq.errors import BLQError
from blq.gaussian import SpdMatrix, gaussian_pushforward
from blq.gowers import gowers_logconvexity_margin, gowers_norm, gowers_profile
from blq.grid import (
    GridFunction,
    GridSpec,
    InequalityMargin,
    adjoint_margin,
    gaussian_grid,
    grid_pushforward,
    lp_norm,
    random_grid_function,
)
from blq.tomography import (
    DirectionSet,
    kplane_entropy_sequence,
    kplane_transform,
    restricted_xray_constant,
    scaling_exponent_q,
    tomography_lower_bound_margin,
    xray_transform,
    xx_gamma_constant,
)

NAN, INF = math.nan, math.inf
BOOLS = st.sampled_from([True, False, np.bool_(True), np.bool_(False)])
# every float and every Fraction is a non-integer count, 16.0 included
NON_INTEGERS = st.one_of(BOOLS, st.floats(), st.fractions(), st.just("16"))


def bad_exponent(inf=False):
    """Values that are not a positive real number (finite unless ``inf``)."""
    bad = st.one_of(BOOLS, st.just(NAN), st.floats(max_value=0.0))
    return bad if inf else st.one_of(bad, st.just(INF))


def bad_count(minimum=1):
    """Values that are not an integer >= ``minimum`` (None: any integer)."""
    return NON_INTEGERS if minimum is None else st.one_of(NON_INTEGERS, st.integers(max_value=minimum - 1))


def with_bad_entry(shape, entries):
    """Arrays of ones of ``shape`` with one entry drawn from ``entries``."""

    def put(args):
        index, value = args
        a = np.ones(shape)
        a.flat[index] = value
        return a

    return st.tuples(st.integers(0, math.prod(shape) - 1), entries).map(put)


NOT_FINITE = st.sampled_from([NAN, INF, -INF])
NOT_NONNEGATIVE = st.one_of(NOT_FINITE, st.floats(max_value=0.0, exclude_max=True))


def not_finite(shape):
    return with_bad_entry(shape, NOT_FINITE)


def not_nonnegative(shape):
    return with_bad_entry(shape, NOT_NONNEGATIVE)


BOX2 = ((-2.0, 2.0), (-2.0, 2.0))
BOX3 = ((-1.0, 1.0),) * 3
F2 = random_grid_function(BOX2, (8, 8), seed=1)
F3 = random_grid_function(BOX3, (6, 6, 6), seed=2)
LW2 = loomis_whitney(2)
PARAMS = derive_adjoint_exponents(LW2.exponents, (0.5, 0.5), 0.5)
Z22 = FiniteAbelianGroup((2, 2))
Z2 = FiniteAbelianGroup((2,))
PAIR = (GroupHom(((1, 0),), Z22, Z2), GroupHom(((0, 1),), Z22, Z2))
DIRS4 = DirectionSet.uniform_circle(4)
TOM2 = xray_transform(F2, DIRS4)
Q_PLANE = scaling_exponent_q(0.7, 3, 2)


@dataclass(frozen=True)
class Row:
    callable: str  # the exported name, or Name.method of an exported class
    argument: str
    values: st.SearchStrategy
    call: object

    def __str__(self):
        return f"{self.callable}-{self.argument}"


ROWS = (
    # grid
    Row("GridSpec", "box", st.sampled_from([((NAN, 1.0),), ((0.0, INF),), ((-INF, 0.0),), ((0.0, NAN),)]),
        lambda box: GridSpec(box, (4,))),
    Row("GridSpec", "resolution", bad_count(), lambda n: GridSpec(((0.0, 1.0),), (n,))),
    Row("GridFunction", "values", not_nonnegative((4, 3)), lambda v: GridFunction(((0.0, 1.0), (0.0, 2.0)), (4, 3), v)),
    Row("random_grid_function", "resolution", bad_count(), lambda n: random_grid_function(BOX2, (4, n), seed=0)),
    Row("random_grid_function", "smooth", bad_count(0), lambda s: random_grid_function(BOX2, (4, 4), seed=0, smooth=s)),
    Row("gaussian_grid", "quad_form", not_finite((2, 2)), lambda q: gaussian_grid(q, BOX2, (4, 4))),
    Row("lp_norm", "p", bad_exponent(inf=True), lambda p: lp_norm(F2, p)),
    Row("grid_pushforward", "B",
        st.one_of(st.sampled_from([np.ones(2), np.ones((1, 3)), np.ones((2, 2, 1)), np.ones((1, 1))]), not_finite((1, 2))),
        lambda b: grid_pushforward(F2, b)),
    Row("adjoint_margin", "bl_value", bad_exponent(), lambda bl: adjoint_margin(F2, LW2, PARAMS, bl)),
    Row("InequalityMargin.from_sides", "mode", st.text().filter(lambda m: m not in ("forward", "reverse")),
        lambda mode: InequalityMargin.from_sides(1.0, 2.0, mode)),
    # data
    Row("BLDatum", "maps", not_finite((1, 2)), lambda b: BLDatum((b, np.array([[0.0, 1.0]])), (1, 1))),
    Row("BLDatum", "exponents", bad_exponent(), lambda c: BLDatum((np.eye(2),), (c,))),
    Row("AdjointParams", "p", bad_exponent(inf=True), lambda p: AdjointParams((0.5, 0.5), p, (0.5, 0.5), "forward")),
    Row("AdjointParams", "p_i", st.one_of(bad_exponent(inf=True).map(lambda q: (q, 0.5)),
                                          bad_exponent(inf=True).map(lambda q: (0.5, q))),
        lambda p_i: AdjointParams((0.5, 0.5), 0.5, p_i, "forward")),
    Row("AdjointParams", "theta", st.sampled_from([(1.0,), (0.4, 0.3, 0.3), ()]),
        lambda theta: AdjointParams(theta, 0.5, (0.5, 0.5), "forward")),
    Row("AdjointParams", "mode", st.text().filter(lambda m: m != "forward"),
        lambda mode: AdjointParams((0.5, 0.5), 0.5, (0.5, 0.5), mode)),
    Row("derive_adjoint_exponents", "p", bad_exponent(inf=True),
        lambda p: derive_adjoint_exponents(LW2.exponents, (0.5, 0.5), p)),
    Row("adjoint_gaussian_prefactor", "d", bad_count(), lambda d: adjoint_gaussian_prefactor(PARAMS, (1, 1), d)),
    # gaussian
    Row("SpdMatrix.from_matrix", "m", not_finite((2, 2)), lambda m: SpdMatrix.from_matrix(m)),
    Row("gaussian_pushforward", "B", not_finite((1, 2)),
        lambda b: gaussian_pushforward(SpdMatrix.from_matrix(np.eye(2)), b)),
    # discrete
    Row("FiniteAbelianGroup", "factors", bad_count(), lambda n: FiniteAbelianGroup((2, n))),
    Row("GroupHom", "matrix", bad_count(None), lambda v: GroupHom(((1, v),), Z22, Z2)),
    Row("bls_constant", "c", bad_exponent(), lambda c: bls_constant(PAIR, (c, 1.0))),
    Row("abls_constant", "p", bad_exponent(), lambda p: abls_constant(PAIR, (1.0, 1.0), p)),
    Row("discrete_adjoint_margins", "F", not_nonnegative((2, 4)),
        lambda F: discrete_adjoint_margins(F, PAIR, PARAMS, 1.0)),
    Row("discrete_adjoint_margins", "bl_value", bad_exponent(),
        lambda bl: discrete_adjoint_margins(np.ones((2, 4)), PAIR, PARAMS, bl)),
    Row("discrete_adjoint_margin", "f", not_nonnegative((4,)), lambda f: discrete_adjoint_margin(f, PAIR, PARAMS, 1.0)),
    Row("discrete_pushforward", "f", st.sampled_from([np.ones(5), np.ones((2, 8)), np.ones(3), np.ones(())]),
        lambda f: discrete_pushforward(f, PAIR[0])),
    Row("enumerate_subgroups", "cap", bad_count(), lambda cap: enumerate_subgroups(Z22, cap=cap)),
    # tomography
    Row("DirectionSet.from_vectors", "vectors", not_finite((2, 2)), lambda v: DirectionSet.from_vectors(v)),
    Row("DirectionSet", "weights", not_nonnegative((2,)), lambda w: DirectionSet(np.eye(2), w)),
    Row("DirectionSet.uniform_circle", "n", bad_count(0), lambda n: DirectionSet.uniform_circle(n)),
    Row("DirectionSet.fibonacci_sphere", "n", bad_count(0), lambda n: DirectionSet.fibonacci_sphere(n)),
    Row("DirectionSet.great_circle", "n", bad_count(0), lambda n: DirectionSet.great_circle(n)),
    Row("TomogramSamples.lq", "q", bad_exponent(inf=True), lambda q: TOM2.lq(q)),
    Row("TomogramSamples.sup_dirs_lq", "r", bad_exponent(), lambda r: TOM2.sup_dirs_lq(r)),
    Row("xray_transform", "line_step", bad_exponent(), lambda s: xray_transform(F2, DIRS4, line_step=s)),
    Row("xray_transform", "t_resolution", bad_count(), lambda n: xray_transform(F2, DIRS4, t_resolution=n)),
    Row("kplane_transform", "plane_samples", bad_count(0), lambda n: kplane_transform(F3, n)),
    Row("kplane_transform", "t_resolution", bad_count(), lambda n: kplane_transform(F3, 2, t_resolution=n)),
    Row("kplane_entropy_sequence", "n_planes", bad_count(0), lambda n: kplane_entropy_sequence(F3, n_planes=n)),
    Row("restricted_xray_constant", "n_mc", bad_count(),
        lambda n: restricted_xray_constant(DIRS4, 0.5, scaling_exponent_q(0.5, 2), 2, n, seed=0)),
    Row("tomography_lower_bound_margin", "q", bad_exponent(inf=True),
        lambda q: tomography_lower_bound_margin(F2, 0.7, q, dirs=DIRS4)),
    Row("tomography_lower_bound_margin", "dirs", bad_count(),
        lambda n: tomography_lower_bound_margin(F3, 0.7, Q_PLANE, k=2, dirs=n)),
    Row("xx_gamma_constant", "d", bad_count(2), lambda d: xx_gamma_constant(d, 2.0, 0.5)),
    # entropy
    Row("shannon_entropy", "f", not_nonnegative((3,)), lambda v: shannon_entropy(v)),
    Row("renyi_entropy", "p", bad_exponent(), lambda p: renyi_entropy(np.ones(3), p)),
    Row("entropic_bl_margin", "bl_value", bad_exponent(), lambda bl: entropic_bl_margin(F2, LW2, bl)),
    Row("p_entropy_probe", "p", bad_exponent(), lambda p: p_entropy_probe(F2, p, LW2, 1.0)),
    Row("p_entropy_probe", "bl_value", bad_exponent(), lambda bl: p_entropy_probe(F2, 0.5, LW2, bl)),
    # gowers
    Row("gowers_norm", "f", not_nonnegative((8,)), lambda f: gowers_norm(f, 2)),
    Row("gowers_norm", "d", bad_count(), lambda d: gowers_norm(np.ones(8), d)),
    Row("gowers_norm", "measure_weight", bad_exponent(), lambda w: gowers_norm(np.ones(8), 2, measure_weight=w)),
    Row("gowers_norm", "cap", bad_count(), lambda cap: gowers_norm(np.ones(8), 2, cap=cap)),
    Row("gowers_logconvexity_margin", "d", bad_count(2), lambda d: gowers_logconvexity_margin(np.ones(8), d)),
    Row("gowers_profile", "max_order", bad_count(), lambda n: gowers_profile(np.ones(8), n)),
)

# records the library fills in and returns; a caller reads them
RECORDS = {"FeasibilityReport", "GaussianOptResult", "GowersProfile"}
# callables whose only inputs are a BLDatum, AdjointParams and a GridSpec, checked where those are built
DATUM_ONLY = {
    "abl_gaussian_constant", "bl_gaussian_constant", "identity_ai_residual", "perturbation_gap", "quotient_supremum",
    "validate_datum",
}


@pytest.mark.parametrize("row", ROWS, ids=str)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_malformed_input_fails_loudly(row, data):
    value = data.draw(row.values, label=row.argument)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            row.call(value)
    assert isinstance(err.value, BLQError), f"{type(err.value).__name__}: {err.value}"
    message = str(err.value)
    assert message and "\n" not in message


def test_the_table_covers_every_exported_callable():
    public = {
        name
        for name, obj in vars(blq).items()
        if not name.startswith("_") and callable(obj) and getattr(obj, "__module__", "").startswith("blq.")
    }
    public |= {"GridSpec", "random_grid_function"}
    covered = {row.callable.split(".")[0] for row in ROWS}
    assert RECORDS | DATUM_ONLY <= public
    assert not covered & (RECORDS | DATUM_ONLY)
    assert sorted(public - covered - RECORDS - DATUM_ONLY) == []
    assert len({str(row) for row in ROWS}) == len(ROWS)


def _resolve(name):
    """The callable a row names: an export of ``blq`` (or of ``blq.grid`` or
    ``blq.tomography``), or a method of one."""
    head, *rest = name.split(".")
    obj = next(getattr(m, head) for m in (blq, blq.grid, blq.tomography) if hasattr(m, head))
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_every_row_names_a_parameter_of_its_callable():
    stale = []
    for row in ROWS:
        signature = inspect.signature(_resolve(row.callable))
        if row.argument not in signature.parameters:
            stale.append(f"{row}: {row.callable}{signature} has no parameter {row.argument!r}")
    assert not stale, "stale rows in ROWS: " + "; ".join(stale)


def test_valid_counts_and_exponents_still_pass():
    # the numpy scalar types a caller gets from arrays are accepted
    assert lp_norm(F2, np.float64(2.0)) == lp_norm(F2, 2)
    assert GridSpec(((0.0, 1.0),), (np.int64(4),)).resolution == (4,)
    assert gowers_norm(np.ones(8), np.int32(2)) == gowers_norm(np.ones(8), 2)
    assert abls_constant(PAIR, (Fraction(1), 1.0), Fraction(1, 2))[0] == abls_constant(PAIR, (1.0, 1.0), 0.5)[0]

import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from blq.catalog import discrete_instances
from blq.cli import _discrete_draws
from blq.data import derive_adjoint_exponents
from blq.discrete import (
    FiniteAbelianGroup,
    GroupHom,
    abls_constant,
    bls_constant,
    discrete_adjoint_margin,
    discrete_adjoint_margins,
    discrete_pushforward,
    enumerate_subgroups,
    group_from_json,
    subgroup_indicator,
)
from blq.errors import CapExceededError, DatumError
from blq.grid import InequalityMargin


def brute_force_subgroups(group):
    """All subsets containing 0 and closed under addition, as bitmask set."""
    order = group.order
    coords = np.array(list(itertools.product(*map(range, group.factors))))  # mixed radix, last axis fastest
    table = group.encode(coords[:, None, :] + coords[None, :, :]).tolist()
    found = set()
    for bits in range(1, 1 << order):
        if not bits & 1:
            continue
        members = [i for i in range(order) if (bits >> i) & 1]
        if all((bits >> table[a][b]) & 1 for a in members for b in members):
            found.add(bits)
    return found


@pytest.mark.parametrize(
    "factors,count",
    [((2,), 2), ((2, 2), 5), ((4,), 3), ((6,), 4), ((8,), 4), ((2, 4), 8)],
)
def test_subgroup_counts(factors, count):
    subs = enumerate_subgroups(FiniteAbelianGroup(factors))
    assert len(subs) == count


@pytest.mark.parametrize("factors", [(2, 2), (4,), (6,), (2, 4), (2, 2, 2)])
def test_subgroups_match_bruteforce(factors):
    group = FiniteAbelianGroup(factors)
    ours = {s.mask for s in enumerate_subgroups(group)}
    assert ours == brute_force_subgroups(group)


def test_subgroup_cap():
    with pytest.raises(CapExceededError):
        enumerate_subgroups(FiniteAbelianGroup((2,) * 13))


def test_order_is_an_int_outside_equality():
    g = FiniteAbelianGroup((6, 4))
    assert type(g.order) is int and g.order == 24
    assert g == FiniteAbelianGroup((6, 4)) and "order" not in repr(g)


def test_cached_lattice_equals_a_fresh_enumeration():
    group = FiniteAbelianGroup((4, 8))
    first = enumerate_subgroups(group)
    assert enumerate_subgroups(group) is first
    fresh = enumerate_subgroups(FiniteAbelianGroup((4, 8)))
    assert fresh is not first
    assert [(s.order, s.mask) for s in first] == [(s.order, s.mask) for s in fresh]
    with pytest.raises(ValueError, match="read-only"):
        first[-1].indices[0] = 1


def test_cap_raises_on_a_cached_lattice():
    group = FiniteAbelianGroup((8, 8))
    assert len(enumerate_subgroups(group)) > 0
    with pytest.raises(CapExceededError):
        enumerate_subgroups(group, cap=32)
    with pytest.raises(CapExceededError):
        bls_constant((GroupHom(((1, 0), (0, 1)), group, group),), (1.0,), cap=32)


def test_bad_homomorphism_rejected():
    z2 = FiniteAbelianGroup((2,))
    z4 = FiniteAbelianGroup((4,))
    with pytest.raises(DatumError):
        GroupHom(((1,),), z2, z4)  # 1 * 2 = 2 != 0 mod 4
    GroupHom(((2,),), z2, z4)  # doubling is fine


def test_pushforward_preserves_l1_exactly():
    g = FiniteAbelianGroup((6, 4))
    proj = GroupHom(((1, 0),), g, FiniteAbelianGroup((6,)))
    rng = np.random.default_rng(0)
    f = rng.integers(0, 50, size=g.order).astype(float)
    pf = discrete_pushforward(f, proj)
    assert pf.sum() == f.sum()


def coordinate_pair():
    g = FiniteAbelianGroup((2, 2))
    b1 = GroupHom(((1, 0),), g, FiniteAbelianGroup((2,)))
    b2 = GroupHom(((0, 1),), g, FiniteAbelianGroup((2,)))
    return g, (b1, b2)


def test_bls_coordinate_projections():
    _, maps = coordinate_pair()
    value, argmax = bls_constant(maps, (1.0, 1.0))
    assert value == pytest.approx(1.0, abs=1e-14)
    assert len(argmax) == 2


def test_bls_identity_and_repeated():
    zn = FiniteAbelianGroup((12,))
    ident = GroupHom(((1,),), zn, zn)
    value, _ = bls_constant((ident,), (1.0,))
    assert value == pytest.approx(1.0, abs=1e-14)
    z2 = FiniteAbelianGroup((2,))
    ident2 = GroupHom(((1,),), z2, z2)
    value2, _ = bls_constant((ident2, ident2), (0.5, 0.5))
    assert value2 == pytest.approx(1.0, abs=1e-14)


def test_bls_against_inequality_form_oracle():
    """Evaluate the defining ratio by explicit summation over the group."""
    n = 4
    g = FiniteAbelianGroup((n, n))
    zn = FiniteAbelianGroup((n,))
    maps = (
        GroupHom(((1, 0),), g, zn),
        GroupHom(((0, 1),), g, zn),
        GroupHom(((1, 1),), g, zn),
    )
    c = (2.0 / 3.0,) * 3
    value, argmax = bls_constant(maps, c)
    best = 0.0
    subs = enumerate_subgroups(zn)
    images = [m.image_indices() for m in maps]
    for combo in itertools.product(subs, repeat=3):
        numer = 0.0
        for x in range(g.order):
            term = 1.0
            for h, img, ci in zip(combo, images, c):
                member = 1.0 if (h.mask >> int(img[x])) & 1 else 0.0
                term *= member**ci
            numer += term
        denom = math.prod(h.order**ci for h, ci in zip(combo, c))
        best = max(best, numer / denom)
    assert value == pytest.approx(best, rel=1e-12)


def test_abls_limit_p_to_one():
    _, maps = coordinate_pair()
    v, _ = abls_constant(maps, (1.0, 1.0), 0.999999)
    assert v == pytest.approx(1.0, abs=1e-4)


def test_abls_equals_bls_power_on_catalog():
    for name, maps, c in discrete_instances(max_order=64):
        blv, _ = bls_constant(maps, [float(x) for x in c])
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)):
            ablv, _ = abls_constant(maps, [float(x) for x in c], p)
            target = blv ** float(1 / p - 1)
            assert ablv == pytest.approx(target, rel=1e-12), name


def test_image_tuple_never_decreases_ratio():
    # the tuple (B_i H) dominates the single-subgroup ratio of H
    for name, maps, c in discrete_instances(max_order=64):
        c = [float(x) for x in c]
        _, argmax = abls_constant(maps, c, Fraction(1, 2))
        h = argmax
        images = [m.image_indices() for m in maps]
        image_orders = [len(np.unique(img[h.indices])) for img in images]
        ratio_h = h.order / math.prod(m**ci for m, ci in zip(image_orders, c))
        counts = np.ones(maps[0].source.order, dtype=bool)
        for img, m_ord in zip(images, image_orders):
            member = np.zeros(img.max() + 1, dtype=bool)
            member[np.unique(img[h.indices])] = True
            counts &= member[img]
        ratio_tuple = counts.sum() / math.prod(
            m**ci for m, ci in zip(image_orders, c)
        )
        assert ratio_tuple >= ratio_h - 1e-12


def params_for(maps, c, p):
    return derive_adjoint_exponents([float(x) for x in c], [1.0 / len(maps)] * len(maps), p)


def test_margin_equality_at_argmax_subgroup():
    for name, maps, c in discrete_instances(max_order=64):
        c = [float(x) for x in c]
        blv, _ = bls_constant(maps, c)
        ablv, h = abls_constant(maps, c, Fraction(1, 2))
        f = subgroup_indicator(h, maps[0].source)
        m = discrete_adjoint_margin(f / f.sum(), maps, params_for(maps, c, 0.5), blv)
        if h.order == 1 or abs(math.log(blv) - 0.0) < 1e-12:
            assert m.margin >= -1e-12
        # the argmax subgroup achieves equality whenever it attains the sup
        ratio = h.order / math.prod(
            len(np.unique(mm.image_indices()[h.indices])) ** ci for mm, ci in zip(maps, c)
        )
        if abs(ratio - blv) < 1e-12:
            assert abs(m.margin) < 1e-12


def test_margin_delta_function():
    _, maps = coordinate_pair()
    f = np.zeros(4)
    f[0] = 1.0
    m = discrete_adjoint_margin(f, maps, params_for(maps, (1, 1), 0.5), 1.0)
    assert m.lhs == pytest.approx(1.0) and m.rhs == pytest.approx(1.0)
    assert abs(m.margin) < 1e-14
    assert m.quadrature_estimate == 0.0  # counting-measure margins are exact


def test_random_margins_z8z8():
    g = FiniteAbelianGroup((8, 8))
    z8 = FiniteAbelianGroup((8,))
    maps = (GroupHom(((1, 0),), g, z8), GroupHom(((0, 1),), g, z8))
    c = (1.0, 1.0)
    blv, _ = bls_constant(maps, c)
    params = params_for(maps, c, 0.5)
    rng = np.random.default_rng(8)
    for _ in range(1000):
        f = rng.uniform(0.0, 1.0, size=g.order) * (rng.uniform(size=g.order) < 0.7)
        if f.sum() == 0:
            continue
        m = discrete_adjoint_margin(f / f.sum(), maps, params, blv)
        assert m.margin >= -1e-12


def test_group_serialization_roundtrip():
    obj = {
        "factors": [2, 4],
        "maps": [
            {"matrix": [[1, 0]], "target_factors": [2]},
            {"matrix": [[0, 1]], "target_factors": [4]},
            {"matrix": [[2, 1]], "target_factors": [4]},
        ],
    }
    group, maps = group_from_json(obj)
    assert group.order == 8 and len(maps) == 3
    assert maps[2].matrix == ((2, 1),) and maps[2].target.factors == (4,)
    assert maps[2].source is group and group.factors == (2, 4)


def test_consistency_at_order_512():
    maps, c = order_512_data()
    blv, _ = bls_constant(maps, c, cap=512)
    for p in (Fraction(1, 2), Fraction(2, 3)):
        ablv, _ = abls_constant(maps, c, p, cap=512)
        assert ablv == pytest.approx(blv ** float(1 / p - 1), rel=1e-12)


def reference_lattice(group):
    """The subgroup lattice by one closure per (subgroup, generator): each
    coset representative g of a popped subgroup h gives h + <g> from g's
    algebraic order, one table lookup and one ``np.unique``."""
    table = group._table

    def subgroup(generators, indices):
        bits = np.zeros(group.order, dtype=bool)
        bits[indices] = True
        mask = int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")
        return generators, indices, mask

    def close_under(base, g):
        coords = group._coords[g]
        ord_g = 1
        for a, n in zip(coords, group.factors):
            if a:
                ord_g = math.lcm(ord_g, n // math.gcd(n, int(a)))
        orbit = group.encode(np.outer(np.arange(ord_g), coords))
        return np.unique(table[np.ix_(base, orbit)]).astype(np.int64)

    trivial = subgroup((), np.array([0], dtype=np.int64))
    found = {trivial[2]: trivial}
    queue = [trivial]
    every = np.arange(group.order)
    while queue:
        gens, indices, mask = queue.pop()
        reps = np.unique(table[np.ix_(every, indices)].min(axis=1)) if len(indices) > 1 else every
        for g in reps:
            g = int(g)
            if (mask >> g) & 1:
                continue
            sub = subgroup(gens + (g,), close_under(indices, g))
            if sub[2] not in found:
                found[sub[2]] = sub
                queue.append(sub)
    return sorted(found.values(), key=lambda s: (len(s[1]), s[2]))


def reference_bls(maps, c):
    """BLs by one boolean intersection per subgroup tuple."""
    sub_lists = [reference_lattice(m.target) for m in maps]
    images = [m.image_indices() for m in maps]
    best_log, best = -math.inf, None
    for combo in itertools.product(*sub_lists):
        inter = np.ones(maps[0].source.order, dtype=bool)
        for (_, indices, _), img, m in zip(combo, images, maps):
            member = np.zeros(m.target.order, dtype=bool)
            member[indices] = True
            inter &= member[img]
        count = int(np.count_nonzero(inter))
        if count == 0:
            continue
        log_ratio = math.log(count) - sum(ci * math.log(len(s[1])) for ci, s in zip(c, combo))
        if log_ratio > best_log:
            best_log, best = log_ratio, combo
    return math.exp(best_log), [s[2] for s in best]


def reference_abls(maps, c, p):
    """ABLs by one ``np.unique`` per (subgroup, map)."""
    best_log, best = -math.inf, None
    for s in reference_lattice(maps[0].source):
        log_ratio = math.log(len(s[1]))
        for ci, m in zip(c, maps):
            log_ratio -= ci * math.log(len(np.unique(m.image_indices()[s[1]])))
        if log_ratio > best_log:
            best_log, best = log_ratio, s
    return math.exp(float(1 / p - 1) * best_log), best[2]


def order_512_data():
    g = FiniteAbelianGroup((8, 64))
    z8, z64 = FiniteAbelianGroup((8,)), FiniteAbelianGroup((64,))
    return (GroupHom(((1, 0),), g, z8), GroupHom(((0, 1),), g, z64)), (0.75, 1.25)


def catalog_groups():
    groups = [(8, 64), (2, 2, 2), (2, 4, 8)]
    for _, maps, _ in discrete_instances(256):
        groups += [m.source.factors for m in maps[:1]] + [m.target.factors for m in maps]
    return list(dict.fromkeys(groups))


@pytest.mark.parametrize("factors", catalog_groups(), ids=str)
def test_tabulated_lattice_is_the_per_generator_closure(factors):
    ours = enumerate_subgroups(FiniteAbelianGroup(factors))
    expected = reference_lattice(FiniteAbelianGroup(factors))
    assert [(s.generators, s.order, s.mask) for s in ours] == [(g, len(i), m) for g, i, m in expected]
    for s, (_, indices, _) in zip(ours, expected):
        assert s.indices.dtype == np.int64 and not s.indices.flags.writeable
        assert np.array_equal(s.indices, indices)


@pytest.mark.parametrize("factors", catalog_groups(), ids=str)
def test_addition_table_is_the_coordinate_sum_table(factors):
    """The axis-by-axis int32 table against the one int64 (order, order, rank)
    sum of coordinates it replaced."""
    g = FiniteAbelianGroup(factors)
    strides = np.array([math.prod(factors[i + 1 :]) for i in range(len(factors))])
    coords = g._coords
    expected = (((coords[:, None, :] + coords[None, :, :]) % np.array(factors)) @ strides).astype(np.int32)
    table = g._table
    assert table.dtype == np.int32 and np.array_equal(table, expected)


def test_addition_table_peak_is_a_few_tables():
    g = FiniteAbelianGroup((32, 32))
    tracemalloc.start()
    try:
        table = g._table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table and one int32 term; the int64 coordinate sum and its copy took 8 tables
    assert peak <= 3 * table.nbytes


def test_tabulated_constants_are_the_per_tuple_loops():
    cases = [(maps, [float(x) for x in c]) for _, maps, c in discrete_instances(256)]
    for maps, c in cases + [order_512_data()]:
        value, argmax = bls_constant(maps, c, cap=512)
        assert (value, [s.mask for s in argmax]) == reference_bls(maps, c)
        for p in (Fraction(1, 2), Fraction(1, 3), Fraction(3, 4), Fraction(2, 3)):
            value, argmax = abls_constant(maps, c, p, cap=512)
            assert (value, argmax.mask) == reference_abls(maps, c, p)


def test_exponent_count_must_match_the_maps():
    g = FiniteAbelianGroup((4, 4))
    z4 = FiniteAbelianGroup((4,))
    maps = (GroupHom(((1, 0),), g, z4), GroupHom(((0, 1),), g, z4))
    assert bls_constant(maps, [1, 1])[0] == 1.0
    for c in ([1], [1, 1, 1]):
        with pytest.raises(DatumError, match=f"{len(c)} exponents for 2 homomorphisms"):
            bls_constant(maps, c)
        with pytest.raises(DatumError, match=f"{len(c)} exponents for 2 homomorphisms"):
            abls_constant(maps, c, 0.5)


def reference_margin(f, maps, params, bl_value):
    """The single-function margin written out the long way: one L^p sum and
    one bincount pushforward per map."""

    def lp(v, q):
        return float(v.max()) if q == math.inf else float(np.sum(v**q)) ** (1.0 / q)

    norms = [
        lp(np.bincount(m.image_indices(), weights=f, minlength=m.target.order), q)
        for m, q in zip(maps, params.p_i)
    ]
    rhs = math.exp(params.log_rhs(norms, bl_value))
    return InequalityMargin.from_sides(lp(f, params.p), rhs, params.mode)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3), Fraction(3, 4)])
def test_batched_margins_are_bitwise_the_single_margins(p):
    rng = np.random.default_rng(4)
    for name, maps, c in discrete_instances():
        order = maps[0].source.order
        blv, _ = bls_constant(maps, [float(x) for x in c])
        params = params_for(maps, c, float(p))
        infinite = dataclasses.replace(params, p_i=(math.inf,) + params.p_i[1:])
        F = rng.uniform(size=(5, order)) * (rng.uniform(size=(5, order)) < 0.8)
        F[1] = 0.0
        F[1, order - 1] = 1.0  # a delta function
        F[:, 0] *= 3.0
        for prm in (params, infinite):
            batched = discrete_adjoint_margins(F, maps, prm, blv)
            assert len(batched) == len(F)
            for row, m in zip(F, batched):
                single = discrete_adjoint_margin(row, maps, prm, blv)
                assert dataclasses.astuple(m) == dataclasses.astuple(single), name
                assert dataclasses.astuple(m) == dataclasses.astuple(reference_margin(row, maps, prm, blv)), name


def test_batched_pushforward_is_bitwise_the_single_pushforward():
    g = FiniteAbelianGroup((6, 4))
    hom = GroupHom(((1, 1),), g, FiniteAbelianGroup((2,)))
    F = np.random.default_rng(1).uniform(size=(7, g.order))
    batched = discrete_pushforward(F, hom)
    assert batched.shape == (7, 2)
    for row, pf in zip(F, batched):
        assert np.array_equal(pf, discrete_pushforward(row, hom))


def test_batched_margins_reject_a_bad_shape_or_sign():
    _, maps = coordinate_pair()
    params = params_for(maps, (1, 1), 0.5)
    with pytest.raises(ValueError, match="one vector"):
        discrete_adjoint_margins(np.ones(4), maps, params, 1.0)
    with pytest.raises(ValueError, match="one vector"):
        discrete_adjoint_margins(np.ones((2, 5)), maps, params, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        discrete_adjoint_margins(-np.ones((2, 4)), maps, params, 1.0)
    assert discrete_adjoint_margins(np.ones((0, 4)), maps, params, 1.0) == []


def per_function_draws(rng, order, n_functions):
    """The discrete handler's draws written one function at a time: zero-sum
    functions skipped, the rest normalized to sum 1."""
    for _ in range(n_functions):
        f = rng.uniform(0.0, 1.0, size=order)
        f *= rng.uniform(size=order) < 0.8
        if f.sum() == 0:
            continue
        f /= f.sum()
        yield f


@pytest.mark.parametrize("order,n_functions", [(1, 50), (2, 3000), (100, 97), (256, 40), (5000, 3)])
def test_blocked_draws_give_the_per_function_margins(order, n_functions):
    seed = 11 + order
    blocks = list(_discrete_draws(np.random.default_rng(seed), order, n_functions))
    assert all(F.size <= 4096 or len(F) == 1 for F in blocks)
    blocked = np.concatenate(blocks)
    single = list(per_function_draws(np.random.default_rng(seed), order, n_functions))
    assert len(blocked) == len(single)
    if order <= 2:  # zero-sum draws are likely: some must have been dropped
        assert len(single) < n_functions
    assert all(np.array_equal(a, b) for a, b in zip(blocked, single))
    g = FiniteAbelianGroup((order,))
    maps = (GroupHom(((1,),), g, g),)
    params = params_for(maps, (1,), 0.5)
    expected = [reference_margin(f, maps, params, 1.0) for f in single]
    got = [m for F in blocks for m in discrete_adjoint_margins(F, maps, params, 1.0)]
    assert [dataclasses.astuple(m) for m in got] == [dataclasses.astuple(m) for m in expected]

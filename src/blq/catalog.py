"""Named Brascamp-Lieb data and seeded random feasible instances.

The random generator conjugates classical feasible bases (coordinate
projections, convolution triples, identity families) by well-conditioned
linear changes of variables, which preserves finiteness of the constant and
gaussian extremizability.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .data import BLDatum, derive_adjoint_exponents
from .discrete import FiniteAbelianGroup, GroupHom


def loomis_whitney(d):
    """Projections deleting one coordinate, exponents 1/(d-1)."""
    maps = tuple(np.delete(np.eye(d), i, axis=0) for i in range(d))
    return BLDatum(maps, (Fraction(1, d - 1),) * d)


def holder_identity(d, k=1):
    """k copies of the identity with exponents summing to one."""
    return BLDatum(tuple(np.eye(d) for _ in range(k)), (Fraction(1, k),) * k)


def young():
    """Convolution triple x, y, x - y on the plane, exponents 2/3."""
    maps = (np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), np.array([[1.0, -1.0]]))
    return BLDatum(maps, (Fraction(2, 3),) * 3)


def finner_split():
    """Product split of R^3 into a plane and a line, exponents (1, 1)."""
    maps = (np.array([[1.0, 0, 0], [0, 1.0, 0]]), np.array([[0, 0, 1.0]]))
    return BLDatum(maps, (Fraction(1),) * 2)


def finner_mixed():
    """Overlapping subsets (12), (13), (2), (3) of R^3 with exponents 1/2."""
    e = np.eye(3)
    maps = (
        np.array([e[0], e[1]]),
        np.array([e[0], e[2]]),
        np.array([e[1]]),
        np.array([e[2]]),
    )
    return BLDatum(maps, (Fraction(1, 2),) * 4)


def finner_cyclic4():
    """Cyclic pair projections (12), (23), (34), (41) of R^4, exponents 1/2."""
    e = np.eye(4)
    maps = tuple(np.array([e[i], e[(i + 1) % 4]]) for i in range(4))
    return BLDatum(maps, (Fraction(1, 2),) * 4)


NAMED_DATA = {
    "loomis_whitney_2": lambda: loomis_whitney(2),
    "loomis_whitney_3": lambda: loomis_whitney(3),
    "loomis_whitney_4": lambda: loomis_whitney(4),
    "holder_identity_2": lambda: holder_identity(2),
    "holder_pair_2": lambda: holder_identity(2, k=2),
    "young": young,
    "finner_split": finner_split,
    "finner_mixed": finner_mixed,
    "finner_cyclic4": finner_cyclic4,
}


def named_datum(name) -> BLDatum:
    try:
        return NAMED_DATA[name]()
    except KeyError:
        raise KeyError(f"unknown datum preset {name!r}; options: {sorted(NAMED_DATA)}")


def _well_conditioned(rng, n, lo=0.7, hi=1.4):
    g = rng.standard_normal((n, n))
    u, _, vt = np.linalg.svd(g)
    s = rng.uniform(lo, hi, size=n)
    return u @ np.diag(s) @ vt


def conjugate_datum(datum: BLDatum, seed) -> BLDatum:
    """Replace B_i by U_i B_i T for seeded well-conditioned T, U_i."""
    rng = np.random.default_rng(seed)
    T = _well_conditioned(rng, datum.ambient_dim)
    maps = [_well_conditioned(rng, b.shape[0]) @ b @ T for b in datum.maps]
    return BLDatum(tuple(maps), datum.exact_exponents or datum.exponents)


_BASE_CYCLE = (
    "loomis_whitney_2",
    "loomis_whitney_3",
    "young",
    "holder_pair_2",
    "finner_split",
    "finner_mixed",
    "loomis_whitney_4",
    "finner_cyclic4",
)


def seeded_feasible_data(n=20, seed0=2024):
    """n conjugated feasible data with d <= 4 and k <= 4, with labels."""
    out = []
    for t in range(n):
        name = _BASE_CYCLE[t % len(_BASE_CYCLE)]
        base = named_datum(name)
        out.append((f"{name}#{t}", conjugate_datum(base, seed0 + t)))
    return out


def random_adjoint_draws(datum: BLDatum, seed, n=5):
    """Seeded forward-mode (theta, p) draws, p in [0.35, 0.9), with theta
    bounded away from 0 (normalized weights drawn from [0.12, 1))."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(n):
        raw = rng.uniform(0.12, 1.0, size=datum.k)
        theta = raw / raw.sum()
        p = float(rng.uniform(0.35, 0.9))
        draws.append(derive_adjoint_exponents(datum.exponents, theta, p))
    return draws


def _coordinate_projection(group, axis_subset):
    sub = tuple(group.factors[a] for a in axis_subset)
    target = FiniteAbelianGroup(sub)
    matrix = tuple(
        tuple(1 if j == a else 0 for j in range(group.rank)) for a in axis_subset
    )
    return GroupHom(matrix=matrix, source=group, target=target)


def discrete_instances(max_order=256):
    """Coordinate-style data on small groups: (name, maps, c) with exact c."""
    out = []
    for factors in [(2, 2), (4, 4), (8, 8), (16, 16), (3, 9), (6, 4)]:
        g = FiniteAbelianGroup(factors)
        if g.order <= max_order:
            maps = tuple(_coordinate_projection(g, (a,)) for a in range(g.rank))
            out.append((f"coords{factors}", maps, (Fraction(1), Fraction(1))))
    for factors in [(2, 2, 2), (4, 4, 4), (2, 4, 8)]:
        g = FiniteAbelianGroup(factors)
        if g.order <= max_order:
            maps = tuple(
                _coordinate_projection(g, tuple(j for j in range(3) if j != i))
                for i in range(3)
            )
            out.append((f"pairs{factors}", maps, (Fraction(1, 2),) * 3))
    for n in [4, 6, 8, 12]:
        g = FiniteAbelianGroup((n, n))
        if g.order <= max_order:
            zn = FiniteAbelianGroup((n,))
            maps = (
                GroupHom(((1, 0),), g, zn),
                GroupHom(((0, 1),), g, zn),
                GroupHom(((1, 1),), g, zn),
            )
            out.append((f"convolution Z{n}", maps, (Fraction(2, 3),) * 3))
    g = FiniteAbelianGroup((2, 4))
    z2, z4 = FiniteAbelianGroup((2,)), FiniteAbelianGroup((4,))
    out.append(
        (
            "twisted Z2xZ4",
            (
                GroupHom(((1, 0),), g, z2),
                GroupHom(((0, 1),), g, z4),
                GroupHom(((2, 1),), g, z4),
            ),
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)),
        )
    )
    g = FiniteAbelianGroup((12,))
    out.append(("identity Z12", (GroupHom(((1,),), g, g),), (Fraction(1),)))
    return out

"""Brascamp-Lieb theory on finite abelian groups.

Groups are products of cyclic factors; elements are indexed 0..order-1 in
mixed radix.  Subgroup enumeration is exhaustive (closure of generator
extensions with bitmask dedup), which is exact at desk scale and feeds the
two suprema:

* subgroup constant     BLs  = max over tuples H_i <= G_i of
                        #(intersect B_i^{-1} H_i) / prod (#H_i)^{c_i}
* adjoint constant      ABLs = (max over H <= G of
                        #H / prod #(B_i H)^{c_i})^{(1-p)/p}

Exponent algebra keeps rationals exact where the inputs are rational; only
the final powers are floating point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .data import AdjointParams
from .errors import CapExceededError, DatumError
from .grid import InequalityMargin

SUBGROUP_CAP = 4096
TUPLE_CAP = 200_000


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_m}."""

    factors: tuple
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple(int(n) for n in self.factors)
        if len(factors) == 0 or any(n < 1 for n in factors):
            raise ValueError("factors must be positive integers")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "order", math.prod(factors))
        strides = []
        s = 1
        for n in reversed(factors):
            strides.append(s)
            s *= n
        object.__setattr__(self, "_strides", tuple(reversed(strides)))
        coords = np.stack(
            np.meshgrid(*[np.arange(n) for n in factors], indexing="ij"), axis=-1
        ).reshape(-1, len(factors))
        coords.flags.writeable = False
        object.__setattr__(self, "_coords", coords)

    @property
    def rank(self):
        return len(self.factors)

    def coords(self, idx):
        return self._coords[idx]

    def encode(self, coords):
        coords = np.asarray(coords) % np.array(self.factors)
        return coords @ np.array(self._strides)

    def _table(self):
        """Cached full addition table; affordable up to the subgroup cap."""
        table = getattr(self, "_add_table", None)
        if table is None:
            col = self.encode(self._coords[:, None, :] + self._coords[None, :, :])
            table = col.astype(np.int32)
            object.__setattr__(self, "_add_table", table)
        return table

    def add(self, idx, j):
        """Element-wise idx + j (j a single element index)."""
        if self.order <= SUBGROUP_CAP:
            return self._table()[idx, j]
        return self.encode(self._coords[idx] + self._coords[j])

    def to_json_dict(self):
        return {"factors": list(self.factors)}


@dataclass(frozen=True)
class GroupHom:
    """Integer matrix acting on factor representatives.

    Well-definedness (column j scaled by the source factor order lands on 0
    in the target) is checked exactly.
    """

    matrix: tuple
    source: FiniteAbelianGroup
    target: FiniteAbelianGroup

    def __post_init__(self):
        m = tuple(tuple(int(v) for v in row) for row in self.matrix)
        if len(m) != self.target.rank or any(len(r) != self.source.rank for r in m):
            raise DatumError("homomorphism matrix shape does not match the groups")
        for i, t_i in enumerate(self.target.factors):
            for j, n_j in enumerate(self.source.factors):
                if (m[i][j] * n_j) % t_i != 0:
                    raise DatumError(
                        f"matrix entry ({i},{j}) does not define a homomorphism: "
                        f"{m[i][j]} * {n_j} != 0 mod {t_i}"
                    )
        object.__setattr__(self, "matrix", m)
        M = np.array(m, dtype=np.int64)
        img = self.target.encode(self.source._coords @ M.T)
        img.flags.writeable = False
        object.__setattr__(self, "_image_index", img)

    def image_indices(self):
        """Index in the target group of the image of every source element."""
        return self._image_index

    def to_json_dict(self):
        return {"matrix": [list(r) for r in self.matrix], "target_factors": list(self.target.factors)}


def hom_from_json(obj, source: FiniteAbelianGroup) -> GroupHom:
    target = FiniteAbelianGroup(tuple(obj["target_factors"]))
    return GroupHom(matrix=tuple(tuple(r) for r in obj["matrix"]), source=source, target=target)


def group_from_json(obj):
    g = FiniteAbelianGroup(tuple(obj["factors"]))
    maps = tuple(hom_from_json(m, g) for m in obj.get("maps", []))
    return g, maps


@dataclass(frozen=True)
class Subgroup:
    generators: tuple
    indices: np.ndarray
    mask: int

    @property
    def order(self):
        return len(self.indices)


def _mask_of(indices, order):
    bits = np.zeros(order, dtype=bool)
    bits[indices] = True
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _element_orbit(group, g):
    """Cyclic subgroup generated by one element, via its algebraic order."""
    coords = group._coords[g]
    ord_g = 1
    for a, n in zip(coords, group.factors):
        if a:
            ord_g = math.lcm(ord_g, n // math.gcd(n, int(a)))
    return group.encode(np.outer(np.arange(ord_g), coords))


def _close_under(group, base_indices, g):
    """Subgroup generated by a subgroup and one extra element: the sumset
    base + <g>, computed as one vectorized table lookup."""
    orbit = _element_orbit(group, g)
    prod = group._table()[np.ix_(base_indices, orbit)]
    return np.unique(prod).astype(np.int64)


def enumerate_subgroups(group: FiniteAbelianGroup, cap: int = SUBGROUP_CAP):
    """All subgroups, canonically ordered by (order, bitmask), as a tuple.

    Breadth-first closure over single-generator extensions with bitmask
    dedup; only one candidate generator per coset of the current subgroup is
    tried, since g and g + h generate the same extension for h in the base.
    The lattice is built once per group instance and cached on it, like the
    addition table; ``cap`` is checked on every call.
    """
    if group.order > cap:
        raise CapExceededError(f"group order {group.order} exceeds the cap {cap}")
    lattice = getattr(group, "_lattice", None)
    if lattice is None:
        lattice = _subgroup_lattice(group)
        object.__setattr__(group, "_lattice", lattice)
    return lattice


def _subgroup(generators, indices, order):
    indices.flags.writeable = False
    return Subgroup(generators=generators, indices=indices, mask=_mask_of(indices, order))


def _subgroup_lattice(group):
    table = group._table()
    trivial = _subgroup((), np.array([0], dtype=np.int64), group.order)
    found = {trivial.mask: trivial}
    queue = [trivial]
    every = np.arange(group.order)
    while queue:
        h = queue.pop()
        if h.order > 1:
            coset_id = table[np.ix_(every, h.indices)].min(axis=1)
            reps = np.unique(coset_id)
        else:
            reps = every
        for g in reps:
            g = int(g)
            if (h.mask >> g) & 1:
                continue
            sub = _subgroup(h.generators + (g,), _close_under(group, h.indices, g), group.order)
            if sub.mask not in found:
                found[sub.mask] = sub
                queue.append(sub)
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.mask)))


def subgroup_indicator(sub: Subgroup, group: FiniteAbelianGroup):
    f = np.zeros(group.order)
    f[sub.indices] = 1.0
    return f


def discrete_pushforward(f, hom: GroupHom):
    """(B)_* f by summing fibers, of a vector f or of each row of a 2-D f;
    exact for integer-valued f.  The one bincount over row-offset image
    indices adds each bin's fiber in source order, as for a single vector."""
    f = np.asarray(f, dtype=float)
    n = hom.target.order
    rows = f.reshape(-1, hom.source.order)
    index = hom.image_indices() + n * np.arange(len(rows))[:, None]
    pf = np.bincount(index.ravel(), weights=rows.ravel(), minlength=n * len(rows))
    return pf.reshape(f.shape[:-1] + (n,))


def _check_maps(maps):
    if len(maps) == 0:
        raise DatumError("need at least one homomorphism")
    src = maps[0].source
    if any(m.source is not src and m.source != src for m in maps):
        raise DatumError("all homomorphisms must share the source group")
    return src


def bls_constant(maps: Sequence[GroupHom], c: Sequence, cap: int = SUBGROUP_CAP):
    """Exhaustive subgroup-tuple supremum of the discrete constant.

    Returns (value, argmax) where argmax is the maximizing tuple of
    subgroups H_i <= G_i.
    """
    src = _check_maps(maps)
    c = [float(x) for x in c]
    sub_lists = [enumerate_subgroups(m.target, cap=cap) for m in maps]
    n_tuples = int(np.prod([len(s) for s in sub_lists]))
    if n_tuples > TUPLE_CAP:
        raise CapExceededError(f"{n_tuples} subgroup tuples exceed the cap {TUPLE_CAP}")
    images = [m.image_indices() for m in maps]
    members = []
    for subs, m in zip(sub_lists, maps):
        rows = np.zeros((len(subs), m.target.order), dtype=bool)
        for r, s in enumerate(subs):
            rows[r, s.indices] = True
        members.append(rows)
    best_log = -math.inf
    best = None
    for combo in itertools.product(*[range(len(s)) for s in sub_lists]):
        inter = np.ones(src.order, dtype=bool)
        for i, (row, img) in enumerate(zip(combo, images)):
            inter &= members[i][row][img]
        count = int(np.count_nonzero(inter))
        if count == 0:
            continue
        log_ratio = math.log(count) - sum(
            ci * math.log(sub_lists[i][row].order) for i, (ci, row) in enumerate(zip(c, combo))
        )
        if log_ratio > best_log:
            best_log = log_ratio
            best = tuple(sub_lists[i][row] for i, row in enumerate(combo))
    return math.exp(best_log), best


def abls_constant(maps: Sequence[GroupHom], c: Sequence, p, cap: int = SUBGROUP_CAP):
    """(sup over H <= G of #H / prod #(B_i H)^{c_i})^{(1-p)/p}.

    The exponent (1-p)/p is formed exactly when p is rational.
    """
    src = _check_maps(maps)
    c = [float(x) for x in c]
    if isinstance(p, Fraction):
        if not (0 < p < 1):
            raise ValueError("p must lie in (0,1)")
        expo = float(1 / p - 1)
    else:
        p = float(p)
        if not (0.0 < p < 1.0):
            raise ValueError("p must lie in (0,1)")
        expo = 1.0 / p - 1.0
    subs = enumerate_subgroups(src, cap=cap)
    images = [m.image_indices() for m in maps]
    best_log = -math.inf
    best = None
    for s in subs:
        log_ratio = math.log(s.order)
        for ci, img in zip(c, images):
            log_ratio -= ci * math.log(len(np.unique(img[s.indices])))
        if log_ratio > best_log:
            best_log = log_ratio
            best = s
    return math.exp(expo * best_log), best


def _lp_rows(F, p):
    """Counting-measure L^p norm of each row of F."""
    if p == math.inf:
        return [float(v) for v in F.max(axis=1)]
    return [float(v) ** (1.0 / p) for v in np.sum(F**p, axis=1)]


def discrete_adjoint_margins(
    F, maps: Sequence[GroupHom], params: AdjointParams, bl_value: float
) -> list:
    """Exact counting-measure margins of the discrete adjoint inequality,
    one per row of F (one function on the source group per row)."""
    src = _check_maps(maps)
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[1] != src.order:
        raise ValueError("F must hold one vector indexed by the source group per row")
    if np.any(F < 0):
        raise ValueError("f must be non-negative")
    lhs = _lp_rows(F, params.p)
    norms = [_lp_rows(discrete_pushforward(F, m), q) for m, q in zip(maps, params.p_i)]
    return [
        InequalityMargin.from_sides(l, math.exp(params.log_rhs(n, bl_value)), params.mode)
        for l, *n in zip(lhs, *norms)
    ]


def discrete_adjoint_margin(
    f, maps: Sequence[GroupHom], params: AdjointParams, bl_value: float
) -> InequalityMargin:
    """Exact counting-measure margin of the discrete adjoint inequality."""
    f = np.asarray(f, dtype=float)
    if f.ndim != 1:
        raise ValueError("f must be a vector indexed by the source group")
    return discrete_adjoint_margins(f[None, :], maps, params, bl_value)[0]

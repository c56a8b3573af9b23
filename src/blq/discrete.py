"""Brascamp-Lieb theory on finite abelian groups.

Groups are products of cyclic factors; elements are indexed 0..order-1 in
mixed radix.  Subgroup enumeration is exhaustive (every extension of a
subgroup by one generator read from tables of sums and multiples, with
bitmask dedup), which is exact at desk scale and feeds the two suprema, each
taken over integer tables of intersection counts and image sizes:

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
from typing import Sequence

import numpy as np

from .data import AdjointParams
from .errors import CapExceededError, DatumError, InputError, count, exponent, nonnegative
from .grid import ROW_BLOCK_CELLS, InequalityMargin

SUBGROUP_CAP = 4096
TUPLE_CAP = 200_000


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Product of cyclic groups Z_{n_1} x ... x Z_{n_m}."""

    factors: tuple
    order: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        factors = tuple(count(n, "factors") for n in self.factors)
        count(len(factors), "the number of cyclic factors")
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "order", math.prod(factors))
        object.__setattr__(self, "_strides", tuple(math.prod(factors[i + 1 :]) for i in range(len(factors))))
        coords = np.stack(
            np.meshgrid(*[np.arange(n) for n in factors], indexing="ij"), axis=-1
        ).reshape(-1, len(factors))
        coords.flags.writeable = False
        object.__setattr__(self, "_coords", coords)

    @property
    def rank(self):
        return len(self.factors)

    def encode(self, coords):
        coords = np.asarray(coords) % np.array(self.factors)
        return coords @ np.array(self._strides)

    def _table(self):
        """Cached full int32 addition table; affordable up to the subgroup cap.
        Sum over the axes of ((x_a + y_a) mod n_a) * stride_a: the first term
        becomes the table, and one int32 buffer serves the other axes."""
        table = getattr(self, "_add_table", None)
        if table is None:
            term = None
            for x, n, stride in zip(self._coords.T.astype(np.int32), self.factors, self._strides):
                term = np.add.outer(x, x, out=term)
                term %= n
                term *= stride
                if table is None:
                    table, term = term, None
                else:
                    table += term
            object.__setattr__(self, "_add_table", table)
        return table


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
        m = tuple(tuple(count(v, "matrix entry", minimum=None) for v in row) for row in self.matrix)
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


def group_from_json(obj):
    """The group and homomorphisms of ``obj``; an integral float (JSON's 4.0) is an integer."""
    def ints(row):
        return tuple(int(x) if isinstance(x, float) and x.is_integer() else x for x in row)
    g = FiniteAbelianGroup(ints(obj["factors"]))
    maps = tuple(
        GroupHom(tuple(ints(r) for r in m["matrix"]), g, FiniteAbelianGroup(ints(m["target_factors"])))
        for m in obj.get("maps", [])
    )
    return g, maps


@dataclass(frozen=True)
class Subgroup:
    generators: tuple
    indices: np.ndarray
    mask: int

    def __post_init__(self):
        self.indices.flags.writeable = False

    @property
    def order(self):
        return len(self.indices)


def enumerate_subgroups(group: FiniteAbelianGroup, cap: int = SUBGROUP_CAP):
    """All subgroups, canonically ordered by (order, bitmask), as a tuple.

    Depth-first closure over single-generator extensions with bitmask dedup;
    the extensions of one subgroup by the least element of each of its
    cosets (g and g + h give the same extension for h in the base) are
    tabulated together.  The lattice is built once per group instance and
    cached on it, like the addition table; ``cap`` is checked on every call.
    """
    if group.order > count(cap, "cap"):
        raise CapExceededError(f"group order {group.order} exceeds the cap {cap}")
    lattice = getattr(group, "_lattice", None)
    if lattice is None:
        lattice = _subgroup_lattice(group)
        object.__setattr__(group, "_lattice", lattice)
    return lattice


def _subgroup_lattice(group):
    """Extends each popped subgroup h by all its coset representatives g at
    once: h + <g> = h + {k g : k < m}, m the order of g modulo h.  Per block of
    representatives, their multiples give each m, one gather into the addition
    table (#h m <= order entries each) the extensions, and one ``packbits``
    their masks; unseen masks are pushed in representative order."""
    order = group.order
    table = group._table()
    # k = 0..lcm(factors): the last multiple is 0, in h, for every g
    ks = np.arange(math.lcm(*group.factors) + 1)[:, None, None]
    every = np.arange(order)
    trivial = Subgroup((), np.zeros(1, dtype=np.int64), 1)
    found = {trivial.mask: trivial}
    queue = [trivial]
    step = max(1, ROW_BLOCK_CELLS // order)
    while queue:
        h = queue.pop()
        inside = np.zeros(order, dtype=bool)
        inside[h.indices] = True
        # least element of each coset; 0 leads h's own coset
        reps = np.flatnonzero(table[:, h.indices].min(axis=1) == every)[1:]
        for start in range(0, len(reps), step):
            block = reps[start : start + step]
            mult = group.encode(ks * group._coords[block])
            m = 1 + np.argmax(inside[mult[1:]], axis=0)
            sums = table[h.indices[:, None, None], mult[None, : m.max()]]
            hits = np.zeros((len(block), order), dtype=bool)
            hits[np.arange(len(block)), sums] = True
            masks = np.packbits(hits, axis=1, bitorder="little")
            for g, row, packed in zip(block.tolist(), hits, masks):
                mask = int.from_bytes(packed.tobytes(), "little")
                if mask not in found:
                    sub = Subgroup(h.generators + (g,), np.flatnonzero(row), mask)
                    found[mask] = sub
                    queue.append(sub)
    return tuple(sorted(found.values(), key=lambda s: (s.order, s.mask)))


def _members(subs, order):
    """Indicator rows of ``subs`` as one boolean (subgroups, order) table."""
    rows = np.zeros((len(subs), order), dtype=bool)
    rows[np.repeat(np.arange(len(subs)), [s.order for s in subs]), np.concatenate([s.indices for s in subs])] = True
    return rows


def subgroup_indicator(sub: Subgroup, group: FiniteAbelianGroup):
    f = np.zeros(group.order)
    f[sub.indices] = 1.0
    return f


def discrete_pushforward(f, hom: GroupHom):
    """(B)_* f by summing fibers, of a vector f or of each row of a 2-D f;
    exact for integer-valued f.  The one bincount over row-offset image
    indices adds each bin's fiber in source order, as for a single vector."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (hom.source.order,):
        raise InputError(f"f has shape {f.shape}, not (..., {hom.source.order}) over the source group")
    n = hom.target.order
    rows = f.reshape(-1, hom.source.order)
    index = hom.image_indices() + n * np.arange(len(rows))[:, None]
    pf = np.bincount(index.ravel(), weights=rows.ravel(), minlength=n * len(rows))
    return pf.reshape(f.shape[:-1] + (n,))


def _check_maps(maps, c=None):
    """The source group of all ``maps``, and ``c`` (None, or one exponent per map) as floats."""
    if len(maps) == 0:
        raise DatumError("need at least one homomorphism")
    src = maps[0].source
    if any(m.source is not src and m.source != src for m in maps):
        raise DatumError("all homomorphisms must share the source group")
    if c is None:
        return src, None
    if len(c) != len(maps):
        raise DatumError(f"{len(c)} exponents for {len(maps)} homomorphisms")
    return src, [exponent(x, "c") for x in c]


def bls_constant(maps: Sequence[GroupHom], c: Sequence, cap: int = SUBGROUP_CAP):
    """Exhaustive subgroup-tuple supremum of the discrete constant.

    Returns (value, argmax) where argmax is the maximizing tuple of
    subgroups H_i <= G_i.  The intersection counts of every tuple are one
    int64 contraction of the preimage indicator rows.
    """
    _, c = _check_maps(maps, c)
    sub_lists = [enumerate_subgroups(m.target, cap=cap) for m in maps]
    n_tuples = int(np.prod([len(s) for s in sub_lists]))
    if n_tuples > TUPLE_CAP:
        raise CapExceededError(f"{n_tuples} subgroup tuples exceed the cap {TUPLE_CAP}")
    operands = []
    for i, (subs, m) in enumerate(zip(sub_lists, maps)):
        operands += [_members(subs, m.target.order)[:, m.image_indices()].astype(np.int64), [i, len(maps)]]
    counts = np.einsum(*operands, list(range(len(maps))))
    best_log = -math.inf
    best = None
    combos = itertools.product(*[range(len(s)) for s in sub_lists])
    for combo, count in zip(combos, counts.ravel().tolist()):
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

    The exponent (1-p)/p is formed exactly when p is rational.  The image
    sizes #(B_i H) of every subgroup come from one scatter per map.
    """
    src, c = _check_maps(maps, c)
    exponent(p, "p")
    if not p < 1:
        raise InputError(f"p must lie in (0, 1), got {p!r}")
    expo = float(1 / p - 1)  # exact for a Fraction p
    subs = enumerate_subgroups(src, cap=cap)
    r, x = np.nonzero(_members(subs, src.order))
    sizes = []
    for m in maps:
        hit = np.zeros((len(subs), m.target.order), dtype=bool)
        hit[r, m.image_indices()[x]] = True
        sizes.append(np.count_nonzero(hit, axis=1).tolist())
    best_log = -math.inf
    best = None
    for s, image_sizes in zip(subs, zip(*sizes)):
        log_ratio = math.log(s.order)
        for ci, size in zip(c, image_sizes):
            log_ratio -= ci * math.log(size)
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
    src, _ = _check_maps(maps)
    F = nonnegative(F, "F")
    if F.ndim != 2 or F.shape[1] != src.order:
        raise InputError("F must hold one vector indexed by the source group per row")
    exponent(bl_value, "bl_value")
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
        raise InputError("f must be a vector indexed by the source group")
    return discrete_adjoint_margins(f[None, :], maps, params, bl_value)[0]

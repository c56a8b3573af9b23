"""Discretized non-negative functions on box grids.

A :class:`GridSpec` is the geometry of a uniform box grid: it checks that the
box and the resolution have the same axes and that every axis has positive
extent and at least one cell, and it owns the cell sizes, the cell volume
and the cell centres.  A :class:`GridFunction` is a GridSpec with
non-negative cell-center samples, interpreted as the piecewise-constant
function taking those values on the cells.  Pushforwards use mass-deposit
binning (each source cell drops its entire mass f * cell_volume into the
target cell containing the image of its center), which preserves total mass
exactly and respects the duality that defines marginals.  Quadrature error
for the inequality margins is estimated with one exact dyadic refinement
step: splitting cells leaves the function and its L^p norms unchanged, so
only the marginals are recomputed and any drift isolates the binning
sensitivity.  ``adjoint_log_rhs`` is the one loop over the marginal norms of
the adjoint inequality.  ``InequalityMargin.from_sides`` is the one place
the margin convention (sign by mode, scale, relative margin, drift + 1e-12 *
scale estimate) is applied; every margin in blq is built through it.
``mesh_points`` is the one place grid points are laid out as an (N, d) array.

The binning operator of a pushforward depends only on the source grid, the
map and the target argument, so ``grid_pushforward`` caches it whole: the
target grid (the default one included) and the int32 target bin of every
source cell.  A cache hit neither rebuilds the default target nor re-bins; a
geometry whose image escapes the target box raises on every call and leaves
no entry.  A target of more than 2^31 - 1 cells raises :class:`InputError`
before anything is built.  The cache is a process-wide LRU with a fixed 4 MiB
cap that nothing sets; a miss evicts before it builds, and a lone larger
entry is kept.  Cached and fresh operators give bit-identical pushforwards.

Grids the library builds from values it has just made (the output of
``refine``, of ``grid_pushforward`` and of ``random_grid_function``) go
through the private ``GridFunction._over``, which keeps those values
read-only without the public constructor's copy and checks.  Every grid
forms its cell masses once, on its first pushforward, and every later
pushforward of it bins the same array.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoverageError, InputError, MassError, count, exponent, finite, nonnegative

TINY_FLUSH = 1e-300
BOUNDARY_TOL = 1e-12
ROW_BLOCK_CELLS = 1 << 16  # cells per row block of a whole-grid pass: 512 KiB float64 temporaries


def grid_centers(box, resolution):
    """Per-axis arrays of cell-center coordinates."""
    axes = []
    for (lo, hi), n in zip(box, resolution):
        h = (hi - lo) / n
        axes.append(lo + (np.arange(n) + 0.5) * h)
    return axes


def mesh_points(axes):
    """(N, d) points of the product of per-axis coordinate arrays, in the
    C order of an array of shape (len(a) for a in axes)."""
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


@dataclass(frozen=True)
class GridSpec:
    """A uniform box grid: one (lo, hi) pair and one cell count per axis."""

    box: tuple
    resolution: tuple

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in finite(self.box, "box"))
        res = tuple(count(n, "resolution") for n in self.resolution)
        if len(box) != len(res):
            raise InputError(f"box has {len(box)} axes but resolution {res} has {len(res)}")
        if any(hi <= lo for lo, hi in box):
            raise InputError("box must have positive extent on every axis")
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", res)

    @property
    def dim(self):
        return len(self.resolution)

    @property
    def cell_sizes(self):
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.box, self.resolution))

    @property
    def cell_volume(self):
        """The product of the cell sizes, taken axis by axis."""
        return math.prod(self.cell_sizes)

    def centers(self):
        return grid_centers(self.box, self.resolution)


def _cell_masses(f):
    """f * cell_volume per cell, flat in C order: the one rule for a grid's cell masses."""
    return f.values.ravel() * f.cell_volume


@dataclass(frozen=True)
class GridFunction(GridSpec):
    """Non-negative cell-center samples on a uniform box grid."""

    values: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        vals = np.array(self.values, dtype=float)
        if vals.shape != self.resolution:
            raise InputError(f"values shape {vals.shape} does not match resolution {self.resolution}")
        nonnegative(vals, "values")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def _over(cls, spec: GridSpec, values):
        """A grid over values the library has just built and checked itself
        on the checked geometry ``spec``: no copy and no re-check, only made
        read-only."""
        grid = cls.__new__(cls)
        object.__setattr__(grid, "box", spec.box)
        object.__setattr__(grid, "resolution", spec.resolution)
        values.flags.writeable = False
        object.__setattr__(grid, "values", values)
        return grid

    @property
    def mass(self):
        return float(self.values.sum() * self.cell_volume)

    masses = functools.cached_property(_cell_masses)  # formed once per grid

    def refine(self):
        """Split every cell into 2^d subcells with the same value (exact)."""
        vals = self.values
        for ax in range(self.dim):
            vals = np.repeat(vals, 2, axis=ax)
        return GridFunction._over(GridSpec(self.box, tuple(2 * n for n in self.resolution)), vals)

    def normalized(self):
        m = self.mass
        if m <= 0:
            raise MassError("cannot normalize a zero-mass function")
        return GridFunction(self.box, self.resolution, self.values / m)

    @classmethod
    def from_callable(cls, fn, box, resolution):
        axes = grid_centers(box, resolution)
        mesh = np.meshgrid(*axes, indexing="ij")
        return cls(box, tuple(resolution), np.asarray(fn(*mesh), dtype=float))

    @classmethod
    def constant(cls, value, box, resolution):
        return cls(box, tuple(resolution), np.full(tuple(resolution), float(value)))

    @classmethod
    def indicator_box(cls, support, box, resolution):
        """Indicator of a product box, sampled at cell centers."""
        axes = grid_centers(box, resolution)
        masks = [
            ((ax >= lo) & (ax <= hi)).astype(float)
            for ax, (lo, hi) in zip(axes, support)
        ]
        vals = masks[0]
        for m in masks[1:]:
            vals = np.multiply.outer(vals, m)
        return cls(box, tuple(resolution), vals)


def gaussian_grid(quad_form, box, resolution):
    """Sample e^{-pi <Qx, x>} at cell centers."""
    Q = np.atleast_2d(finite(quad_form, "quad_form"))
    pts = mesh_points(grid_centers(box, resolution))
    vals = np.exp(-math.pi * np.sum(pts * (pts @ Q.T), axis=1))
    return GridFunction(box, tuple(resolution), vals.reshape(tuple(resolution)))


def random_grid_function(box, resolution, seed, zero_fraction=0.0, smooth=0):
    """Seeded random piecewise-constant non-negative function."""
    spec = GridSpec(tuple(box), tuple(resolution))
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, size=spec.resolution)
    if zero_fraction > 0:
        vals *= rng.uniform(size=vals.shape) >= zero_fraction
    for _ in range(count(smooth, "smooth", minimum=0)):
        acc = vals.copy()
        for ax in range(vals.ndim):
            acc += np.roll(vals, 1, axis=ax) + np.roll(vals, -1, axis=ax)
        acc /= 1 + 2 * vals.ndim
        vals = acc
    return GridFunction._over(spec, vals)


def lp_norm(f: GridFunction, p) -> float:
    """(sum f^p * cell_volume)^{1/p}; p = inf returns the max value."""
    p = exponent(p, "p", inf=True)
    if p == math.inf:
        return float(f.values.max())
    vals = f.values**p
    np.putmask(vals, f.values < TINY_FLUSH, 0.0)
    total = float(np.sum(vals)) * f.cell_volume
    return total ** (1.0 / p)


def _auto_target(f: GridFunction, B) -> GridSpec:
    """Bounding box of the image of the source box corners; shared resolution."""
    corners = np.array(list(itertools.product(*f.box)))
    images = corners @ np.asarray(B, dtype=float).T
    lo, hi = images.min(axis=0), images.max(axis=0)
    box = tuple((float(a), float(b)) for a, b in zip(lo, hi))
    return GridSpec(box, (max(f.resolution),) * images.shape[1])


_OPERATORS = OrderedDict()  # geometry key -> (target, int32 index), oldest use first
# 4 MiB holds every geometry of one adjoint-verify datum (at most 2.6 MB:
# 8 maps at the base and the refined resolution in d = 4)
_OPERATORS_CAP_BYTES = 4 << 20


def row_blocks(resolution):
    """(rows, cells) slices per block of axis-0 rows holding about ROW_BLOCK_CELLS
    cells: the rows, and the C-order flat indices of their cells."""
    row = math.prod(resolution[1:])
    step = max(1, ROW_BLOCK_CELLS // row)
    return [(slice(r, r + step), slice(r * row, (r + step) * row)) for r in range(0, resolution[0], step)]


def _bin_index(f: GridFunction, B, target: GridSpec):
    """The flat int32 target bin of every cell centre of f's grid mapped by B.

    Built in row blocks; each target coordinate is an outer sum of per-axis
    terms, so no (N, d) array of points is formed.  Centres escaping the
    target box raise :class:`CoverageError` with the escaping mass fraction.
    """
    axes = f.centers()
    d = len(axes)
    flat, outside = [], []
    for rows, _ in row_blocks(f.resolution):
        block = [axes[0][rows]] + axes[1:]
        index, inside = 0, True
        for a, ((lo, hi), n) in enumerate(zip(target.box, target.resolution)):
            y = 0.0
            for j, c in enumerate(block):
                shape = [1] * d
                shape[j] = c.size
                y = y + (c * B[a, j]).reshape(shape)
            y = y.ravel()
            span = hi - lo
            tol = BOUNDARY_TOL * max(span, 1.0)
            inside = inside & (y >= lo - tol) & (y <= hi + tol)
            k = np.floor((y - lo) / (span / n)).astype(np.int64)
            np.clip(k, 0, n - 1, out=k)
            index = index * n + k
        flat.append(index.astype(np.int32))
        outside.append(~inside)
    outside = np.concatenate(outside)
    if outside.any():
        masses = f.masses
        total = float(masses.sum())
        frac = float(masses[outside].sum()) / total if total > 0 else 1.0
        raise CoverageError(
            f"pushforward image escapes the target box (escaping mass fraction {frac:.3e})",
            escaping_fraction=frac,
        )
    return np.concatenate(flat)  # made last: a preallocated index tripled adjoint-chain page faults


def grid_pushforward(f: GridFunction, B, target: Optional[GridSpec] = None) -> GridFunction:
    """Mass-deposit pushforward of f along the linear map B.

    Each source cell contributes f * source_cell_volume to the target cell
    containing the image of its center, then values are divided by the target
    cell volume; total mass is preserved exactly.  Centers escaping the
    target box raise :class:`CoverageError` with the escaping mass fraction;
    the default target, the bounding box of the image, holds every centre.
    The operator of a geometry (grid, B, target argument) is cached; see
    the module docstring.
    """
    B = np.asarray(B, dtype=float)
    key = (f.box, f.resolution, B.shape, B.tobytes(), target)
    entry = _OPERATORS.pop(key, None)
    if entry is None:  # a malformed B never hits: its key is never put
        if B.ndim != 2 or B.shape[1] != f.dim or (target is not None and len(B) != target.dim):
            raise InputError(f"B has shape {B.shape}, not (target dimension, {f.dim})")
        finite(B, "B")
        if target is None:
            target = _auto_target(f, B)
        if math.prod(target.resolution) > np.iinfo(np.int32).max:
            raise InputError(f"target resolution {target.resolution} has more than 2^31 - 1 cells")
        nbytes = 4 * f.values.size  # the int32 index about to be built
        while _OPERATORS and nbytes + sum(i.nbytes for _, i in _OPERATORS.values()) > _OPERATORS_CAP_BYTES:
            _OPERATORS.popitem(last=False)
        entry = (target, _bin_index(f, B, target))
    _OPERATORS[key] = entry
    target, flat = entry
    acc = np.bincount(flat, weights=f.masses, minlength=math.prod(target.resolution))
    vals = (acc / target.cell_volume).reshape(target.resolution)
    if not math.isfinite(vals.max()):  # finite masses over a cell volume at or near underflow
        raise InputError("pushforward values must be finite: the target cells are too small")
    return GridFunction._over(target, vals)


@dataclass(frozen=True)
class InequalityMargin:
    """Two sides of an inequality with a refinement-based error estimate.

    The sign convention makes ``margin >= -quadrature_estimate`` the numeric
    certificate that the inequality holds.
    """

    lhs: float
    rhs: float
    margin: float
    relative_margin: float
    quadrature_estimate: float
    mode: str = "forward"

    @property
    def certified(self):
        return self.margin >= -self.quadrature_estimate

    @classmethod
    def from_sides(cls, lhs, rhs, mode, drift=None):
        """Margin rhs - lhs (forward) or lhs - rhs (reverse), scaled by
        max(1, |lhs|, |rhs|), with estimate drift + 1e-12 * scale; an exact
        margin (``drift=None``) has estimate 0.0."""
        if mode not in ("forward", "reverse"):
            raise InputError(f"margin mode must be 'forward' or 'reverse', got {mode!r}")
        margin = rhs - lhs if mode == "forward" else lhs - rhs
        scale = max(1.0, abs(lhs), abs(rhs))
        return cls(
            lhs=lhs,
            rhs=rhs,
            margin=margin,
            relative_margin=margin / scale,
            quadrature_estimate=0.0 if drift is None else drift + 1e-12 * scale,
            mode=mode,
        )


def adjoint_log_rhs(f: GridFunction, datum, params, bl_value: float) -> float:
    """log of bl^{1/p-1} prod ||(B_i)_* f||_{p_i}^{theta_i}, the right-hand
    side of the adjoint inequality, from the binned marginals of f."""
    norms = (lp_norm(grid_pushforward(f, b), q) for b, q in zip(datum.maps, params.p_i))
    return params.log_rhs(norms, bl_value)


def adjoint_margin(f: GridFunction, datum, params, bl_value: float) -> InequalityMargin:
    """Margin of ||f||_p against bl^{1/p-1} prod ||(B_i)_* f||_{p_i}^{theta_i}
    in the mode of ``params``: forward certifies rhs >= lhs, reverse lhs >= rhs.

    The quadrature estimate compares against one exact dyadic refinement of f.
    Refinement leaves ||f||_p unchanged, so only the binned pushforwards rerun
    at doubled resolution.
    """
    if f.mass <= 0:
        raise MassError("margin undefined for the zero function")
    lhs = lp_norm(f, params.p)
    rhs = math.exp(adjoint_log_rhs(f, datum, params, exponent(bl_value, "bl_value")))
    rhs_fine = math.exp(adjoint_log_rhs(f.refine(), datum, params, bl_value))
    drift = abs((rhs - lhs) - (rhs_fine - lhs))
    return InequalityMargin.from_sides(lhs, rhs, params.mode, drift)


def rank_one_distance(f: GridFunction) -> float:
    """Relative Frobenius distance of a 2-D grid to its best product (rank-1) fit."""
    if f.dim != 2:
        raise InputError("rank-one distance is defined for 2-D grids")
    sv = np.linalg.svd(f.values, compute_uv=False)
    total = float(np.sum(sv**2))
    if total == 0:
        return 0.0
    return math.sqrt(max(0.0, 1.0 - sv[0] ** 2 / total))


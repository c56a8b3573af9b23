"""Discretized non-negative functions on box grids.

A :class:`GridFunction` stores cell-center samples on a uniform box grid and
is interpreted as the piecewise-constant function taking those values on the
cells.  Pushforwards use mass-deposit binning (each source cell drops its
entire mass f * cell_volume into the target cell containing the image of its
center), which preserves total mass exactly and respects the duality that
defines marginals.  Quadrature error for the inequality margins is estimated
with one exact dyadic refinement step: splitting cells leaves the function
unchanged, so any drift isolates the binning sensitivity.

The binning geometry of a pushforward depends only on the source grid, the
map and the target grid, so ``grid_pushforward`` caches it: the int32 target
bin of every source cell (or, for a geometry whose image escapes the target
box, the mask of the escaping cells).  The cache is a process-wide LRU
capped at a fixed 4 MiB; nothing about it can be set.  Cached and freshly
built indices give bit-identical pushforwards.

File format (``save_grid_function``): a single file whose first line is a
compact JSON header, followed by the payload.  Binary payload is raw
little-endian float64 ('<f8') in C row-major order; CSV payload is one
'%.17g' value per line in the same order.
"""

from __future__ import annotations

import itertools
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CoverageError, MassError

TINY_FLUSH = 1e-300
BOUNDARY_TOL = 1e-12


def default_box(d):
    return tuple((-8.0, 8.0) for _ in range(d))


def default_resolution(d, fine=False):
    table = {1: 1024, 2: 256, 3: 64, 4: 16}
    n = table.get(d)
    if n is None:
        raise ValueError(f"no default resolution for dimension {d}")
    if fine:
        n *= 2
    return (n,) * d


def grid_centers(box, resolution):
    """Per-axis arrays of cell-center coordinates."""
    axes = []
    for (lo, hi), n in zip(box, resolution):
        h = (hi - lo) / n
        axes.append(lo + (np.arange(n) + 0.5) * h)
    return axes


@dataclass(frozen=True)
class GridSpec:
    box: tuple
    resolution: tuple

    def __post_init__(self):
        object.__setattr__(self, "box", tuple((float(a), float(b)) for a, b in self.box))
        object.__setattr__(self, "resolution", tuple(int(n) for n in self.resolution))


@dataclass(frozen=True)
class GridFunction:
    """Non-negative cell-center samples on a uniform box grid."""

    box: tuple
    resolution: tuple
    values: np.ndarray

    def __post_init__(self):
        box = tuple((float(a), float(b)) for a, b in self.box)
        res = tuple(int(n) for n in self.resolution)
        vals = np.array(self.values, dtype=float)
        if vals.shape != res:
            raise ValueError(f"values shape {vals.shape} does not match resolution {res}")
        if any(hi <= lo for lo, hi in box):
            raise ValueError("box must have positive extent on every axis")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if np.any(vals < 0):
            raise ValueError("signed inputs are rejected: values must be non-negative")
        vals.flags.writeable = False
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "resolution", res)
        object.__setattr__(self, "values", vals)

    @property
    def dim(self):
        return len(self.resolution)

    @property
    def cell_sizes(self):
        return tuple((hi - lo) / n for (lo, hi), n in zip(self.box, self.resolution))

    @property
    def cell_volume(self):
        return float(np.prod(self.cell_sizes))

    @property
    def mass(self):
        return float(self.values.sum() * self.cell_volume)

    def centers(self):
        return grid_centers(self.box, self.resolution)

    def refine(self, factor=2):
        """Split every cell into factor^d subcells with the same value (exact)."""
        vals = self.values
        for ax in range(self.dim):
            vals = np.repeat(vals, factor, axis=ax)
        return GridFunction(self.box, tuple(n * factor for n in self.resolution), vals)

    def coarsen(self, factor=2):
        """Average factor^d blocks; requires resolutions divisible by factor."""
        if any(n % factor for n in self.resolution):
            raise ValueError("resolution not divisible by the coarsening factor")
        vals = self.values
        for ax in range(self.dim):
            n = vals.shape[ax] // factor
            vals = vals.reshape(
                vals.shape[:ax] + (n, factor) + vals.shape[ax + 1 :]
            ).mean(axis=ax + 1)
        return GridFunction(self.box, tuple(n // factor for n in self.resolution), vals)

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


def gaussian_grid(quad_form, box=None, resolution=None, amplitude=1.0):
    """Sample amplitude * e^{-pi <Qx, x>} at cell centers."""
    Q = np.atleast_2d(np.asarray(quad_form, dtype=float))
    d = Q.shape[0]
    if box is None:
        box = default_box(d)
    if resolution is None:
        resolution = default_resolution(d)
    axes = grid_centers(box, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = amplitude * np.exp(-math.pi * np.sum(pts * (pts @ Q.T), axis=1))
    return GridFunction(box, tuple(resolution), vals.reshape(tuple(resolution)))


def random_grid_function(box, resolution, seed, zero_fraction=0.0, smooth=0):
    """Seeded random piecewise-constant non-negative function."""
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.0, 1.0, size=tuple(resolution))
    if zero_fraction > 0:
        vals *= rng.uniform(size=vals.shape) >= zero_fraction
    for _ in range(smooth):
        acc = vals.copy()
        for ax in range(vals.ndim):
            acc += np.roll(vals, 1, axis=ax) + np.roll(vals, -1, axis=ax)
        vals = acc / (1 + 2 * vals.ndim)
    return GridFunction(tuple(box), tuple(resolution), vals)


def _flush_tiny(values):
    return np.where(values < TINY_FLUSH, 0.0, values)


def lp_norm(f: GridFunction, p) -> float:
    """(sum f^p * cell_volume)^{1/p}; p = inf returns the max value."""
    if p == math.inf:
        return float(f.values.max())
    p = float(p)
    if p <= 0:
        raise ValueError("p must be positive")
    vals = _flush_tiny(f.values)
    total = float(np.sum(vals**p)) * f.cell_volume
    return total ** (1.0 / p)


def _auto_target(f: GridFunction, B) -> GridSpec:
    """Bounding box of the image of the source box corners; shared resolution."""
    corners = np.array(list(itertools.product(*f.box)))
    images = corners @ np.asarray(B, dtype=float).T
    lo = images.min(axis=0)
    hi = images.max(axis=0)
    n = max(f.resolution)
    return GridSpec(
        box=tuple((float(a), float(b)) for a, b in zip(lo, hi)),
        resolution=(n,) * images.shape[1],
    )


class _BinIndexCache:
    """Byte-capped LRU of pushforward bin indices, keyed on the geometry.

    An entry is ``(flat, outside)``: the int32 flat target-bin index of every
    source cell, or, when some cell centre escapes the target box, only the
    boolean mask of the escaping cells (such a geometry always raises).
    Entries are evicted oldest first once their bytes exceed ``cap_bytes``;
    the newest entry is kept even when it alone is larger than the cap.
    """

    def __init__(self, cap_bytes):
        self.cap_bytes = cap_bytes
        self.nbytes = 0
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    @staticmethod
    def _size(entry):
        return sum(a.nbytes for a in entry if a is not None)

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key, entry):
        with self._lock:
            old = self._entries.pop(key, None)  # another thread may have built it too
            if old is not None:
                self.nbytes -= self._size(old)
            self._entries[key] = entry
            self.nbytes += self._size(entry)
            while self.nbytes > self.cap_bytes and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self.nbytes -= self._size(evicted)

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.nbytes = 0

    def __len__(self):
        return len(self._entries)


# 4 MiB holds every geometry of one adjoint-verify datum (at most 2.6 MB:
# 8 maps at the base and the refined resolution in d = 4)
_BIN_INDEX_CACHE = _BinIndexCache(cap_bytes=4 << 20)


def _bin_index(f: GridFunction, B, target: GridSpec):
    """(flat, outside) for the cell centres of f's grid mapped by B.

    Each target coordinate is an outer sum of per-axis terms, so no (N, d)
    array of points is formed.
    """
    axes = f.centers()
    d = len(axes)
    n_cells = int(np.prod(f.resolution))
    flat = np.zeros(n_cells, dtype=np.int64)
    inside = np.ones(n_cells, dtype=bool)
    for a, ((lo, hi), n) in enumerate(zip(target.box, target.resolution)):
        y = 0.0
        for j, c in enumerate(axes):
            shape = [1] * d
            shape[j] = c.size
            y = y + (c * B[a, j]).reshape(shape)
        y = np.broadcast_to(y, f.resolution).ravel()
        span = hi - lo
        tol = BOUNDARY_TOL * max(span, 1.0)
        inside &= (y >= lo - tol) & (y <= hi + tol)
        k = np.floor((y - lo) / (span / n)).astype(np.int64)
        np.clip(k, 0, n - 1, out=k)
        flat *= n
        flat += k
    if not inside.all():
        return None, ~inside
    if np.prod(target.resolution) <= np.iinfo(np.int32).max:
        flat = flat.astype(np.int32)
    return flat, None


def grid_pushforward(f: GridFunction, B, target: Optional[GridSpec] = None) -> GridFunction:
    """Mass-deposit pushforward of f along the linear map B.

    Each source cell contributes f * source_cell_volume to the target cell
    containing the image of its center, then values are divided by the target
    cell volume; total mass is preserved exactly.  Centers escaping the
    target box raise :class:`CoverageError` with the escaping mass fraction.
    The bin index of a geometry (grid, B, target) is cached; see the module
    docstring.
    """
    B = np.asarray(B, dtype=float)
    if target is None:
        target = _auto_target(f, B)
    t_box, t_res = target.box, target.resolution
    if B.shape != (len(t_res), f.dim):
        raise ValueError("map shape does not match source/target dimensions")
    key = (f.box, f.resolution, B.shape, B.tobytes(), target)
    entry = _BIN_INDEX_CACHE.get(key)
    if entry is None:
        entry = _bin_index(f, B, target)
        _BIN_INDEX_CACHE.put(key, entry)
    flat, outside = entry
    masses = f.values.ravel() * f.cell_volume
    if outside is not None:
        escaping = float(masses[outside].sum())
        total = float(masses.sum())
        frac = escaping / total if total > 0 else 1.0
        raise CoverageError(
            f"pushforward image escapes the target box "
            f"(escaping mass fraction {frac:.3e})",
            escaping_fraction=frac,
        )
    acc = np.bincount(flat, weights=masses, minlength=int(np.prod(t_res)))
    t_cell_vol = 1.0
    for (lo, hi), n in zip(t_box, t_res):
        t_cell_vol *= (hi - lo) / n
    vals = (acc / t_cell_vol).reshape(t_res)
    return GridFunction(t_box, t_res, vals)


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


def _margin_value(f, datum, params, bl_value, mode):
    lhs = lp_norm(f, params.p)
    s = 0.0 if math.isinf(params.p) else 1.0 / params.p
    log_rhs = (s - 1.0) * math.log(bl_value)
    for b, t, q in zip(datum.maps, params.theta, params.p_i):
        log_rhs += t * math.log(lp_norm(grid_pushforward(f, b), q))
    rhs = math.exp(log_rhs)
    margin = rhs - lhs if mode == "forward" else lhs - rhs
    return lhs, rhs, margin


def adjoint_margin(
    f: GridFunction, datum, params, bl_value: float, mode: Optional[str] = None
) -> InequalityMargin:
    """Margin of ||f||_p against bl^{1/p-1} prod ||(B_i)_* f||_{p_i}^{theta_i}.

    Forward mode certifies rhs >= lhs, reverse mode lhs >= rhs.  The
    quadrature estimate compares against one exact dyadic refinement of f,
    which reruns every binned pushforward at doubled resolution.
    """
    mode = mode or params.mode
    if mode != params.mode:
        raise ValueError(f"parameters are {params.mode}-mode but margin mode is {mode}")
    if f.mass <= 0:
        raise MassError("margin undefined for the zero function")
    lhs, rhs, margin = _margin_value(f, datum, params, bl_value, mode)
    _, _, margin_fine = _margin_value(f.refine(2), datum, params, bl_value, mode)
    scale = max(1.0, abs(lhs), abs(rhs))
    estimate = abs(margin - margin_fine) + 1e-12 * scale
    return InequalityMargin(
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        relative_margin=margin / scale,
        quadrature_estimate=estimate,
        mode=mode,
    )


def rank_one_distance(f: GridFunction) -> float:
    """Relative Frobenius distance of a 2-D grid to its best product (rank-1) fit."""
    if f.dim != 2:
        raise ValueError("rank-one distance is defined for 2-D grids")
    sv = np.linalg.svd(f.values, compute_uv=False)
    total = float(np.sum(sv**2))
    if total == 0:
        return 0.0
    return math.sqrt(max(0.0, 1.0 - sv[0] ** 2 / total))


def save_grid_function(f: GridFunction, path, payload="binary"):
    """Write header line + payload; see the module docstring for the layout."""
    header = {
        "format": "blq-grid",
        "version": 1,
        "dim": f.dim,
        "box": [list(b) for b in f.box],
        "resolution": list(f.resolution),
        "payload": payload,
        "dtype": "<f8",
        "order": "C",
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        if payload == "binary":
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").tobytes(order="C"))
        elif payload == "csv":
            lines = "\n".join("%.17g" % v for v in f.values.ravel(order="C"))
            fh.write(lines.encode("ascii"))
            fh.write(b"\n")
        else:
            raise ValueError("payload must be 'binary' or 'csv'")


def load_grid_function(path) -> GridFunction:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode("utf-8"))
        if header.get("format") != "blq-grid":
            raise ValueError("not a blq grid file")
        res = tuple(header["resolution"])
        count = int(np.prod(res))
        if header["payload"] == "binary":
            vals = np.frombuffer(fh.read(count * 8), dtype="<f8").reshape(res)
        else:
            text = fh.read().decode("ascii").split()
            vals = np.array([float(t) for t in text], dtype=float).reshape(res)
    box = tuple((a, b) for a, b in header["box"])
    return GridFunction(box, res, vals)

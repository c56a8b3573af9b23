"""X-ray and k-plane transforms on grids, with reverse L^p lower bounds.

The Grassmannian of lines (or k-planes) is parametrized by a direction (or
orthonormal frame) and an offset in its orthogonal complement, carrying the
product of a probability measure on directions with Lebesgue measure on
offsets.  With that normalization the transform of an L^1 function keeps its
total integral, which anchors all the lower-bound checks.

Line integrals use equispaced sampling with trapezoid weights at step half
the grid cell (multilinear interpolation of the cell-center samples).  Only
the samples inside the zero-padded grid are evaluated, with arithmetic
bit-exact to scipy's order-1 ``map_coordinates``; the others add exactly 0.
``xray_transform_batch`` samples several functions on one grid: the geometry
of each block of samples (coordinates, in-grid mask, corner indices and
weights) is built once and serves every function, and each tomogram is bit
for bit the one-function ``xray_transform``, which is the batch of one.
Codimension-one plane averages use exact mass-deposit binning instead, since
a full quadrature grid over 2-planes is an order of magnitude more work for
no accuracy gain.  That deposit and the x-ray ``method="deposit"`` share one
cloud-in-cell loop, ``_deposit_tomogram``.  Directions are deterministic
quadratures (uniform angles in the plane, Fibonacci points on the sphere);
Haar frames come from QR factors of seeded gaussian matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .entropy import shannon_entropy
from .errors import MassError, ParameterDomainError
from .grid import GridFunction, InequalityMargin, grid_centers, lp_norm, mesh_points

_MC_BLOCK = 1 << 15  # matrices per block of the gaussian wedge Monte Carlo
_LINE_BLOCK = 1 << 15  # line samples per interpolation block of the sampled x-ray transform


@dataclass(frozen=True)
class DirectionSet:
    """Unit vectors with a probability quadrature weight per direction."""

    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float)
        w = np.array(self.weights, dtype=float)
        if len(v) == 0:
            raise ValueError("direction set is empty")
        if v.ndim != 2 or len(w) != len(v):
            raise ValueError("need (n, d) vectors and n weights")
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise ValueError("direction vectors must be unit length")
        if np.any(w < 0):
            raise ValueError("weights must be non-negative")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError("weights must sum to one")
        w = w / total
        v.flags.writeable = False
        w.flags.writeable = False
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.weights)

    @property
    def dim(self):
        return self.vectors.shape[1]

    @classmethod
    def uniform_circle(cls, n, offset=0.0):
        angles = offset + 2.0 * math.pi * np.arange(n) / n
        return cls.from_vectors(np.stack([np.cos(angles), np.sin(angles)], axis=1))

    @classmethod
    def fibonacci_sphere(cls, n):
        j = np.arange(n)
        z = 1.0 - (2.0 * j + 1.0) / n
        phi = j * math.pi * (3.0 - math.sqrt(5.0))
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        v = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return cls.from_vectors(v)

    @classmethod
    def great_circle(cls, n, normal=(0.0, 0.0, 1.0)):
        """Directions confined to the great circle orthogonal to ``normal``."""
        normal = np.asarray(normal, dtype=float)
        u, w = _orthonormal_complement(normal / np.linalg.norm(normal)).T
        angles = 2.0 * math.pi * np.arange(n) / n
        return cls.from_vectors(np.outer(np.cos(angles), u) + np.outer(np.sin(angles), w))

    @classmethod
    def from_vectors(cls, vectors, weights=None):
        """Directions with the given weights, equal weights by default."""
        vectors = np.asarray(vectors, dtype=float)
        if weights is None:
            weights = np.ones(len(vectors)) / len(vectors)  # empty, not 1/0, for no vectors
        return cls(vectors, weights)


class _LinearInterp:
    """Order-1 interpolation on a zero-ringed grid of ``shape``, up to ``n`` points a call.

    ``locate(u)`` keeps the geometry of per-axis coordinates ``u``: in-grid
    points, lower-corner flat indices and axis weights w0 = 1 - frac, w1 = 1 - w0.
    ``values(src, out)`` interpolates a flat source there, so sources share it.
    Points off [0, n_a - 1) on any axis are 0 unevaluated; the others repeat
    scipy's arithmetic (corners last axis fastest, value times axis weights
    summed from 0.0), bit for bit ``map_coordinates(order=1, prefilter=False)``.
    The arrays are made once, so blocks never return heap pages to the system
    (each would cost a page fault on the next block).
    """

    def __init__(self, shape, n):
        d = len(shape)
        self.limits = [k - 1 for k in shape]
        self.strides = [math.prod(shape[a + 1 :]) for a in range(d)]
        self.corners = [
            (sum(bit * s for bit, s in zip(bits, self.strides)), bits) for bits in np.ndindex((2,) * d)
        ]
        self.inside = np.empty(n, dtype=bool)
        self.test = np.empty(n, dtype=bool)
        self.points = np.arange(n)
        self.pos = np.empty(n, dtype=np.intp)
        self.weights = np.empty((d, 2, n))
        self.flat = np.empty(n, dtype=np.intp)
        self.index = np.empty(n, dtype=np.intp)
        self.acc = np.empty(n)
        self.coeff = np.empty(n)

    def locate(self, u):
        inside, test = self.inside[: len(u[0])], self.test[: len(u[0])]
        inside.fill(True)
        for ua, limit in zip(u, self.limits):
            inside &= np.greater_equal(ua, 0.0, out=test)
            inside &= np.less(ua, limit, out=test)
        m = self.m = int(np.count_nonzero(inside))
        pos, flat, index = self.pos[:m], self.flat[:m], self.index[:m]
        np.compress(inside, self.points[: len(inside)], out=pos)
        for a, (ua, stride) in enumerate(zip(u, self.strides)):
            w0, w1 = self.weights[a, :, :m]
            ua.take(pos, out=w0, mode="clip")
            ia = np.floor(w0, out=w1)
            index[...] = ia
            index *= stride
            if a == 0:
                flat[...] = index
            else:
                flat += index
            w0 -= ia
            np.subtract(1.0, w0, out=w0)
            np.subtract(1.0, w0, out=w1)

    def values(self, src, out):
        m = self.m
        acc, coeff, flat = self.acc[:m], self.coeff[:m], self.flat[:m]
        acc.fill(0.0)
        for offset, bits in self.corners:
            src[offset:].take(flat, out=coeff, mode="clip")  # src[flat + offset]; every index is in range
            for a, bit in enumerate(bits):
                coeff *= self.weights[a, bit, :m]
            acc += coeff
        out.fill(0.0)
        out[self.pos[:m]] = acc


def _interp_linear(padded, u):
    """``map_coordinates(padded, u, order=1, prefilter=False)`` of a grid with
    a zero ring, for one source (see ``_LinearInterp``)."""
    interp = _LinearInterp(padded.shape, len(u[0]))
    interp.locate(u)
    out = np.empty(len(u[0]))
    interp.values(padded.ravel(), out)
    return out


@dataclass(frozen=True)
class TomogramSamples:
    """Transform values on a product grid of directions/frames and offsets."""

    k: int
    directions: np.ndarray
    weights: np.ndarray
    frames: np.ndarray
    offsets_axes: tuple
    values: np.ndarray
    offset_cell_volume: float

    @property
    def dim(self):
        return self.directions.shape[1]

    def _per_dir(self, g):
        """The offset integral of g(values) for each direction."""
        return np.sum(g(self.values.reshape(len(self.weights), -1)), axis=1) * self.offset_cell_volume

    def lq(self, q) -> float:
        if q == math.inf:
            return float(self.values.max())
        q = float(q)
        return float(np.sum(self.weights * self._per_dir(lambda v: v**q))) ** (1.0 / q)

    def l1(self) -> float:
        return self.lq(1.0)

    def sup_dirs_lq(self, r) -> float:
        """Mixed norm: sup over directions of the offset L^r norm."""
        r = float(r)
        return float((self._per_dir(lambda v: v**r) ** (1.0 / r)).max())

    def entropy(self) -> float:
        with np.errstate(divide="ignore", invalid="ignore"):
            per_dir = self._per_dir(lambda v: np.where(v > 0, -v * np.log(v), 0.0))
        return float(np.sum(self.weights * per_dir))


def _orthonormal_complement(omega):
    """Deterministic orthonormal basis of the hyperplane orthogonal to omega."""
    d = len(omega)
    if d == 2:
        return np.array([[-omega[1]], [omega[0]]])
    h = np.eye(d)[int(np.argmin(np.abs(omega)))]
    u = h - (h @ omega) * omega
    u /= np.linalg.norm(u)
    if d == 3:
        w = np.cross(omega, u)
        return np.stack([u, w], axis=1)
    raise ValueError("line transforms are implemented for d <= 3")


def _offset_count(t_resolution, default):
    """``t_resolution`` offsets per axis, an integer >= 1; ``default`` when it is None."""
    if t_resolution is None:
        return default
    if isinstance(t_resolution, bool) or not isinstance(t_resolution, (int, np.integer)) or t_resolution < 1:
        raise ValueError(f"t_resolution must be an integer >= 1, got {t_resolution!r}")
    return int(t_resolution)


def _offset_grid(f: GridFunction, n_v, m):
    """Radius, cell and axes of the centered m-dimensional offset grid; the
    radius is that of the smallest origin-centred ball holding f's box."""
    radius = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in f.box))
    cell = 2.0 * radius / n_v
    return radius, cell, tuple(grid_centers(((-radius, radius),) * m, (n_v,) * m))


def _deposit_tomogram(f: GridFunction, projections, n_v):
    """Cloud-in-cell deposit of f's cell masses along each projection.

    ``projections`` holds a d x m frame per direction, or a unit normal per
    direction (m = 1, so each projection is a matrix-vector product).
    Returns the densities on the (n_v,) * m offset grid of every direction.
    Linear splitting between the two nearest cells per axis suppresses the
    aliasing combs a nearest-cell deposit produces when a projected lattice
    beats against the offset grid; total mass is preserved exactly.
    """
    m = 1 if projections.ndim == 2 else projections.shape[2]
    radius, cell, _ = _offset_grid(f, n_v, m)
    pts = mesh_points(f.centers())
    masses = f.values.ravel() * f.cell_volume
    strides = [n_v ** (m - 1 - a) for a in range(m)]  # row-major offset grid
    corners = [[(c >> a) & 1 for a in range(m)] for c in range(1 << m)]
    values = np.zeros((len(projections),) + (n_v,) * m)
    for q, acc in zip(projections, values.reshape(len(projections), -1)):
        pos = ((pts @ q).reshape(len(pts), m) + radius) / cell - 0.5
        base = np.floor(pos).astype(np.int64)
        frac = pos - base
        # per axis and neighbour (lower, upper): the clipped index times the
        # axis stride, and the weight 1 - frac or frac
        index = [[np.clip(base[:, a] + bit, 0, n_v - 1) * strides[a] for bit in (0, 1)] for a in range(m)]
        weight = [[1.0 - frac[:, a], np.ascontiguousarray(frac[:, a])] for a in range(m)]
        for bits in corners:
            flat = index[0][bits[0]]
            w = masses * weight[0][bits[0]]
            for a in range(1, m):
                flat = flat + index[a][bits[a]]
                w = w * weight[a][bits[a]]
            acc += np.bincount(flat, weights=w, minlength=n_v**m)
        acc /= cell**m
    return values


def _line_setup(f: GridFunction, dirs, t_resolution, line_step, n_v_default):
    """Checked directions, offset count and offset frames of a line transform of f."""
    d = f.dim
    if d < 2:
        raise ValueError("the line transform needs dimension >= 2")
    if dirs is None:
        dirs = DirectionSet.uniform_circle(360) if d == 2 else DirectionSet.fibonacci_sphere(128)
    if dirs.dim != d:
        raise ValueError("direction dimension does not match the grid")
    if line_step is not None and not line_step > 0:
        raise ValueError(f"line_step must be positive, got {line_step!r}")
    n_v = _offset_count(t_resolution, n_v_default)
    return dirs, n_v, np.stack([_orthonormal_complement(omega) for omega in dirs.vectors])


def _line_tomogram(dirs, frames, offsets_axes, values, cell):
    return TomogramSamples(
        k=1,
        directions=dirs.vectors.copy(),
        weights=dirs.weights.copy(),
        frames=frames.copy(),
        offsets_axes=offsets_axes,
        values=values,
        offset_cell_volume=float(cell ** len(offsets_axes)),
    )


def xray_transform(
    f: GridFunction,
    dirs: Optional[DirectionSet] = None,
    t_resolution: Optional[int] = None,
    line_step: Optional[float] = None,
    method: str = "sample",
) -> TomogramSamples:
    """Line integrals over every direction.

    ``method="sample"`` (default) integrates along equispaced line samples
    with trapezoid weights at step half the smallest grid cell (override with
    ``line_step`` > 0), evaluating only the samples inside the grid,
    bit-exact to scipy's order-1 interpolation; it is the batch of one of
    ``xray_transform_batch``.  ``method="deposit"`` bins each cell's mass onto
    the offset grid instead, which preserves ||Xf||_1 = ||f||_1 exactly and is
    preferred for entropy work.  ``t_resolution``, an integer >= 1, is the
    tomogram resolution per offset axis.
    """
    if method == "sample":
        return xray_transform_batch([f], dirs, t_resolution, line_step)[0]
    if method != "deposit":
        raise ValueError("method must be 'sample' or 'deposit'")
    dirs, n_v, frames = _line_setup(f, dirs, t_resolution, line_step, 2 * max(f.resolution))
    _, cell, offsets_axes = _offset_grid(f, n_v, f.dim - 1)
    return _line_tomogram(dirs, frames, offsets_axes, _deposit_tomogram(f, frames, n_v), cell)


def xray_transform_batch(
    fs,
    dirs: Optional[DirectionSet] = None,
    t_resolution: Optional[int] = None,
    line_step: Optional[float] = None,
) -> list:
    """``xray_transform(f, dirs, t_resolution, line_step)`` for every f in
    ``fs``, one ``TomogramSamples`` each, bit for bit.

    The functions share one box and resolution, so each block of line samples
    gets its geometry (grid coordinates, in-grid mask, corner indices and
    weights) once, and then the values of every function.  Each function keeps
    one (offsets, samples per line) buffer alive, so pass a few at a time.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("need at least one function")
    f = fs[0]
    if any(g.box != f.box or g.resolution != f.resolution for g in fs):
        raise ValueError("the functions of a batch must share box and resolution")
    d = f.dim
    n_v_default = 2 * max(f.resolution) if d == 2 else max(f.resolution)
    dirs, n_v, frames = _line_setup(f, dirs, t_resolution, line_step, n_v_default)
    radius, cell, offsets_axes = _offset_grid(f, n_v, d - 1)
    step = line_step or min(f.cell_sizes) / 2.0
    n_t = int(math.ceil(2.0 * radius / step))
    t_nodes = np.linspace(-radius, radius, n_t + 1)
    t_w = np.full(n_t + 1, t_nodes[1] - t_nodes[0])
    t_w[0] *= 0.5
    t_w[-1] *= 0.5
    offs = mesh_points(offsets_axes)
    lows, cells = [lo for lo, _ in f.box], f.cell_sizes
    srcs = [np.pad(g.values, 1).ravel() for g in fs]
    values = [np.zeros((len(dirs), len(offs))) for _ in fs]
    # trapezoid sums, one gemv per function over chunks of offsets; interpolation
    # in blocks of whole lines, about _LINE_BLOCK samples, whose arrays stay in cache
    chunk = max(1, int(4_000_000 // max(1, n_t + 1)))
    block = max(1, _LINE_BLOCK // (n_t + 1))
    bufs = [np.empty((min(chunk, len(offs)), n_t + 1)) for _ in fs]
    interp = _LinearInterp(tuple(n + 2 for n in f.resolution), block * (n_t + 1))
    coords = np.empty((d, block, n_t + 1))
    for i, (omega, frame) in enumerate(zip(dirs.vectors, frames)):
        base = offs @ frame.T
        steps = [t_nodes * w for w in omega]
        for s in range(0, len(offs), chunk):
            blk = base[s : s + chunk]
            for r in range(0, len(blk), block):
                rows = blk[r : r + block]
                # grid coordinate on each axis of sample (offset, t), an outer sum:
                # ((row + step) - lo) / cell + 0.5
                u = coords[:, : len(rows)]
                for a in range(d):
                    np.add(rows[:, a, None], steps[a], out=u[a])
                    u[a] -= lows[a]
                    u[a] /= cells[a]
                    u[a] += 0.5
                interp.locate(u.reshape(d, -1))
                for src, buf in zip(srcs, bufs):
                    interp.values(src, buf[r : r + len(rows)].reshape(-1))
            for buf, acc in zip(bufs, values):
                acc[i, s : s + chunk] = buf[: len(blk)] @ t_w
    grid = (len(dirs),) + (n_v,) * (d - 1)
    return [_line_tomogram(dirs, frames, offsets_axes, v.reshape(grid), cell) for v in values]


def haar_planes(d, k, n, seed):
    """Seeded Haar-distributed k-frames in R^d via QR of gaussian matrices."""
    rng = np.random.default_rng(seed)
    frames = []
    for _ in range(n):
        g = rng.standard_normal((d, k))
        q, r = np.linalg.qr(g)
        q = q * np.sign(np.diag(r))
        frames.append(q)
    return frames


def kplane_transform(
    f: GridFunction,
    k: int,
    plane_samples,
    seed: int = 0,
    t_resolution: Optional[int] = None,
) -> TomogramSamples:
    """Averages over affine k-planes; d <= 3 by scope.

    ``plane_samples``: an integer count of Haar frames (seeded) or an
    explicit sequence of d x k frame matrices.
    Codimension-one planes use exact mass-deposit binning onto the offset
    axis; k = 1 delegates to the line transform.
    """
    d = f.dim
    if d > 3:
        raise ValueError("k-plane transforms are implemented for d <= 3")
    if not (1 <= k <= d - 1):
        raise ValueError("need 1 <= k <= d-1")
    if isinstance(plane_samples, (int, np.integer)):
        frames = haar_planes(d, k, int(plane_samples), seed)
    else:
        frames = [np.asarray(q, dtype=float) for q in plane_samples]
    if k == 1:
        dirs = DirectionSet.from_vectors(np.stack([q[:, 0] for q in frames]))
        return xray_transform(f, dirs, t_resolution=t_resolution)
    # k = d-1 = 2, d = 3: bin mass onto the normal coordinate
    n_v = _offset_count(t_resolution, 2 * max(f.resolution))
    _, cell, offsets_axes = _offset_grid(f, n_v, 1)
    normals = np.zeros((len(frames), d))
    for i, q in enumerate(frames):
        normal = np.cross(q[:, 0], q[:, 1])
        normals[i] = normal / np.linalg.norm(normal)
    return TomogramSamples(
        k=k,
        directions=normals,
        weights=np.full(len(frames), 1.0 / len(frames)),
        frames=normals[:, :, None],
        offsets_axes=offsets_axes,
        values=_deposit_tomogram(f, normals, n_v),
        offset_cell_volume=cell,
    )


def scaling_exponent_q(p, d, k=1):
    """Solve (1/d)(1 - 1/q) = (1/(d-k))(1 - 1/p) for q."""
    s = 0.0 if math.isinf(p) else 1.0 / p
    denom = 1.0 - (d / (d - k)) * (1.0 - s)
    if denom <= 0:
        raise ParameterDomainError("no admissible q on the scaling line for this p")
    return 1.0 / denom


def _check_scaling_line(p, q, d, k):
    lhs = (1.0 / d) * (1.0 - 1.0 / q)
    rhs = (1.0 / (d - k)) * (1.0 - 1.0 / p)
    if abs(lhs - rhs) > 1e-12 * max(1.0, abs(lhs), abs(rhs)):
        raise ParameterDomainError(
            f"exponents off the scaling line: (1/d)(1-1/q) = {lhs!r} "
            f"but (1/(d-k))(1-1/p) = {rhs!r}"
        )


def lower_bound_margin_from_tomograms(
    tom: TomogramSamples, tom_half: TomogramSamples, f: GridFunction, p: float, q: float, k: int = 1
) -> InequalityMargin:
    """Margin of ||T_k f||_q >= ||f||_p from precomputed transforms.

    ``tom_half`` is the same transform at halved direction count and offset
    resolution; the drift between the two is the quadrature estimate.
    """
    _check_scaling_line(p, q, f.dim, k)
    lhs = tom.lq(q)
    lhs_half = tom_half.lq(q)
    return InequalityMargin.from_sides(lhs, lp_norm(f, p), "reverse", abs(lhs - lhs_half))


def tomography_lower_bound_margin(
    f: GridFunction,
    p: float,
    q: float,
    k: int = 1,
    dirs=None,
    seed: int = 0,
) -> InequalityMargin:
    """Margin of ||T_k f||_q >= ||f||_p on the scaling line (constant 1).

    The quadrature estimate halves both the direction count and the offset
    resolution and takes the drift.
    """
    d = f.dim
    _check_scaling_line(p, q, d, k)
    n_v = 2 * max(f.resolution) if d == 2 else max(f.resolution)
    if k == 1:
        tom = xray_transform(f, dirs, t_resolution=n_v)
        half = DirectionSet.from_vectors(tom.directions[::2])
        tom_half = xray_transform(f, half, t_resolution=max(2, n_v // 2))
    else:
        n_planes = dirs if isinstance(dirs, int) else 64
        tom = kplane_transform(f, k, n_planes, seed=seed, t_resolution=n_v)
        tom_half = kplane_transform(f, k, max(2, n_planes // 2), seed=seed + 1, t_resolution=max(2, n_v // 2))
    return lower_bound_margin_from_tomograms(tom, tom_half, f, p, q, k)


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    n_samples: int
    mean: float
    mean_stderr: float


def _power_estimate(mean, mean_stderr, expo, n_mc) -> MonteCarloEstimate:
    """mean**expo with its delta-method standard error; 0 and 0 when mean is 0."""
    value = mean**expo if mean > 0 else 0.0
    stderr = mean_stderr * expo * mean ** (expo - 1.0) if mean > 0 else 0.0
    return MonteCarloEstimate(value=value, stderr=stderr, n_samples=n_mc, mean=mean, mean_stderr=mean_stderr)


def restricted_xray_constant(
    mu_samples: DirectionSet, p: float, q: float, d: int, n_mc: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the restricted-direction constant.

    C(mu) = (E |w_1 ^ ... ^ w_d|^{dq(1/p-1)/(d-1)})^{1/(dq)} with the w_j
    drawn independently from mu; the wedge modulus is |det| of the stacked
    direction matrix.  If the support of mu spans less than R^d and the exponent
    is positive, every wedge is 0, so the constant is exactly 0 and nothing is drawn.
    """
    _check_scaling_line(p, q, d, 1)
    if n_mc < 1:
        raise ValueError("need at least one sample")
    if mu_samples.dim != d:
        raise ValueError("direction dimension mismatch")
    a = d * q * (1.0 / p - 1.0) / (d - 1)
    expo = 1.0 / (d * q)
    if a > 0 and np.linalg.matrix_rank(mu_samples.vectors[mu_samples.weights > 0]) < d:
        return _power_estimate(0.0, 0.0, expo, n_mc)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mu_samples), size=(n_mc, d), p=mu_samples.weights)
    vals = np.abs(np.linalg.det(mu_samples.vectors[idx])) ** a  # a = 0 gives exact ones
    se = float(vals.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else 0.0
    return _power_estimate(float(vals.mean()), se, expo, n_mc)


def wedge_moment(d, q) -> float:
    """E over independent uniform sphere directions of |w_1 ^...^ w_d|^{1-q},
    evaluated as a product of Gamma ratios via log-Gamma."""
    log_m = 0.0
    for ell in range(d):
        log_m += (
            gammaln(d / 2.0)
            + gammaln((d - ell + 1.0 - q) / 2.0)
            - gammaln((d + 1.0 - q) / 2.0)
            - gammaln((d - ell) / 2.0)
        )
    return float(np.exp(log_m))


def xx_gamma_constant(d, p, q) -> float:
    """Closed-form constant of the three-norm line-transform inequality."""
    if not (d >= 2 and 1.0 < p < math.inf and 0.0 < q < 1.0):
        raise ParameterDomainError("need d >= 2, 1 < p < inf, 0 < q < 1")
    expo = (1.0 - 1.0 / p) / ((d - 1) * q)
    return wedge_moment(d, q) ** expo


def radial_moment_factor(d, a) -> float:
    """E |X|^a for X with density e^{-pi |x|^2} on R^d."""
    return float(np.exp(gammaln((d + a) / 2.0) - gammaln(d / 2.0) - (a / 2.0) * math.log(math.pi)))


def gauss_wedge_integral_mc(d, a, n_mc, seed) -> MonteCarloEstimate:
    """Monte Carlo oracle for the gaussian wedge-power integral
    E |x_1 ^ ... ^ x_d|^a over d independent e^{-pi|x|^2} vectors."""
    rng = np.random.default_rng(seed)
    vals = np.empty(n_mc)
    for s in range(0, n_mc, _MC_BLOCK):  # the same draws as one (n_mc, d, d) array
        x = rng.standard_normal((min(_MC_BLOCK, n_mc - s), d, d)) / math.sqrt(2.0 * math.pi)
        vals[s : s + len(x)] = np.abs(np.linalg.det(x)) ** float(a)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else 0.0
    return MonteCarloEstimate(value=mean, stderr=se, n_samples=n_mc, mean=mean, mean_stderr=se)


def xx_constant_via_mc(d, p, q, n_mc, seed) -> MonteCarloEstimate:
    """Derive the three-norm constant from the gaussian wedge integral."""
    a = 1.0 - q
    est = gauss_wedge_integral_mc(d, a, n_mc, seed)
    factor = radial_moment_factor(d, a) ** d
    expo = (1.0 - 1.0 / p) / ((d - 1) * q)
    return _power_estimate(est.mean / factor, est.mean_stderr / factor, expo, n_mc)


def xx_r_exponent(d, p, q) -> float:
    """Solve (1/q - 1/p)(1 - 1/r) = (1/(d-1))(1 - 1/p)(1/q - 1) for r."""
    lhs_coeff = 1.0 / q - 1.0 / p
    rhs = (1.0 / (d - 1)) * (1.0 - 1.0 / p) * (1.0 / q - 1.0)
    one_minus = rhs / lhs_coeff
    if not (0.0 < one_minus < 1.0):
        raise ParameterDomainError("no admissible r for these (d, p, q)")
    return 1.0 / (1.0 - one_minus)


def xx_inequality_margin(f: GridFunction, p, q, dirs: Optional[DirectionSet] = None) -> InequalityMargin:
    """Three-norm inequality for the line transform:
    C ||Xf||_{sup_dir, L^r}^{1/q - 1/p} <= ||f||_p^{1/q - 1} ||Xf||_q^{1 - 1/p}."""
    d = f.dim
    r = xx_r_exponent(d, p, q)
    C = xx_gamma_constant(d, p, q)
    if dirs is None:
        dirs = DirectionSet.uniform_circle(180)

    def both(dirset, t_res):
        tom = xray_transform(f, dirset, t_resolution=t_res)
        lhs = C * tom.sup_dirs_lq(r) ** (1.0 / q - 1.0 / p)
        rhs = lp_norm(f, p) ** (1.0 / q - 1.0) * tom.lq(q) ** (1.0 - 1.0 / p)
        return lhs, rhs

    n_v = 2 * max(f.resolution)
    lhs, rhs = both(dirs, n_v)
    lhs2, rhs2 = both(DirectionSet.from_vectors(dirs.vectors[::2]), max(2, n_v // 2))
    return InequalityMargin.from_sides(lhs, rhs, "forward", abs((rhs - lhs) - (rhs2 - lhs2)))


def kplane_entropy_sequence(
    f: GridFunction, n_planes: int = 64, seed: int = 0, dirs=None, method: str = "deposit"
):
    """Normalized entropies H(T_k f)/(d-k) for k = 0..d-1 (k = 0 is f itself).

    Uses the mass-exact deposit transform by default so the entropies carry
    only offset-binning error.
    """
    d = f.dim
    if d > 3:
        raise ValueError("entropy sequences are implemented for d <= 3")
    if f.mass <= 0:
        raise MassError("entropy sequence needs positive mass")
    f = f.normalized()
    out = [shannon_entropy(f) / d]
    if d >= 2:
        if dirs is None:
            dirs = DirectionSet.uniform_circle(180) if d == 2 else DirectionSet.fibonacci_sphere(96)
        tom = xray_transform(f, dirs, method=method)
        out.append(tom.entropy() / (d - 1))
    if d == 3:
        tom2 = kplane_transform(f, 2, n_planes, seed=seed)
        out.append(tom2.entropy() / (d - 2))
    return out


def projection_shadow_measure(f: GridFunction, omega) -> float:
    """Exact measure of the shadow of the occupied cells on the line
    orthogonal to omega (dimension 2 only)."""
    if f.dim != 2:
        raise ValueError("shadows are implemented for d = 2")
    omega = np.asarray(omega, dtype=float)
    v = np.array([-omega[1], omega[0]])
    v /= np.linalg.norm(v)
    occupied = f.values > 0
    if not occupied.any():
        return 0.0
    centers = mesh_points(f.centers())[occupied.ravel()]
    t = centers @ v
    hx, hy = f.cell_sizes
    half = 0.5 * (hx * abs(v[0]) + hy * abs(v[1]))
    starts = t - half
    ends = t + half
    order = np.argsort(starts)
    s = starts[order]
    e = ends[order]
    cm = np.maximum.accumulate(e)
    prev = np.concatenate([[-np.inf], cm[:-1]])
    return float(np.sum(np.maximum(0.0, cm - np.maximum(s, prev))))


def averaged_projection_margin(f: GridFunction, dirs: Optional[DirectionSet] = None) -> InequalityMargin:
    """Averaged projection inequality |O|^{(d-1)/d} <= avg_dir |shadow|."""
    if f.dim != 2:
        raise ValueError("implemented for d = 2")
    if dirs is None:
        dirs = DirectionSet.uniform_circle(360)
    volume = float(np.count_nonzero(f.values > 0)) * f.cell_volume
    rhs_all = np.array([projection_shadow_measure(f, w) for w in dirs.vectors])
    rhs = float(np.sum(dirs.weights * rhs_all))
    rhs_half = float(np.mean(rhs_all[::2]))
    lhs = volume ** ((f.dim - 1) / f.dim)
    return InequalityMargin.from_sides(lhs, rhs, "forward", abs(rhs - rhs_half))

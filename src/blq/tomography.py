"""X-ray transforms and plane transforms of R^3 on grids, with reverse L^p
lower bounds.

The Grassmannian of lines (or planes) is parametrized by a direction (or
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
The plane averages of R^3 (``kplane_transform``, k = 2 only; lines go
through the x-ray transform) use exact mass-deposit binning instead, since a
full quadrature grid over 2-planes is an order of magnitude more work for no
accuracy gain.  Each kind of tomogram has one builder: ``_deposit_tomogram``
for the plane averages and the x-ray ``method="deposit"``, and ``_with_half``
for a margin's sampled tomograms and their quadrature checks, the same
transform on every other direction at half the offset resolution.  The checks
go through ``xray_transform``, which perfbench times as the sampled kernel
until the batch has a span (ROADMAP item 1).  Directions are deterministic
quadratures (uniform angles in the plane, Fibonacci points on the sphere);
Haar frames come from QR factors of seeded gaussian matrices.  An empty
direction or plane set raises :class:`InputError`.  The wedge Monte Carlos
take 2 x 2 and 3 x 3 determinants in closed form, not by one LU per matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .entropy import _neg_log_term, shannon_entropy
from .errors import InputError, ParameterDomainError, count, exponent, finite, nonnegative
from .grid import GridFunction, InequalityMargin, grid_centers, lp_norm, mesh_points

_MC_BLOCK = 1 << 15  # matrices per block of the gaussian wedge Monte Carlo
_LINE_BLOCK = 1 << 15  # line samples per interpolation block of the sampled x-ray transform
FRAME_TOL = 1e-9  # max |F^T F - I| of an explicit plane frame


@dataclass(frozen=True)
class DirectionSet:
    """Unit vectors with a probability quadrature weight per direction."""

    vectors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = finite(np.array(self.vectors, dtype=float), "direction vectors")
        w = nonnegative(np.array(self.weights, dtype=float), "weights")
        if len(v) == 0:
            raise InputError("direction set is empty")
        if v.ndim != 2 or len(w) != len(v):
            raise InputError("need (n, d) vectors and n weights")
        norms = np.linalg.norm(v, axis=1)
        if np.max(np.abs(norms - 1.0)) > 1e-9:
            raise InputError("direction vectors must be unit length")
        total = w.sum()
        if abs(total - 1.0) > 1e-9:
            raise InputError("weights must sum to one")
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
    def uniform_circle(cls, n):
        angles = 2.0 * math.pi * np.arange(count(n, "n", minimum=0)) / n
        return cls.from_vectors(np.stack([np.cos(angles), np.sin(angles)], axis=1))

    @classmethod
    def fibonacci_sphere(cls, n):
        j = np.arange(count(n, "n", minimum=0))
        z = 1.0 - (2.0 * j + 1.0) / n
        phi = j * math.pi * (3.0 - math.sqrt(5.0))
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        v = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        return cls.from_vectors(v)

    @classmethod
    def great_circle(cls, n):
        """Directions confined to the equator of the sphere in R^3, the great
        circle spanned by e_0 and e_1."""
        u, w = np.eye(3)[:2]
        angles = 2.0 * math.pi * np.arange(count(n, "n", minimum=0)) / n
        return cls.from_vectors(np.outer(np.cos(angles), u) + np.outer(np.sin(angles), w))

    @classmethod
    def from_vectors(cls, vectors):
        """Directions with equal weights."""
        vectors = np.asarray(vectors, dtype=float)
        return cls(vectors, np.ones(len(vectors)) / len(vectors))  # empty, not 1/0, for no vectors


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


@dataclass(frozen=True)
class TomogramSamples:
    """Transform values on a product grid of directions/frames and offsets."""

    directions: np.ndarray
    weights: np.ndarray
    frames: np.ndarray
    offsets_axes: tuple
    values: np.ndarray
    offset_cell_volume: float

    def _per_dir(self, g):
        """The offset integral of g(values) for each direction."""
        return np.sum(g(self.values.reshape(len(self.weights), -1)), axis=1) * self.offset_cell_volume

    def lq(self, q) -> float:
        q = exponent(q, "q", inf=True)
        if q == math.inf:
            return float(self.values.max())
        return float(np.sum(self.weights * self._per_dir(lambda v: v**q))) ** (1.0 / q)

    def l1(self) -> float:
        return self.lq(1.0)

    def sup_dirs_lq(self, r) -> float:
        """Mixed norm: sup over directions of the offset L^r norm."""
        r = exponent(r, "r")
        return float((self._per_dir(lambda v: v**r) ** (1.0 / r)).max())

    def entropy(self) -> float:
        return float(np.sum(self.weights * self._per_dir(_neg_log_term)))


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
    raise InputError("line transforms are implemented for d <= 3")


def _offset_grid(f: GridFunction, n_v, m):
    """Radius, cell and axes of the centered m-dimensional offset grid; the
    radius is that of the smallest origin-centred ball holding f's box."""
    radius = math.sqrt(sum(max(abs(lo), abs(hi)) ** 2 for lo, hi in f.box))
    cell = 2.0 * radius / n_v
    return radius, cell, tuple(grid_centers(((-radius, radius),) * m, (n_v,) * m))


def _deposit_tomogram(f: GridFunction, directions, weights, frames, t_resolution):
    """Cloud-in-cell deposit of f's cell masses along each d x m frame onto the
    (n_v,) * m offset grid of every direction, n_v = 2 max(f.resolution) by default.

    Linear splitting between the two nearest cells per axis suppresses the
    aliasing combs a nearest-cell deposit produces when a projected lattice
    beats against the offset grid; total mass is preserved exactly.
    """
    n_v = 2 * max(f.resolution) if t_resolution is None else count(t_resolution, "t_resolution")
    m = frames.shape[2]
    radius, cell, offsets_axes = _offset_grid(f, n_v, m)
    pts = mesh_points(f.centers())
    masses = f.values.ravel() * f.cell_volume
    strides = [n_v ** (m - 1 - a) for a in range(m)]  # row-major offset grid
    corners = [[(c >> a) & 1 for a in range(m)] for c in range(1 << m)]
    values = np.zeros((len(frames),) + (n_v,) * m)
    for q, acc in zip(frames, values.reshape(len(frames), -1)):
        pos = (pts @ q + radius) / cell - 0.5
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
    return TomogramSamples(directions, weights, frames, offsets_axes, values, cell**m)


def _line_setup(f: GridFunction, dirs):
    """Checked directions and offset frames of a line transform of f."""
    d = f.dim
    if d < 2:
        raise InputError("the line transform needs dimension >= 2")
    if dirs is None:
        dirs = DirectionSet.uniform_circle(360) if d == 2 else DirectionSet.fibonacci_sphere(128)
    if dirs.dim != d:
        raise InputError("direction dimension does not match the grid")
    return dirs, np.stack([_orthonormal_complement(omega) for omega in dirs.vectors])


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
    preferred for entropy work; it takes no line samples, so a ``line_step``
    raises :class:`InputError`.  ``t_resolution``, an integer >= 1, is the
    tomogram resolution per offset axis.
    """
    if method == "sample":
        return xray_transform_batch([f], dirs, t_resolution, line_step)[0]
    if method != "deposit":
        raise InputError("method must be 'sample' or 'deposit'")
    if line_step is not None:
        raise InputError("line_step applies to method='sample' only: the deposit transform takes no line samples")
    dirs, frames = _line_setup(f, dirs)
    return _deposit_tomogram(f, dirs.vectors, dirs.weights, frames, t_resolution)


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
        raise InputError("need at least one function")
    f = fs[0]
    if any(g.box != f.box or g.resolution != f.resolution for g in fs):
        raise InputError("the functions of a batch must share box and resolution")
    d = f.dim
    dirs, frames = _line_setup(f, dirs)
    n_v = (2 if d == 2 else 1) * max(f.resolution) if t_resolution is None else count(t_resolution, "t_resolution")
    radius, cell, offsets_axes = _offset_grid(f, n_v, d - 1)
    step = min(f.cell_sizes) / 2.0 if line_step is None else exponent(line_step, "line_step")
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
    grid, volume = (len(dirs),) + (n_v,) * (d - 1), cell ** (d - 1)
    return [TomogramSamples(dirs.vectors, dirs.weights, frames, offsets_axes, v.reshape(grid), volume) for v in values]


def _with_half(fs, dirs=None, n_v=None):
    """Yield, per f of the list ``fs``, its sampled line transform with ``n_v``
    offsets per axis (the default when None), all from one batch, and its check
    on every other direction with max(2, n_v // 2), one ``xray_transform`` at a
    time (see the module docstring)."""
    toms = xray_transform_batch(fs, dirs, n_v)
    n_v = len(toms[0].offsets_axes[0])
    half = DirectionSet.from_vectors(toms[0].directions[::2])
    for f, tom in zip(fs, toms):
        yield tom, xray_transform(f, half, t_resolution=max(2, n_v // 2))


def haar_planes(d, k, n, seed):
    """Seeded Haar-distributed k-frames in R^d via QR of gaussian matrices."""
    rng = np.random.default_rng(seed)
    factors = [np.linalg.qr(rng.standard_normal((d, k))) for _ in range(n)]
    return [q * np.sign(np.diag(r)) for q, r in factors]


def kplane_transform(
    f: GridFunction,
    plane_samples,
    seed: int = 0,
    t_resolution: Optional[int] = None,
) -> TomogramSamples:
    """Averages over affine planes of R^3 (k = 2; lines are ``xray_transform``).

    ``plane_samples``: an integer count of Haar 2-frames (seeded) or an
    explicit sequence of 3 x 2 frame matrices with orthonormal columns
    (max |F^T F - I| <= 1e-9); an empty plane set or any other frame raises
    :class:`InputError`.  Each plane's mass is binned exactly onto the
    offset axis along its unit normal.
    """
    if f.dim != 3:
        raise InputError("the plane transform is implemented for d = 3")
    if not hasattr(plane_samples, "__iter__"):
        frames = haar_planes(3, 2, count(plane_samples, "plane_samples", minimum=0), seed)
    else:
        frames = [np.asarray(q, dtype=float) for q in plane_samples]
    if not frames:
        raise InputError("the plane set is empty")
    for q in frames:
        if q.shape != (3, 2) or not np.max(np.abs(q.T @ q - np.eye(2))) <= FRAME_TOL:
            raise InputError(f"a plane frame must be 3 x 2 with orthonormal columns, got {q.tolist()!r}")
    crosses = [np.cross(q[:, 0], q[:, 1]) for q in frames]
    normals = np.array([c / np.linalg.norm(c) for c in crosses])
    weights = np.full(len(frames), 1.0 / len(frames))
    return _deposit_tomogram(f, normals, weights, normals[:, :, None], t_resolution)


def _check_plane_dim(d, k):
    if k >= d:
        raise ParameterDomainError(f"k-plane transforms need k < d, got k = {k} in d = {d}")


def scaling_exponent_q(p, d, k=1):
    """Solve (1/d)(1 - 1/q) = (1/(d-k))(1 - 1/p) for q (k < d)."""
    _check_plane_dim(d, k)
    denom = 1.0 - (d / (d - k)) * (1.0 - 1.0 / p)
    if denom <= 0:
        raise ParameterDomainError("no admissible q on the scaling line for this p")
    return 1.0 / denom


def _check_scaling_line(p, q, d, k):
    _check_plane_dim(d, k)
    lhs = (1.0 / d) * (1.0 - 1.0 / exponent(q, "q", inf=True))
    rhs = (1.0 / (d - k)) * (1.0 - 1.0 / exponent(p, "p", inf=True))
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

    ``dirs`` is a ``DirectionSet`` (or None) for k = 1, and a plane count
    (or None, for 64 planes) for k = 2.  The quadrature estimate keeps every
    other direction or plane of the same draw, halves the offset resolution
    and takes the drift.
    """
    d = f.dim
    _check_scaling_line(p, q, d, k)
    if k == 1:
        ((tom, tom_half),) = _with_half([f], dirs)
    else:  # k = 2, so d = 3
        frames = haar_planes(d, k, 64 if dirs is None else count(dirs, f"dirs, the plane count of k = {k},"), seed)
        n_v = max(f.resolution)
        tom = kplane_transform(f, frames, t_resolution=n_v)
        tom_half = kplane_transform(f, frames[::2], t_resolution=max(2, n_v // 2))
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


def _sample_estimate(vals, expo) -> MonteCarloEstimate:
    """``_power_estimate`` of the sample mean, with error std(ddof=1) / sqrt(n) (0.0 for one sample)."""
    se = float(vals.std(ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return _power_estimate(float(vals.mean()), se, expo, len(vals))


def _wedge_modulus(x):
    """|det| of each matrix of the (n, d, d) stack ``x``: first-row cofactors for d = 2, 3, else one LU each."""
    m = x.transpose(1, 2, 0)  # m[r, c] is entry (r, c) of every matrix
    if len(m) == 3:
        (a, b, c), (e, f, g), (h, i, j) = m
        return np.abs(a * (f * j - g * i) - b * (e * j - g * h) + c * (e * i - f * h))
    return np.abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] if len(m) == 2 else np.linalg.det(x))


def restricted_xray_constant(
    mu_samples: DirectionSet, p: float, q: float, d: int, n_mc: int, seed: int
) -> MonteCarloEstimate:
    """Monte Carlo estimate of the restricted-direction constant.

    C(mu) = (E |w_1 ^ ... ^ w_d|^{dq(1/p-1)/(d-1)})^{1/(dq)} with the w_j
    drawn independently from mu; the wedge modulus is |det| of the stacked
    direction matrix, exactly 0 for a draw that repeats a direction.  If the support
    of mu spans less than R^d and the exponent is positive, every wedge is 0, so the
    constant is exactly 0 and nothing is drawn.
    """
    _check_scaling_line(p, q, d, 1)
    n_mc = count(n_mc, "n_mc")
    if mu_samples.dim != d:
        raise InputError("direction dimension mismatch")
    a = d * q * (1.0 / p - 1.0) / (d - 1)
    expo = 1.0 / (d * q)
    if a > 0 and np.linalg.matrix_rank(mu_samples.vectors[mu_samples.weights > 0]) < d:
        return _power_estimate(0.0, 0.0, expo, n_mc)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(mu_samples), size=(n_mc, d), p=mu_samples.weights)
    wedge = _wedge_modulus(mu_samples.vectors[idx])
    wedge[np.diff(np.sort(idx, axis=1)).min(axis=1) == 0] = 0.0  # a repeated direction: w ^ w = 0 exactly
    return _sample_estimate(wedge**a, expo)  # a = 0: exact ones


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
    if not (1.0 < p < math.inf and 0.0 < q < 1.0):
        raise ParameterDomainError("need 1 < p < inf and 0 < q < 1")
    expo = (1.0 - 1.0 / p) / ((count(d, "d", minimum=2) - 1) * q)
    return wedge_moment(d, q) ** expo


def radial_moment_factor(d, a) -> float:
    """E |X|^a for X with density e^{-pi |x|^2} on R^d."""
    return float(np.exp(gammaln((d + a) / 2.0) - gammaln(d / 2.0) - (a / 2.0) * math.log(math.pi)))


def gauss_wedge_integral_mc(d, a, n_mc, seed) -> MonteCarloEstimate:
    """Monte Carlo oracle for the gaussian wedge-power integral
    E |x_1 ^ ... ^ x_d|^a over d independent e^{-pi|x|^2} vectors."""
    rng = np.random.default_rng(seed)
    vals = np.empty(count(n_mc, "n_mc"))
    for s in range(0, n_mc, _MC_BLOCK):  # the same draws as one (n_mc, d, d) array
        x = rng.standard_normal((min(_MC_BLOCK, n_mc - s), d, d)) / math.sqrt(2.0 * math.pi)
        vals[s : s + len(x)] = _wedge_modulus(x) ** float(a)
    return _sample_estimate(vals, 1.0)


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

    norm_f = lp_norm(f, p) ** (1.0 / q - 1.0)

    def both(tom):
        return C * tom.sup_dirs_lq(r) ** (1.0 / q - 1.0 / p), norm_f * tom.lq(q) ** (1.0 - 1.0 / p)

    if dirs is None:
        dirs = DirectionSet.uniform_circle(180)
    ((tom, tom_half),) = _with_half([f], dirs, 2 * max(f.resolution))
    lhs, rhs = both(tom)
    lhs2, rhs2 = both(tom_half)
    return InequalityMargin.from_sides(lhs, rhs, "forward", abs((rhs - lhs) - (rhs2 - lhs2)))


def kplane_entropy_sequence(f: GridFunction, n_planes: int = 64, seed: int = 0, dirs=None):
    """Normalized entropies H(T_k f)/(d-k) for k = 0..d-1 (k = 0 is f itself).

    Uses the mass-exact deposit transform so the entropies carry only
    offset-binning error.
    """
    d = f.dim
    if d > 3:
        raise InputError("entropy sequences are implemented for d <= 3")
    f = f.normalized()  # a zero-mass f raises MassError
    out = [shannon_entropy(f) / d]
    if d >= 2:
        if dirs is None:
            dirs = DirectionSet.uniform_circle(180) if d == 2 else DirectionSet.fibonacci_sphere(96)
        tom = xray_transform(f, dirs, method="deposit")
        out.append(tom.entropy() / (d - 1))
    if d == 3:
        tom2 = kplane_transform(f, n_planes, seed=seed)
        out.append(tom2.entropy() / (d - 2))
    return out


def projection_shadow_measure(f: GridFunction, omega) -> float:
    """Exact measure of the shadow of the occupied cells on the line
    orthogonal to omega (dimension 2 only)."""
    if f.dim != 2:
        raise InputError("shadows are implemented for d = 2")
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
        raise InputError("implemented for d = 2")
    if dirs is None:
        dirs = DirectionSet.uniform_circle(360)
    volume = float(np.count_nonzero(f.values > 0)) * f.cell_volume
    rhs_all = np.array([projection_shadow_measure(f, w) for w in dirs.vectors])
    rhs = float(np.sum(dirs.weights * rhs_all))
    rhs_half = float(np.mean(rhs_all[::2]))
    lhs = volume ** ((f.dim - 1) / f.dim)
    return InequalityMargin.from_sides(lhs, rhs, "forward", abs(rhs - rhs_half))

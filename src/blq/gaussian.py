"""Gaussian Brascamp-Lieb constants by optimization over SPD matrices.

Centred gaussians e^{-pi <Ax,x>} turn the functional inequalities into
log-determinant problems:

* forward constant      BLg = sup over SPD tuples (A_1..A_k) of
                        prod det(A_i)^{c_i/2} / det(sum c_i B_i^T A_i B_i)^{1/2}
* adjoint constant      ABLg = prefactor * sup over SPD A of
                        det(A)^{1/2-1/2p} / prod det(A_i)^{theta_i/2-theta_i/2p_i}
                        with A_i^{-1} = B_i A^{-1} B_i^T
* duality identity      sup_{A_i} prod det(A_i)^{c_i} / det(sum c_i B_i^T A_i B_i)
                        = sup_A det(A) / prod det(B_i A B_i^T)^{c_i}

The two sides of the identity are computed by genuinely different routes
(stationarity fixed point for the tuple side, preconditioned gradient
ascent for the quotient side) so that they can cross-check each other.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .data import AdjointParams, BLDatum, adjoint_gaussian_prefactor
from .errors import ConditioningError, ParameterDomainError, ScalingConditionError

OVERFLOW_GUARD = 1e100
_LOG_OVERFLOW = math.log(OVERFLOW_GUARD)


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite matrix with its cached Cholesky factor."""

    matrix: np.ndarray
    chol: np.ndarray

    @classmethod
    def from_matrix(cls, m, sym_tol=1e-12):
        m = np.array(m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("need a square matrix")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > sym_tol * scale:
            raise ValueError("matrix is not symmetric to tolerance")
        m = 0.5 * (m + m.T)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("matrix is not positive definite") from exc
        m.flags.writeable = False
        chol.flags.writeable = False
        return cls(matrix=m, chol=chol)

    @property
    def dim(self):
        return self.matrix.shape[0]

    def logdet(self):
        return 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    def inv(self):
        return cho_solve((self.chol, True), np.eye(self.dim))

    def solve(self, b):
        return cho_solve((self.chol, True), b)


@dataclass(frozen=True)
class GaussianOptResult:
    """Optimizer outcome: constant value plus convergence diagnostics."""

    value: float
    argmax: object
    iterations: int
    converged: bool
    residual: float
    diverged: bool = False
    cross_check: Optional[float] = None

    def to_json_dict(self):
        if isinstance(self.argmax, SpdMatrix):
            flat = [self.argmax.matrix.flatten().tolist()]
            dims = [self.argmax.dim]
        elif self.argmax is None:
            flat, dims = [], []
        else:
            flat = [a.matrix.flatten().tolist() for a in self.argmax]
            dims = [a.dim for a in self.argmax]
        out = {
            "value": self.value,
            "iterations": self.iterations,
            "converged": self.converged,
            "residual": self.residual,
            "diverged": self.diverged,
            "argmax_dims": dims,
            "argmax_flat": flat,
        }
        if self.cross_check is not None:
            out["cross_check"] = self.cross_check
        return out


def _logdet_pd(m):
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("matrix not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def gaussian_pushforward(A: SpdMatrix, B):
    """Marginalize e^{-pi <Ax,x>} along a surjective map B.

    Returns (amplitude, A_B) with A_B = (B A^{-1} B^T)^{-1} and
    amplitude = det(A_B)^{1/2} / det(A)^{1/2}, so the pushforward is
    amplitude * e^{-pi <A_B y, y>} and integrates to det(A)^{-1/2}.
    """
    B = np.asarray(B, dtype=float)
    M = B @ A.solve(B.T)
    M = 0.5 * (M + M.T)
    w = np.linalg.eigvalsh(M)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise ConditioningError("B A^{-1} B^T is numerically singular")
    A_b = np.linalg.inv(M)
    A_b = 0.5 * (A_b + A_b.T)
    result = SpdMatrix.from_matrix(A_b)
    amplitude = math.exp(0.5 * (result.logdet() - A.logdet()))
    return amplitude, result


def _tuple_log_value(datum, A_list):
    """log of prod det(A_i)^{c_i/2} / det(sum c_i B_i^T A_i B_i)^{1/2}."""
    M = sum(
        c * (b.T @ a @ b) for c, b, a in zip(datum.exponents, datum.maps, A_list)
    )
    M = 0.5 * (M + M.T)
    lv = 0.5 * sum(c * _logdet_pd(a) for c, a in zip(datum.exponents, A_list))
    lv -= 0.5 * _logdet_pd(M)
    return lv, M


def _derived_tuple(datum, A):
    """A_i = (B_i A^{-1} B_i^T)^{-1} for the current ambient matrix A."""
    cho = cho_factor(A, lower=True)
    out = []
    for b in datum.maps:
        m = b @ cho_solve(cho, b.T)
        m = 0.5 * (m + m.T)
        inv = np.linalg.inv(m)
        out.append(0.5 * (inv + inv.T))
    return out


def _fixed_point_map(datum, A_list):
    M = sum(c * (b.T @ a @ b) for c, b, a in zip(datum.exponents, datum.maps, A_list))
    return 0.5 * (M + M.T)


def bl_gaussian_constant(
    datum: BLDatum,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    use_fixed_point: bool = True,
    ascent_iters: int = 20_000,
) -> GaussianOptResult:
    """Gaussian Brascamp-Lieb constant by stationarity fixed-point iteration.

    Iterates A_i := (B_i A^{-1} B_i^T)^{-1}, A := sum c_i B_i^T A_i B_i from
    the tuple seed A_i = I, with a 0.5 damping step whenever the objective
    decreases.  Falls back to damped gradient ascent on the log objective
    (Cholesky-parametrized iterates) if the fixed point stalls.  Values that
    cross the overflow guard are reported as a divergence signal rather than
    raised, since they indicate an infinite constant.
    """
    d = datum.ambient_dim
    A_list = [np.eye(di) for di in datum.dims]
    A = _fixed_point_map(datum, A_list)
    A *= d / np.trace(A)
    last_lv = -math.inf
    residual = math.inf
    diverged = False
    it = 0
    lv, _ = _tuple_log_value(datum, A_list)
    if use_fixed_point:
        for it in range(1, max_iter + 1):
            try:
                A_list = _derived_tuple(datum, A)
                lv, _ = _tuple_log_value(datum, A_list)
                A_prop = _fixed_point_map(datum, A_list)
            except (np.linalg.LinAlgError, ValueError):
                # singular or non-finite iterate: empirical infeasibility
                diverged = True
                lv = last_lv
                break
            if lv > _LOG_OVERFLOW or not math.isfinite(lv):
                diverged = True
                if not math.isfinite(lv):
                    lv = last_lv
                break
            residual = float(
                np.linalg.norm(A_prop - A) / max(np.linalg.norm(A), 1e-300)
            )
            if residual < tol:
                last_lv = lv
                break
            if lv < last_lv - 1e-15:
                A_prop = 0.5 * (A + A_prop)
            last_lv = lv
            A = A_prop * (d / np.trace(A_prop))
    converged = residual < tol and not diverged
    if not converged and not diverged:
        A_list, lv, asc_conv, gnorm, extra = _ascent_spd_blocks(
            lambda blocks: _bl_tuple_value_grad(datum, blocks),
            A_list,
            max_iter=ascent_iters,
        )
        it += extra
        M = _fixed_point_map(datum, A_list)
        residual = float(
            np.linalg.norm(_fixed_point_map(datum, _derived_tuple(datum, M)) - M)
            / max(np.linalg.norm(M), 1e-300)
        )
        converged = asc_conv and residual < max(tol, 1e-8)
    value = math.inf if lv > 700 else math.exp(lv)
    argmax = tuple(SpdMatrix.from_matrix(a) for a in A_list) if not diverged else None
    return GaussianOptResult(
        value=value,
        argmax=argmax,
        iterations=it,
        converged=bool(converged),
        residual=float(residual),
        diverged=diverged,
    )


def _bl_tuple_value_grad(datum, A_list):
    lv, M = _tuple_log_value(datum, A_list)
    cho = cho_factor(M, lower=True)
    grads = []
    for c, b, a in zip(datum.exponents, datum.maps, A_list):
        g = 0.5 * c * (np.linalg.inv(a) - b @ cho_solve(cho, b.T))
        grads.append(0.5 * (g + g.T))
    return lv, grads


def quotient_log_objective(datum: BLDatum, S) -> float:
    """log det(S) - sum c_i log det(B_i S B_i^T), the quotient-side objective."""
    S = np.asarray(S, dtype=float)
    val = _logdet_pd(S)
    for c, b in zip(datum.exponents, datum.maps):
        val -= c * _logdet_pd(b @ S @ b.T)
    return val


def quotient_log_gradient(datum: BLDatum, S):
    """Analytic gradient S^{-1} - sum c_i B_i^T (B_i S B_i^T)^{-1} B_i."""
    S = np.asarray(S, dtype=float)
    cho = cho_factor(S, lower=True)
    g = cho_solve(cho, np.eye(S.shape[0]))
    for c, b in zip(datum.exponents, datum.maps):
        m = b @ S @ b.T
        g -= c * (b.T @ cho_solve(cho_factor(0.5 * (m + m.T), lower=True), b))
    return 0.5 * (g + g.T)


def _ascent_spd_blocks(value_and_grad, blocks, max_iter=20_000, gtol=1e-9, armijo=1e-4):
    """Preconditioned gradient ascent over SPD blocks.

    Direction D_j = S_j G_j S_j; joint Armijo backtracking line search with
    positive-definiteness enforced through Cholesky factorization of each
    trial iterate.
    """
    blocks = [np.array(b, dtype=float) for b in blocks]
    val, grads = value_and_grad(blocks)
    step = 1.0
    it = 0
    gnorm = math.inf
    stalled = 0
    while it < max_iter:
        it += 1
        chols = [np.linalg.cholesky(s) for s in blocks]
        gnorm_sq = 0.0
        dirs = []
        for s, g, L in zip(blocks, grads, chols):
            m = L.T @ g @ L
            gnorm_sq += float(np.sum(m * m))
            dirs.append(s @ g @ s)
        gnorm = math.sqrt(gnorm_sq)
        if gnorm <= gtol * (1.0 + abs(val)):
            return blocks, val, True, gnorm, it
        t = min(step * 2.0, 4.0)
        accepted = False
        while t > 1e-16:
            trial = [s + t * d for s, d in zip(blocks, dirs)]
            try:
                for m in trial:
                    np.linalg.cholesky(m)
                new_val, new_grads = value_and_grad(trial)
            except np.linalg.LinAlgError:
                t *= 0.5
                continue
            if new_val >= val + armijo * t * gnorm_sq:
                gain = new_val - val
                blocks, val, grads = trial, new_val, new_grads
                step = t
                accepted = True
                stalled = stalled + 1 if gain < 1e-14 * (1.0 + abs(val)) else 0
                break
            t *= 0.5
        if not accepted or stalled >= 20:
            return blocks, val, gnorm <= 1e-6 * (1.0 + abs(val)), gnorm, it
    return blocks, val, False, gnorm, it


def quotient_supremum(
    datum: BLDatum, max_iter: int = 20_000, gtol: float = 1e-9
) -> GaussianOptResult:
    """sup over SPD S of det(S) / prod det(B_i S B_i^T)^{c_i} via ascent."""
    d = datum.ambient_dim

    def vg(blocks):
        (S,) = blocks
        return quotient_log_objective(datum, S), [quotient_log_gradient(datum, S)]

    blocks, val, converged, gnorm, it = _ascent_spd_blocks(
        vg, [np.eye(d)], max_iter=max_iter, gtol=gtol
    )
    value = math.inf if val > 700 else math.exp(val)
    return GaussianOptResult(
        value=value,
        argmax=SpdMatrix.from_matrix(blocks[0]),
        iterations=it,
        converged=converged,
        residual=gnorm,
    )


@dataclass(frozen=True)
class AiIdentityResult:
    """Both sides of the log-det duality identity with their optimizers."""

    residual: float
    left_log: float
    right_log: float
    left: GaussianOptResult
    right: GaussianOptResult

    def __float__(self):
        return self.residual


def identity_ai_residual(datum: BLDatum, tol: float = 1e-10, max_iter: int = 10_000) -> AiIdentityResult:
    """Optimize both sides of the duality identity independently.

    Left: sup over tuples of prod det(A_i)^{c_i} / det(sum c_i B_i^T A_i B_i)
    (fixed point).  Right: sup over S of det(S)/prod det(B_i S B_i^T)^{c_i}
    (gradient ascent).  Returns |log L - log R| plus diagnostics; rejects
    data violating the scaling condition, where both sides are infinite.
    """
    defect = datum.scaling_defect()
    bad = (defect != 0) if not isinstance(defect, float) else abs(defect) > 1e-9
    if bad:
        raise ScalingConditionError(
            f"scaling condition fails (d - sum c_i d_i = {float(defect)}); both sides infinite"
        )
    left = bl_gaussian_constant(datum, tol=tol, max_iter=max_iter)
    right = quotient_supremum(datum)
    if not left.converged or not right.converged:
        warnings.warn("identity check: one side did not converge", RuntimeWarning)
    left_log = 2.0 * math.log(left.value)
    right_log = math.log(right.value)
    return AiIdentityResult(
        residual=abs(left_log - right_log),
        left_log=left_log,
        right_log=right_log,
        left=left,
        right=right,
    )


def abl_gaussian_constant(
    datum: BLDatum, params: AdjointParams, max_iter: int = 20_000, gtol: float = 1e-9
) -> GaussianOptResult:
    """Adjoint gaussian constant via ascent on the quotient objective.

    For exponent p < 1 the supremum over gaussian inputs reduces to
    prefactor * (sup_S det(S)/prod det(B_i S B_i^T)^{c_i})^{(1/p-1)/2}; the
    returned cross_check field holds prefactor * BLg^{1/p-1} computed through
    the independent tuple-side optimizer.
    """
    if params.mode != "forward":
        raise ParameterDomainError("adjoint gaussian constant needs forward-mode parameters")
    pref = adjoint_gaussian_prefactor(params, datum.dims, datum.ambient_dim)
    if params.p == 1.0:
        return GaussianOptResult(
            value=1.0, argmax=None, iterations=0, converged=True, residual=0.0, cross_check=1.0
        )
    quot = quotient_supremum(datum, max_iter=max_iter, gtol=gtol)
    return _abl_from_solves(pref, params, quot, bl_gaussian_constant(datum))


def _abl_from_solves(pref, params, quot, bl) -> GaussianOptResult:
    """ABLg and its cross-check from the quotient and tuple-side solves.

    Neither solve depends on (theta, p), so callers with several exponent
    draws for one datum solve once and call this per draw.
    """
    value = pref * math.exp(0.5 * (1.0 / params.p - 1.0) * math.log(quot.value))
    cross = pref * bl.value ** (1.0 / params.p - 1.0)
    argmax = None
    if quot.argmax is not None:
        argmax = SpdMatrix.from_matrix(quot.argmax.inv())
    return GaussianOptResult(
        value=value,
        argmax=argmax,
        iterations=quot.iterations,
        converged=quot.converged and bl.converged,
        residual=quot.residual,
        cross_check=cross,
    )


@dataclass(frozen=True)
class PerturbationGapResult:
    """First-order gap of the adjoint functional at the standard gaussian."""

    coefficient: float
    quadrature_estimate: float
    j_index: int
    radius: float
    eps: float
    direct_ratio_delta: Optional[float] = None

    def __float__(self):
        return self.coefficient


def _gap_integrand_sum(datum, params, j, kappa, radius, box, resolution):
    from .grid import GridFunction, grid_centers

    d = datum.ambient_dim
    axes = grid_centers(box, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    norm_sq = np.sum(pts * pts, axis=1)
    proj = []
    for b in datum.maps:
        P = b.T @ np.linalg.solve(b @ b.T, b)
        proj.append(np.sum(pts * (pts @ P.T), axis=1))
    mask = (proj[j] >= kappa * norm_sq) & (norm_sq >= radius**2)
    p = params.p
    total = -(p ** (d / 2.0)) * np.exp(-math.pi * p * norm_sq[mask])
    for t, q, di, quad in zip(params.theta, params.p_i, datum.dims, proj):
        expo = -math.pi * (norm_sq[mask] - (1.0 - q) * quad[mask])
        total += t * (q ** (di / 2.0)) * np.exp(expo)
    cell_vol = 1.0
    for (lo, hi), n in zip(box, resolution):
        cell_vol *= (hi - lo) / n
    return float(np.sum(total) * cell_vol)


def perturbation_gap(
    datum: BLDatum,
    params: AdjointParams,
    eps: Optional[float] = 1e-3,
    grid=None,
    max_self_estimate: float = 0.1,
):
    """First-order coefficient of the gaussian perturbation that beats ABLg.

    Takes the standard gaussian f, the index j with the largest c_j/theta_j
    (requires theta_j < c_j somewhere, so theta != c), the cone
    {<P_j x, x> >= kappa |x|^2} and the radius R solving
    p^{-d/2} theta_j p_j^{d_j/2} e^{(pi/2)(p-p_j) R^2} = 2; the perturbation
    h = -f restricted to the cone outside radius R then has a positive
    first-order effect on the adjoint quotient.  Evaluated by grid
    quadrature with a dyadic-coarsening self-estimate.
    """
    from .grid import GridSpec, default_box, default_resolution

    if params.mode != "forward" or params.p >= 1.0:
        raise ParameterDomainError("perturbation gap needs forward mode with p < 1")
    ratios = [c / t for c, t in zip(datum.exponents, params.theta)]
    j = int(np.argmax(ratios))
    if ratios[j] <= 1.0 + 1e-12:
        raise ParameterDomainError(
            "no index with theta_j < c_j: theta equals c, the functional is flat"
        )
    p, p_j = params.p, params.p_i[j]
    d = datum.ambient_dim
    d_j = datum.dims[j]
    kappa = (1.0 - 0.5 * (p + p_j)) / (1.0 - p_j)
    log_target = math.log(2.0 * p ** (d / 2.0) / (params.theta[j] * p_j ** (d_j / 2.0)))
    radius = math.sqrt(max(0.0, 2.0 * log_target / (math.pi * (p - p_j))))
    if grid is None:
        grid = GridSpec(box=default_box(d), resolution=default_resolution(d, fine=True))
    box, resolution = tuple(grid.box), tuple(grid.resolution)
    coeff = _gap_integrand_sum(datum, params, j, kappa, radius, box, resolution)
    coarse_res = tuple(max(2, n // 2) for n in resolution)
    coeff_coarse = _gap_integrand_sum(datum, params, j, kappa, radius, box, coarse_res)
    estimate = abs(coeff - coeff_coarse)
    if abs(coeff) > 0 and estimate > max_self_estimate * abs(coeff):
        from .errors import ResolutionError

        raise ResolutionError(
            f"quadrature self-estimate {estimate:.3e} exceeds "
            f"{max_self_estimate:.0%} of the coefficient {coeff:.3e}"
        )
    direct = None
    if eps is not None:
        direct = _direct_ratio_delta(datum, params, j, kappa, radius, box, resolution, eps)
    return PerturbationGapResult(
        coefficient=coeff,
        quadrature_estimate=estimate,
        j_index=j,
        radius=radius,
        eps=float(eps) if eps is not None else 0.0,
        direct_ratio_delta=direct,
    )


def _adjoint_functional(f, datum, params):
    from .grid import grid_pushforward, lp_norm

    val = math.log(lp_norm(f, params.p))
    for b, t, q in zip(datum.maps, params.theta, params.p_i):
        val -= t * math.log(lp_norm(grid_pushforward(f, b), q))
    return val


def _direct_ratio_delta(datum, params, j, kappa, radius, box, resolution, eps):
    from .grid import GridFunction, grid_centers

    axes = grid_centers(box, resolution)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    norm_sq = np.sum(pts * pts, axis=1)
    b = datum.maps[j]
    P = b.T @ np.linalg.solve(b @ b.T, b)
    proj = np.sum(pts * (pts @ P.T), axis=1)
    f_vals = np.exp(-math.pi * norm_sq)
    mask = (proj >= kappa * norm_sq) & (norm_sq >= radius**2)
    h_vals = np.where(mask, -f_vals, 0.0)
    shape = tuple(resolution)
    f = GridFunction(box=box, resolution=resolution, values=f_vals.reshape(shape))
    g = GridFunction(
        box=box, resolution=resolution, values=(f_vals + eps * h_vals).reshape(shape)
    )
    return math.exp(_adjoint_functional(g, datum, params) - _adjoint_functional(f, datum, params)) - 1.0

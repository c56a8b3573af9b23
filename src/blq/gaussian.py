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
Every SPD matrix is factored by the one ``_cho_factor`` (LAPACK dpotrf).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .data import AdjointParams, BLDatum, _check_map_count, adjoint_gaussian_prefactor
from .entropy import log_lambda
from .errors import ConditioningError, InputError, ParameterDomainError, ResolutionError, ScalingConditionError
from .errors import finite
from .grid import GridFunction, GridSpec, mesh_points, row_blocks

OVERFLOW_GUARD = 1e100
_LOG_OVERFLOW = math.log(OVERFLOW_GUARD)
# tuple side: relative step of the fixed point that counts as converged
FIXED_POINT_TOL = 1e-10
FIXED_POINT_MAX_ITER = 10_000
# quotient side: gradient norm, relative to 1 + |log value|, that counts as converged
ASCENT_GTOL = 1e-9
ASCENT_MAX_ITER = 20_000
_ARMIJO = 1e-4
# largest quadrature self-estimate of perturbation_gap, relative to its coefficient
MAX_SELF_ESTIMATE = 0.1
_DIRECT_EPS = 1e-3  # step of perturbation_gap's direct check


def _cho_factor(a):
    """Lower Cholesky factor of the lower triangle of a, upper triangle zeroed:
    the LAPACK call of scipy's ``cho_factor(a, lower=True)`` without its
    Python wrapper, and numpy's Cholesky factor bit for bit up to size 4."""
    c, info = dpotrf(np.asarray_chkfinite(a), lower=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor of the array is not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return c


def _cho_solve(c, b):
    """A^{-1} b from the lower factor c of A, as scipy's ``cho_solve((c, True), b)``."""
    x, info = dpotrs(np.asarray_chkfinite(c), np.asarray_chkfinite(b), lower=1)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _sym(m):
    return 0.5 * (m + m.T)


def _logdet(chol):
    """log det A from the lower Cholesky factor of A."""
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


def _marginal(chol, b):
    """B A^{-1} B^T, symmetrised, from the lower Cholesky factor of A."""
    return _sym(b @ _cho_solve(chol, b.T))


@dataclass(frozen=True)
class SpdMatrix:
    """Symmetric positive-definite matrix with its cached Cholesky factor."""

    matrix: np.ndarray
    chol: np.ndarray

    @classmethod
    def from_matrix(cls, m):
        m = finite(m, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InputError("need a square matrix")
        scale = max(1.0, float(np.abs(m).max()))
        if np.abs(m - m.T).max() > 1e-12 * scale:
            raise InputError("matrix is not symmetric to tolerance")
        m = _sym(m)
        try:
            chol = _cho_factor(m)
        except np.linalg.LinAlgError as exc:
            raise InputError("matrix is not positive definite") from exc
        m.flags.writeable = False
        chol.flags.writeable = False
        return cls(matrix=m, chol=chol)

    def logdet(self):
        return _logdet(self.chol)

    def inv(self):
        return _cho_solve(self.chol, np.eye(len(self.chol)))


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


def gaussian_pushforward(A: SpdMatrix, B):
    """Marginalize e^{-pi <Ax,x>} along a surjective map B.

    Returns (amplitude, A_B) with A_B = (B A^{-1} B^T)^{-1} and
    amplitude = det(A_B)^{1/2} / det(A)^{1/2}, so the pushforward is
    amplitude * e^{-pi <A_B y, y>} and integrates to det(A)^{-1/2}.
    """
    B = finite(B, "B")
    M = _marginal(A.chol, B)
    w = np.linalg.eigvalsh(M)
    if w[0] <= 1e-12 * max(w[-1], 1e-300):
        raise ConditioningError("B A^{-1} B^T is numerically singular")
    result = SpdMatrix.from_matrix(_sym(np.linalg.inv(M)))
    amplitude = math.exp(0.5 * (result.logdet() - A.logdet()))
    return amplitude, result


def _tuple_log_value(datum, A_list):
    """log of prod det(A_i)^{c_i/2} / det(M)^{1/2} and M, for the
    fixed-point map M = sum c_i B_i^T A_i B_i."""
    M = _fixed_point_map(datum, A_list)
    lv = 0.5 * sum(c * _logdet(_cho_factor(a)) for c, a in zip(datum.exponents, A_list))
    lv -= 0.5 * _logdet(_cho_factor(M))
    return lv, M


def _derived_tuple(datum, A):
    """A_i = (B_i A^{-1} B_i^T)^{-1} for the current ambient matrix A."""
    cho = _cho_factor(A)
    return [_sym(np.linalg.inv(_marginal(cho, b))) for b in datum.maps]


def _fixed_point_map(datum, A_list):
    return _sym(sum(c * (b.T @ a @ b) for c, b, a in zip(datum.exponents, datum.maps, A_list)))


def bl_gaussian_constant(datum: BLDatum) -> GaussianOptResult:
    """Gaussian Brascamp-Lieb constant by stationarity fixed-point iteration.

    Iterates A_i := (B_i A^{-1} B_i^T)^{-1}, A := sum c_i B_i^T A_i B_i from
    the tuple seed A_i = I, with a 0.5 damping step whenever the objective
    decreases.  A fixed point that stalls is reported as not converged.
    Values that cross the overflow guard are reported as a divergence signal
    rather than raised, since they indicate an infinite constant.
    """
    d = datum.ambient_dim
    A = _fixed_point_map(datum, [np.eye(di) for di in datum.dims])
    A *= d / np.trace(A)
    last_lv = -math.inf
    residual = math.inf
    diverged = False
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        try:
            A_list = _derived_tuple(datum, A)
            lv, A_prop = _tuple_log_value(datum, A_list)
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
        if residual < FIXED_POINT_TOL:
            break
        if lv < last_lv - 1e-15:
            A_prop = 0.5 * (A + A_prop)
        last_lv = lv
        A = A_prop * (d / np.trace(A_prop))
    value = math.inf if lv > 700 else math.exp(lv)
    argmax = tuple(SpdMatrix.from_matrix(a) for a in A_list) if not diverged else None
    return GaussianOptResult(
        value=value,
        argmax=argmax,
        iterations=it,
        converged=residual < FIXED_POINT_TOL and not diverged,
        residual=residual,
        diverged=diverged,
    )


def quotient_log_objective(datum: BLDatum, S, chol) -> float:
    """log det(S) - sum c_i log det(B_i S B_i^T), the quotient-side objective;
    log det(S) is read from ``chol``, the lower Cholesky factor ``_cho_factor(S)``."""
    val = _logdet(chol)
    for c, b in zip(datum.exponents, datum.maps):
        val -= c * _logdet(_cho_factor(b @ S @ b.T))
    return val


def quotient_log_gradient(datum: BLDatum, S, chol):
    """Analytic gradient S^{-1} - sum c_i B_i^T (B_i S B_i^T)^{-1} B_i;
    S^{-1} is solved from ``chol``, the lower Cholesky factor ``_cho_factor(S)``."""
    g = _cho_solve(chol, np.eye(len(S)))
    for c, b in zip(datum.exponents, datum.maps):
        g -= c * (b.T @ _cho_solve(_cho_factor(_sym(b @ S @ b.T)), b))
    return _sym(g)


def quotient_supremum(datum: BLDatum) -> GaussianOptResult:
    """sup over SPD S of det(S) / prod det(B_i S B_i^T)^{c_i} via ascent.

    Preconditioned gradient ascent from S = I: direction S G S, Armijo
    backtracking line search.  Each trial iterate is factored once: a trial
    with no Cholesky factor is not positive definite and halves the step, and
    an accepted trial's factor serves its objective, its gradient (taken only
    at accepted iterates) and the next step's metric.  The ascent stops early
    when no step is accepted or 20 accepted steps in a row gain nothing.
    """
    S = np.eye(datum.ambient_dim)
    L = _cho_factor(S)
    val, grad = quotient_log_objective(datum, S, L), quotient_log_gradient(datum, S, L)
    step = 1.0
    stalled = 0
    converged = False
    for it in range(1, ASCENT_MAX_ITER + 1):
        m = L.T @ grad @ L
        gnorm_sq = float(np.sum(m * m))
        direction = S @ grad @ S
        gnorm = math.sqrt(gnorm_sq)
        if gnorm <= ASCENT_GTOL * (1.0 + abs(val)):
            converged = True
            break
        t = min(step * 2.0, 4.0)
        accepted = False
        while t > 1e-16:
            trial = S + t * direction
            try:
                L_trial = _cho_factor(trial)
                new_val = quotient_log_objective(datum, trial, L_trial)
                if new_val >= val + _ARMIJO * t * gnorm_sq:
                    grad, accepted = quotient_log_gradient(datum, trial, L_trial), True
            except (np.linalg.LinAlgError, ValueError):
                pass
            if accepted:
                stalled = stalled + 1 if new_val - val < 1e-14 * (1.0 + abs(new_val)) else 0
                S, L, val, step = trial, L_trial, new_val, t
                break
            t *= 0.5
        if not accepted or stalled >= 20:
            converged = gnorm <= 1e-6 * (1.0 + abs(val))
            break
    return GaussianOptResult(
        value=math.inf if val > 700 else math.exp(val),
        argmax=SpdMatrix.from_matrix(S),
        iterations=it,
        converged=converged,
        residual=gnorm,
    )


@dataclass(frozen=True)
class AiIdentityResult:
    """Both sides of the log-det duality identity, in logs."""

    residual: float
    left_log: float
    right_log: float


def identity_ai_residual(datum: BLDatum) -> AiIdentityResult:
    """Optimize both sides of the duality identity independently.

    Left: sup over tuples of prod det(A_i)^{c_i} / det(sum c_i B_i^T A_i B_i)
    (fixed point).  Right: sup over S of det(S)/prod det(B_i S B_i^T)^{c_i}
    (gradient ascent).  Returns |log L - log R| plus diagnostics; rejects
    data violating the scaling condition, where both sides are infinite.
    """
    if not datum.satisfies_scaling():
        raise ScalingConditionError(
            f"scaling condition fails (d - sum c_i d_i = {float(datum.scaling_defect())}); both sides infinite"
        )
    left = bl_gaussian_constant(datum)
    right = quotient_supremum(datum)
    if not left.converged or not right.converged:
        warnings.warn("identity check: one side did not converge", RuntimeWarning)
    left_log = 2.0 * math.log(left.value)
    right_log = math.log(right.value)
    return AiIdentityResult(abs(left_log - right_log), left_log, right_log)


def abl_gaussian_constant(datum: BLDatum, params: AdjointParams) -> GaussianOptResult:
    """Adjoint gaussian constant via ascent on the quotient objective.

    For exponent p < 1 the supremum over gaussian inputs reduces to
    prefactor * (sup_S det(S)/prod det(B_i S B_i^T)^{c_i})^{(1/p-1)/2}; the
    returned cross_check field holds prefactor * BLg^{1/p-1} computed through
    the independent tuple-side optimizer.
    """
    if params.mode != "forward":
        raise ParameterDomainError("adjoint gaussian constant needs forward-mode parameters")
    _check_map_count(params, datum.k)
    if params.p == 1.0:
        return GaussianOptResult(
            value=1.0, argmax=None, iterations=0, converged=True, residual=0.0, cross_check=1.0
        )
    quot = quotient_supremum(datum)
    argmax = SpdMatrix.from_matrix(quot.argmax.inv())
    return _abl_from_solves(datum, params, quot, bl_gaussian_constant(datum), argmax)


def _abl_from_solves(datum, params, quot, bl, argmax=None) -> GaussianOptResult:
    """ABLg and its cross-check from the datum's prefactor and the quotient and tuple-side solves.

    Neither solve depends on (theta, p), so callers with several exponent
    draws for one datum solve once and call this per draw; the argmax, the
    inverse of the quotient's, is left to ``abl_gaussian_constant``.
    """
    pref = adjoint_gaussian_prefactor(params, datum)
    value = pref * math.exp(0.5 * (1.0 / params.p - 1.0) * math.log(quot.value))
    cross = pref * bl.value ** (1.0 / params.p - 1.0)
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
    direct_ratio_delta: float


def _cone_geometry(datum, j, kappa, radius, grid):
    """Per row block of the grid: its flat cells, and at their centres x |x|^2,
    <P_i x, x> for the projector P_i onto the row space of each map B_i, and the
    mask of the cone {<P_j x, x> >= kappa |x|^2} outside the ball of the given radius."""
    axes = grid.centers()
    projectors = [b.T @ np.linalg.solve(b @ b.T, b) for b in datum.maps]
    for rows, cells in row_blocks(grid.resolution):
        pts = mesh_points([axes[0][rows]] + axes[1:])
        norm_sq = np.sum(pts * pts, axis=1)
        proj = [np.sum(pts * (pts @ P.T), axis=1) for P in projectors]
        yield cells, norm_sq, proj, (proj[j] >= kappa * norm_sq) & (norm_sq >= radius**2)


def _gap_integrand_sum(datum, params, j, kappa, radius, grid):
    d = datum.ambient_dim
    p = params.p
    total = np.empty(math.prod(grid.resolution))  # the masked integrand, filled block by block
    n = 0
    for _, norm_sq, proj, mask in _cone_geometry(datum, j, kappa, radius, grid):
        part = -(p ** (d / 2.0)) * np.exp(-math.pi * p * norm_sq[mask])
        for t, q, di, quad in zip(params.theta, params.p_i, datum.dims, proj):
            expo = -math.pi * (norm_sq[mask] - (1.0 - q) * quad[mask])
            part += t * (q ** (di / 2.0)) * np.exp(expo)
        total[n : n + len(part)] = part
        n += len(part)
    return float(np.sum(total[:n]) * grid.cell_volume)


def perturbation_gap(datum: BLDatum, params: AdjointParams, grid: GridSpec):
    """First-order coefficient of the gaussian perturbation that beats ABLg.

    Takes the standard gaussian f, the index j with the largest c_j/theta_j
    (requires theta_j < c_j somewhere, so theta != c), the cone
    {<P_j x, x> >= kappa |x|^2} and the radius R solving
    p^{-d/2} theta_j p_j^{d_j/2} e^{(pi/2)(p-p_j) R^2} = 2; the perturbation
    h = -f restricted to the cone outside radius R then has a positive
    first-order effect on the adjoint quotient.  Evaluated by grid
    quadrature on ``grid`` with a dyadic-coarsening self-estimate, and
    directly: ``direct_ratio_delta`` is the functional's relative change at f + 1e-3 h.
    """
    if params.mode != "forward" or params.p >= 1.0:
        raise ParameterDomainError("perturbation gap needs forward mode with p < 1")
    _check_map_count(params, datum.k)
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
    coeff = _gap_integrand_sum(datum, params, j, kappa, radius, grid)
    coarse = GridSpec(grid.box, tuple(max(2, n // 2) for n in grid.resolution))
    coeff_coarse = _gap_integrand_sum(datum, params, j, kappa, radius, coarse)
    estimate = abs(coeff - coeff_coarse)
    if abs(coeff) > 0 and estimate > MAX_SELF_ESTIMATE * abs(coeff):
        raise ResolutionError(
            f"quadrature self-estimate {estimate:.3e} exceeds "
            f"{MAX_SELF_ESTIMATE:.0%} of the coefficient {coeff:.3e}"
        )
    return PerturbationGapResult(
        coefficient=coeff,
        quadrature_estimate=estimate,
        j_index=j,
        radius=radius,
        direct_ratio_delta=_direct_ratio_delta(datum, params, j, kappa, radius, grid),
    )


def _direct_ratio_delta(datum, params, j, kappa, radius, grid):
    """One array holds f's values, then g's; each grid lives for one log_lambda
    call, so its cached masses are gone before the values change."""
    vals = np.empty(math.prod(grid.resolution))
    mask = np.empty(vals.size, dtype=bool)
    for cells, norm_sq, _, cone in _cone_geometry(datum, j, kappa, radius, grid):
        vals[cells] = np.exp(-math.pi * norm_sq)
        mask[cells] = cone
    # with bl = 1 the bl factor drops out of the ratio
    log_f = log_lambda(GridFunction._over(grid, vals.reshape(grid.resolution)), datum, params, 1.0)
    vals[mask] -= _DIRECT_EPS * vals[mask]  # g = f + _DIRECT_EPS * h with h = -f on the cone
    log_g = log_lambda(GridFunction._over(grid, vals.reshape(grid.resolution)), datum, params, 1.0)
    return math.exp(log_g - log_f) - 1.0

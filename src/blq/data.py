"""Brascamp-Lieb data and adjoint exponent algebra.

A datum ``BLDatum(maps, c)`` is a family of surjective linear maps
B_i: R^d -> R^{d_i} with positive exponents c_i; d and the exact (Fraction)
exponents are derived from them.  The adjoint side adds weights theta_i
summing to one and a Lebesgue exponent p; the coupled exponents p_i solve

    c_i * (1 - 1/p) = theta_i * (1 - 1/p_i).

Everything here is pure datum/exponent bookkeeping: feasibility screening,
exponent derivation and the gaussian prefactor.  The optimizers live in
:mod:`blq.gaussian`.  ``AdjointParams.log_rhs`` is the one place the
right-hand side log of bl^{1/p-1} prod ||f_i||_{p_i}^{theta_i} is formed;
the grid, discrete, entropic and gaussian-perturbation layers all call it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import null_space

from .errors import DatumError, ParameterDomainError, exponent, finite

RANK_TOL = 1e-10
THETA_SUM_TOL = 1e-12
SCALING_TOL = 1e-9


def _as_fraction(x):
    """Parse 'p/q' strings, ints and integral floats to Fraction; other floats return None."""
    if isinstance(x, (Fraction, str, int)):
        return Fraction(x)
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))
    return None


@dataclass(frozen=True)
class BLDatum:
    """Surjective maps B_i (shape d_i x d) with exponents c_i > 0.

    The ambient dimension d is the maps' column count.  ``exact_exponents``
    holds the c_i as Fractions when every c_i is an int, a Fraction, a "p/q"
    string or an integral float, so the scaling condition can be checked
    exactly; otherwise it is None.  ``exponents`` holds them as floats.
    """

    maps: tuple
    exponents: tuple
    exact_exponents: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.maps) < 1:
            raise DatumError("a datum needs at least one map")
        if len(self.maps) != len(self.exponents):
            raise DatumError("number of maps and exponents differ")
        maps = tuple(np.array(b, dtype=float) for b in self.maps)
        d = maps[0].shape[-1] if maps[0].ndim else 0
        for i, b in enumerate(maps):
            if b.ndim != 2 or b.shape[1] != d:
                raise DatumError(f"map {i} is not a d_i x {d} matrix")
            if b.shape[0] > d:
                raise DatumError(f"map {i} has more rows than the ambient dimension")
            finite(b, f"map {i}", DatumError)
            sv = np.linalg.svd(b, compute_uv=False)
            if sv[-1] <= RANK_TOL * sv[0]:
                raise DatumError(f"map {i} is not surjective (rank-deficient rows)")
            b.flags.writeable = False
        object.__setattr__(self, "maps", maps)
        exps = tuple(exponent(Fraction(c) if isinstance(c, str) else c, f"c_{i}", error=DatumError)
                     for i, c in enumerate(self.exponents))
        fracs = tuple(_as_fraction(c) for c in self.exponents)
        exact = fracs if all(f is not None for f in fracs) else None
        object.__setattr__(self, "exponents", exps)
        object.__setattr__(self, "exact_exponents", exact)

    @property
    def ambient_dim(self):
        return self.maps[0].shape[1]

    @property
    def k(self):
        return len(self.maps)

    @property
    def dims(self):
        return tuple(b.shape[0] for b in self.maps)

    def scaling_defect(self):
        """d - sum(c_i d_i); a Fraction when exact exponents are available."""
        if self.exact_exponents is not None:
            return Fraction(self.ambient_dim) - sum(
                c * di for c, di in zip(self.exact_exponents, self.dims)
            )
        return self.ambient_dim - sum(c * di for c, di in zip(self.exponents, self.dims))

    def satisfies_scaling(self):
        """d = sum(c_i d_i): exactly for rational exponents, to SCALING_TOL otherwise."""
        defect = self.scaling_defect()
        if isinstance(defect, Fraction):
            return defect == 0
        return abs(defect) <= SCALING_TOL

    @classmethod
    def from_json_dict(cls, obj):
        return cls(tuple(obj["maps"]), tuple(obj["c"]))


@dataclass(frozen=True)
class AdjointParams:
    """Weights theta_i, exponent p and the derived exponents p_i.

    Forward mode: 0 < p <= 1 and every theta_i > 0.
    Reverse mode: p >= 1 (math.inf allowed) and exactly one theta_i > 0.
    A record checks its own fields (p and each p_i are positive, inf allowed,
    and there is one p_i per theta_i) and sets ``mode`` to ``_mode(theta, p)``.
    """

    theta: tuple
    p: float
    p_i: tuple
    mode: str = field(init=False)

    def __post_init__(self):
        exponent(self.p, "p", inf=True)
        for i, q in enumerate(self.p_i):
            exponent(q, f"p_{i}", inf=True)
        if len(self.p_i) != len(self.theta):
            raise ParameterDomainError(f"need one p_i per theta_i, got {len(self.p_i)} for {len(self.theta)}")
        object.__setattr__(self, "mode", _mode(self.theta, self.p))

    def residuals(self, exponents):
        """Defect of c_i(1 - 1/p) - theta_i(1 - 1/p_i) for each i."""
        return tuple(
            c * (1.0 - 1.0 / self.p) - t * (1.0 - 1.0 / q)
            for c, t, q in zip(exponents, self.theta, self.p_i)
        )

    def log_rhs(self, marginal_norms, bl_value):
        """(1/p - 1) log bl + sum theta_i log n_i; the marginal norms n_i (a
        generator is fine) are consumed in order, after the bl term."""
        total = (1.0 / self.p - 1.0) * math.log(bl_value)
        for t, n in zip(self.theta, marginal_norms):
            total += t * math.log(n)
        return total


@dataclass(frozen=True)
class SubspaceCheck:
    dimension: int
    weighted_image_dim: float
    passed: bool
    label: str = ""


@dataclass(frozen=True)
class FeasibilityReport:
    scaling_ok: bool
    tested_subspaces: tuple
    verdict: str


def _rank(m, tol):
    """The number of singular values of m above tol."""
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > tol))


def _subspace_family(datum):
    """Deterministic test family: kernels, their pairwise intersections and
    coordinate subspaces.  Once scaling holds, the zero and whole spaces pass,
    and so does a generic V of dimension k: dim(B_i V) = min(k, d_i) >= k d_i / d."""
    d = datum.ambient_dim
    family = [(f"ker B_{i}", ker) for i, ker in enumerate(map(null_space, datum.maps)) if ker.shape[1] > 0]
    for i, j in itertools.combinations(range(datum.k), 2):
        inter = null_space(np.vstack([datum.maps[i], datum.maps[j]]))
        if 0 < inter.shape[1] < d:
            family.append((f"ker B_{i} & ker B_{j}", inter))
    for r in range(1, d) if d <= 8 else (1,):
        for subset in itertools.combinations(range(d), r):
            family.append((f"coords {subset}", np.eye(d)[:, list(subset)]))
    return family


def validate_datum(datum: BLDatum) -> FeasibilityReport:
    """Screen the finiteness conditions on a deterministic subspace family.

    The scaling condition d = sum(c_i d_i) is decided exactly for rational
    exponents and to 1e-9 otherwise.  The subspace dimension criterion
    dim(V) <= sum(c_i dim(B_i V)) is screened on ``_subspace_family``, not
    decided, so the positive verdict is reported as "feasible(heuristic)".
    dim(B_i V) counts the singular values above RANK_TOL * ||B_i|| (V has an
    orthonormal basis), so B_i applied to its own kernel is rank 0, not noise.
    """
    scaling_ok = datum.satisfies_scaling()
    tols = [RANK_TOL * np.linalg.norm(b, 2) for b in datum.maps]
    checks = []
    all_pass = True
    for label, basis in _subspace_family(datum):
        dim_v = basis.shape[1]
        weighted = sum(c * _rank(b @ basis, tol) for c, b, tol in zip(datum.exponents, datum.maps, tols))
        ok = dim_v <= weighted + SCALING_TOL
        all_pass = all_pass and ok
        checks.append(SubspaceCheck(dim_v, float(weighted), bool(ok), label))
    verdict = "feasible(heuristic)" if (scaling_ok and all_pass) else "infeasible"
    return FeasibilityReport(bool(scaling_ok), tuple(checks), verdict)


def _mode(theta, p):
    """The mode the signs of theta and the value of p give (see AdjointParams); any other pattern raises."""
    if any(t == 0 for t in theta):
        raise ParameterDomainError("theta entries must be nonzero")
    n_pos = sum(1 for t in theta if t > 0)
    if n_pos == len(theta) and 0 < p <= 1:
        return "forward"
    if n_pos == 1 and p >= 1:
        return "reverse"
    raise ParameterDomainError("sign pattern/exponent mismatch: forward needs all theta_i>0 and 0<p<=1, "
                               "reverse needs exactly one theta_i>0 and p>=1")


def derive_adjoint_exponents(exponents: Sequence, theta: Sequence, p) -> AdjointParams:
    """Solve c_i(1 - 1/p) = theta_i(1 - 1/p_i) for the p_i.

    ``exponents`` are the c_i (``datum.exponents`` for a :class:`BLDatum`).
    Closed form: p_i = 1 / (1 + (c_i/theta_i) * (1/p - 1)).
    """
    theta = tuple(float(t) for t in theta)
    if len(theta) != len(exponents):
        raise ParameterDomainError("theta length must match the number of maps")
    if abs(sum(theta) - 1.0) > 1e3 * THETA_SUM_TOL * max(1.0, max(abs(t) for t in theta)):
        raise ParameterDomainError(f"theta must sum to 1, got {sum(theta)!r}")
    p = exponent(p, "p", inf=True)
    mode = _mode(theta, p)
    p_i = []
    for i, (c, t) in enumerate(zip(exponents, theta)):
        denom = 1.0 + (c / t) * (1.0 / p - 1.0)
        if denom <= 0 or not math.isfinite(denom):
            raise ParameterDomainError(f"derived exponent p_{i} undefined (1/p_i = {denom})")
        q = 1.0 / denom
        if mode == "forward" and not (0.0 < q <= 1.0 + 1e-12):
            raise ParameterDomainError(f"derived exponent p_{i}={q} outside (0,1] in forward mode")
        p_i.append(min(q, 1.0) if mode == "forward" else q)
    return AdjointParams(theta=theta, p=p, p_i=tuple(p_i))


def _check_map_count(params: AdjointParams, k):
    """Refuse a params record built for a datum with another number of maps."""
    if len(params.theta) != k:
        raise ParameterDomainError(f"params hold {len(params.theta)} weights theta_i for {k} maps")


def adjoint_gaussian_prefactor(params: AdjointParams, datum: BLDatum) -> float:
    """Evaluate p^{-d/2p} * prod p_i^{theta_i d_i / 2 p_i} in log space, with
    d and the d_i read from ``datum``.

    A factor with zero exponent contributes 1 regardless of its base
    (the 0^0 = inf^0 = 1 convention at degenerate edges).
    """
    _check_map_count(params, datum.k)
    log_c = 0.0
    e0 = -datum.ambient_dim / (2.0 * params.p)  # -0.0 at p = inf
    if e0 != 0.0:
        log_c += e0 * math.log(params.p)
    for t, di, q in zip(params.theta, datum.dims, params.p_i):
        e = t * di / (2.0 * q)
        if e != 0.0:
            log_c += e * math.log(q)
    return math.exp(log_c)

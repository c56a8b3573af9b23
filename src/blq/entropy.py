"""Shannon/Renyi entropy machinery and entropic inequality margins.

Entropies are taken of normalized densities against the natural reference
measure (cell volume for a grid, 1 per entry for a non-negative array) with
the 0 log 0 = 0 convention.  The Renyi entropy of order p is
(p/(1-p)) log ||f||_p; it tends to the Shannon entropy as p -> 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .data import AdjointParams, BLDatum, derive_adjoint_exponents
from .errors import MassError, exponent, nonnegative
from .grid import GridFunction, adjoint_log_rhs, grid_pushforward, lp_norm

def _values_measure(f):
    """The values of f and their reference measure: the cell volume of a
    grid, or 1 per entry of an array, which must be finite and non-negative."""
    if isinstance(f, GridFunction):
        return f.values.ravel(), np.full(f.values.size, f.cell_volume)
    v = nonnegative(f, "f").ravel()
    return v, np.ones(v.size)


def _normalized(v, w):
    mass = float(np.sum(v * w))
    if mass <= 0 or not math.isfinite(mass):
        raise MassError("entropy needs positive finite mass")
    return v / mass


def _neg_log_term(v):
    """-v log v entrywise, with 0 log 0 = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(v > 0, -v * np.log(v), 0.0)


def _shannon(v, w):
    return float(np.sum(_neg_log_term(_normalized(v, w)) * w))


def shannon_entropy(f) -> float:
    """Entropy of the normalized density: integral of -g log g."""
    return _shannon(*_values_measure(f))


def renyi_entropy(f, p) -> float:
    """(p/(1-p)) log ||g||_p for the normalized density g; p = 1 is Shannon."""
    p = exponent(p, "p")
    if p == 1.0:
        return shannon_entropy(f)
    v, w = _values_measure(f)
    norm_p = float(np.sum(_normalized(v, w) ** p * w)) ** (1.0 / p)
    return (p / (1.0 - p)) * math.log(norm_p)


def entropy_power(f, p) -> float:
    """Entropy of the tilted density f^p / ||f||_p^p."""
    v, w = _values_measure(f)
    return _shannon(v ** exponent(p, "p"), w)


def default_theta(datum: BLDatum):
    """theta_i proportional to c_i d_i; sums to one under the scaling condition."""
    raw = np.array([c * di for c, di in zip(datum.exponents, datum.dims)], dtype=float)
    return tuple(raw / raw.sum())


def _marginal_total(f, datum: BLDatum, bl_value, p, p_i, term) -> float:
    """log(bl) - term(f, p) + sum c_i term((B_i)_* f, p_i), added map by map."""
    total = math.log(exponent(bl_value, "bl_value")) - term(f, p)
    for c, b, q in zip(datum.exponents, datum.maps, p_i):
        total += c * term(grid_pushforward(f, b), q)
    return total


def entropic_bl_margin(f: GridFunction, datum: BLDatum, bl_value: float) -> float:
    """sum c_i H((B_i)_* f) + log(bl) - H(f) for the normalized density f.

    Non-negative whenever bl is (an upper bound for) the Brascamp-Lieb
    constant of the datum.  (The Renyi entropy of order 1 is Shannon's.)
    """
    return _marginal_total(f.normalized(), datum, bl_value, 1, (1,) * datum.k, renyi_entropy)


def renyi_bl_margin(f: GridFunction, datum: BLDatum, params: AdjointParams, bl_value: float) -> float:
    """sum c_i H_{p_i}((B_i)_* f) + log(bl) - H_p(f); converges to the
    Shannon margin as p -> 1."""
    return _marginal_total(f.normalized(), datum, bl_value, params.p, params.p_i, renyi_entropy)


def p_entropy_probe(f: GridFunction, p: float, datum: BLDatum, bl_value: float) -> float:
    """H(f^p/||f||_p^p) - sum c_i H(f_i^{p_i}/||f_i||_{p_i}^{p_i}) - log(bl),
    with theta_i proportional to c_i d_i (``default_theta``).

    Guaranteed non-positive for indicator inputs; sign-indefinite in general
    (the value is returned unasserted).
    """
    params = derive_adjoint_exponents(datum.exponents, default_theta(datum), p)
    # bit for bit the total formed with -=: 0.0 - x is exact, and +0.0 where x cancels to 0
    return 0.0 - _marginal_total(f, datum, bl_value, p, params.p_i, entropy_power)


def log_lambda(f: GridFunction, datum: BLDatum, params: AdjointParams, bl_value: float) -> float:
    """log of ||f||_p / (bl^{1/p-1} prod ||f_i||_{p_i}^{theta_i}).

    Its p-derivative scaled by p^2 matches
    log(bl) - H(f^p/||f||_p^p) + sum c_i H(f_i^{p_i}/||f_i||_{p_i}^{p_i}).
    """
    return math.log(lp_norm(f, params.p)) - adjoint_log_rhs(f, datum, params, bl_value)


def _phi(q: Fraction) -> Fraction:
    return q * q / ((1 + q) * (1 + q))


def power_curvature_fd(q) -> float:
    """Second derivative of q -> q^2/(1+q)^2 by exact-rational central
    differences with one Richardson step (h = 1/2048, truncation O(h^4), no roundoff)."""
    q = Fraction(q)
    h = Fraction(1, 2048)

    def second(hh):
        return (_phi(q + hh) - 2 * _phi(q) + _phi(q - hh)) / (hh * hh)

    d1 = second(h)
    d2 = second(h / 2)
    return float((4 * d2 - d1) / 3)


def power_curvature_exact(q) -> float:
    """(2 - 4q) / (1 + q)^4, the closed-form second derivative."""
    q = Fraction(q)
    return float((2 - 4 * q) / (1 + q) ** 4)

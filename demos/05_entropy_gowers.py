"""Entropy inequalities and Gowers-norm log-convexity.

The entropic inequality bounds the joint entropy by its marginals plus the
log of the constant; its Renyi refinements converge to it as p -> 1.  On
cyclic groups the uniformity norms are log-convex in (d+1)/2^d, which counts
parallelepipeds from parallelograms.
"""

import math

import numpy as np

from blq import entropic_bl_margin, gowers_profile
from blq.catalog import loomis_whitney
from blq.data import derive_adjoint_exponents
from blq.entropy import renyi_bl_margin
from blq.gowers import gowers_logconvexity_margin, parallelepiped_count, parallelogram_count, u2_ratio_scan
from blq.grid import gaussian_grid

lw = loomis_whitney(2)
box = ((-10.0, 10.0), (-10.0, 10.0))

print("== entropic margins (>= 0, zero iff independent) ==")
product = gaussian_grid(np.eye(2), box, (256, 256))
sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
correlated = gaussian_grid(np.linalg.inv(sigma) / (2 * math.pi), box, (256, 256))
print(f"product gaussian   : margin = {entropic_bl_margin(product, lw, 1.0):.6f}")
print(
    f"correlated gaussian: margin = {entropic_bl_margin(correlated, lw, 1.0):.6f}"
    f" (mutual information = {-0.5*math.log(np.linalg.det(sigma)):.6f})"
)

print("\n== Renyi margins converge to the Shannon margin as p -> 1 ==")
m_shannon = entropic_bl_margin(correlated, lw, 1.0)
for eps in (1e-1, 1e-2, 1e-3):
    params = derive_adjoint_exponents(lw.exponents, (0.5, 0.5), 1.0 - eps)
    m = renyi_bl_margin(correlated, lw, params, 1.0)
    print(f"p = 1 - {eps:g}: margin = {m:.6f} (gap {m - m_shannon:+.2e})")

print("\n== Gowers norms on Z_64 ==")
rng = np.random.default_rng(5)
a = (rng.uniform(size=64) < 0.35).astype(float)
prof = gowers_profile(a, 3)
for d, x, v in zip(prof.orders, prof.abscissae, prof.norms):
    print(f"U^{d}: abscissa {x:.3f}, norm {v:.6f}")
print(f"log-convexity margin at d = 2: {gowers_logconvexity_margin(a, 2):.6f}")

size = a.sum()
s2, s3 = parallelogram_count(a), parallelepiped_count(a)
delta = s2 / size**3
print(
    f"|A| = {size:.0f}: {s2:.0f} parallelograms (delta = {delta:.3f}),"
    f" {s3:.0f} parallelepipeds >= delta^4 |A|^4 = {delta**4 * size**4:.0f}"
)

print("\n== real-line ratio scan (reported, not asserted) ==")
spacing = 1.0 / 64.0
xs = np.arange(128) * spacing
family = [
    np.exp(-math.pi * (xs - 1.0) ** 2),
    ((xs >= 0.5) & (xs <= 1.5)).astype(float),
    np.exp(-math.pi * (xs - 1.0) ** 2) * (1 + 0.25 * np.sin(12 * xs)),
]
for label, ratio in zip(("gaussian", "indicator", "modulated"), u2_ratio_scan(family, spacing)):
    print(f"U^2 / sqrt(U^1 U^3) for {label:9s}: {ratio:.6f}")

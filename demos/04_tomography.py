"""Reverse L^p bounds for tomographic transforms.

The line transform of a non-negative function dominates its L^p norm below
L^1 on the scaling line with constant one; restricted direction sets carry a
wedge-moment constant with a Gamma-product closed form.
"""

import math

import numpy as np

from blq import DirectionSet, GridFunction, restricted_xray_constant, xray_transform, xx_gamma_constant
from blq.grid import random_grid_function
from blq.tomography import (
    kplane_entropy_sequence,
    scaling_exponent_q,
    tomography_lower_bound_margin,
    xx_constant_via_mc,
)

box = ((-3.0, 3.0), (-3.0, 3.0))
f = random_grid_function(box, (96, 96), seed=1, smooth=1)

print("== mass normalization of the line transform ==")
tom = xray_transform(f, DirectionSet.uniform_circle(120))
print(f"||Xf||_1 / ||f||_1 = {tom.l1()/f.mass:.6f}")

print("\n== lower bounds on the scaling line (constant 1) ==")
for p in (0.5, 0.7, 0.9):
    m = tomography_lower_bound_margin(f, p, dirs=DirectionSet.uniform_circle(120))
    q = scaling_exponent_q(p, 2)  # the margin derives the same q
    print(f"p = {p}: q = {q:.4f}, ||Xf||_q - ||f||_p = {m.margin:8.4f}, certified = {m.certified}")

print("\n== restricted directions ==")
p = 0.5
great = restricted_xray_constant(DirectionSet.great_circle(128), p, 100_000, seed=2)
full = restricted_xray_constant(DirectionSet.fibonacci_sphere(256), p, 100_000, seed=2)
print(f"great-circle support: C(mu) = {great.value:.6f} (degenerate, vanishes)")
print(f"full sphere         : C(mu) = {full.value:.6f} +- {full.stderr:.6f}")

print("\n== Gamma-product constant vs its Monte Carlo oracle ==")
for d in (2, 3):
    exact = xx_gamma_constant(d, 2.0, 0.5)
    mc = xx_constant_via_mc(d, 2.0, 0.5, 500_000, seed=3)
    print(f"d = {d}: closed form {exact:.6f}, Monte Carlo {mc.value:.6f} +- {mc.stderr:.6f}")

print("\n== normalized tomogram entropies never decrease ==")
g = GridFunction.from_callable(
    lambda x, y: np.exp(-math.pi * (x**2 + y**2)) + 0.4 * np.exp(-4 * math.pi * (x**2 + y**2)),
    ((-5.0, 5.0), (-5.0, 5.0)),
    (256, 256),
)
seq = kplane_entropy_sequence(g, dirs=DirectionSet.uniform_circle(180))
print(f"H(T_k f)/(d-k) for k = 0, 1: {[round(s, 5) for s in seq]}")

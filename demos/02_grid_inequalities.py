"""Direct verification of the adjoint inequality on sampled functions.

Random grid functions never violate the forward inequality, product
indicators achieve equality, and with one positive weight the reverse
inequality transfers control between marginals.
"""

import math

import numpy as np

from blq import (
    GridFunction,
    adjoint_margin,
    bl_gaussian_constant,
    derive_adjoint_exponents,
    gaussian_grid,
)
from blq.catalog import loomis_whitney
from blq.grid import random_grid_function, rank_one_distance

lw = loomis_whitney(2)
bl = bl_gaussian_constant(lw).value
params = derive_adjoint_exponents(lw.exponents, (0.5, 0.5), 0.5)
box = ((-8.0, 8.0), (-8.0, 8.0))

print("== forward margins (rhs - lhs >= 0) ==")
f = gaussian_grid(np.eye(2), box, (256, 256))
m = adjoint_margin(f, lw, params, bl)
print(f"standard gaussian : lhs/rhs = {m.lhs/m.rhs:.6f} (the prefactor), margin = {m.margin:.4f}")

f = GridFunction.indicator_box(((0.0, 1.0), (0.0, 2.0)), box, (256, 256))
m = adjoint_margin(f, lw, params, bl)
print(f"product indicator : margin = {m.margin:.2e} (equality case), estimate = {m.quadrature_estimate:.2e}")

for seed in (1, 2, 3):
    f = random_grid_function(box, (64, 64), seed=seed)
    m = adjoint_margin(f, lw, params, bl)
    print(
        f"random seed {seed}     : rank-1 distance {rank_one_distance(f):.3f},"
        f" relative margin = {m.relative_margin:.4f}, certified = {m.certified}"
    )

print("\n== reverse mode: one marginal controlled by the others ==")
lw3 = loomis_whitney(3)
rev = derive_adjoint_exponents(lw3.exponents, (-1.0, -1.0, 3.0), math.inf)
print(f"reverse exponents p_i = {tuple(round(q, 4) for q in rev.p_i)}")
for seed in (4, 5):
    f = random_grid_function(((0.0, 1.0),) * 3, (24, 24, 24), seed=seed)
    f = GridFunction(f.box, f.resolution, f.values / f.values.max())
    m = adjoint_margin(f, lw3, rev, 1.0)
    print(f"random seed {seed}     : margin = {m.margin:.4f}, certified = {m.certified}")

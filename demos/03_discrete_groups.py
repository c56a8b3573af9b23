"""The discrete theory on finite abelian groups.

Enumerates subgroups exhaustively, computes both suprema, and confirms that
the adjoint constant is exactly a power of the subgroup constant on every
instance, with random functions respecting the inequality to rounding.
"""

import math
from fractions import Fraction

import numpy as np

from blq import FiniteAbelianGroup, GroupHom, abls_constant, bls_constant, enumerate_subgroups
from blq.catalog import discrete_instances
from blq.data import derive_adjoint_exponents
from blq.discrete import discrete_adjoint_margin

print("== subgroup counts ==")
for factors in ((2, 2), (4, 4), (2, 2, 2), (8, 64)):
    subs = enumerate_subgroups(FiniteAbelianGroup(factors))
    print(f"Z{factors}: {len(subs)} subgroups")

print("\n== the discrete constants agree: ABLs = BLs^(1/p - 1) ==")
for name, maps, c in discrete_instances(max_order=144):
    blv, _ = bls_constant(maps, [float(x) for x in c])
    p = Fraction(1, 2)
    ablv, argmax = abls_constant(maps, [float(x) for x in c], p)
    print(
        f"{name:20s} BLs = {blv:8.4f}  ABLs = {ablv:8.4f}"
        f"  |ABLs - BLs^(1/p-1)| = {abs(ablv - blv**float(1/p-1)):.1e}"
        f"  argmax |H| = {argmax.order}"
    )

print("\n== random functions never beat the inequality ==")
g = FiniteAbelianGroup((8, 8))
z8 = FiniteAbelianGroup((8,))
maps = (GroupHom(((1, 0),), g, z8), GroupHom(((0, 1),), g, z8))
blv, _ = bls_constant(maps, (1.0, 1.0))
params = derive_adjoint_exponents((1.0, 1.0), (0.5, 0.5), 0.5)
rng = np.random.default_rng(0)
worst = math.inf
for _ in range(1000):
    f = rng.uniform(size=g.order)
    f /= f.sum()
    worst = min(worst, discrete_adjoint_margin(f, maps, params, blv).margin)
print(f"worst margin over 1000 random f on Z8 x Z8: {worst:.2e}")

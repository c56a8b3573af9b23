"""Gaussian Brascamp-Lieb constants and the adjoint identity.

Builds a few classical data, screens feasibility, computes the constants by
fixed-point iteration, and checks the log-det duality identity that links
the tuple-side and quotient-side optimizations.
"""

import math

from blq import (
    abl_gaussian_constant,
    adjoint_gaussian_prefactor,
    bl_gaussian_constant,
    derive_adjoint_exponents,
    identity_ai_residual,
    validate_datum,
)
from blq.catalog import loomis_whitney, named_datum, young

print("== feasibility screening ==")
for name in ("loomis_whitney_2", "young", "finner_cyclic4"):
    datum = named_datum(name)
    report = validate_datum(datum)
    print(f"{name:18s} scaling_ok={report.scaling_ok} verdict={report.verdict}")

print("\n== gaussian constants ==")
for name in ("loomis_whitney_2", "loomis_whitney_3", "holder_identity_2", "young"):
    res = bl_gaussian_constant(named_datum(name))
    print(f"{name:18s} BLg = {res.value:.10f}  ({res.iterations} iterations)")
print(f"closed form for the convolution triple: sqrt(3)/2 = {math.sqrt(3)/2:.10f}")

print("\n== duality identity, optimized independently on both sides ==")
for name in ("young", "finner_mixed"):
    res = identity_ai_residual(named_datum(name))
    print(
        f"{name:14s} |log L - log R| = {res.residual:.2e}"
        f"  (L = {math.exp(res.left_log):.8f}, R = {math.exp(res.right_log):.8f})"
    )

print("\n== adjoint constants ==")
lw = loomis_whitney(2)
params = derive_adjoint_exponents(lw.exponents, (0.5, 0.5), 0.5)
pref = adjoint_gaussian_prefactor(params, lw)
res = abl_gaussian_constant(lw, params)
print(f"coupled exponents p_i = {params.p_i}")
print(f"prefactor = {pref:.9f}")
print(f"ABLg = {res.value:.9f}  cross-check (prefactor * BLg^(1/p-1)) = {res.cross_check:.9f}")

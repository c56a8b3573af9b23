"""The gaussian maximizer is beatable whenever the weights differ from the
exponents: a cone-supported trimming of the standard gaussian increases the
adjoint quotient at first order.
"""

from blq import derive_adjoint_exponents, perturbation_gap
from blq.catalog import loomis_whitney
from blq.grid import GridSpec

lw = loomis_whitney(2)
params = derive_adjoint_exponents(lw.exponents, (0.9, 0.1), 0.5)
print(f"weights theta = {params.theta}, p = {params.p}, coupled p_i = {params.p_i}")

for n in (256, 512, 1024):
    res = perturbation_gap(lw, params, grid=GridSpec(box=((-8, 8), (-8, 8)), resolution=(n, n)))
    print(
        f"resolution {n:4d}: coefficient = {res.coefficient:.8f}"
        f" (cone index {res.j_index}, radius {res.radius:.3f},"
        f" self-estimate {res.quadrature_estimate:.1e})"
    )

res = perturbation_gap(lw, params, grid=GridSpec(box=((-8, 8), (-8, 8)), resolution=(512, 512)))
print(
    f"\ndirect check: the functional itself moves by {res.direct_ratio_delta:.3e}"
    f" at f + 1e-3 h, vs 1e-3 * coefficient = {1e-3 * res.coefficient:.3e}"
)
print("positive coefficient: non-gaussian inputs beat every gaussian input.")

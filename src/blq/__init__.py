"""Brascamp-Lieb and adjoint Brascamp-Lieb constants at desk scale.

Modules by concern:

* :mod:`blq.data`       datum/exponent algebra and feasibility screening
* :mod:`blq.gaussian`   constants by log-det optimization over SPD matrices
* :mod:`blq.grid`       discretized functions, pushforwards, margins
* :mod:`blq.discrete`   finite abelian groups and subgroup suprema
* :mod:`blq.tomography` line/plane transforms and reverse L^p bounds
* :mod:`blq.entropy`    Shannon/Renyi entropy inequalities
* :mod:`blq.gowers`     uniformity norms and their log-convexity
* :mod:`blq.catalog`    named data and seeded feasible instances
* :mod:`blq.cli`        the ``blq`` scenario runner
"""

__version__ = "0.1.0"

from .data import (
    AdjointParams,
    BLDatum,
    FeasibilityReport,
    adjoint_gaussian_prefactor,
    derive_adjoint_exponents,
    validate_datum,
)
from .gaussian import (
    GaussianOptResult,
    SpdMatrix,
    abl_gaussian_constant,
    bl_gaussian_constant,
    gaussian_pushforward,
    identity_ai_residual,
    perturbation_gap,
    quotient_supremum,
)
from .grid import (
    GridFunction,
    GridSpec,
    InequalityMargin,
    adjoint_margin,
    gaussian_grid,
    grid_pushforward,
    lp_norm,
)
from .discrete import (
    FiniteAbelianGroup,
    GroupHom,
    abls_constant,
    bls_constant,
    discrete_adjoint_margin,
    discrete_adjoint_margins,
    discrete_pushforward,
    enumerate_subgroups,
)
from .tomography import (
    DirectionSet,
    kplane_entropy_sequence,
    kplane_transform,
    restricted_xray_constant,
    tomography_lower_bound_margin,
    xray_transform,
    xx_gamma_constant,
)
from .entropy import (
    entropic_bl_margin,
    p_entropy_probe,
    renyi_entropy,
    shannon_entropy,
)
from .gowers import GowersProfile, gowers_logconvexity_margin, gowers_norm, gowers_profile

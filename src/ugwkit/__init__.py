"""Comparing metric measure spaces with arbitrary total mass.

Two solver families share one set of primitives:

* an entropic alternate-minimization solver for the quadratic matching
  problem with soft marginal penalties (`solve_ugw`, `debiased_ugw`), and
* a radial-grid LP solver for the conic formulation (`solve_cgw`), whose
  lifts upper-bound the quadratic cost.

Support modules provide the divergences and mass scalings (`measures`,
`scaling`), cone distances (`conic`), dataset generators (`geometry`),
an eccentricity warm start (`flb`), a dense simplex (`lp`), and the
experiment drivers behind the `ugwkit` executable (`app`, `cli`).
"""

__version__ = "0.1.0"

from .conic import (
    CgwResult,
    ConeMetricSpec,
    ConicPlan,
    cone_cost,
    conic_energy,
    conic_lift,
    conic_local_cost,
    dilate,
    perspective_H,
    solve_cgw,
    up_residual,
)
from .flb import eccentricity, solve_flb
from .geometry import (
    SHAPE_KINDS,
    PointCloud,
    WeightedGraph,
    gen_shape,
    graph_geodesics,
    pairwise_euclidean,
    space_from_graph,
    space_from_points,
)
from .lp import LpProblem, LpSolution, solve_lp
from .measures import (
    BALANCED,
    KL,
    TV,
    EntropySpec,
    MmSpace,
    TransportPlan,
    csiszar_div,
    kl_div,
    quad_kl,
    tensor_kl,
)
from .scaling import (
    ScalingReport,
    lambert_w,
    optimal_scale_linear,
    optimal_scale_quadratic,
    scaling_bias_report,
)
from .sinkhorn import Potentials, SinkhornResult, uot_sinkhorn
from .ugw import (
    DebiasedResult,
    UgwConfig,
    UgwSolution,
    biconvex_functional,
    debiased_ugw,
    distortion_cost,
    local_cost,
    solve_ugw,
    tightness_diagnostics,
    ugw_functional,
)
from .app import pu_predict

__all__ = [
    "__version__",
    "BALANCED",
    "KL",
    "TV",
    "EntropySpec",
    "MmSpace",
    "TransportPlan",
    "csiszar_div",
    "kl_div",
    "quad_kl",
    "tensor_kl",
    "PointCloud",
    "WeightedGraph",
    "SHAPE_KINDS",
    "gen_shape",
    "graph_geodesics",
    "pairwise_euclidean",
    "space_from_graph",
    "space_from_points",
    "Potentials",
    "SinkhornResult",
    "uot_sinkhorn",
    "UgwConfig",
    "UgwSolution",
    "DebiasedResult",
    "solve_ugw",
    "debiased_ugw",
    "distortion_cost",
    "local_cost",
    "ugw_functional",
    "biconvex_functional",
    "tightness_diagnostics",
    "ScalingReport",
    "lambert_w",
    "optimal_scale_quadratic",
    "optimal_scale_linear",
    "scaling_bias_report",
    "ConeMetricSpec",
    "ConicPlan",
    "CgwResult",
    "perspective_H",
    "cone_cost",
    "dilate",
    "conic_lift",
    "conic_energy",
    "conic_local_cost",
    "up_residual",
    "solve_cgw",
    "eccentricity",
    "solve_flb",
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "pu_predict",
]

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

The public names are those of each library module's ``__all__``, republished
here, plus ``pu_predict`` from the drivers.
"""

__version__ = "0.1.0"

from . import conic, flb, geometry, lp, measures, scaling, sinkhorn, ugw
from .conic import *  # noqa: F401,F403
from .flb import *  # noqa: F401,F403
from .geometry import *  # noqa: F401,F403
from .lp import *  # noqa: F401,F403
from .measures import *  # noqa: F401,F403
from .scaling import *  # noqa: F401,F403
from .sinkhorn import *  # noqa: F401,F403
from .ugw import *  # noqa: F401,F403
from .app import pu_predict

__all__ = ["__version__", "pu_predict"] + [
    name for module in (conic, flb, geometry, lp, measures, scaling, sinkhorn, ugw)
    for name in module.__all__
]

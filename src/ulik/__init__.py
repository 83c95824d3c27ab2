"""ulik: uplink inter-cell interference lognormal approximation kit.

Analytic approximation of the uplink interference distribution of an FDMA
small cell network, a Berry-Esseen certificate for the per-interferer
Gaussian step, and a Monte Carlo simulator to validate both.
"""

from .channel import ChannelParams, PowerControl, combined_shadow_stats
from .distribution import EmpiricalDistribution, LognormalDist, ks_distance
from .gaussian_approx import (
    GaussianApprox,
    RegionMoments,
    TauCertificate,
    interferer_gaussian,
    lognormal_exp_gaussian,
    region_moments,
    tau,
)
from .geometry import (
    Difference,
    Disk,
    Ellipse,
    HalfPlane,
    Intersection,
    Point,
    Polygon,
    Region,
    Union,
)
from .lognormal_sum import GaussHermiteRule, LognormalFit, fit_sum, gh_rule, lognormal_mgf
from .pipeline import Analysis, CellAnalysis, analyze
from .scenario_io import (
    Cell,
    HotspotDropSpec,
    NetworkScenario,
    gen_hex_grid,
    gen_hotspot,
    gen_single_interferer,
    load_scenario,
    save_scenario,
)
from .simulator import SimConfig, SimResult, simulate, simulate_shadow_fading_product

__version__ = "0.1.0"

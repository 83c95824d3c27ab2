"""ulik: uplink inter-cell interference lognormal approximation kit.

Analytic approximation of the uplink interference distribution of an FDMA
small cell network, a Berry-Esseen certificate for the per-interferer
Gaussian step, and a Monte Carlo simulator to validate both.

The names below load from their modules on first use (PEP 562), so importing
one module of the package does not import them all.
"""

import importlib

_EXPORTS = {
    "channel": ("ChannelParams", "PowerControl", "combined_shadow_stats"),
    "distribution": ("EmpiricalDistribution", "LognormalDist", "ks_distance"),
    "gaussian_approx": ("GaussianApprox", "RegionMoments", "TauCertificate",
                        "interferer_gaussian", "lognormal_exp_gaussian", "region_moments", "tau"),
    "geometry": ("Difference", "Disk", "Ellipse", "HalfPlane", "Intersection", "Point",
                 "Polygon", "Region", "Union"),
    "lognormal_sum": ("GaussHermiteRule", "LognormalFit", "fit_sum", "gh_rule", "lognormal_mgf"),
    "pipeline": ("Analysis", "CellAnalysis", "analyze"),
    "scenario_io": ("Cell", "HotspotDropSpec", "NetworkScenario", "gen_hex_grid", "gen_hotspot",
                    "gen_single_interferer", "load_scenario", "save_scenario"),
    "simulator": ("SimConfig", "SimResult", "simulate", "simulate_shadow_fading_product"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value

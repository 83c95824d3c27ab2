"""Gaussian building blocks of the interference approximation: region moments
of the pathloss-difference variable, the lognormal-times-exponential Gaussian
surrogate, the Berry-Esseen certificate tau and the per-interferer Gaussian.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import erf, ndtri

from . import geometry
from .errors import DegenerateGeometryError, ValidationError, ZeroVarianceError

BERRY_ESSEEN_C0 = 0.56
# Gaussian surrogate for S + 10*log10(H), H ~ exp(1): shift the mean and
# widen the variance by fixed dB offsets.
MEAN_OFFSET_DB = -2.5
STD_OFFSET_DB = 5.57
# The surrogate is only rated accurate above this combined shadowing variance.
SURROGATE_MIN_VARIANCE = 36.0

DEFAULT_TAU_THRESHOLD = 0.01

# Region-moment quadrature: the first rule, and how often both of its node
# counts may double to meet the accuracy a sample count asks for.
THETA_PANELS = 64
RADIAL_NODES = 8
MAX_REFINEMENTS = 4


class SurrogateAccuracyWarning(UserWarning):
    """Combined shadowing variance too small for the rated surrogate accuracy."""


@dataclass(frozen=True)
class GaussianApprox:
    """(mean dB, variance dB^2) of a dB-domain Gaussian approximation, with
    its CDF over dBm values (the dB-domain view of a lognormal)."""

    mean: float
    variance: float

    def __post_init__(self):
        if self.variance < 0:
            raise ValidationError(f"variance must be nonnegative, got {self.variance}")

    def cdf(self, x):
        """Gaussian CDF; at variance 0 the right-continuous step at the mean."""
        x = np.asarray(x, dtype=float)
        if self.variance > 0:
            out = 0.5 + 0.5 * erf((x - self.mean) / math.sqrt(2.0 * self.variance))
        else:
            out = (x >= self.mean).astype(float)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        return self.mean + math.sqrt(self.variance) * float(ndtri(p))


@dataclass(frozen=True)
class RegionMoments:
    mu_l: float
    var_l: float
    abs3_l: float
    std_errors: tuple[float, float, float]
    sample_count: int

    def __post_init__(self):
        if self.var_l < 0 or self.abs3_l < 0:
            raise ValidationError("moments must be nonnegative")
        # Lyapunov: E|X|^3 >= (E X^2)^(3/2); holds for the moments of any
        # positive weights, so for sample and quadrature moments alike.
        if self.abs3_l < self.var_l**1.5 * (1 - 1e-9):
            raise ValidationError(
                f"third absolute moment {self.abs3_l} violates the Lyapunov "
                f"bound {self.var_l ** 1.5}"
            )


@dataclass(frozen=True)
class TauCertificate:
    tau: float
    threshold: float
    passes: bool


def lognormal_exp_gaussian(s_stats: GaussianApprox) -> GaussianApprox:
    """Gaussian surrogate for S + 10*log10(H) with S ~ N(s_stats), H ~ exp(1)."""
    if not math.isfinite(s_stats.mean):
        raise ValidationError("combined shadowing mean must be finite")
    if s_stats.variance <= SURROGATE_MIN_VARIANCE:
        warnings.warn(
            f"surrogate rated accurate only for variance > {SURROGATE_MIN_VARIANCE} "
            f"dB^2, got {s_stats.variance}",
            SurrogateAccuracyWarning,
            stacklevel=2,
        )
    return GaussianApprox(
        mean=s_stats.mean + MEAN_OFFSET_DB,
        variance=s_stats.variance + STD_OFFSET_DB**2,
    )


def pathloss_difference(xs, ys, own_bs, victim_bs, params, pc):
    """The path-loss difference L = (eta-1)*A + alpha*log10(d_own^eta / d_victim)
    in dB, the one kernel behind both the region moments and the simulator's
    channel.interference_db."""
    d_own = np.hypot(xs - own_bs.x, ys - own_bs.y)
    d_vic = np.hypot(xs - victim_bs.x, ys - victim_bs.y)
    if np.any(d_own <= 0) or np.any(d_vic <= 0):
        raise DegenerateGeometryError("sampled UE position coincides with a BS")
    return (pc.eta - 1.0) * params.a_db + params.alpha * (
        pc.eta * np.log10(d_own) - np.log10(d_vic)
    )


def _moments_on(region, own_bs, victim_bs, params, pc, panels, radial):
    """(mu, var, abs3) of L on one quadrature rule, the spread (standard
    deviation) of L, (L-mu)^2 and |L-mu|^3 under it, and its node count."""
    xs, ys, ws = geometry.quadrature_nodes(region, own_bs, panels, radial)
    p = ws / ws.sum()
    lvals = pathloss_difference(xs, ys, own_bs, victim_bs, params, pc)
    mu = float(p @ lvals)
    c = lvals - mu
    c2 = c * c
    a3 = c2 * np.abs(c)
    moments = np.array([mu, p @ c2, p @ a3])
    spread = np.sqrt([moments[1], p @ (c2 - moments[1]) ** 2, p @ (a3 - moments[2]) ** 2])
    return moments, spread, len(ws)


def region_moments(
    region: geometry.Region,
    own_bs: geometry.Point,
    victim_bs: geometry.Point,
    params,
    pc,
    n: int,
) -> RegionMoments:
    """Mean / variance / third absolute central moment of the pathloss-
    difference variable over a uniform UE position in the region, by
    ray-cast quadrature in polar coordinates around the own BS.

    The rule of THETA_PANELS angle panels and RADIAL_NODES nodes per segment
    is compared with the rule of twice as many of each; the finer result is
    reported, and the difference is each moment's error estimate.  ``n``
    sets the accuracy: both counts keep doubling, at most MAX_REFINEMENTS
    times, until every error estimate is below the standard error that n
    uniform points would give.
    """
    if n < 1:
        raise ValidationError(f"sample count must be positive, got {n}")
    panels, radial = THETA_PANELS, RADIAL_NODES
    coarse, _, _ = _moments_on(region, own_bs, victim_bs, params, pc, panels, radial)
    for _ in range(MAX_REFINEMENTS):
        panels, radial = 2 * panels, 2 * radial
        fine, spread, count = _moments_on(region, own_bs, victim_bs, params, pc, panels, radial)
        errs = np.abs(fine - coarse)
        if np.all(errs <= spread / math.sqrt(n)):
            break
        coarse = fine
    mu, var, abs3 = map(float, fine)
    return RegionMoments(mu_l=mu, var_l=var, abs3_l=abs3,
                         std_errors=tuple(map(float, errs)), sample_count=count)


def tau(
    moments: RegionMoments,
    g: GaussianApprox,
    threshold: float = DEFAULT_TAU_THRESHOLD,
) -> TauCertificate:
    """Berry-Esseen certificate bounding the CDF gap of the Gaussian
    approximation of the per-interferer dB interference."""
    denom_var = moments.var_l + g.variance
    if denom_var <= 0:
        raise ZeroVarianceError("tau undefined: total variance is zero")
    t = BERRY_ESSEEN_C0 * moments.abs3_l / denom_var**1.5
    return TauCertificate(tau=t, threshold=threshold, passes=t <= threshold)


def interferer_gaussian(
    p0_dbm: float, moments: RegionMoments, g: GaussianApprox
) -> GaussianApprox:
    """Gaussian approximation of one interferer's received power in dBm."""
    return GaussianApprox(
        mean=p0_dbm + moments.mu_l + g.mean,
        variance=moments.var_l + g.variance,
    )

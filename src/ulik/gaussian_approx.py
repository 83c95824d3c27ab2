"""Gaussian building blocks of the interference approximation: region moments
of the pathloss-difference variable, the lognormal-times-exponential Gaussian
surrogate, the Berry-Esseen certificate tau and the per-interferer Gaussian.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

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

# The standard library's erf, one point at a time over an array.
_erf = np.frompyfunc(math.erf, 1, 1)


class SurrogateAccuracyWarning(UserWarning):
    """Combined shadowing variance too small for the rated surrogate accuracy."""


@dataclass(frozen=True)
class GaussianApprox:
    """(mean dB, variance dB^2) of a dB-domain Gaussian approximation, with
    its CDF over dBm values (the dB-domain view of a lognormal)."""

    mean: float
    variance: float

    def __post_init__(self):
        if not (math.isfinite(self.mean) and 0 <= self.variance < math.inf):
            raise ValidationError(f"need a finite mean and a finite nonnegative variance, "
                                  f"got ({self.mean}, {self.variance})")

    def cdf(self, x):
        """Gaussian CDF; at variance 0 the right-continuous step at the mean.

        Each point's value depends on that point alone, so cdf(x)[i] equals
        cdf(x[i]) bit for bit, which ks_distance relies on."""
        x = np.asarray(x, dtype=float)
        if self.variance > 0:
            z = (x - self.mean) / math.sqrt(2.0 * self.variance)
            out = 0.5 + 0.5 * np.asarray(_erf(z), dtype=float)
        else:
            out = (x >= self.mean).astype(float)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        """The p-quantile; p = 0 and p = 1 give -inf and +inf."""
        if not 0.0 <= p <= 1.0:  # NaN fails too
            raise ValidationError(f"quantile level must lie in [0, 1], got {p}")
        if p in (0.0, 1.0):
            z = math.copysign(math.inf, p - 0.5)
        else:
            # Imported here, so that `import ulik.cli` stays lean for `gen`.
            from statistics import NormalDist

            z = NormalDist().inv_cdf(p)
        return self.mean + math.sqrt(self.variance) * z


@dataclass(frozen=True)
class RegionMoments:
    mu_l: float
    var_l: float
    abs3_l: float
    std_errors: tuple[float, float, float]
    sample_count: int

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu_l, self.var_l, self.abs3_l))):
            raise ValidationError(
                f"moments must be finite, got ({self.mu_l}, {self.var_l}, {self.abs3_l})")
        if self.var_l < 0 or self.abs3_l < 0:
            raise ValidationError("moments must be nonnegative")
        # Lyapunov: E|X|^3 >= (E X^2)^(3/2); holds for the moments of any
        # positive weights, so for sample and quadrature moments alike.
        bound = self.var_l * math.sqrt(self.var_l)  # no OverflowError, unlike **1.5
        if self.abs3_l < bound * (1 - 1e-9):
            raise ValidationError(
                f"third absolute moment {self.abs3_l} violates the Lyapunov bound {bound}"
            )


@dataclass(frozen=True)
class TauCertificate:
    tau: float
    passes: bool


def lognormal_exp_gaussian(s_stats: GaussianApprox) -> GaussianApprox:
    """Gaussian surrogate for S + 10*log10(H) with S ~ N(s_stats), H ~ exp(1)."""
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
    channel.interference_db.  It is formed from squared distances,
    alpha*log10(d) = (alpha/2)*log10(d^2), which needs no square root."""
    # In place on the two squared-distance arrays, in the operation order of
    # (eta-1)*A + (alpha/2)*(eta*log10(d2_own) - log10(d2_vic)), so the bits
    # are those of that expression.  (np.asarray: scalar coordinates give 0-d
    # arrays, which can be written in place.)
    d2_own, dy = np.asarray(xs - own_bs.x), np.asarray(ys - own_bs.y)
    d2_own *= d2_own
    dy *= dy
    d2_own += dy
    d2_vic = np.asarray(xs - victim_bs.x)
    d2_vic *= d2_vic
    np.subtract(ys, victim_bs.y, out=dy)
    dy *= dy
    d2_vic += dy
    if np.any(d2_own <= 0) or np.any(d2_vic <= 0):
        raise ValidationError("sampled UE position coincides with a BS")
    out = np.log10(d2_own, out=d2_own)
    out *= pc.eta
    out -= np.log10(d2_vic, out=d2_vic)
    out *= 0.5 * params.alpha
    out += (pc.eta - 1.0) * params.a_db
    return out


def _moments_on(region, own_bs, victim_bs, params, pc, panels, radial):
    """(mu, var, abs3) of L on one quadrature rule, the spread (standard
    deviation) of L, (L-mu)^2 and |L-mu|^3 under it, and its node count."""
    from . import geometry  # loaded here, not by the Gaussian types every subcommand uses

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
    region: "geometry.Region",
    own_bs: "geometry.Point",
    victim_bs: "geometry.Point",
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
    if not 0 < threshold < math.inf:
        raise ValidationError(f"tau threshold must be positive and finite, got {threshold}")
    denom_var = moments.var_l + g.variance
    if denom_var <= 0:
        raise ValidationError("tau undefined: total variance is zero")
    with np.errstate(over="ignore"):  # **1.5's bits, but inf (tau = 0), not OverflowError
        t = float(BERRY_ESSEEN_C0 * moments.abs3_l / np.float64(denom_var) ** 1.5)
    return TauCertificate(tau=t, passes=t <= threshold)


def interferer_gaussian(
    p0_dbm: float, moments: RegionMoments, g: GaussianApprox
) -> GaussianApprox:
    """Gaussian approximation of one interferer's received power in dBm."""
    return GaussianApprox(
        mean=p0_dbm + moments.mu_l + g.mean,
        variance=moments.var_l + g.variance,
    )

"""Fitted-lognormal PDF/CDF evaluation and empirical-distribution utilities
(CDF, quantiles, Kolmogorov-Smirnov distance).

Every sample the program draws or reads is a dBm value; the lognormal over
linear power (mW) is only evaluated, never sampled.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian_approx import GaussianApprox
from .lognormal_sum import ZETA

# The dB-domain Gaussian is gaussian_approx.GaussianApprox; this is a second
# name for it.
GaussianDb = GaussianApprox


@dataclass(frozen=True)
class LognormalDist:
    """Lognormal over linear power (mW), parameterized in the dB domain."""

    mu_q: float
    var_q: float

    def __post_init__(self):
        if self.var_q <= 0:
            raise ValidationError(f"variance must be positive, got {self.var_q}")

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise ValidationError("lognormal density needs v > 0")
        out = (
            ZETA
            / (v * math.sqrt(2.0 * math.pi * self.var_q))
            * np.exp(-((ZETA * np.log(v) - self.mu_q) ** 2) / (2.0 * self.var_q))
        )
        return float(out) if out.ndim == 0 else out

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise ValidationError("lognormal CDF needs v > 0")
        return GaussianApprox(self.mu_q, self.var_q).cdf(ZETA * np.log(v))


@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: np.ndarray  # sorted, ascending, dBm

    def __post_init__(self):
        s = self.samples
        if s.ndim != 1 or len(s) < 1:
            raise ValidationError("need at least one sample")
        if np.any(np.diff(s) < 0):
            raise ValidationError("samples must be sorted ascending")

    @property
    def count(self) -> int:
        return len(self.samples)

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        return cls(samples=np.sort(np.asarray(values, dtype=float)))

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / self.count
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        return float(np.quantile(self.samples, p))


def ks_distance(a: EmpiricalDistribution, b) -> float:
    """sup |F_a - F_b| with both step sides of the empirical CDF checked.

    a's samples are dBm values; b is any object exposing ``cdf(values)`` over
    dBm, another EmpiricalDistribution included: F_a is constant between a's
    points, so F_b's values and left limits there give the exact sup.
    """
    n = a.count
    fb = np.asarray(b.cdf(a.samples), dtype=float)
    if isinstance(b, GaussianApprox) and b.variance > 0:
        fb_left = fb  # a continuous b: its left limits are its values
    else:
        # Left limits of b let CDFs with jumps (e.g. point masses) compare exactly.
        fb_left = np.asarray(b.cdf(np.nextafter(a.samples, -np.inf)), dtype=float)
    upper = np.arange(1, n + 1) / n - fb
    lower = fb_left - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))

"""Fitted-lognormal PDF/CDF evaluation and empirical-distribution utilities
(CDF, quantiles, Kolmogorov-Smirnov distance).

Samples and CDFs carry a domain tag ("dbm" or "mw") so that comparisons
across the two scales fail loudly instead of silently disagreeing.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatchError, NonpositiveValueError, ValidationError
from .gaussian_approx import GaussianApprox
from .lognormal_sum import ZETA

DBM = "dbm"
MW = "mw"


# The dB-domain Gaussian is gaussian_approx.GaussianApprox; this is a second
# name for it.
GaussianDb = GaussianApprox


@dataclass(frozen=True)
class LognormalDist:
    """Lognormal over linear power (mW), parameterized in the dB domain."""

    mu_q: float
    var_q: float
    domain: str = MW

    def __post_init__(self):
        if self.var_q <= 0:
            raise ValidationError(f"variance must be positive, got {self.var_q}")

    def pdf(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise NonpositiveValueError("lognormal density needs v > 0")
        out = (
            ZETA
            / (v * math.sqrt(2.0 * math.pi * self.var_q))
            * np.exp(-((ZETA * np.log(v) - self.mu_q) ** 2) / (2.0 * self.var_q))
        )
        return float(out) if out.ndim == 0 else out

    def cdf(self, v):
        v = np.asarray(v, dtype=float)
        if np.any(v <= 0):
            raise NonpositiveValueError("lognormal CDF needs v > 0")
        return GaussianApprox(self.mu_q, self.var_q).cdf(ZETA * np.log(v))


@dataclass(frozen=True)
class EmpiricalDistribution:
    samples: np.ndarray  # sorted, ascending
    domain: str
    count: int = field(init=False)

    def __post_init__(self):
        s = self.samples
        if s.ndim != 1 or len(s) < 1:
            raise ValidationError("need at least one sample")
        if np.any(np.diff(s) < 0):
            raise ValidationError("samples must be sorted ascending")
        if self.domain not in (DBM, MW):
            raise ValidationError(f"unknown sample domain {self.domain!r}")
        object.__setattr__(self, "count", len(s))

    @classmethod
    def from_samples(cls, values, domain: str) -> "EmpiricalDistribution":
        arr = np.sort(np.asarray(values, dtype=float))
        return cls(samples=arr, domain=domain)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / self.count
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        return float(np.quantile(self.samples, p))


def ks_distance(a: EmpiricalDistribution, b) -> float:
    """sup |F_a - F_b| with both step sides of the empirical CDF checked.

    b is either another EmpiricalDistribution or any object exposing
    ``cdf(values)`` and a ``domain`` tag.
    """
    if getattr(b, "domain", a.domain) != a.domain:
        raise DomainMismatchError(
            f"cannot compare {a.domain!r} samples against a {b.domain!r} CDF"
        )
    if isinstance(b, EmpiricalDistribution):
        pts = np.concatenate([a.samples, b.samples])
        pts.sort(kind="mergesort")
        fa = np.searchsorted(a.samples, pts, side="right") / a.count
        fb = np.searchsorted(b.samples, pts, side="right") / b.count
        return float(np.max(np.abs(fa - fb)))
    n = a.count
    fb = np.asarray(b.cdf(a.samples), dtype=float)
    # Left limits of b let CDFs with jumps (e.g. point masses) compare exactly.
    fb_left = np.asarray(b.cdf(np.nextafter(a.samples, -np.inf)), dtype=float)
    upper = np.arange(1, n + 1) / n - fb
    lower = fb_left - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))

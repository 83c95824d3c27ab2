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

# ks_distance splits each open index block into this many sub-blocks per
# pass.  The slack covers rounding in its block bounds and the ulp-level
# non-monotonicity of a computed CDF.
KS_SPLIT = 32
KS_SLACK = 1e-12


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
    samples: np.ndarray  # finite, sorted ascending, dBm

    def __post_init__(self):
        s = self.samples
        if s.ndim != 1 or len(s) < 1:
            raise ValidationError("need at least one sample")
        # One pass: ascending pairs between finite ends leave no room for NaN
        # (which fails every comparison) or an infinity.
        if not ((s[1:] >= s[:-1]).all() and math.isfinite(s[0]) and math.isfinite(s[-1])):
            if not np.isfinite(s).all():
                raise ValidationError("non-finite sample value")
            raise ValidationError("samples must be sorted ascending")

    @property
    def count(self) -> int:
        return len(self.samples)

    @classmethod
    def from_samples(cls, values) -> "EmpiricalDistribution":
        """The empirical distribution of ``values``, which it may take over.

        A writeable float64 ndarray that owns its data is sorted in place and
        kept, so the caller must not use it afterwards.  Any other input (a
        list, another dtype, a read-only array, a view such as a slice) is
        copied first and left unchanged.
        """
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64
                and values.flags.owndata and values.flags.writeable):
            values = np.array(values, dtype=float)
        values.sort()  # np.sort's quicksort, without its copy
        return cls(samples=values)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(self.samples, x, side="right") / self.count
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        """np.quantile's default ('linear') rule, read off the sorted samples."""
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"quantile level must lie in [0, 1], got {p}")
        # h = (n - 1)*p; at h = n - 1 numpy takes the last sample on both sides
        # with weight h + 1, and it forms the lerp from the nearer end.
        s, h = self.samples, (self.count - 1) * p
        lo = hi = -1
        t = h + 1
        if h < self.count - 1:
            lo = math.floor(h)
            hi, t = lo + 1, h - lo
        a, b = s[lo], s[hi]
        d = b - a
        return float(b - d * (1 - t) if t >= 0.5 else a + d * t)


def ks_distance(a: EmpiricalDistribution, b) -> float:
    """sup |F_a - F_b| with both step sides of the empirical CDF checked.

    a's samples are dBm values; b is any object exposing ``cdf(values)`` over
    dBm whose value at a point depends on that point alone, another
    EmpiricalDistribution included.  F_a is constant between a's sorted points
    x_i, so the sup is the largest of the terms (i+1)/n - F_b(x_i) and
    F_b(x_i-) - i/n.  Index blocks [p, q] whose F_b(x_p) and F_b(x_q) are
    known are refined: each pass evaluates F_b at KS_SPLIT - 1 interior points
    of every open block, in one call, and splits the block there.  By
    monotonicity no term inside [p, q] exceeds
    max(q/n - F_b(x_p), F_b(x_q) - (p+1)/n), so a block whose bound does not
    beat the running maximum is dropped, and the maximum only grows.  The
    result is the float the terms at all n points give.
    """
    x, n = a.samples, a.count
    # A continuous b's left limits are its values; b with jumps (point
    # masses, another sample) needs them at nextafter(x, -inf).
    continuous = isinstance(b, GaussianApprox) and b.variance > 0

    def terms(idx):
        """F_b at x[idx], and the largest exact term there."""
        xi = x[idx]
        if continuous:
            f = fl = np.asarray(b.cdf(xi), dtype=float)
        else:
            f, fl = np.split(np.asarray(b.cdf(np.concatenate(
                (xi, np.nextafter(xi, -np.inf)))), dtype=float), 2)
        return f, max(((idx + 1) / n - f).max(), (fl - idx / n).max())

    ends = np.array([0, n - 1])
    f_ends, d = terms(ends)
    d = max(d, 0.0)
    if n <= 2:
        return float(d)  # no interior point
    p, q, fp, fq = ends[:1], ends[1:], f_ends[:1], f_ends[1:]
    k = np.arange(KS_SPLIT + 1)
    while len(p):
        # A block of at most KS_SPLIT steps is finished off: every interior
        # point of it is evaluated.  A longer one is split at the distinct
        # points p = s_0 < s_1 < ... < s_KS_SPLIT = q.
        short = q - p <= KS_SPLIT
        gaps = q[short] - p[short] - 1
        rest = np.arange(gaps.sum()) + np.repeat(p[short] + 1 - (np.cumsum(gaps) - gaps), gaps)
        p, q, fp, fq = p[~short], q[~short], fp[~short], fq[~short]
        s = p[:, None] + (k * (q - p)[:, None]) // KS_SPLIT
        f, d_pass = terms(np.concatenate((s[:, 1:-1].ravel(), rest)))
        d = max(d, d_pass)
        fs = np.empty(s.shape)
        fs[:, 0], fs[:, -1] = fp, fq
        fs[:, 1:-1] = f[: len(p) * (KS_SPLIT - 1)].reshape(len(p), KS_SPLIT - 1)
        lo, hi, flo, fhi = s[:, :-1], s[:, 1:], fs[:, :-1], fs[:, 1:]
        bound = np.maximum(hi / n - flo, fhi - (lo + 1) / n)
        keep = (hi - lo > 1) & (bound + KS_SLACK > d)
        p, q, fp, fq = lo[keep], hi[keep], flo[keep], fhi[keep]
    return float(d)

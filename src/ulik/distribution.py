"""Fitted-lognormal PDF/CDF evaluation and empirical-distribution utilities
(CDF, quantiles, Kolmogorov-Smirnov distance).

Every sample the program draws or reads is a dBm value; the lognormal over
linear power (mW) is only evaluated, never sampled.

ks_distance against a Gaussian searches on GaussianApprox.cdf_approx, which
is within EPS = 2e-7 of the exact CDF, and widens its pruning bound by 2*EPS
to match, so that no term it drops can be the maximum.  The exact CDF
(math.erf) is then evaluated only at the few points whose approximate term
lies within 2*EPS of the largest one.  The distance is the same float as the
largest exact term over every sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian_approx import EPS, ZETA, GaussianApprox

# The dB-domain Gaussian is gaussian_approx.GaussianApprox; this is a second
# name for it.
GaussianDb = GaussianApprox

# ks_distance's first pass evaluates at most KS_FIRST + 1 points, each later
# one splits every open block into KS_SPLIT sub-blocks, and a pass over
# blocks of at most 4*KS_SPLIT steps evaluates every point.
KS_FIRST = 2048
KS_SPLIT = 16


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


def ks_distance(a: EmpiricalDistribution, b: GaussianApprox) -> float:
    """sup |F_a - F_b| for a Gaussian b of positive variance.

    a's samples are dBm values.  F_a is constant between a's sorted points
    x_i and F_b is continuous, so the sup is the largest term T_i, the larger
    of (i+1)/n - F_b(x_i) and F_b(x_i) - i/n.  The result is the float the
    terms at all n points give.

    Index blocks [p, q] are refined: the first pass evaluates the terms at
    most KS_FIRST steps apart, and each later pass splits every open block
    into KS_SPLIT sub-blocks, or into single steps.  A pass takes its terms
    on G = b.cdf_approx.  G's gap to F_b is at most 7.5e-8, and EPS exceeds
    that by far more than the rounding of a term or a bound and the
    ulp-level non-monotonicity of the computed F_b.  By monotonicity no T_i
    inside [p, q] exceeds max(q/n - F_b(x_p), F_b(x_q) - (p+1)/n), so none
    exceeds that bound B taken on G, plus EPS.  The largest term d found on
    G is at most the true maximum D plus EPS, so a block with B + 2*EPS <= d
    holds only terms below D and is dropped.  Every point outside the
    dropped blocks is evaluated, the maximiser among them, and its term on G
    is at least D - EPS >= d - 2*EPS.  So D is the largest exact term at the
    points whose term on G is within 2*EPS of the final d, and b.cdf is
    called only at those few candidates.  Where the terms are nearly level
    most points are candidates; once most points of a pass are, the later
    passes take their terms on F_b directly.
    """
    if not b.variance > 0:
        raise ValidationError(f"KS needs a Gaussian of positive variance, got {b.variance}")
    x, n = a.samples, a.count
    tol = 2 * EPS

    def terms(cdf, idx):
        """cdf at x[idx], and the terms there."""
        f = np.asarray(cdf(x[idx]), dtype=float)
        return f, np.maximum((idx + 1) / n - f, f - idx / n)

    # d is the largest term so far, top the largest exact one, and found
    # holds the candidates of the passes on cdf_approx.  T_{n-1} =
    # 1 - F_b(x_{n-1}) >= 0, so starting at 0 drops no maximiser.
    d = top = 0.0
    found, exact = [], False
    # Open blocks [lo, lo + width], cut at n - 1, and the stride at which a
    # pass evaluates them: powers of two after the first pass.
    lo, width = np.array([0]), n - 1
    step = 1 << ((n - 2) // KS_FIRST).bit_length() if width > KS_FIRST else 1
    while len(lo):
        s = np.minimum(lo[:, None] + np.arange(0, width + step, step), n - 1)
        f, t = (v.reshape(s.shape) for v in terms(b.cdf if exact else b.cdf_approx, s.ravel()))
        t_max = float(t.max())
        d = max(d, t_max)
        if exact:
            top = max(top, t_max)
        else:
            near = t + tol > d
            found.append((s[near], t[near]))
            exact = 2 * np.count_nonzero(near) > near.size
        if step == 1:
            break
        lo, hi = s[:, :-1], s[:, 1:]
        bound = np.maximum(hi / n - f[:, :-1], f[:, 1:] - (lo + 1) / n)
        lo = lo[(hi > lo) & (bound + tol > d)]
        width, step = step, 1 if step <= 4 * KS_SPLIT else step // KS_SPLIT
    # The first pass is on cdf_approx, so found is never empty.  A block's
    # ends are evaluated again by the pass that splits it, so an index may
    # come twice; the exact terms are the same either way.
    idx = np.concatenate([i[t + tol > d] for i, t in found])
    return float(terms(b.cdf, idx)[1].max(initial=top))

import math
import time
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import ndtri

from ulik.distribution import (
    KS_FIRST,
    EmpiricalDistribution,
    GaussianDb,
    LognormalDist,
    ks_distance,
)
from ulik import gaussian_approx
from ulik.errors import ValidationError
from ulik.gaussian_approx import GaussianApprox

ZETA = 10.0 / math.log(10.0)
DIST = LognormalDist(-77.21, 18.30)


def ks_full_pass(a, b):
    """The reference KS against a Gaussian b: every term (i+1)/n - F_b(x_i)
    and F_b(x_i) - i/n."""
    n = a.count
    fb = np.asarray(b.cdf(a.samples), dtype=float)
    upper = np.arange(1, n + 1) / n - fb
    lower = fb - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


def _level(n, g):
    """n samples at g's quantiles (i + 0.5)/n, where every term is 0.5/n."""
    return g.mean + math.sqrt(g.variance) * np.array(
        [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])


# Exact KS values as float.hex: a change to the search must not move any of
# them by a bit.  One sample; one step past a single first pass; a per-cell
# dump's size; level terms; the maximum far out in either tail of b.
_PINNED = {
    "n_1": (lambda: [-80.3], GaussianApprox(-80.0, 25.0), "0x1.0c3f87404bf17p-1"),
    "n_above_ks_first": (lambda: np.random.default_rng(5).normal(-80.0, 5.0, KS_FIRST + 2),
                         GaussianApprox(-79.5, 30.0), "0x1.a9899b3ddb3a0p-5"),
    "n_5e4": (lambda: np.random.default_rng(12).normal(-80.0, 6.0, 50_000),
              GaussianApprox(-79.5, 30.0), "0x1.7bc36a2200ac0p-5"),
    "level": (lambda: _level(10_000, GaussianApprox(-80.0, 30.0)),
              GaussianApprox(-80.0, 30.0), "0x1.a36e2eb1dc000p-15"),
    "far_upper_tail": (lambda: np.random.default_rng(8).normal(-80.0, 1.0, 1000),
                       GaussianApprox(-71.0, 1.0), "0x1.ffffffdd27e62p-1"),
    "far_lower_tail": (lambda: np.random.default_rng(9).normal(-80.0, 1.0, 1000),
                       GaussianApprox(-89.0, 1.0), "0x1.fffffff2060dep-1"),
}


class TestPdf:
    def test_value_at_db_median(self):
        v = 10 ** (DIST.mu_q / 10.0)
        expected = ZETA / (v * math.sqrt(2 * math.pi * DIST.var_q))
        assert DIST.pdf(v) == pytest.approx(expected, rel=1e-12)

    def test_normalization(self):
        # integrate in the dB domain where the density is well scaled
        ln10 = math.log(10.0)

        def pdf_db(x):
            v = 10 ** (x / 10.0)
            return DIST.pdf(v) * v * ln10 / 10.0

        total, _ = quad(pdf_db, DIST.mu_q - 80.0, DIST.mu_q + 80.0, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_mode_below_median(self):
        med = 10 ** (DIST.mu_q / 10.0)
        res = minimize_scalar(lambda v: -DIST.pdf(v), bracket=(med / 10, med, med * 10))
        assert res.x < med

    def test_nonpositive_value(self):
        with pytest.raises(ValidationError, match="lognormal density needs v > 0"):
            DIST.pdf(0.0)

    def test_nonnegative(self):
        v = np.logspace(-12, -4, 200)
        assert (DIST.pdf(v) >= 0).all()


class TestCdf:
    def test_median(self):
        assert DIST.cdf(10 ** (DIST.mu_q / 10.0)) == pytest.approx(0.5, abs=1e-12)

    def test_limits(self):
        assert DIST.cdf(1e-30) == pytest.approx(0.0, abs=1e-12)
        assert DIST.cdf(1e10) == pytest.approx(1.0, abs=1e-12)

    def test_consistent_with_pdf(self):
        v1, v2 = 10 ** ((DIST.mu_q - 5) / 10.0), 10 ** ((DIST.mu_q + 5) / 10.0)
        integral, _ = quad(DIST.pdf, v1, v2, limit=200)
        assert DIST.cdf(v2) - DIST.cdf(v1) == pytest.approx(integral, abs=1e-6)

    def test_monotone(self):
        v = np.logspace(-11, -5, 500)
        c = DIST.cdf(v)
        assert (np.diff(c) >= 0).all()

    def test_db_duality(self):
        # CDF of the mW lognormal at 10^(x/10) is the Gaussian CDF of x in dB
        g = GaussianApprox(DIST.mu_q, DIST.var_q)
        xs = np.linspace(DIST.mu_q - 15, DIST.mu_q + 15, 101)
        np.testing.assert_allclose(DIST.cdf(10 ** (xs / 10.0)), g.cdf(xs), atol=1e-12)

    def test_positive_variance_required(self):
        with pytest.raises(ValidationError):
            LognormalDist(-77.0, 0.0)


class TestGaussianDb:
    def test_erf_reference_values(self):
        g = GaussianDb(0.0, 1.0)
        # standard normal CDF at +/-{0.5, 1, 2, 3}, 10-digit references
        refs = {0.5: 0.6914624613, 1.0: 0.8413447461, 2.0: 0.9772498681, 3.0: 0.9986501020}
        for x, p in refs.items():
            assert g.cdf(x) == pytest.approx(p, abs=1e-10)
            assert g.cdf(-x) == pytest.approx(1 - p, abs=1e-10)

    def test_is_the_component_type(self):
        assert GaussianDb is GaussianApprox

    def test_zero_variance_is_a_right_continuous_step(self):
        g = GaussianDb(-80.0, 0.0)
        xs = [-80.5, np.nextafter(-80.0, -np.inf), -80.0, -79.0]
        np.testing.assert_array_equal(g.cdf(xs), [0.0, 0.0, 1.0, 1.0])
        assert g.cdf(-80.0) == 1.0

    def test_cdf_is_pointwise(self):
        # ks_distance evaluates b.cdf on subsets and relies on this.
        g = GaussianDb(-80.0, 30.0)
        x = np.random.default_rng(4).normal(-80.0, 8.0, 10_001)
        idx = np.random.default_rng(5).choice(len(x), 997)
        assert g.cdf(x)[idx].tobytes() == g.cdf(x[idx]).tobytes()
        assert all(g.cdf(x[i]) == g.cdf(x)[i] for i in idx[:50])

    def test_quantile_ends(self):
        g = GaussianDb(-77.0, 18.3)
        assert g.quantile(0.0) == -math.inf and g.quantile(1.0) == math.inf

    @pytest.mark.parametrize("p", [-1e-300, 1.0 + 2**-52, math.nan, -math.inf])
    def test_quantile_level_outside_unit_interval(self, p):
        with pytest.raises(ValidationError, match="quantile level"):
            GaussianDb(-77.0, 18.3).quantile(p)

    def test_quantile_roundtrip(self):
        g = GaussianDb(-77.0, 18.3)
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert g.cdf(g.quantile(p)) == pytest.approx(p, abs=1e-12)


class TestEmpirical:
    def test_sorted_required(self):
        with pytest.raises(ValidationError, match="^samples must be sorted ascending$"):
            EmpiricalDistribution(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("values", [[0.1, math.nan, -0.2], [0.1, math.inf, -0.2],
                                        [0.1, -math.inf, -0.2], [math.nan]],
                             ids=["nan", "+inf", "-inf", "nan_alone"])
    def test_non_finite_sample_rejected(self, values):
        with pytest.raises(ValidationError, match="^non-finite sample value$"):
            EmpiricalDistribution.from_samples(values)

    def test_from_samples_sorts(self):
        e = EmpiricalDistribution.from_samples([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(e.samples, [-1.0, 2.0, 3.0])
        assert e.count == 3

    def test_from_samples_takes_over_a_float_array(self):
        values = np.array([3.0, -1.0, 2.0])
        e = EmpiricalDistribution.from_samples(values)
        assert np.shares_memory(e.samples, values)
        np.testing.assert_array_equal(values, [-1.0, 2.0, 3.0])

    @pytest.mark.parametrize("make", [
        lambda: [3.0, -1.0, 2.0],
        lambda: np.array([3, -1, 2], dtype=np.int64),
        lambda: np.frombuffer(np.array([3.0, -1.0, 2.0]).tobytes()),
        lambda: np.array([3.0, 9.0, -1.0, 9.0, 2.0])[::2],
        lambda: np.array([9.0, 3.0, -1.0, 2.0])[1:],
    ], ids=["list", "int64", "read_only", "strided", "slice"])
    def test_from_samples_leaves_other_inputs_unchanged(self, make):
        values = make()
        before = np.array(values)
        e = EmpiricalDistribution.from_samples(values)
        np.testing.assert_array_equal(e.samples, [-1.0, 2.0, 3.0])
        np.testing.assert_array_equal(values, before)
        assert not np.shares_memory(e.samples, np.asarray(values))

    def test_quantiles(self):
        e = EmpiricalDistribution.from_samples(np.arange(101, dtype=float))
        assert e.quantile(0.5) == pytest.approx(50.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10**3, 2 * 10**4, 5 * 10**4, 131_073, 3 * 10**6])
    def test_quantile_is_numpys_linear_rule(self, n):
        r = np.random.default_rng(n)
        levels = np.linspace(0.0, 1.0, 1001)
        for values in (r.standard_normal(n) * 10.0 - 80.0, r.integers(-50, 50, n).astype(float)):
            e = EmpiricalDistribution.from_samples(values)
            got = np.array([e.quantile(float(p)) for p in levels])
            assert got.tobytes() == np.quantile(e.samples, levels).tobytes()

    @pytest.mark.parametrize("p", [-1e-300, 1.0 + 2**-52, math.nan])
    def test_quantile_level_outside_unit_interval(self, p):
        with pytest.raises(ValidationError, match="quantile level"):
            EmpiricalDistribution.from_samples([1.0, 2.0]).quantile(p)


class TestKsDistance:
    def test_dkw_bound(self):
        samples = np.random.default_rng(7).normal(size=1_000_000)
        e = EmpiricalDistribution.from_samples(samples)
        assert ks_distance(e, GaussianDb(0.0, 1.0)) <= 0.002

    def test_detects_mean_offset(self):
        samples = np.random.default_rng(1).normal(size=20_000)
        e = EmpiricalDistribution.from_samples(samples)
        assert ks_distance(e, GaussianDb(0.5, 1.0)) > 0.15

    def test_zero_variance_refused(self):
        e = EmpiricalDistribution.from_samples([1.0, 2.0])
        with pytest.raises(ValidationError, match="KS needs a Gaussian of positive variance"):
            ks_distance(e, GaussianApprox(1.5, 0.0))

    @pytest.mark.parametrize("case", list(_PINNED))
    def test_pinned_values(self, case):
        values, g, want = _PINNED[case]
        a = EmpiricalDistribution.from_samples(values())
        assert ks_distance(a, g).hex() == want
        assert ks_full_pass(a, g).hex() == want

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 100_000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_full_pass(self, n, ties):
        values = np.random.default_rng(n).normal(-80.0, 5.0, n)
        if ties:
            values = values.round(0)
        a = EmpiricalDistribution.from_samples(values)
        for b in (GaussianApprox(-80.0, 25.0), GaussianApprox(-79.5, 30.0)):
            assert ks_distance(a, b) == ks_full_pass(a, b)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 5_000), seed=st.integers(0, 2**32 - 1),
           tie_step=st.sampled_from([None, 0.01, 0.3, 2.0]),
           log10_var=st.floats(-6.0, 4.0), spread=st.floats(0.25, 4.0),
           shift=st.floats(-8.0, 8.0), at_quantiles=st.booleans())
    def test_gaussian_matches_full_pass(self, n, seed, tie_step, log10_var, spread, shift,
                                        at_quantiles):
        # The samples' mean sits `shift` of b's standard deviations off b's,
        # far enough for every sample to fall in one tail of b; rounding to a
        # step of `tie_step` of them makes ties.  Samples at b's quantiles
        # (i + 0.5)/n make every term 0.5/n, up to rounding and to the error
        # of b.cdf_approx.
        sd = math.sqrt(10.0**log10_var)
        if at_quantiles:
            values = -80.0 + sd * ndtri((np.arange(n) + 0.5) / n)
        else:
            values = np.random.default_rng(seed).normal(-80.0 + shift * sd, spread * sd, n)
        if tie_step is not None:
            values = np.round((values + 80.0) / (tie_step * sd)) * (tie_step * sd) - 80.0
        a = EmpiricalDistribution.from_samples(values)
        g = GaussianApprox(-80.0, sd * sd)
        assert ks_distance(a, g) == ks_full_pass(a, g)

    def test_float16_samples_match_full_pass(self):
        # EmpiricalDistribution keeps a float16 array as it is; cdf_approx
        # must still hold its EPS bound on it.
        g = GaussianApprox(-79.371, 30.0)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            values = rng.normal(g.mean + rng.uniform(-3.0, 3.0), 5.0, rng.integers(1, 5000))
            a = EmpiricalDistribution(np.sort(values.astype(np.float16)))
            assert ks_distance(a, g) == ks_full_pass(a, g)

    def test_tight_block_bound_keeps_its_margin(self):
        # At n = 2*KS_FIRST + 1 the first pass evaluates the even indices.  A
        # tie group ending at an odd index m makes the bound of the block
        # [m - 1, m + 1] equal to T_m, the maximum.  An even index j's term is
        # 5e-8 below T_m, but ahead of it on cdf_approx, whose error is near
        # +7e-8 at x_m and near -7e-8 at x_j.  Only the 2*EPS margins, in the
        # pruning and in the candidate filter, keep m.
        g = GaussianApprox(0.0, 0.5)  # z = x
        n = 2 * KS_FIRST + 1
        x = _level(n, g)
        z = np.linspace(0.0, 3.0, 300_001)
        v = float(z[(g.cdf_approx(z) - g.cdf(z)).argmax()])
        k = int(np.searchsorted(x, v))
        m = k + 40 | 1
        x[k:m + 1] = v
        t_m = (m + 1) / n - g.cdf(v)
        j = int(round(n * (g.cdf(-v) + t_m))) & ~1
        w = g.mean + math.sqrt(g.variance) * NormalDist().inv_cdf((j + 1) / n - t_m + 5e-8)
        x[np.searchsorted(x, w):j + 1] = w
        approx = g.cdf_approx(np.array([v, w]))
        assert (j + 1) / n - approx[1] > (m + 1) / n - approx[0]
        a = EmpiricalDistribution(x)
        assert ks_full_pass(a, g) == t_m
        assert ks_distance(a, g) == t_m

    def test_exact_cdf_only_at_a_few_points(self, monkeypatch):
        n = 50_000
        a = EmpiricalDistribution.from_samples(np.random.default_rng(12).normal(-80.0, 6.0, n))
        g = GaussianApprox(-79.5, 30.0)
        want = ks_full_pass(a, g)
        erf, points = gaussian_approx._erf, []
        monkeypatch.setattr(gaussian_approx, "_erf", lambda z: points.append(np.size(z)) or erf(z))
        assert ks_distance(a, g) == want
        assert 0 < sum(points) <= 64

    def test_every_block_open_stays_within_twice_the_full_pass(self):
        # At b's quantiles (i + 0.5)/n every term is 0.5/n, so no block can
        # be dropped and every point is evaluated.
        n = 100_000
        g = GaussianApprox(-80.0, 30.0)
        a = EmpiricalDistribution(_level(n, g))
        assert ks_distance(a, g) == ks_full_pass(a, g)

        def best_of(fn, reps=5):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn(a, g)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of(ks_distance) <= 2.0 * best_of(ks_full_pass)

    def test_evaluates_few_points(self, monkeypatch):
        # Points handed to cdf_approx and to the exact erf alike.
        n = 1_000_000
        a = EmpiricalDistribution.from_samples(np.random.default_rng(11).normal(size=n))
        g = GaussianApprox(0.1, 1.0)
        want = ks_full_pass(a, g)
        approx, erf, points = GaussianApprox.cdf_approx, gaussian_approx._erf, []
        monkeypatch.setattr(GaussianApprox, "cdf_approx",
                            lambda b, x: points.append(np.size(x)) or approx(b, x))
        monkeypatch.setattr(gaussian_approx, "_erf", lambda z: points.append(np.size(z)) or erf(z))
        assert ks_distance(a, g) == want
        assert sum(points) <= 0.05 * n

import math
import time
from statistics import NormalDist

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from ulik.distribution import (
    EmpiricalDistribution,
    GaussianDb,
    LognormalDist,
    ks_distance,
)
from ulik.errors import ValidationError
from ulik.gaussian_approx import GaussianApprox

ZETA = 10.0 / math.log(10.0)
DIST = LognormalDist(-77.21, 18.30)


def ks_full_pass(a, b):
    """The reference KS: every term (i+1)/n - F_b(x_i) and F_b(x_i-) - i/n."""
    n = a.count
    fb = np.asarray(b.cdf(a.samples), dtype=float)
    if isinstance(b, GaussianApprox) and b.variance > 0:
        fb_left = fb
    else:
        fb_left = np.asarray(b.cdf(np.nextafter(a.samples, -np.inf)), dtype=float)
    upper = np.arange(1, n + 1) / n - fb
    lower = fb_left - np.arange(0, n) / n
    return float(max(upper.max(), lower.max(), 0.0))


class CountingCdf:
    """A b of unknown type that counts the points its CDF is asked about."""

    def __init__(self, dist):
        self.dist, self.points = dist, 0

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        self.points += x.size
        return self.dist.cdf(x)


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
    def test_self_distance_zero(self):
        e = EmpiricalDistribution.from_samples(np.random.default_rng(0).normal(size=1000))
        assert ks_distance(e, e) == 0.0

    def test_two_samples_closed_form(self):
        # Shifting 100 distinct points by 30 of their spacings moves 30% of
        # the mass; with ties, the sup sits between a's last point and b's.
        a = EmpiricalDistribution.from_samples(np.arange(100.0))
        b = EmpiricalDistribution.from_samples(np.arange(100.0) + 30.0)
        assert ks_distance(a, b) == pytest.approx(0.3, abs=1e-15)
        assert ks_distance(b, a) == pytest.approx(0.3, abs=1e-15)
        c = EmpiricalDistribution.from_samples([1.0, 2.0, 2.0, 3.0])
        d = EmpiricalDistribution.from_samples([2.0, 4.0])
        assert ks_distance(c, d) == 0.5
        assert ks_distance(d, c) == 0.5

    def test_point_mass(self):
        e = EmpiricalDistribution.from_samples([2.0] * 50)

        class StepAtTwo:
            def cdf(self, x):
                return (np.asarray(x, dtype=float) >= 2.0).astype(float)

        assert ks_distance(e, StepAtTwo()) == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_skips_left_limits(self):
        # A continuous b's left limits are its values, so against a
        # GaussianApprox one cdf pass gives what the two-pass sum gives to a
        # wrapper that hides the type, up to the last bit of erf.
        class AnyCdf:
            def __init__(self, dist):
                self.cdf = dist.cdf

        rng = np.random.default_rng(3)
        for n, g in ((10, GaussianApprox(0.3, 2.0)), (200_000, GaussianApprox(-80.0, 30.0))):
            e = EmpiricalDistribution.from_samples(g.mean + 5.0 * rng.standard_normal(n))
            assert ks_distance(e, g) == pytest.approx(ks_distance(e, AnyCdf(g)), rel=0, abs=1e-15)

    def test_dkw_bound(self):
        samples = np.random.default_rng(7).normal(size=1_000_000)
        e = EmpiricalDistribution.from_samples(samples)
        assert ks_distance(e, GaussianDb(0.0, 1.0)) <= 0.002

    def test_detects_mean_offset(self):
        samples = np.random.default_rng(1).normal(size=20_000)
        e = EmpiricalDistribution.from_samples(samples)
        assert ks_distance(e, GaussianDb(0.5, 1.0)) > 0.15

    @pytest.mark.parametrize("n", [1, 2, 3, 33, 100_000])
    @pytest.mark.parametrize("ties", [False, True])
    def test_matches_full_pass(self, n, ties):
        rng = np.random.default_rng(n)
        values = rng.normal(-80.0, 5.0, n)
        if ties:
            values = values.round(0)
        # A point mass at the draw in the middle of the unsorted values,
        # taken before from_samples sorts them in place.
        at_draw = GaussianApprox(float(values[n // 2]), 0.0)
        a = EmpiricalDistribution.from_samples(values)
        other = EmpiricalDistribution.from_samples(rng.normal(-79.0, 5.0, 777).round(1))
        for b in (GaussianApprox(-80.0, 25.0), GaussianApprox(-79.5, 30.0),
                  GaussianApprox(-80.0, 0.0), at_draw,
                  other, CountingCdf(GaussianApprox(-80.0, 25.0))):
            assert ks_distance(a, b) == ks_full_pass(a, b)

    def test_every_block_open_stays_within_twice_the_full_pass(self):
        # At b's quantiles (i + 0.5)/n every term is 0.5/n, so no block can
        # be dropped and every point is evaluated.
        n = 100_000
        g = GaussianApprox(-80.0, 30.0)
        a = EmpiricalDistribution(g.mean + math.sqrt(g.variance) * np.array(
            [NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)]))
        assert ks_distance(a, g) == ks_full_pass(a, g)

        def best_of(fn, reps=5):
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                fn(a, g)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of(ks_distance) <= 2.0 * best_of(ks_full_pass)

    def test_evaluates_few_points(self):
        n = 1_000_000
        a = EmpiricalDistribution.from_samples(np.random.default_rng(11).normal(size=n))
        b = CountingCdf(GaussianApprox(0.1, 1.0))
        assert ks_distance(a, b) == ks_full_pass(a, b.dist)
        assert b.points <= 0.05 * n

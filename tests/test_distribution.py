import math

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
from ulik.errors import NonpositiveValueError, ValidationError
from ulik.gaussian_approx import GaussianApprox

ZETA = 10.0 / math.log(10.0)
DIST = LognormalDist(-77.21, 18.30)


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
        with pytest.raises(NonpositiveValueError):
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

    def test_quantile_roundtrip(self):
        g = GaussianDb(-77.0, 18.3)
        for p in (0.01, 0.3, 0.5, 0.9, 0.999):
            assert g.cdf(g.quantile(p)) == pytest.approx(p, abs=1e-12)


class TestEmpirical:
    def test_sorted_required(self):
        with pytest.raises(ValidationError):
            EmpiricalDistribution(np.array([1.0, 0.0]))

    def test_from_samples_sorts(self):
        e = EmpiricalDistribution.from_samples([3.0, -1.0, 2.0])
        np.testing.assert_array_equal(e.samples, [-1.0, 2.0, 3.0])
        assert e.count == 3

    def test_quantiles(self):
        e = EmpiricalDistribution.from_samples(np.arange(101, dtype=float))
        assert e.quantile(0.5) == pytest.approx(50.0)


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

    def test_dkw_bound(self):
        samples = np.random.default_rng(7).normal(size=1_000_000)
        e = EmpiricalDistribution.from_samples(samples)
        assert ks_distance(e, GaussianDb(0.0, 1.0)) <= 0.002

    def test_detects_mean_offset(self):
        samples = np.random.default_rng(1).normal(size=20_000)
        e = EmpiricalDistribution.from_samples(samples)
        assert ks_distance(e, GaussianDb(0.5, 1.0)) > 0.15

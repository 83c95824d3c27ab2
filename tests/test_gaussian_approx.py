import math

import numpy as np
import pytest

from ulik.channel import ChannelParams, PowerControl
from ulik.errors import ValidationError
from ulik.gaussian_approx import (
    RADIAL_NODES,
    THETA_PANELS,
    GaussianApprox,
    RegionMoments,
    SurrogateAccuracyWarning,
    interferer_gaussian,
    lognormal_exp_gaussian,
    pathloss_difference,
    region_moments,
    tau,
)
from ulik.geometry import (
    Difference,
    Disk,
    Ellipse,
    HalfPlane,
    Intersection,
    Point,
    Polygon,
    Union,
    quadrature_nodes,
)

VICTIM = Point(0.0, 0.0)
OWN = Point(0.03, 0.0)

# Regions around OWN that use all seven node types.
QUADRATURE_CASES = {
    "disk_origin_inside": Disk(OWN, 0.02),
    "ellipse_origin_inside": Ellipse(Point(0.035, 0.005), 0.015, 0.007, rotation=0.6),
    "union_outside_box": Union((Disk(Point(0.06, 0.02), 0.01),
                                Ellipse(Point(0.075, -0.01), 0.012, 0.006, rotation=0.3))),
    "half_annulus_outside_box": Intersection((
        Difference(Disk(Point(0.07, 0.0), 0.02), Disk(Point(0.07, 0.0), 0.008)),
        HalfPlane(Point(0.07, 0.0), Point(0.0, 1.0)))),
    "far_tiny_disk": Disk(Point(0.2, 0.1), 1e-6),
    "polygon_origin_inside": Polygon((Point(0.015, -0.01), Point(0.05, -0.005),
                                      Point(0.045, 0.015), Point(0.02, 0.012))),
    "polygon_outside_box": Polygon((Point(0.05, 0.01), Point(0.08, 0.0),
                                    Point(0.07, 0.03), Point(0.055, 0.025))),
}


def moments_for(region, params, pc, n=200_000):
    return region_moments(region, OWN, VICTIM, params, pc, n)


def reference_moments(region, params, pc, panels, radial):
    """The moments written out over the nodes of a given rule."""
    xs, ys, ws = quadrature_nodes(region, OWN, panels, radial)
    p = ws / ws.sum()
    lvals = pathloss_difference(xs, ys, OWN, VICTIM, params, pc)
    mu = p @ lvals
    centered = lvals - mu
    return np.array([mu, p @ centered**2, p @ np.abs(centered) ** 3])


def pathloss_expression(xs, ys, own_bs, victim_bs, params, pc):
    """L as one expression; pathloss_difference forms it in place and must
    keep its bits."""
    dx, dy = xs - own_bs.x, ys - own_bs.y
    d2_own = dx * dx + dy * dy
    dx, dy = xs - victim_bs.x, ys - victim_bs.y
    d2_vic = dx * dx + dy * dy
    return (pc.eta - 1.0) * params.a_db + (0.5 * params.alpha) * (
        pc.eta * np.log10(d2_own) - np.log10(d2_vic)
    )


class TestPathlossKernel:
    @pytest.mark.parametrize("eta", [0.3, 0.8, 1.0])
    def test_bit_identical_to_expression(self, params, eta):
        pc = PowerControl(-76.0, eta)
        xs, ys = np.random.default_rng(4).uniform(-0.1, 0.1, size=(2, 20_000))
        got = pathloss_difference(xs, ys, OWN, VICTIM, params, pc)
        want = pathloss_expression(xs, ys, OWN, VICTIM, params, pc)
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_inputs_untouched(self, params, pc):
        xs, ys = np.random.default_rng(5).uniform(-0.1, 0.1, size=(2, 100))
        before = xs.copy(), ys.copy()
        pathloss_difference(xs, ys, OWN, VICTIM, params, pc)
        np.testing.assert_array_equal(xs, before[0])
        np.testing.assert_array_equal(ys, before[1])


class TestGaussianApprox:
    @pytest.mark.parametrize("mean, variance", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (0.0, math.nan), (0.0, math.inf), (0.0, -1.0), (math.nan, math.nan),
    ])
    def test_non_finite_or_negative_parameters_rejected(self, mean, variance):
        # Before, GaussianApprox(nan, nan).cdf(0.0) read 0.0 and
        # GaussianApprox(0, inf).quantile(0.3) read -inf.
        with pytest.raises(ValidationError,
                           match="need a finite mean and a finite nonnegative variance"):
            GaussianApprox(mean, variance)

    def test_extreme_finite_parameters_accepted(self):
        assert GaussianApprox(-1e308, 1.7e308).variance == 1.7e308


class TestLognormalExpGaussian:
    def test_surrogate_offsets(self):
        g = lognormal_exp_gaussian(GaussianApprox(0.0, 164.0))
        assert g.mean == pytest.approx(-2.5)
        assert g.variance == pytest.approx(195.0249)

    def test_smaller_shadowing(self):
        g = lognormal_exp_gaussian(GaussianApprox(0.0, 100.0))
        assert (g.mean, g.variance) == (pytest.approx(-2.5), pytest.approx(131.0249))

    def test_validity_warning_at_36(self):
        with pytest.warns(SurrogateAccuracyWarning):
            g = lognormal_exp_gaussian(GaussianApprox(5.0, 36.0))
        assert (g.mean, g.variance) == (pytest.approx(2.5), pytest.approx(67.0249))


class TestRegionMoments:
    def test_tiny_region_degenerate(self, params, pc):
        m = moments_for(Disk(Point(0.02, 0.005), 1e-9), params, pc, n=10_000)
        assert m.var_l == pytest.approx(0.0, abs=1e-9)
        assert m.abs3_l == pytest.approx(0.0, abs=1e-12)

    def test_eta_1_kills_reference_loss_term(self, pc):
        # with eta=1 the (eta-1)*A term vanishes, so A cannot matter
        region = Disk(OWN, 0.02)
        pc1 = PowerControl(-76.0, 1.0)
        a = region_moments(region, OWN, VICTIM, ChannelParams(103.8, 20.9, 100.0), pc1, 50_000)
        b = region_moments(region, OWN, VICTIM, ChannelParams(50.0, 20.9, 100.0), pc1, 50_000)
        assert a.mu_l == pytest.approx(b.mu_l, abs=1e-12)
        assert a.var_l == pytest.approx(b.var_l, abs=1e-12)

    def test_lyapunov_inequality(self, params, pc):
        regions = [Disk(OWN, radius) for radius in (0.01, 0.02, 0.04)]
        for region in regions + list(QUADRATURE_CASES.values()):
            m = moments_for(region, params, pc)
            assert m.abs3_l >= m.var_l**1.5

    @pytest.mark.parametrize("case", list(QUADRATURE_CASES))
    def test_error_estimate_bounds_error(self, params, pc, case):
        # Against a rule with 8x the panels and 4x the radial nodes of the
        # reported one (the first rule doubled); rounding gets 1e-12 relative.
        region = QUADRATURE_CASES[case]
        m = moments_for(region, params, pc, n=1_000_000)
        ref = reference_moments(region, params, pc, 16 * THETA_PANELS, 8 * RADIAL_NODES)
        got = np.array([m.mu_l, m.var_l, m.abs3_l])
        assert np.all(np.abs(got - ref) <= np.array(m.std_errors) + 1e-12 * (1 + np.abs(ref)))

    def test_reported_moments_are_the_finer_rule(self, params, pc):
        m = moments_for(QUADRATURE_CASES["polygon_origin_inside"], params, pc, n=1)
        ref = reference_moments(QUADRATURE_CASES["polygon_origin_inside"], params, pc,
                                2 * THETA_PANELS, 2 * RADIAL_NODES)
        np.testing.assert_allclose([m.mu_l, m.var_l, m.abs3_l], ref, rtol=1e-12)

    @pytest.mark.parametrize("case", ["disk_origin_inside", "polygon_origin_inside",
                                      "half_annulus_outside_box"])
    def test_larger_samples_never_larger_error(self, params, pc, case):
        errs = np.array([moments_for(QUADRATURE_CASES[case], params, pc, n=10**k).std_errors
                         for k in (2, 4, 6, 8, 10, 12)])
        assert np.all(np.diff(errs, axis=0) <= 0)

    def test_std_error_scaling(self, params, pc):
        # Doubling the samples never raises an error estimate, and each stays
        # below the standard error of the mean that n uniform points would give.
        region = Disk(OWN, 0.02)
        a = moments_for(region, params, pc, n=50_000)
        b = moments_for(region, params, pc, n=100_000)
        assert np.all(np.array(b.std_errors) <= np.array(a.std_errors))
        for m, n in ((a, 50_000), (b, 100_000)):
            assert m.std_errors[0] <= math.sqrt(m.var_l / n)

    def test_sample_count_is_the_node_count(self, params, pc):
        region = QUADRATURE_CASES["disk_origin_inside"]
        m = moments_for(region, params, pc)
        assert m.sample_count == len(quadrature_nodes(region, OWN, 2 * THETA_PANELS,
                                                      2 * RADIAL_NODES)[0])

    def test_nonpositive_sample_count_rejected(self, params, pc):
        with pytest.raises(ValidationError):
            moments_for(Disk(OWN, 0.02), params, pc, n=0)


class TestTau:
    def test_constant_region_zero(self):
        m = RegionMoments(mu_l=-20.0, var_l=0.0, abs3_l=0.0, std_errors=(0, 0, 0),
                          sample_count=1000)
        cert = tau(m, GaussianApprox(-2.5, 195.0))
        assert cert.tau == 0.0
        assert cert.passes

    def test_gaussian_case_closed_form(self):
        # L Gaussian with variance equal to g's: tau = 0.56*2*sqrt(2/pi)/2^1.5
        for var in (4.0, 25.0, 195.0):
            abs3 = 2.0 * math.sqrt(2.0 / math.pi) * var**1.5
            m = RegionMoments(0.0, var, abs3, (0, 0, 0), 1)
            cert = tau(m, GaussianApprox(0.0, var))
            assert cert.tau == pytest.approx(0.3160, abs=5e-4)

    def test_shift_invariance_under_a_offset(self, params, pc):
        region = Disk(OWN, 0.02)
        g = GaussianApprox(-2.5, 195.0249)
        t = []
        for a_db in (103.8, 120.0):
            p = ChannelParams(a_db, params.alpha, params.sigma_shad_sq)
            m = region_moments(region, OWN, VICTIM, p, pc, 100_000)
            t.append(tau(m, g).tau)
        assert t[0] == pytest.approx(t[1], rel=1e-9)

    def test_decreasing_in_g_variance(self, params, pc):
        m = moments_for(Disk(OWN, 0.02), params, pc, n=50_000)
        taus = [tau(m, GaussianApprox(-2.5, v)).tau for v in (100.0, 164.0, 300.0)]
        assert taus[0] > taus[1] > taus[2]

    def test_threshold_flag(self):
        m = RegionMoments(0.0, 4.0, 2.0 * math.sqrt(2 / math.pi) * 8.0, (0, 0, 0), 1)
        cert = tau(m, GaussianApprox(0.0, 4.0), threshold=0.5)
        assert cert.passes == (cert.tau <= 0.5)
        assert not tau(m, GaussianApprox(0.0, 4.0), threshold=0.01).passes

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, math.inf])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        m = RegionMoments(0.0, 4.0, 16.0, (0, 0, 0), 1)
        with pytest.raises(ValidationError, match="tau threshold must be positive and finite"):
            tau(m, GaussianApprox(0.0, 4.0), threshold=threshold)

    def test_zero_variance_error(self):
        m = RegionMoments(0.0, 0.0, 0.0, (0, 0, 0), 1)
        with pytest.raises(ValidationError, match="tau undefined: total variance is zero"):
            tau(m, GaussianApprox(0.0, 0.0))

    def test_keeps_the_power_formula(self):
        rng = np.random.default_rng(3)
        for var_l, g_var, abs3 in rng.uniform(0.1, 1e3, (200, 3)):
            m = RegionMoments(0.0, var_l, abs3 + var_l**1.5, (0, 0, 0), 1)
            expected = 0.56 * m.abs3_l / (var_l + g_var) ** 1.5
            assert tau(m, GaussianApprox(0.0, g_var)).tau == expected

    def test_variance_beyond_float_range_gives_zero(self):
        m = RegionMoments(0.0, 4.0, 16.0, (0, 0, 0), 1)
        cert = tau(m, GaussianApprox(0.0, 1e308))
        assert cert.tau == 0.0 and cert.passes

    @pytest.mark.parametrize("moments", [(math.nan, 1.0, 1.0), (0.0, math.inf, math.inf),
                                         (0.0, 1.0, math.inf), (-math.inf, 0.0, 0.0)])
    def test_nonfinite_moments_rejected(self, moments):
        with pytest.raises(ValidationError, match="moments must be finite"):
            RegionMoments(*moments, (0, 0, 0), 1)

    def test_huge_variance_fails_lyapunov_without_overflow(self):
        with pytest.raises(ValidationError, match="violates the Lyapunov bound inf"):
            RegionMoments(0.0, 1e300, 1.0, (0, 0, 0), 1)


class TestInterfererGaussian:
    def test_direct_sum(self):
        m = RegionMoments(0.0, 0.0, 0.0, (0, 0, 0), 1)
        q = interferer_gaussian(-76.0, m, GaussianApprox(-2.5, 195.02))
        assert (q.mean, q.variance) == (pytest.approx(-78.5), pytest.approx(195.02))

    def test_additive_identity(self):
        m = RegionMoments(0.0, 0.0, 0.0, (0, 0, 0), 1)
        q = interferer_gaussian(0.0, m, GaussianApprox(0.0, 0.0))
        assert (q.mean, q.variance) == (0.0, 0.0)

    def test_components_add(self):
        m = RegionMoments(-12.5, 8.0, 40.0, (0, 0, 0), 1)
        q = interferer_gaussian(-76.0, m, GaussianApprox(-2.5, 195.0249))
        assert q.mean == pytest.approx(-91.0)
        assert q.variance == pytest.approx(203.0249)

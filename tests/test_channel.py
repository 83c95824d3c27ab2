import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ulik.channel import ChannelParams, PowerControl, combined_shadow_stats, interference_db
from ulik.errors import ValidationError
from ulik.gaussian_approx import pathloss_difference
from ulik.geometry import Point

UE = Point(0.0, 0.0)


def path_loss(params, d):
    """A + alpha * log10(d), written out here as the reference for the kernel."""
    return params.a_db + params.alpha * math.log10(d)


def at(d, angle=0.0):
    """The point at distance d km from the UE, in the given direction."""
    return Point(d * math.cos(angle), d * math.sin(angle))


class TestPathLoss:
    """The kernel L = (eta-1)*A + alpha*(eta*log10 d_own - log10 d_vic).  With
    the own BS at the 1 km reference distance, eta*A - L is the victim link's
    path loss A + alpha*log10(d_vic)."""

    @staticmethod
    def victim_loss(params, pc, d):
        return pc.eta * params.a_db - pathloss_difference(
            UE.x, UE.y, at(1.0), at(d, math.pi / 2), params, pc)

    def test_reference_distance(self, params, pc):
        assert self.victim_loss(params, pc, 1.0) == pytest.approx(103.8)

    def test_10m(self, params, pc):
        assert self.victim_loss(params, pc, 0.01) == pytest.approx(103.8 - 2 * 20.9)

    def test_100m(self, params, pc):
        assert self.victim_loss(params, pc, 0.1) == pytest.approx(82.9)

    def test_nonpositive_distance(self, params, pc):
        for own, victim in ((UE, at(0.01)), (at(0.01), UE)):
            with pytest.raises(ValidationError, match="sampled UE position coincides with a BS"):
                pathloss_difference(UE.x, UE.y, own, victim, params, pc)

    @given(st.floats(1e-4, 10.0), st.floats(1e-4, 10.0), st.floats(0.01, 1.0))
    def test_monotone_in_distance(self, d1, d2, eta):
        p, pc = ChannelParams(103.8, 20.9, 100.0), PowerControl(-76.0, eta)
        lo, hi = sorted((d1, d2))
        # Farther from the victim lowers L; farther from the own BS raises it.
        assert (pathloss_difference(UE.x, UE.y, at(0.02), at(lo, 1.0), p, pc)
                >= pathloss_difference(UE.x, UE.y, at(0.02), at(hi, 1.0), p, pc))
        assert (pathloss_difference(UE.x, UE.y, at(lo), at(0.02, 1.0), p, pc)
                <= pathloss_difference(UE.x, UE.y, at(hi), at(0.02, 1.0), p, pc))

    def test_arrays_match_scalars(self, params, pc):
        xs, ys = np.array([0.001, -0.004, 0.01]), np.array([0.002, 0.003, -0.007])
        own, victim = Point(0.005, 0.0), Point(-0.02, 0.01)
        np.testing.assert_allclose(
            pathloss_difference(xs, ys, own, victim, params, pc),
            [pathloss_difference(x, y, own, victim, params, pc) for x, y in zip(xs, ys)],
            rtol=1e-15)


    def test_matches_hypot_form(self, params, pc):
        # The kernel works on squared distances; the square-root form agrees.
        xs, ys = np.random.default_rng(4).uniform(-0.5, 0.5, (2, 10_000))
        own, victim = Point(0.013, -0.02), Point(-0.1, 0.07)
        d_own, d_vic = np.hypot(xs - own.x, ys - own.y), np.hypot(xs - victim.x, ys - victim.y)
        want = (pc.eta - 1.0) * params.a_db + params.alpha * (
            pc.eta * np.log10(d_own) - np.log10(d_vic))
        np.testing.assert_allclose(pathloss_difference(xs, ys, own, victim, params, pc), want,
                                   rtol=0, atol=1e-12)


def interference(pc, params, d_bb, d_b1, s, h_b1):
    """interference_db for a UE at distance d_bb from its BS and d_b1 from the
    victim, with combined shadowing s = eta*S_bb - S_b1 dB."""
    return interference_db(pc, params, UE.x, UE.y, at(d_bb), at(d_b1, 2.0), s, h_b1)


class TestTxPower:
    """Fractional power control as it enters the interference: with unit
    fading, no victim shadowing (so the combined shadowing is eta * S_bb) and
    the victim-link loss added back, what is left is the UE transmit power
    P0 + eta * (L_bb + S_bb)."""

    @staticmethod
    def tx_power(pc, params, l_bb, s_bb):
        d_bb = 10 ** ((l_bb - params.a_db) / params.alpha)
        return interference(pc, params, d_bb, 1.0, pc.eta * s_bb, 1.0) + params.a_db

    def test_fpc(self, params, pc):
        assert self.tx_power(pc, params, 80.0, 0.0) == pytest.approx(-12.0)

    def test_zero_compensation(self, params):
        full = PowerControl(-76.0, 1.0)
        assert self.tx_power(full, params, 0.0, 0.0) == pytest.approx(-76.0)

    def test_shadowing_compensated(self, params, pc):
        assert self.tx_power(pc, params, 80.0, 10.0) == pytest.approx(-4.0)


class TestInterferenceDb:
    def test_full_compensation_gives_p0(self, params):
        pc = PowerControl(-76.0, 1.0)
        v = interference(pc, params, d_bb=0.02, d_b1=0.02, s=0.0, h_b1=1.0)
        assert v == pytest.approx(-76.0)

    def test_partial_compensation(self, params, pc):
        v = interference(pc, params, d_bb=0.01, d_b1=0.015, s=0.0, h_b1=1.0)
        expected = -76.0 + (0.8 * path_loss(params, 0.01) - path_loss(params, 0.015))
        assert v == pytest.approx(expected)
        assert v == pytest.approx(-92.08, abs=0.005)

    def test_fading_adds_in_db(self, params, pc):
        kw = dict(d_bb=0.01, d_b1=0.02, s=2.8)
        assert interference(pc, params, h_b1=10.0, **kw) == pytest.approx(
            interference(pc, params, h_b1=1.0, **kw) + 10.0
        )

    def test_unit_fading_identity(self, params, pc):
        # Eq-level identity: I(h=1) = tx power - path loss to victim - victim shadowing,
        # with S_bb = 3 and S_b1 = -1.5 combined into eta*S_bb - S_b1.
        v = interference(pc, params, d_bb=0.012, d_b1=0.03, s=pc.eta * 3.0 + 1.5, h_b1=1.0)
        tx = pc.p0_dbm + pc.eta * (path_loss(params, 0.012) + 3.0)
        expected = tx - path_loss(params, 0.03) + 1.5
        assert v == pytest.approx(expected, abs=1e-12)

    def test_is_p0_plus_kernel(self, params, pc):
        xs, ys = np.array([0.001, -0.004]), np.array([0.002, 0.003])
        own, victim = Point(0.005, 0.0), Point(-0.02, 0.01)
        s, h = np.array([0.3, -5.0]), np.array([0.3, 2.0])
        np.testing.assert_array_equal(
            interference_db(pc, params, xs, ys, own, victim, s, h),
            pc.p0_dbm + pathloss_difference(xs, ys, own, victim, params, pc)
            + s + 10.0 * np.log10(h))

    @given(st.floats(0.005, 0.1), st.floats(0.005, 0.1))
    def test_monotone_decreasing_in_victim_distance(self, a, b):
        params = ChannelParams(103.8, 20.9, 100.0)
        pc = PowerControl(-76.0, 0.8)
        lo, hi = sorted((a, b))
        near = interference(pc, params, 0.01, lo, 0.0, 1.0)
        far = interference(pc, params, 0.01, hi, 0.0, 1.0)
        assert near >= far

    def test_errors(self, params, pc):
        with pytest.raises(ValidationError, match="sampled UE position coincides with a BS"):
            interference_db(pc, params, UE.x, UE.y, UE, at(0.01), 0.0, 1.0)
        with pytest.raises(ValidationError, match="effective fading gain must be positive"):
            interference(pc, params, 0.01, 0.01, 0.0, 0.0)


class TestCombinedShadowStats:
    def test_eta_1(self):
        g = combined_shadow_stats(ChannelParams(103.8, 20.9, 100.0), PowerControl(-76.0, 1.0))
        assert (g.mean, g.variance) == (0.0, pytest.approx(200.0))

    def test_eta_08(self, params, pc):
        g = combined_shadow_stats(params, pc)
        assert g.mean == 0.0
        assert g.variance == pytest.approx(164.0)

    def test_eta_05(self):
        g = combined_shadow_stats(ChannelParams(103.8, 20.9, 64.0), PowerControl(-76.0, 0.5))
        assert g.variance == pytest.approx(80.0)

    @given(st.floats(0.01, 1.0), st.floats(0.0, 200.0))
    def test_own_shadowing_compensated(self, eta, sigma_sq):
        # eta*S_bb - S_b1 with independent S ~ N(0, sigma^2): the own link's
        # term enters scaled by eta, the victim's in full.
        g = combined_shadow_stats(ChannelParams(103.8, 20.9, sigma_sq), PowerControl(-76.0, eta))
        assert g.variance == pytest.approx(eta**2 * sigma_sq + sigma_sq, rel=1e-14)

    @given(st.floats(0.01, 1.0))
    def test_variance_window(self, eta):
        g = combined_shadow_stats(ChannelParams(103.8, 20.9, 100.0), PowerControl(-76.0, eta))
        assert 100.0 <= g.variance <= 200.0


class TestParamValidation:
    def test_eta_range(self):
        with pytest.raises(ValidationError):
            PowerControl(-76.0, 0.0)
        with pytest.raises(ValidationError):
            PowerControl(-76.0, 1.2)

    def test_alpha_positive(self):
        with pytest.raises(ValidationError):
            ChannelParams(103.8, -1.0, 100.0)

    def test_shadowing_nonnegative(self):
        with pytest.raises(ValidationError):
            ChannelParams(103.8, 20.9, -0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        for make in (lambda: ChannelParams(103.8, bad, 100.0),
                     lambda: ChannelParams(103.8, 20.9, bad),
                     lambda: PowerControl(bad, 0.8),
                     lambda: PowerControl(-76.0, bad)):
            with pytest.raises(ValidationError):
                make()

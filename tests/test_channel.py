import math

import pytest
from hypothesis import given, strategies as st

from ulik.channel import (
    ChannelParams,
    PowerControl,
    combined_shadow_stats,
    interference_db,
    path_loss,
)
from ulik.errors import NonpositiveDistanceError, NonpositiveFadingError, ValidationError


class TestPathLoss:
    def test_reference_distance(self, params):
        assert path_loss(params, 1.0) == pytest.approx(103.8)

    def test_10m(self, params):
        assert path_loss(params, 0.01) == pytest.approx(103.8 - 2 * 20.9)

    def test_100m(self, params):
        assert path_loss(params, 0.1) == pytest.approx(82.9)

    def test_nonpositive_distance(self, params):
        with pytest.raises(NonpositiveDistanceError):
            path_loss(params, 0.0)

    @given(st.floats(1e-4, 10.0), st.floats(1e-4, 10.0))
    def test_monotone_in_distance(self, d1, d2):
        p = ChannelParams(103.8, 20.9, 100.0)
        lo, hi = sorted((d1, d2))
        assert path_loss(p, lo) <= path_loss(p, hi)


class TestTxPower:
    """Fractional power control as it enters the interference: with unit
    fading, no victim shadowing and the victim-link loss added back, what is
    left is the UE transmit power P0 + eta * (L_bb + S_bb)."""

    @staticmethod
    def tx_power(pc, params, l_bb, s_bb):
        d_bb = 10 ** ((l_bb - params.a_db) / params.alpha)
        return interference_db(pc, params, d_bb, 1.0, s_bb, 0.0, 1.0) + params.a_db

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
        v = interference_db(pc, params, d_bb=0.02, d_b1=0.02, s_bb=0.0, s_b1=0.0, h_b1=1.0)
        assert v == pytest.approx(-76.0)

    def test_partial_compensation(self, params, pc):
        v = interference_db(pc, params, d_bb=0.01, d_b1=0.015, s_bb=0.0, s_b1=0.0, h_b1=1.0)
        expected = -76.0 + (0.8 * path_loss(params, 0.01) - path_loss(params, 0.015))
        assert v == pytest.approx(expected)
        assert v == pytest.approx(-92.08, abs=0.005)

    def test_fading_adds_in_db(self, params, pc):
        kw = dict(d_bb=0.01, d_b1=0.02, s_bb=1.0, s_b1=-2.0)
        assert interference_db(pc, params, h_b1=10.0, **kw) == pytest.approx(
            interference_db(pc, params, h_b1=1.0, **kw) + 10.0
        )

    def test_unit_fading_identity(self, params, pc):
        # Eq-level identity: I(h=1) = tx power - path loss to victim - victim shadowing
        v = interference_db(pc, params, d_bb=0.012, d_b1=0.03, s_bb=3.0, s_b1=-1.5, h_b1=1.0)
        tx = pc.p0_dbm + pc.eta * (path_loss(params, 0.012) + 3.0)
        expected = tx - path_loss(params, 0.03) + 1.5
        assert v == pytest.approx(expected, abs=1e-12)

    @given(st.floats(0.005, 0.1), st.floats(0.005, 0.1))
    def test_monotone_decreasing_in_victim_distance(self, a, b):
        params = ChannelParams(103.8, 20.9, 100.0)
        pc = PowerControl(-76.0, 0.8)
        lo, hi = sorted((a, b))
        near = interference_db(pc, params, 0.01, lo, 0.0, 0.0, 1.0)
        far = interference_db(pc, params, 0.01, hi, 0.0, 0.0, 1.0)
        assert near >= far

    def test_errors(self, params, pc):
        with pytest.raises(NonpositiveDistanceError):
            interference_db(pc, params, 0.0, 0.01, 0.0, 0.0, 1.0)
        with pytest.raises(NonpositiveFadingError):
            interference_db(pc, params, 0.01, 0.01, 0.0, 0.0, 0.0)


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

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ulik.errors import UlikError, ValidationError
from ulik.gaussian_approx import GaussianApprox
from ulik.lognormal_sum import ZETA, _log_mgf, fenton_wilkinson, fit_sum, gh_rule, lognormal_mgf
from ulik.pipeline import analyze
from ulik.scenario_io import HotspotDropSpec, gen_hotspot


class TestGhRule:
    def test_two_point_closed_form(self):
        rule = gh_rule(2)
        np.testing.assert_allclose(sorted(rule.abscissas), [-1 / math.sqrt(2), 1 / math.sqrt(2)],
                                   atol=1e-14)
        np.testing.assert_allclose(rule.weights, [math.sqrt(math.pi) / 2] * 2, atol=1e-14)

    @pytest.mark.parametrize("m0", [2, 8, 12, 20, 64])
    def test_moment_identities(self, m0):
        rule = gh_rule(m0)
        assert rule.weights.sum() == pytest.approx(math.sqrt(math.pi), abs=1e-12)
        assert (rule.weights * rule.abscissas**2).sum() == pytest.approx(
            math.sqrt(math.pi) / 2, abs=1e-12
        )
        np.testing.assert_allclose(np.sort(rule.abscissas), -np.sort(rule.abscissas)[::-1],
                                   atol=1e-12)
        assert (rule.weights > 0).all()

    @pytest.mark.parametrize("m0", [1, 0, 65])
    def test_unsupported_order(self, m0):
        for _ in range(2):  # a refused order is never cached
            with pytest.raises(ValidationError, match="Gauss-Hermite order must be in"):
                gh_rule(m0)

    @pytest.mark.parametrize("m0", [2, 12, 64])
    def test_shared_and_read_only(self, m0):
        rule = gh_rule(m0)
        assert gh_rule(m0) is rule
        for a in (rule.abscissas, rule.weights, rule.log_weights):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert rule.log_weights.tolist() == np.log(rule.weights / math.sqrt(math.pi)).tolist()


class TestLognormalMgf:
    def test_degenerate_unit_power(self):
        rule = gh_rule(12)
        assert lognormal_mgf(0.0, 0.0, 1.0, rule) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_degenerate_ten_mw(self):
        rule = gh_rule(12)
        assert lognormal_mgf(10.0, 0.0, 0.1, rule) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_range(self):
        rule = gh_rule(12)
        for mu in (-100.0, -20.0, 0.0, 10.0):
            for var in (0.0, 25.0, 200.0):
                v = lognormal_mgf(mu, var, 1.0, rule)
                assert 0.0 < v <= 1.0

    def test_invalid_design_point(self):
        with pytest.raises(ValidationError, match="MGF design point must be positive"):
            lognormal_mgf(0.0, 25.0, 0.0, gh_rule(12))

    @pytest.mark.parametrize("mu, var, s, match", [
        (math.nan, 25.0, 1.0, "finite mean"),
        (math.inf, 25.0, 1.0, "finite mean"),
        (-math.inf, 25.0, 1.0, "finite mean"),
        (0.0, math.nan, 1.0, "finite nonnegative variance"),
        (0.0, math.inf, 1.0, "finite nonnegative variance"),
        (0.0, -1.0, 1.0, "finite nonnegative variance"),
        (0.0, 25.0, math.nan, "MGF design point must be positive and finite"),
        (0.0, 25.0, math.inf, "MGF design point must be positive and finite"),
        (0.0, 25.0, -1.0, "MGF design point must be positive and finite"),
    ])
    def test_non_finite_input_rejected(self, mu, var, s, match):
        # Refused before numpy sees it, so no RuntimeWarning comes first.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=match):
                lognormal_mgf(mu, var, s, gh_rule(12))

    def test_decreasing_in_s(self):
        rule = gh_rule(12)
        vals = [lognormal_mgf(-10.0, 36.0, s, rule) for s in np.linspace(0.05, 5.0, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_mu(self):
        rule = gh_rule(12)
        vals = [lognormal_mgf(mu, 36.0, 1.0, rule) for mu in np.linspace(-40.0, 10.0, 40)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLogMgfKernel:
    # (mu, var, s): an MGF near 1 (the expm1/log1p branch), small MGFs (the
    # logsumexp branch, up to s = 1e4) and a degenerate variance.
    POINTS = [(-40.0, 50.0, 0.01), (-10.0, 36.0, 1.0), (0.0, 100.0, 0.1),
              (5.0, 200.0, 3.0), (-20.0, 150.0, 1e4), (-3.0, 0.0, 2.0)]

    def test_array_call_equals_scalar_calls(self):
        rule = gh_rule(12)
        mu, var, s = (np.array(c) for c in zip(*self.POINTS))
        grid = _log_mgf(mu[:, None], var[:, None], s[None, :], rule)
        # The branches switch where the MGF crosses 1/2.
        assert (grid[0] > math.log(0.5)).any() and (grid[0] < math.log(0.5)).any()
        for i in range(len(mu)):
            for j in range(len(s)):
                one = _log_mgf(mu[i], var[i], s[j], rule)
                for got, want in zip(grid, one):
                    assert got[i, j] == pytest.approx(float(want), rel=1e-15, abs=1e-300)

    @pytest.mark.parametrize("mu, var, s", POINTS[:5])
    def test_derivatives_match_central_differences(self, mu, var, s):
        rule = gh_rule(12)
        _, d_mu, d_ls = _log_mgf(mu, var, s, rule)
        h = 1e-5
        value = lambda m, ls: float(_log_mgf(m, math.exp(2.0 * ls), s, rule)[0])
        ls = 0.5 * math.log(var)
        num_mu = (value(mu + h, ls) - value(mu - h, ls)) / (2 * h)
        num_ls = (value(mu, ls + h) - value(mu, ls - h)) / (2 * h)
        assert float(d_mu) == pytest.approx(num_mu, rel=1e-6)
        assert float(d_ls) == pytest.approx(num_ls, rel=1e-6)

    @pytest.mark.parametrize("var", [1e4, 1e6])
    def test_overflowing_node_stays_finite(self, var):
        # At var = 1e6 the power 10^(X/10) of the outer nodes overflows to inf.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out = _log_mgf(0.0, var, 1e4, gh_rule(12))
        assert all(np.isfinite(v) for v in out)
        assert float(out[0]) < 0 and float(out[1]) < 0

    @staticmethod
    def logsumexp(a, axis):
        # The log-sum-exp of the reference expression: shifted by the largest
        # term, which counts as 0 when it is not finite.
        top = np.max(a, axis=axis, keepdims=True)
        top = np.where(np.isfinite(top), top, 0.0)
        with np.errstate(divide="ignore"):
            return np.log(np.sum(np.exp(a - top), axis=axis, keepdims=True)) + top

    @classmethod
    def reference(cls, mu, var, s, rule):
        # The kernel's expression before the rule carried its log weights and
        # the log-sum-exp moved inline; the kernel must match it bit for bit.
        mu, var, s = (np.asarray(a, dtype=float)[..., None] for a in (mu, var, s))
        x = np.sqrt(2.0 * np.maximum(var, 0.0)) * rule.abscissas
        log_z = (x + mu) / ZETA
        with np.errstate(over="ignore"):
            sz = s * np.exp(log_z)
        t = np.expm1(-sz) @ rule.weights / math.sqrt(math.pi)
        log_terms = np.log(rule.weights / math.sqrt(math.pi)) - sz
        lse = cls.logsumexp(log_terms, axis=-1)
        value = np.where(t > -0.5, np.log1p(np.maximum(t, -0.5)), lse[..., 0])
        d = -np.exp(np.log(s) + log_z + log_terms - lse) / ZETA
        return value, d.sum(axis=-1), (d * x).sum(axis=-1)

    @pytest.mark.parametrize("m0", [2, 12, 32, 64])
    def test_bits_match_reference_expression(self, m0):
        rule = gh_rule(m0)
        mu = np.array([-120.0, -40.0, -3.0, 0.0, 20.0])
        var = np.array([0.0, 4.0, 36.0, 200.0, 1e4, 1e6])
        s = np.array([1e-3, 0.1, 1.0, 3.0, 1e4])
        calls = [(mu[:, None, None], var[None, :, None], s[None, None, :])]
        calls += [(m, v, s[1:3]) for m in mu for v in var]  # one fit trial point each
        for args in calls:
            for got, want in zip(_log_mgf(*args, rule), self.reference(*args, rule)):
                assert got.shape == want.shape
                assert (got.view(np.int64) == want.view(np.int64)).all()

    @pytest.mark.parametrize("mu, var, s", [(-40.0, 50.0, 0.01), (-10.0, 36.0, 1.0),
                                            (0.0, 25.0, 0.1), (-3.0, 4.0, 2.0)])
    def test_lognormal_mgf_matches_direct_sum(self, mu, var, s):
        rule = gh_rule(12)
        z = 10.0 ** ((math.sqrt(2.0 * var) * rule.abscissas + mu) / 10.0)
        direct = float(np.sum(rule.weights * np.exp(-s * z))) / math.sqrt(math.pi)
        assert lognormal_mgf(mu, var, s, rule) == pytest.approx(direct, rel=1e-14)


class TestFitSum:
    def test_single_component_identity(self):
        fit = fit_sum([GaussianApprox(-97.1, 205.25)])
        assert fit.converged
        assert fit.mu_q == pytest.approx(-97.1, abs=1e-9)
        assert fit.var_q == pytest.approx(205.25, abs=1e-6)

    def test_two_constants(self):
        # The Fenton-Wilkinson seed is already the exact point-mass fit.
        fit = fit_sum([GaussianApprox(-76.0, 0.0)] * 2)
        assert fit.converged
        assert fit.iterations == 0
        assert fit.mu_q == pytest.approx(-76.0 + 10 * math.log10(2), abs=1e-9)
        assert fit.var_q == 0.0

    def test_permutation_invariance(self):
        comps = [GaussianApprox(-90.0 - i, 150.0 + 5 * i) for i in range(6)]
        a = fit_sum(comps)
        b = fit_sum(comps[::-1])
        assert a.mu_q == pytest.approx(b.mu_q, abs=1e-9)
        assert a.var_q == pytest.approx(b.var_q, abs=1e-9)

    def test_shift_equivariance(self):
        comps = [GaussianApprox(-95.0, 180.0), GaussianApprox(-99.0, 200.0),
                 GaussianApprox(-101.0, 210.0)]
        base = fit_sum(comps)
        c = 7.3
        shifted = fit_sum([GaussianApprox(q.mean + c, q.variance) for q in comps])
        assert shifted.mu_q == pytest.approx(base.mu_q + c, abs=1e-9)
        assert shifted.var_q == pytest.approx(base.var_q, abs=1e-9)

    def test_residuals_reproduce_targets(self):
        comps = [GaussianApprox(-20.0, 150.0), GaussianApprox(-25.0, 180.0),
                 GaussianApprox(-22.0, 120.0)]
        rule = gh_rule(12)
        fit = fit_sum(comps, rule=rule, ref_dbm=0.0)
        assert fit.converged
        for s in (1.0, 0.1):
            target = math.prod(lognormal_mgf(c.mean, c.variance, s, rule) for c in comps)
            got = lognormal_mgf(fit.mu_q, fit.var_q, s, rule)
            assert got == pytest.approx(target, rel=1e-8)

    def test_reported_residuals_small(self):
        fit = fit_sum([GaussianApprox(-90.0, 160.0), GaussianApprox(-93.0, 170.0)])
        assert fit.converged
        assert max(abs(r) for r in fit.residuals) <= 1e-8

    def test_invalid_design_points(self):
        comps = [GaussianApprox(-90.0, 160.0)]
        with pytest.raises(ValidationError, match="need 0 < s2 < s1"):
            fit_sum(comps, s1=0.1, s2=1.0)
        with pytest.raises(ValidationError, match="need 0 < s2 < s1"):
            fit_sum(comps, s1=1.0, s2=-0.5)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(-110.0, -80.0), st.floats(50.0, 250.0)),
                    min_size=1, max_size=8))
    def test_fit_always_converges_on_plausible_inputs(self, raw):
        comps = [GaussianApprox(m, v) for m, v in raw]
        fit = fit_sum(comps)
        assert fit.converged
        assert fit.var_q >= 0.0


    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(-100.0, -60.0), st.floats(50.0, 250.0)),
                    min_size=1, max_size=6),
           st.integers(1, 40),
           st.floats(-3.0, 4.0), st.floats(-3.0, 4.0),
           st.sampled_from([8, 12, 20, 32]))
    def test_any_design_point_returns_a_fit(self, raw, copies, log_s1, log_s2, m0):
        # Up to 240 components, so that large design points drive the
        # Gauss-Hermite MGF far into its tail.
        s1, s2 = 10.0**log_s1, 10.0**log_s2
        assume(s2 < s1)
        comps = [GaussianApprox(m, v) for m, v in raw] * copies
        try:
            fit = fit_sum(comps, s1=s1, s2=s2, rule=gh_rule(m0), ref_dbm=-76.0)
        except UlikError:
            return
        assert math.isfinite(fit.mu_q) and math.isfinite(fit.var_q)
        if fit.converged:
            assert max(abs(r) for r in fit.residuals) <= 1e-8


class TestFitBits:
    """fit_sum over bench/run.py's design-point grid plus the (1e4, 1e3, 12)
    point without a root, on a fixed 84-component set."""

    GRID = tuple((s1, s2, m) for s1, s2 in ((0.1, 0.01), (0.3, 0.03), (1.0, 0.1), (1.0, 0.01),
                                          (3.0, 0.3), (3.0, 0.03), (10.0, 1.0), (10.0, 0.1),
                                          (30.0, 3.0))
                 for m in (8, 12, 16, 20, 24, 32)) + ((1e4, 1e3, 12),)
    COMPONENTS = [GaussianApprox(-120.0 + 0.22 * (i * 37 % 84), 200.0 + 0.075 * (i * 53 % 84))
                  for i in range(84)]

    def fits(self):
        return [fit_sum(self.COMPONENTS, s1=s1, s2=s2, rule=gh_rule(m), ref_dbm=-76.0)
                for s1, s2, m in self.GRID]

    def test_results_are_pinned(self):
        fits = self.fits()
        assert [f.converged for f in fits] == [True] * (len(self.GRID) - 1) + [False]
        digest = hashlib.sha256("".join(map(repr, fits)).encode()).hexdigest()
        assert digest == "740ae913cb01807fe79dbf3851c95d1c00ed9609745254854d08f370a4e8d0fb"

    def test_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.fits()

    # Without ref_dbm the fit takes the components' aggregate mean level as
    # its reference: four design points, the last one without a root, on the
    # component set shifted by four common offsets, and two single components.
    AGGREGATE_POINTS = ((1.0, 0.1, 12), (3.0, 0.3, 20), (10.0, 1.0, 32), (1e4, 1e3, 12))
    SHIFTS_DB = (0.0, 4.7, -300.0, 2000.0)

    def test_aggregate_reference_results_are_pinned(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits = [fit_sum([GaussianApprox(c.mean + d, c.variance) for c in self.COMPONENTS],
                            s1=s1, s2=s2, rule=gh_rule(m))
                    for d in self.SHIFTS_DB for s1, s2, m in self.AGGREGATE_POINTS]
            fits += [fit_sum([GaussianApprox(-97.1, 205.25)]),
                     fit_sum([GaussianApprox(-90.0, 64.0)])]
        assert [f.converged for f in fits] == [True, True, True, False] * 4 + [True, True]
        digest = hashlib.sha256("".join(map(repr, fits)).encode()).hexdigest()
        assert digest == "195ffafb2c4285fcc1e86247c68248c258084deb59445650aaf32a84623a0bf4"


class TestUltraDenseFit:
    """160 cells of radius 10 m in a 0.3 km square (drop seed 1), analysed at
    an accuracy target of 2e4 points per cell."""

    @pytest.fixture(scope="class")
    def components(self):
        sc = gen_hotspot(HotspotDropSpec(n_cells=160, radius_r=0.01, area_km=(0.3, 0.3),
                                         seed=1))
        return [c.component for c in analyze(sc, 20_000).cells], sc.power.p0_dbm

    def test_converges_at_large_design_points(self, components):
        comps, p0 = components
        fit = fit_sum(comps, s1=100.0, s2=10.0, rule=gh_rule(12), ref_dbm=p0)
        assert fit.converged
        assert fit.mu_q == pytest.approx(-73.6998, abs=1e-4)
        assert fit.var_q == pytest.approx(4.4346, abs=1e-4)

    def test_no_root_is_reported_not_raised(self, components):
        comps, p0 = components
        fit = fit_sum(comps, s1=1e4, s2=1e3, rule=gh_rule(12), ref_dbm=p0)
        assert not fit.converged
        assert math.isfinite(fit.mu_q) and fit.var_q > 0


class TestFentonWilkinson:
    @pytest.mark.parametrize("comp", [(0.0, 1e308), (0.0, 1e4), (-2e4, 100.0), (math.nan, 1.0)])
    def test_seed_out_of_float_range(self, comp):
        # The error comes without a numpy RuntimeWarning first.
        mu, var = comp
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no lognormal seed"):
                fenton_wilkinson(np.array([mu]), np.array([var]))

    def test_single_component_recovers_inputs(self):
        mu, var = fenton_wilkinson(np.array([-90.0]), np.array([64.0]))
        assert mu == pytest.approx(-90.0, abs=1e-9)
        assert var == pytest.approx(64.0, abs=1e-9)

    def test_matches_linear_moments(self):
        zeta = 10.0 / math.log(10.0)
        mus, vs = np.array([-80.0, -85.0]), np.array([30.0, 40.0])
        mu, var = fenton_wilkinson(mus, vs)
        m = sum(math.exp(a / zeta + v / (2 * zeta**2)) for a, v in zip(mus, vs))
        assert math.exp(mu / zeta + var / (2 * zeta**2)) == pytest.approx(m, rel=1e-12)

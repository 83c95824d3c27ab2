"""Acceptance gate: end-to-end statistical criteria for the analysis kit.

Each criterion prints a single PASS/FAIL line (visible with -s, and in the
captured output of any failure) before asserting.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from ulik.channel import ChannelParams, combined_shadow_stats
from ulik.distribution import LognormalDist, ks_distance
from ulik.gaussian_approx import GaussianApprox, lognormal_exp_gaussian, region_moments, tau
from ulik.geometry import (
    Disk,
    Difference,
    Ellipse,
    HalfPlane,
    Intersection,
    Point,
    Polygon,
    sample_uniform_xy,
)
from ulik.lognormal_sum import fit_sum, gh_rule, lognormal_mgf
from ulik.pipeline import analyze
from ulik.scenario_io import HotspotDropSpec, gen_hotspot, gen_single_interferer
from ulik.simulator import SimConfig, simulate, simulate_shadow_fading_product
from ulik.simulator import substream

SIGMA_S_SQ = 164.0  # (1 + 0.8^2) * 100
SIGMA_G_SQ = SIGMA_S_SQ + 5.57**2
RADII = (0.01, 0.02, 0.04)
HOTSPOT_SEED = 2


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def b2_analysis():
    """Analysis pipeline for the three single-interferer disk scenarios."""
    out = {}
    for r in RADII:
        sc = gen_single_interferer(r)
        (cell,) = analyze(sc, 1_000_000).cells
        out[r] = {
            "scenario": sc,
            "moments": cell.moments,
            "tau": cell.certificate.tau,
            "q": cell.component,
        }
    return out


@pytest.fixture(scope="module")
def hotspot():
    """Full B=84 pipeline: drop, per-cell analysis, aggregate fit, simulation."""
    sc = gen_hotspot(HotspotDropSpec(seed=HOTSPOT_SEED))
    result = analyze(sc, 1_000_000, tau_threshold=0.02)
    taus = [c.certificate.tau for c in result.cells]
    comps = [c.component for c in result.cells]
    sim = simulate(sc, SimConfig(n_samples=1_000_000, seed=99, threads=4))
    return {"scenario": sc, "taus": taus, "components": comps, "fit": result.fit, "sim": sim}


def test_criterion_1_surrogate_gaussian():
    dist = simulate_shadow_fading_product(SIGMA_S_SQ, 1_000_000, seed=0)
    ks = ks_distance(dist, GaussianApprox(-2.5, SIGMA_G_SQ))
    report(1, ks <= 0.02, f"surrogate KS={ks:.4f}, bound 0.02")
    assert ks <= 0.02


def test_criterion_2_tau_magnitude_and_trend(b2_analysis):
    taus = {r: b2_analysis[r]["tau"] for r in RADII}
    ok = (taus[0.01] < taus[0.02] < taus[0.04]
          and taus[0.01] <= 0.015 and taus[0.04] <= 0.03)
    report(2, ok, "tau=" + ", ".join(f"{r}:{taus[r]:.4f}" for r in RADII))
    assert taus[0.01] < taus[0.02] < taus[0.04]
    assert taus[0.01] <= 0.015
    assert taus[0.04] <= 0.03


def test_criterion_3_single_interferer_gaussian(b2_analysis):
    results = {}
    for r in RADII:
        entry = b2_analysis[r]
        sim = simulate(entry["scenario"], SimConfig(n_samples=1_000_000, seed=17))
        q = entry["q"]
        results[r] = ks_distance(sim.aggregate_dbm, GaussianApprox(q.mean, q.variance))
    bounds = {0.01: 0.02, 0.02: 0.02, 0.04: 0.03}
    ok = all(results[r] <= bounds[r] for r in RADII)
    report(3, ok, "KS=" + ", ".join(f"{r}:{results[r]:.4f}" for r in RADII))
    for r in RADII:
        assert results[r] <= bounds[r]


def test_criterion_4_aggregate_lognormal_fit(hotspot):
    taus, fit, sim = hotspot["taus"], hotspot["fit"], hotspot["sim"]
    max_tau = max(taus)
    max_res = max(abs(x) for x in fit.residuals)
    ks = ks_distance(sim.aggregate_dbm, GaussianApprox(fit.mu_q, fit.var_q))
    ok = (max_tau <= 0.02 and fit.converged and max_res <= 1e-8
          and ks <= 0.06 and 10.0 <= fit.var_q <= 30.0)
    report(4, ok, f"tau_max={max_tau:.4f}, residual={max_res:.1e}, "
                  f"KS={ks:.4f} (bound 0.06), var_q={fit.var_q:.2f} (window [10, 30])")
    assert max_tau <= 0.02
    assert fit.converged and max_res <= 1e-8
    assert 10.0 <= fit.var_q <= 30.0
    assert ks <= 0.06


def mgf_oracle(mu, var, s):
    """Adaptive-quadrature reference for E[exp(-s * 10^(X/10))], X~N(mu, var)."""
    sd = math.sqrt(var)

    def f(z):
        return math.exp(-s * 10 ** ((mu + sd * z) / 10.0)) * math.exp(-z * z / 2.0)

    val, _ = quad(f, -12.0, 12.0, limit=400)
    return val / math.sqrt(2.0 * math.pi)


def test_criterion_5_mgf_machinery():
    rule = gh_rule(12)
    worst = 0.0
    for mu in (-120.0, -60.0, -20.0, 0.0):
        for var in (1.0, 25.0, 100.0, 400.0):
            for s in (0.1, 1.0):
                ref = mgf_oracle(mu, var, s)
                got = lognormal_mgf(mu, var, s, rule)
                worst = max(worst, abs(got - ref) / ref)
    identity = fit_sum([GaussianApprox(-97.1, 205.25)])
    id_err = max(abs(identity.mu_q + 97.1), abs(identity.var_q - 205.25))
    pair = fit_sum([GaussianApprox(-76.0, 0.0)] * 2)
    pair_err = abs(pair.mu_q - (-76.0 + 10 * math.log10(2.0)))
    ok = worst <= 1e-3 and id_err <= 1e-9 and pair_err <= 1e-9
    report(5, ok, f"GH12 rel err={worst:.2e}, identity err={id_err:.1e}, "
                  f"constant-pair err={pair_err:.1e}")
    assert worst <= 1e-3
    assert id_err <= 1e-9
    assert pair_err <= 1e-9


def brute_force_moments(region, own_bs, victim_bs, n, seed):
    """Independent oracle: direct rejection sampling and direct averaging.

    Deliberately shares no code with gaussian_approx.region_moments beyond
    the region membership mask.
    """
    a_db, alpha, eta = 103.8, 20.9, 0.8
    (x0, y0), (x1, y1) = region.bounding_box()
    rng = np.random.default_rng(seed)
    xs = np.empty(n)
    ys = np.empty(n)
    have = 0
    while have < n:
        m = max(int((n - have) * 2.5), 10_000)
        cx = rng.uniform(x0, x1, m)
        cy = rng.uniform(y0, y1, m)
        keep = region.mask(cx, cy)
        k = min(int(keep.sum()), n - have)
        xs[have:have + k] = cx[keep][:k]
        ys[have:have + k] = cy[keep][:k]
        have += k
    d_bb = np.hypot(xs - own_bs.x, ys - own_bs.y)
    d_b1 = np.hypot(xs - victim_bs.x, ys - victim_bs.y)
    l = (eta - 1.0) * a_db + alpha * np.log10(d_bb**eta / d_b1)
    mu = l.mean()
    centered = l - mu
    v = centered**2
    a3 = np.abs(centered) ** 3
    se = lambda arr: arr.std(ddof=1) / math.sqrt(n)
    return (mu, v.mean(), a3.mean()), (se(l), se(v), se(a3))


def test_criterion_6_moments_oracle_equivalence(params, pc):
    own, victim = Point(0.03, 0.0), Point(0.0, 0.0)
    regions = [
        Disk(Point(0.03, 0.0), 0.02),
        Difference(Disk(Point(0.03, 0.0), 0.02), Disk(Point(0.025, 0.004), 0.008)),
        Intersection((Disk(Point(0.03, 0.0), 0.025),
                      HalfPlane(Point(0.02, 0.0), Point(1.0, 0.0)))),
        Ellipse(Point(0.035, 0.005), 0.015, 0.007, rotation=0.6),
        Polygon((Point(0.015, -0.01), Point(0.05, -0.005), Point(0.045, 0.015),
                 Point(0.02, 0.012))),
    ]
    worst = 0.0
    for i, region in enumerate(regions):
        m = region_moments(region, own, victim, params, pc, 1_000_000)
        (bm, bv, b3), (se_m, se_v, se_3) = brute_force_moments(
            region, own, victim, 10_000_000, seed=1000 + i
        )
        for got, ref, se_a, se_b in [
            (m.mu_l, bm, m.std_errors[0], se_m),
            (m.var_l, bv, m.std_errors[1], se_v),
            (m.abs3_l, b3, m.std_errors[2], se_3),
        ]:
            sigma = math.sqrt(se_a**2 + se_b**2)
            worst = max(worst, abs(got - ref) / sigma)
    report(6, worst <= 3.0, f"worst moment deviation {worst:.2f} combined std errors")
    assert worst <= 3.0


def test_criterion_7_invariant_suites(b2_analysis, hotspot, params, pc):
    failures = []

    # Lyapunov inequality on every computed moment set
    for r in RADII:
        m = b2_analysis[r]["moments"]
        if m.abs3_l < m.var_l**1.5:
            failures.append(f"Lyapunov violated at r={r}")

    # MGF monotone decreasing in s and mu
    rule = gh_rule(12)
    in_s = [lognormal_mgf(-10.0, 50.0, s, rule) for s in np.linspace(0.05, 4.0, 60)]
    in_mu = [lognormal_mgf(mu, 50.0, 0.5, rule) for mu in np.linspace(-40.0, 10.0, 60)]
    if not all(a > b for a, b in zip(in_s, in_s[1:])):
        failures.append("MGF not decreasing in s")
    if not all(a > b for a, b in zip(in_mu, in_mu[1:])):
        failures.append("MGF not decreasing in mu")

    # tau invariant under A offsets
    sc = b2_analysis[0.02]["scenario"]
    g = lognormal_exp_gaussian(combined_shadow_stats(params, pc))
    cell = sc.interfering_cells()[0]
    taus = []
    for a_db in (103.8, 130.0):
        p = ChannelParams(a_db, params.alpha, params.sigma_shad_sq)
        m = region_moments(sc.ue_region(cell.id), cell.bs, sc.victim_cell().bs,
                           p, pc, 100_000)
        taus.append(tau(m, g).tau)
    if abs(taus[0] - taus[1]) > 1e-9 * taus[0]:
        failures.append("tau not invariant under A offset")

    # mu_Q translation property of the fit
    comps = hotspot["components"][:12]
    base = fit_sum(comps)
    shifted = fit_sum([GaussianApprox(c.mean + 4.7, c.variance) for c in comps])
    if abs(shifted.mu_q - base.mu_q - 4.7) > 1e-9 or abs(shifted.var_q - base.var_q) > 1e-9:
        failures.append("mu_Q translation property violated")

    # PDF normalization
    fit = hotspot["fit"]
    dist = LognormalDist(fit.mu_q, fit.var_q)
    ln10 = math.log(10.0)
    total, _ = quad(lambda x: dist.pdf(10 ** (x / 10.0)) * 10 ** (x / 10.0) * ln10 / 10.0,
                    fit.mu_q - 80.0, fit.mu_q + 80.0, limit=400)
    if abs(total - 1.0) > 1e-6:
        failures.append(f"PDF integral {total} off by more than 1e-6")

    # hotspot region disjointness, ~1e5 probes total
    hs = hotspot["scenario"]
    regions = [(c.id, hs.ue_region(c.id)) for c in hs.cells]
    probes_per_cell = max(100_000 // len(regions), 1)
    for i, (cid, region) in enumerate(regions):
        xs, ys = sample_uniform_xy(region, substream(31, i), probes_per_cell)
        for ocid, other in regions:
            if ocid != cid and other.mask(xs, ys).any():
                failures.append(f"regions {cid} and {ocid} overlap")

    # bit determinism across thread counts
    sims = [simulate(hs, SimConfig(n_samples=20_000, seed=13, threads=t)) for t in (1, 4)]
    if not np.array_equal(sims[0].aggregate_dbm.samples, sims[1].aggregate_dbm.samples):
        failures.append("simulation differs across thread counts")

    report(7, not failures, "; ".join(failures) if failures else "all invariants hold")
    assert not failures

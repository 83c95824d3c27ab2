import math

import numpy as np
import pytest

from ulik import simulator
from ulik.channel import ChannelParams, PowerControl, interference_db
from ulik.errors import EmptyRegionError, ValidationError
from ulik.geometry import Difference, Disk, Point
from ulik.scenario_io import Cell, NetworkScenario
from ulik.simulator import (
    SimConfig,
    _exponential,
    read_samples,
    simulate,
    simulate_shadow_fading_product,
    write_samples,
)


def two_cell_scenario(sigma_shad_sq=100.0, region_radius=1e-6):
    """Victim at origin, one interferer whose UE sits in a near-point region."""
    ue_center = Point(0.025, 0.004)
    cells = (
        Cell("c1", Point(0.0, 0.0), Disk(Point(0.004, 0.0), 0.002)),
        Cell("c2", Point(0.03, 0.0), Disk(ue_center, region_radius)),
    )
    return NetworkScenario(
        cells=cells,
        victim_cell_id="c1",
        channel=ChannelParams(103.8, 20.9, sigma_shad_sq),
        power=PowerControl(-76.0, 0.8),
    )


@pytest.fixture
def unit_fading(monkeypatch):
    """Every fading gain is 1."""
    monkeypatch.setattr(simulator, "_exponential", lambda rng, n: np.ones(n))


class TestSimulate:
    def test_deterministic_scenario_reproduces_channel_formula(self, unit_fading):
        sc = two_cell_scenario(sigma_shad_sq=0.0, region_radius=1e-9)
        res = simulate(sc, SimConfig(n_samples=500, seed=1))
        ue, bs = Point(0.025, 0.004), Point(0.03, 0.0)
        ch, pc = sc.channel, sc.power
        d_bb = math.hypot(ue.x - bs.x, ue.y - bs.y)
        d_b1 = math.hypot(ue.x, ue.y)
        expected = pc.p0_dbm + pc.eta * (ch.a_db + ch.alpha * math.log10(d_bb)) - (
            ch.a_db + ch.alpha * math.log10(d_b1))
        np.testing.assert_allclose(res.aggregate_dbm.samples, expected, atol=1e-4)

    def test_per_cell_variance_matches_combined_shadowing(self, unit_fading):
        sc = two_cell_scenario()
        res = simulate(sc, SimConfig(n_samples=200_000, seed=3, record_per_cell=True))
        (samples,) = [d.samples for d in res.per_cell_db.values()]
        var = samples.var(ddof=1)
        se = var * math.sqrt(2.0 / (len(samples) - 1))
        assert abs(var - 164.0) < 3 * se

    def test_b2_aggregate_equals_per_cell(self):
        sc = two_cell_scenario()
        res = simulate(sc, SimConfig(n_samples=5000, seed=2, record_per_cell=True))
        (cell,) = res.per_cell_db.values()
        np.testing.assert_allclose(np.sort(cell.samples), res.aggregate_dbm.samples,
                                   atol=1e-12)

    def test_aggregate_dominates_components(self):
        cells = (
            Cell("c1", Point(0.0, 0.0), Disk(Point(0.004, 0.0), 0.002)),
            Cell("c2", Point(0.03, 0.0), Disk(Point(0.025, 0.0), 0.005)),
            Cell("c3", Point(-0.03, 0.01), Disk(Point(-0.025, 0.01), 0.005)),
        )
        sc = NetworkScenario(cells=cells, victim_cell_id="c1",
                             channel=ChannelParams(103.8, 20.9, 100.0),
                             power=PowerControl(-76.0, 0.8))
        res = simulate(sc, SimConfig(n_samples=2000, seed=5, record_per_cell=True))
        agg_mw = np.sort(10 ** (res.aggregate_dbm.samples / 10.0))
        max_cell_mw = np.sort(
            np.maximum(*[10 ** (d.samples / 10.0) for d in res.per_cell_db.values()])
        )
        assert (agg_mw >= max_cell_mw - 1e-30).all()

    def test_bit_determinism(self):
        sc = two_cell_scenario()
        a = simulate(sc, SimConfig(n_samples=4000, seed=11))
        b = simulate(sc, SimConfig(n_samples=4000, seed=11))
        np.testing.assert_array_equal(a.aggregate_dbm.samples, b.aggregate_dbm.samples)

    def test_thread_count_invariance(self):
        sc = two_cell_scenario()
        a = simulate(sc, SimConfig(n_samples=4000, seed=11, threads=1))
        b = simulate(sc, SimConfig(n_samples=4000, seed=11, threads=3))
        np.testing.assert_array_equal(a.aggregate_dbm.samples, b.aggregate_dbm.samples)

    def test_empty_region_error_names_cell(self):
        sc = two_cell_scenario()
        disk = Disk(Point(0.025, 0.0), 0.005)
        empty = Cell("hollow", Point(0.03, 0.0), Difference(disk, disk))
        sc = NetworkScenario((sc.cells[0], empty), "c1", sc.channel, sc.power)
        with pytest.raises(EmptyRegionError, match="^cell 'hollow': "):
            simulate(sc, SimConfig(n_samples=10, seed=1))

    def test_missing_victim_is_a_validation_error(self):
        sc = two_cell_scenario()
        sc = NetworkScenario(sc.cells, "absent", sc.channel, sc.power)
        with pytest.raises(ValidationError, match="no cell with id 'absent'"):
            simulate(sc, SimConfig(n_samples=10, seed=1))

    def test_sample_count_validated(self):
        with pytest.raises(ValidationError):
            SimConfig(n_samples=0)


class TestShadowFadingProduct:
    def test_mean_and_variance_at_164(self):
        dist = simulate_shadow_fading_product(164.0, 1_000_000, seed=0)
        assert dist.samples.mean() == pytest.approx(-2.5, abs=0.05)
        assert dist.samples.var(ddof=1) == pytest.approx(164.0 + 31.02, abs=1.5)

    def test_pure_fading_mean_is_euler_gamma(self):
        # sigma_S^2 = 0 leaves 10*log10(H), whose mean is -10*gamma/ln(10)
        dist = simulate_shadow_fading_product(0.0, 1_000_000, seed=1)
        expected = -10.0 * np.euler_gamma / math.log(10.0)
        assert dist.samples.mean() == pytest.approx(expected, abs=0.02)

    def test_fading_mean_unit(self):
        dist = simulate_shadow_fading_product(0.0, 1_000_000, seed=2)
        h = 10 ** (dist.samples / 10.0)
        assert h.mean() == pytest.approx(1.0, abs=0.003)


class FixedDraws:
    """Stands in for a generator whose uniform draws are given."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        return self.u[:n]


class TestExponentialFading:
    def test_zero_draw_gives_positive_gain(self, params, pc):
        h = _exponential(FixedDraws(np.zeros(3)), 3)
        assert (h > 0).all()
        v = interference_db(pc, params, 0.0, 0.0, Point(0.01, 0.0), Point(0.0, 0.02),
                            0.0, 0.0, h)
        assert np.isfinite(v).all()

    def test_nonzero_draws_unchanged(self):
        u = np.array([2.0**-53, 1e-9, 0.5, 1.0 - 2.0**-53])
        np.testing.assert_array_equal(_exponential(FixedDraws(u), 4), -np.log1p(-u))


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        sc = two_cell_scenario()
        res = simulate(sc, SimConfig(n_samples=1000, seed=7))
        path = tmp_path / "samples.bin"
        write_samples(path, res.aggregate_dbm)
        back = read_samples(path)
        np.testing.assert_array_equal(back.samples, res.aggregate_dbm.samples)

    def test_magic_header(self, tmp_path):
        sc = two_cell_scenario()
        res = simulate(sc, SimConfig(n_samples=10, seed=7))
        path = tmp_path / "samples.bin"
        write_samples(path, res.aggregate_dbm)
        raw = path.read_bytes()
        assert raw[:8] == b"ULIKSMP1"
        assert int.from_bytes(raw[8:16], "little") == 10

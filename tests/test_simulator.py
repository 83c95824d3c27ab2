import collections
import concurrent.futures
import math
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ulik import channel, geometry, simulator
from ulik.channel import ChannelParams, PowerControl, combined_shadow_stats, interference_db
from ulik.distribution import EmpiricalDistribution
from ulik.errors import SchemaError, ValidationError
from ulik.geometry import Difference, Disk, Point, sample_uniform_xy
from ulik.scenario_io import Cell, NetworkScenario, gen_single_interferer
from ulik.simulator import (
    SAMPLE_DUMP_MAGIC,
    SimConfig,
    _exponential,
    read_samples,
    simulate,
    simulate_shadow_fading_product,
    substream,
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


def four_cell_scenario():
    """Victim c1 and three interferers with small disk UE regions."""
    cells = (
        Cell("c1", Point(0.0, 0.0), Disk(Point(0.004, 0.0), 0.002)),
        Cell("c2", Point(0.03, 0.0), Disk(Point(0.025, 0.0), 0.005)),
        Cell("c3", Point(-0.03, 0.01), Disk(Point(-0.025, 0.01), 0.005)),
        Cell("c4", Point(0.2, -0.1), Disk(Point(0.2, -0.09), 0.005)),
    )
    return NetworkScenario(cells=cells, victim_cell_id="c1",
                           channel=ChannelParams(103.8, 20.9, 100.0),
                           power=PowerControl(-76.0, 0.8))


def ring_scenario(k):
    """Victim c1 at the origin and k interferers c2, c3, ... around it."""
    cells = [Cell("c1", Point(0.0, 0.0), Disk(Point(0.004, 0.0), 0.002))]
    for i in range(k):
        u = Point(math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k))
        cells.append(Cell(f"c{i + 2}", Point(0.05 * u.x, 0.05 * u.y),
                          Disk(Point(0.045 * u.x, 0.045 * u.y), 0.005)))
    return NetworkScenario(cells=tuple(cells), victim_cell_id="c1",
                           channel=ChannelParams(103.8, 20.9, 100.0),
                           power=PowerControl(-76.0, 0.8))


def before_each_step(monkeypatch, sc, act):
    """Call act(cell id, block, step) before every draw of a cell's block
    positions (step "positions") and every channel.interference_db of a
    block (step "rest"); the blocks of a cell count from 0."""
    by_region = {id(c.region): c.id for c in sc.cells}
    by_bs = {c.bs: c.id for c in sc.cells}
    calls = collections.Counter()
    sample, interference = geometry.sample_uniform_xy, channel.interference_db

    def step(cid, name):
        calls[cid, name] += 1  # a cell's steps of one kind never run at once
        act(cid, calls[cid, name] - 1, name)

    def positions(region, rng, n):
        step(by_region[id(region.left)], "positions")
        return sample(region, rng, n)

    def rest(pc, params, xs, ys, bs, *args):
        step(by_bs[bs], "rest")
        return interference(pc, params, xs, ys, bs, *args)

    monkeypatch.setattr(geometry, "sample_uniform_xy", positions)
    monkeypatch.setattr(channel, "interference_db", rest)


def fail_at(*steps):
    """An act for before_each_step that fails the given (cell id, block, step)s."""
    def act(cid, block, name):
        if (cid, block, name) in steps:
            raise ValidationError(f"{name} fails in block {block}")
    return act


THREE_BLOCKS = 2 * simulator._BLOCK + 1000


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

    def test_linear_sum_matches_logaddexp(self, monkeypatch):
        # Two blocks of three cells: each realization's aggregate against a
        # logaddexp reduction of its cells' dB values and against its largest cell.
        sc = four_cell_scenario()
        drawn = []
        interference = channel.interference_db

        def recording(*args):
            x = interference(*args)
            drawn.append(x.copy())
            return x

        monkeypatch.setattr(channel, "interference_db", recording)
        n = simulator._BLOCK + 1000
        res = simulate(sc, SimConfig(n_samples=n, seed=9))
        assert len(drawn) == 6
        x = np.stack([np.concatenate(drawn[j::3]) for j in range(3)])
        scale = math.log(10.0) / 10.0
        reference = np.logaddexp.reduce(x * scale, axis=0) / scale
        agg = res.aggregate_dbm.samples
        np.testing.assert_allclose(agg, np.sort(reference), rtol=0, atol=1e-12)
        assert (agg >= np.sort(x.max(axis=0)) - 1e-12).all()

    @pytest.mark.parametrize("threads", [1, 3, 4])
    def test_blocks_rebuilt_from_their_streams(self, threads):
        # Each cell's blocks drawn here from its own (seed, cell index, tag)
        # streams, positions then normals then fading, reproduce the dumps
        # bit for bit, and so does the aggregate summed linearly in cell order.
        sc = four_cell_scenario()
        seed, n = 4, simulator._BLOCK + 1000
        res = simulate(sc, SimConfig(n_samples=n, seed=seed, record_per_cell=True,
                                     threads=threads))
        params, pc = sc.channel, sc.power
        shadow_sd = math.sqrt(combined_shadow_stats(params, pc).variance)
        victim_bs = sc.victim_cell().bs
        total = 0.0
        for idx, cell in enumerate(sc.interfering_cells()):
            region = sc.ue_region(cell.id)
            rng_pos, rng_s, rng_h = (substream(seed, idx, tag) for tag in (0, 1, 3))
            blocks = []
            for m in (simulator._BLOCK, 1000):
                xs, ys = sample_uniform_xy(region, rng_pos, m)
                s = shadow_sd * rng_s.standard_normal(m)
                h = _exponential(rng_h, m)
                blocks.append(interference_db(pc, params, xs, ys, cell.bs, victim_bs, s, h))
            x = np.concatenate(blocks)
            np.testing.assert_array_equal(res.per_cell_db[cell.id].samples.view(np.int64),
                                          np.sort(x).view(np.int64))
            total = total + np.exp((x - pc.p0_dbm) * (math.log(10.0) / 10.0))
        want = np.sort(pc.p0_dbm + 10.0 * np.log10(total))
        np.testing.assert_array_equal(res.aggregate_dbm.samples.view(np.int64),
                                      want.view(np.int64))

    def test_aggregate_out_of_float_range_is_an_error(self):
        # A shadowing spread of 10^4 dB puts 10^(x/10) beyond the float range.
        sc = two_cell_scenario(sigma_shad_sq=1e8)
        with np.errstate(over="ignore"), pytest.raises(ValidationError, match="floating-point"):
            simulate(sc, SimConfig(n_samples=100, seed=1))

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
        with pytest.raises(ValidationError, match="^cell 'hollow': acceptance rate"):
            simulate(sc, SimConfig(n_samples=10, seed=1))

    def test_ue_on_a_bs_names_the_cell(self, monkeypatch):
        # Every UE is drawn at the victim BS, the origin.
        monkeypatch.setattr(geometry, "sample_uniform_xy",
                            lambda region, rng, n: (np.zeros(n), np.zeros(n)))
        with pytest.raises(ValidationError,
                           match="^cell 'c2': sampled UE position coincides with a BS"):
            simulate(two_cell_scenario(), SimConfig(n_samples=10, seed=1))

    def test_missing_victim_is_a_validation_error(self):
        sc = two_cell_scenario()
        sc = NetworkScenario(sc.cells, "absent", sc.channel, sc.power)
        with pytest.raises(ValidationError, match="no cell with id 'absent'"):
            simulate(sc, SimConfig(n_samples=10, seed=1))

    def test_sample_count_validated(self):
        with pytest.raises(ValidationError):
            SimConfig(n_samples=0)

    def test_sample_count_capped_at_2_53(self):
        # A configuration allocates nothing, so these counts are safe to build.
        assert SimConfig(n_samples=2**53).n_samples == 2**53
        for n in (2**53 + 1, 2**61):
            with pytest.raises(ValidationError, match=rf"at most 2\*\*53 realizations, got {n}"):
                SimConfig(n_samples=n)


class TestPipeline:
    """With fewer cells than threads, each cell's next block of positions is
    drawn while the rest of its current block runs."""

    def test_three_blocks_bit_identical_at_any_thread_count(self):
        # Four threads on fewer cores, switched as often as the interpreter allows.
        sc = gen_single_interferer(0.02)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [simulate(sc, SimConfig(n_samples=THREE_BLOCKS, seed=8, record_per_cell=True,
                                           threads=threads)) for threads in (1, 2, 4)]
        finally:
            sys.setswitchinterval(interval)
        for res in runs[1:]:
            np.testing.assert_array_equal(res.aggregate_dbm.samples.view(np.int64),
                                          runs[0].aggregate_dbm.samples.view(np.int64))
            np.testing.assert_array_equal(res.per_cell_db["interferer"].samples.view(np.int64),
                                          runs[0].per_cell_db["interferer"].samples.view(np.int64))

    @pytest.mark.parametrize("step", ["positions", "rest"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_later_block_failure_names_the_cell(self, monkeypatch, threads, step):
        sc = two_cell_scenario()
        before_each_step(monkeypatch, sc, fail_at(("c2", 2, step)))
        with pytest.raises(ValidationError, match=f"^cell 'c2': {step} fails in block 2$"):
            simulate(sc, SimConfig(n_samples=THREE_BLOCKS, seed=3, threads=threads))

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_errors_surface_in_block_then_cell_order(self, monkeypatch, threads):
        # c2's positions fail in block 2, c4's in block 1 and c3's rest in
        # block 1; with 4 threads c2's block 2 is drawn before block 1 ends.
        sc = four_cell_scenario()
        before_each_step(monkeypatch, sc, fail_at(
            ("c2", 2, "positions"), ("c4", 1, "positions"), ("c3", 1, "rest")))
        with pytest.raises(ValidationError, match="^cell 'c3': rest fails in block 1$"):
            simulate(sc, SimConfig(n_samples=THREE_BLOCKS, seed=3, threads=threads))

    @pytest.mark.parametrize("k, threads", [(1, 2), (3, 4), (5, 2)])
    def test_failed_run_stops_its_workers(self, monkeypatch, k, threads):
        # c2's first rest fails at once, while every positions draw but c2's
        # first waits for the run to shut its pool down.  The held workers
        # cannot have started all tasks of three or more interferers.
        sc = ring_scenario(k)
        release = threading.Event()
        submitted = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                submitted.append(super().submit(*args, **kwargs))
                return submitted[-1]

            def shutdown(self, wait=True, *, cancel_futures=False):
                # What this call leaves queued would run once the workers go on.
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                release.set()
                super().shutdown(wait=wait)

        def act(cid, block, name):
            if (cid, block, name) == ("c2", 0, "rest"):
                raise ValidationError("rest fails in block 0")
            if name == "positions" and (cid, block) != ("c2", 0):
                release.wait(10)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        before_each_step(monkeypatch, sc, act)
        count = threading.active_count()
        with pytest.raises(ValidationError, match="^cell 'c2': rest fails in block 0$"):
            simulate(sc, SimConfig(n_samples=THREE_BLOCKS, seed=3, threads=threads))
        assert threading.active_count() == count
        assert all(f.done() for f in submitted)
        assert k < 3 or any(f.cancelled() for f in submitted)


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

    def test_bit_identical_to_expression(self):
        n, seed = 100_000, 4
        s = math.sqrt(164.0) * substream(seed, 0, simulator._TAG_SHADOW).standard_normal(n)
        h = _exponential(substream(seed, 0, simulator._TAG_FADING), n)
        want = np.sort(s + 10.0 * np.log10(h))
        got = simulate_shadow_fading_product(164.0, n, seed).samples
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


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
        v = interference_db(pc, params, 0.0, 0.0, Point(0.01, 0.0), Point(0.0, 0.02), 0.0, h)
        assert np.isfinite(v).all()

    def test_nonzero_draws_unchanged(self):
        u = np.array([2.0**-53, 1e-9, 0.5, 1.0 - 2.0**-53])
        np.testing.assert_array_equal(_exponential(FixedDraws(u), 4), -np.log1p(-u))

    def test_bit_identical_to_expression(self):
        u = np.random.default_rng(6).random(100_000)
        u[:2] = 0.0, 1.0 - 2.0**-53
        want = np.maximum(-np.log1p(-u), simulator._MIN_FADING)
        got = _exponential(FixedDraws(u.copy()), len(u))
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        sc = two_cell_scenario()
        res = simulate(sc, SimConfig(n_samples=1000, seed=7))
        path = tmp_path / "samples.bin"
        write_samples(path, res.aggregate_dbm)
        back = read_samples(path)
        np.testing.assert_array_equal(back.samples, res.aggregate_dbm.samples)
        assert not back.samples.flags.writeable

    def test_magic_header(self, tmp_path):
        sc = two_cell_scenario()
        res = simulate(sc, SimConfig(n_samples=10, seed=7))
        path = tmp_path / "samples.bin"
        write_samples(path, res.aggregate_dbm)
        raw = path.read_bytes()
        assert raw[:8] == b"ULIKSMP1"
        assert int.from_bytes(raw[8:16], "little") == 10
        assert raw[16:] == res.aggregate_dbm.samples.astype("<f8").tobytes()

    @pytest.mark.parametrize("raw, message", [
        (b"ULIKSMP0" + struct.pack("<Qd", 1, -80.0), "not a ulik sample dump"),
        (SAMPLE_DUMP_MAGIC + b"\x01\x00", r"truncated sample dump \(10 bytes\)"),
        (SAMPLE_DUMP_MAGIC + struct.pack("<Qd", 2, -80.0) + b"\x00" * 3,
         r"truncated sample dump \(27 bytes\)"),
        (SAMPLE_DUMP_MAGIC + struct.pack("<Qdd", 3, -80.0, -79.0), "declared 3 samples, found 2"),
        (SAMPLE_DUMP_MAGIC + struct.pack("<Qdd", 2, -80.0, math.nan), "non-finite sample value"),
        (SAMPLE_DUMP_MAGIC + struct.pack("<Qdd", 2, -79.0, -80.0),
         "samples must be sorted ascending"),
        (SAMPLE_DUMP_MAGIC + struct.pack("<Q", 0), "need at least one sample"),
    ], ids=["magic", "short", "ragged", "count", "nonfinite", "order", "empty"])
    def test_malformed_dump_is_a_schema_error(self, tmp_path, raw, message):
        path = tmp_path / "bad.bin"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match=f"{message}$") as info:
            read_samples(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_dump_that_shrinks_while_read_is_a_schema_error(self, tmp_path, monkeypatch):
        # The size is taken when the header is read; the body then falls short.
        path = tmp_path / "s.bin"
        write_samples(path, EmpiricalDistribution(np.arange(3.0)))
        stat = os.stat(path)
        path.write_bytes(path.read_bytes()[:-8])
        with monkeypatch.context() as m, pytest.raises(
                SchemaError, match=r"changed while it was read \(32 of 40 bytes\)$"):
            m.setattr(os, "fstat", lambda fd: stat)
            read_samples(path)


def traced_peak(fn):
    """fn's result, and the peak of the memory tracemalloc traces during the
    call above the level at its start (numpy reports its buffers to it)."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - start
    finally:
        if started:
            tracemalloc.stop()


class TestMemory:
    def test_simulate_holds_each_sample_array_once(self):
        # The two result arrays take 16 MB at 10^6 realizations.  The block
        # temporaries do not grow with n and add about 9.6 MB (about nine
        # float64 blocks); twelve blocks leave room for them, while a second
        # copy of either result array (8 MB) does not fit.
        sc = gen_single_interferer(0.02, shape="paper_irregular")
        cfg = SimConfig(n_samples=10**6, seed=5, record_per_cell=True)
        res, peak = traced_peak(lambda: simulate(sc, cfg))
        held = res.aggregate_dbm.samples.nbytes + sum(
            d.samples.nbytes for d in res.per_cell_db.values())
        assert peak - held <= 12 * simulator._BLOCK * 8

    def test_two_threads_prefetch_one_position_block(self):
        # With one cell and two threads, the next block's positions (two
        # float64 blocks) are drawn while this block's rest runs.
        sc = gen_single_interferer(0.02, shape="paper_irregular")
        cfg = SimConfig(n_samples=10**6, seed=5, record_per_cell=True, threads=2)
        res, peak = traced_peak(lambda: simulate(sc, cfg))
        held = res.aggregate_dbm.samples.nbytes + sum(
            d.samples.nbytes for d in res.per_cell_db.values())
        assert peak - held <= (12 + 2) * simulator._BLOCK * 8

    def test_read_samples_views_the_file_bytes(self, tmp_path):
        # The one array the body is read into plus a one-byte-per-sample mask
        # come to 1.125x the body; a copy of the body would make it 2x.
        path = tmp_path / "samples.bin"
        write_samples(path, EmpiricalDistribution(np.arange(10.0**6)))
        back, peak = traced_peak(lambda: read_samples(path))
        assert peak <= 1.25 * back.samples.nbytes

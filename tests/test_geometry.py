import math

import numpy as np
import pytest

from ulik import geometry
from ulik.errors import ValidationError
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
    ray_segments,
    sample_uniform_xy,
)
from ulik.simulator import substream


def rng(seed=0):
    return np.random.default_rng(seed)


UNIT_DISK = Disk(Point(0.0, 0.0), 1.0)


def contains(region, x, y):
    return bool(region.mask(np.array([x]), np.array([y]))[0])


class TestContains:
    def test_disk_center(self):
        assert contains(UNIT_DISK, 0.0, 0.0)

    def test_disk_outside(self):
        assert not contains(UNIT_DISK, 2.0, 0.0)

    def test_disk_boundary_inside(self):
        assert contains(UNIT_DISK, 1.0, 0.0)

    def test_annulus(self):
        annulus = Difference(UNIT_DISK, Disk(Point(0.0, 0.0), 0.5))
        assert contains(annulus, 0.75, 0.0)
        assert not contains(annulus, 0.25, 0.0)

    def test_halfplane(self):
        # normal (1, 0): keeps x >= 0
        hp = HalfPlane(Point(0.0, 0.0), Point(1.0, 0.0))
        assert contains(hp, 0.5, -3.0)
        assert not contains(hp, -0.1, 0.0)

    def test_polygon(self):
        tri = Polygon((Point(0, 0), Point(1, 0), Point(0, 1)))
        assert contains(tri, 0.25, 0.25)
        assert not contains(tri, 0.9, 0.9)

    def test_csg_membership_matches_boolean_logic(self):
        a = Disk(Point(0.0, 0.0), 1.0)
        b = Disk(Point(0.5, 0.0), 0.8)
        inter, union, diff = Intersection((a, b)), Union((a, b)), Difference(a, b)
        xs, ys = rng(3).uniform(-1.5, 1.5, size=(2, 2000))
        for x, y in zip(xs, ys):
            ia, ib = contains(a, x, y), contains(b, x, y)
            assert contains(inter, x, y) == (ia and ib)
            assert contains(union, x, y) == (ia or ib)
            assert contains(diff, x, y) == (ia and not ib)


def polygon_mask_expression(poly, xs, ys):
    """Polygon.mask's even-odd crossing test as first written: every edge, the
    horizontal ones included, with fresh temporaries."""
    vx = np.array([p.x for p in poly.vertices])
    vy = np.array([p.y for p in poly.vertices])
    inside = np.zeros(xs.shape, dtype=bool)
    j = len(vx) - 1
    for i in range(len(vx)):
        cond = (vy[i] > ys) != (vy[j] > ys)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = (vx[j] - vx[i]) * (ys - vy[i]) / (vy[j] - vy[i]) + vx[i]
        inside ^= cond & (xs < xint)
        j = i
    return inside


L_SHAPE = Polygon((Point(0, 0), Point(2, 0), Point(2, 1), Point(1, 1), Point(1, 2), Point(0, 2)))
SLANTED = Polygon((Point(-0.3, 0.1), Point(1.7, -0.4), Point(2.2, 1.3), Point(0.4, 1.9)))


class TestPolygonMask:
    @pytest.mark.parametrize("poly", [L_SHAPE, SLANTED])
    def test_random_points_match_expression(self, poly):
        r = rng(11)
        xs, ys = r.uniform(-0.5, 2.5, 10**6), r.uniform(-0.5, 2.5, 10**6)
        np.testing.assert_array_equal(poly.mask(xs, ys), polygon_mask_expression(poly, xs, ys))

    def test_lattice_on_vertices_and_edges(self):
        # Spacing 0.1 puts points exactly on every vertex and edge of L_SHAPE.
        xs, ys = np.meshgrid(np.arange(-5, 26) / 10, np.arange(-5, 26) / 10)
        for poly in (L_SHAPE, SLANTED):
            np.testing.assert_array_equal(poly.mask(xs, ys),
                                          polygon_mask_expression(poly, xs, ys))


class TestBoundingBox:
    def test_disk(self):
        assert Disk(Point(1.0, 1.0), 0.5).bounding_box() == ((0.5, 0.5), (1.5, 1.5))

    def test_union_hull(self):
        u = Union((UNIT_DISK, Disk(Point(3.0, 0.0), 1.0)))
        assert u.bounding_box() == ((-1.0, -1.0), (4.0, 1.0))

    def test_intersection_overlap(self):
        region = Intersection((UNIT_DISK, Disk(Point(0.5, 0.25), 1.0)))
        assert region.bounding_box() == ((-0.5, -0.75), (1.0, 1.0))

    def test_intersection_no_wider_than_child(self):
        region = Intersection((UNIT_DISK, HalfPlane(Point(0.0, 0.0), Point(1.0, 0.0))))
        (x0, y0), (x1, y1) = region.bounding_box()
        assert x0 >= -1.0 and y0 >= -1.0 and x1 <= 1.0 and y1 <= 1.0

    def test_halfplane_unbounded(self):
        (x0, y0), (x1, y1) = HalfPlane(Point(0.0, 0.0), Point(1.0, 0.0)).bounding_box()
        assert math.isinf(y0) and math.isinf(x1) and math.isinf(y1)
        assert x0 <= 0.0

    def test_members_inside_box(self):
        region = Ellipse(Point(0.2, -0.1), 0.8, 0.3, rotation=0.7)
        (x0, y0), (x1, y1) = region.bounding_box()
        xs, ys = sample_uniform_xy(region, rng(1), 5000)
        assert (xs >= x0).all() and (xs <= x1).all()
        assert (ys >= y0).all() and (ys <= y1).all()


class TestValidation:
    def test_point_must_be_finite(self):
        with pytest.raises(ValidationError):
            Point(math.inf, 0.0)

    def test_disk_radius_positive(self):
        with pytest.raises(ValidationError):
            Disk(Point(0, 0), 0.0)

    def test_disk_beyond_square_range(self):
        # radius**2 overflows; the mask takes every finite point as inside.
        xs = np.array([0.0, 1e150, -1e200])
        assert Disk(Point(0, 0), 1e300).mask(xs, xs).all()

    def test_disk_mask_keeps_the_power_formula(self):
        # A point at distance r squares to r*r, which differs from r**2 in the
        # last bit for about 1 in 1,200 radii; the boundary test stays r**2.
        zero = np.zeros(1)
        for radius in np.random.default_rng(5).uniform(1e-3, 1.0, 20_000).tolist():
            xs = np.array([radius])
            assert Disk(Point(0, 0), radius).mask(xs, zero) == (xs**2 <= radius**2)

    def test_ellipse_axes(self):
        with pytest.raises(ValidationError):
            Ellipse(Point(0, 0), 0.3, 0.5)

    @pytest.mark.parametrize("kind", [Intersection, Union])
    def test_combination_needs_a_child(self, kind):
        with pytest.raises(ValidationError,
                           match=f"^{kind.__name__.lower()} needs at least one child$"):
            kind(())

    def test_polygon_needs_three_vertices(self):
        with pytest.raises(ValidationError):
            Polygon((Point(0, 0), Point(1, 0)))


class TestSampling:
    def test_samples_inside_region(self):
        xs, ys = sample_uniform_xy(UNIT_DISK, rng(0), 10_000)
        assert len(xs) == len(ys) == 10_000
        assert UNIT_DISK.mask(xs, ys).all()

    def test_disk_centroid(self):
        xs, ys = sample_uniform_xy(UNIT_DISK, rng(1), 1_000_000)
        # 3 sigma CLT bound for the uniform unit disk
        assert abs(xs.mean()) < 0.005
        assert abs(ys.mean()) < 0.005

    def test_empty_region_raises(self):
        covered = Difference(Disk(Point(0, 0), 0.5), UNIT_DISK)
        with pytest.raises(ValidationError, match="acceptance rate .* empty or too thin"):
            sample_uniform_xy(covered, rng(0), 10)

    def test_empty_region_fails_in_few_batches(self):
        class Counting(Difference):
            calls = 0

            def mask(self, xs, ys):
                Counting.calls += 1
                return super().mask(xs, ys)

        with pytest.raises(ValidationError, match="acceptance rate .* empty or too thin"):
            sample_uniform_xy(Counting(UNIT_DISK, UNIT_DISK), rng(0), 1)
        assert Counting.calls <= 200

    def test_deterministic_for_seed(self):
        a = sample_uniform_xy(UNIT_DISK, rng(42), 1000)
        b = sample_uniform_xy(UNIT_DISK, rng(42), 1000)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class CountingRegion:
    """Exposes only ``bounding_box`` and ``mask``, and counts the points the
    mask is asked about."""

    def __init__(self, region):
        self.region = region
        self.draws = 0

    def bounding_box(self):
        return self.region.bounding_box()

    def mask(self, xs, ys):
        self.draws += len(xs)
        return self.region.mask(xs, ys)


# The unit disk cut at x = -1/2, with a hole inside the first quadrant, and
# the exact area of each quadrant of it (I, II, III, IV).
CLIPPED = Difference(Intersection((UNIT_DISK, HalfPlane(Point(-0.5, 0.0), Point(1.0, 0.0)))),
                     Disk(Point(0.4, 0.4), 0.2))
_LEFT = math.sqrt(0.75) / 4 + math.pi / 12  # the disk over -1/2 <= x <= 0, y >= 0
CLIPPED_QUADRANTS = (math.pi / 4 - math.pi * 0.2**2, _LEFT, _LEFT, math.pi / 4)


class TestRejectionBatches:
    @pytest.mark.parametrize("n", [1, 1000, 20_000, 100_000])
    def test_draws_follow_the_acceptance(self, n):
        # The unit disk accepts p = pi/4 of its box.  Beyond the first batch's
        # floor of 1024 draws, about n/p draws are made, not a fixed 2**16.
        counted = CountingRegion(UNIT_DISK)
        xs, ys = sample_uniform_xy(counted, rng(n), n)
        assert len(xs) == n and UNIT_DISK.mask(xs, ys).all()
        assert counted.draws <= max(1.3 * n / (math.pi / 4), 1024)

    def test_radius_squared_is_uniform(self):
        # r^2 is U(0, 1) on the unit disk: its KS stays in the 99.9% DKW band.
        n = 200_000
        xs, ys = sample_uniform_xy(UNIT_DISK, rng(7), n)
        u = np.sort(xs * xs + ys * ys)
        i = np.arange(1, n + 1)
        ks = max((i / n - u).max(), (u - (i - 1) / n).max())
        assert ks < math.sqrt(math.log(2 / 1e-3) / (2 * n))

    def test_quadrant_shares_of_clipped_disk_with_hole(self):
        n = 200_000
        xs, ys = sample_uniform_xy(CLIPPED, rng(8), n)
        assert CLIPPED.mask(xs, ys).all()
        right, up = xs >= 0, ys >= 0
        counts = ((right & up).sum(), (~right & up).sum(), (~right & ~up).sum(),
                  (right & ~up).sum())
        for k, area in zip(counts, CLIPPED_QUADRANTS):
            p = area / sum(CLIPPED_QUADRANTS)
            assert abs(k / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_position_draws_are_pinned(self):
        # Which positions are drawn, pinned: changing them changes every
        # simulate output, so a change here has to be declared.  Only uniform
        # draws and mask arithmetic enter, so no platform libm does.
        counted = CountingRegion(UNIT_DISK)
        xs, ys = sample_uniform_xy(counted, substream(5, 0, 0), 1000)
        assert counted.draws == 1355
        assert xs[:5].tolist() == [-0.14440048876552392, 0.36105339328193176,
                                   0.16981636179003212, -0.3936452051034962,
                                   0.030945779792992845]
        assert ys[:5].tolist() == [-0.7610067058444825, -0.7503746248019993,
                                   0.7102819957739264, 0.7352016834207347,
                                   0.7841478718840207]


class TestIntegrate:
    """Monte Carlo averages over the sampled points converge to region integrals."""

    @staticmethod
    def average(f, n, seed):
        xs, ys = sample_uniform_xy(UNIT_DISK, rng(seed), n)
        vals = f(xs, ys)
        return vals.mean(), vals.std() / math.sqrt(n)

    def test_odd_integrand_vanishes(self):
        mean, se = self.average(lambda x, y: x, 200_000, 1)
        assert abs(mean) < 4 * se

    def test_disk_second_moment(self):
        # E[x^2 + y^2] over the uniform unit disk is 1/2
        mean, se = self.average(lambda x, y: x**2 + y**2, 500_000, 2)
        assert abs(mean - 0.5) < 3 * se


def shoelace(poly):
    v = [(p.x, p.y) for p in poly.vertices]
    return 0.5 * sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(v, v[1:] + v[:1]))


QUAD = Polygon((Point(0.015, -0.01), Point(0.05, -0.005), Point(0.045, 0.015),
                Point(0.02, 0.012)))
INSIDE, OUTSIDE_BOX = Point(0.03, 0.0), Point(-0.05, 0.03)


class TestRayCasting:
    @pytest.mark.parametrize("region, area, origin", [
        (Disk(Point(0.03, 0.01), 0.02), math.pi * 0.02**2, INSIDE),
        (Disk(Point(0.03, 0.01), 0.02), math.pi * 0.02**2, OUTSIDE_BOX),
        (QUAD, shoelace(QUAD), INSIDE),
        (QUAD, shoelace(QUAD), OUTSIDE_BOX),
        (Ellipse(Point(0.03, 0.005), 0.02, 0.01, rotation=0.6), math.pi * 0.02 * 0.01, INSIDE),
        (Ellipse(Point(0.03, 0.005), 0.02, 0.01, rotation=0.6), math.pi * 0.02 * 0.01,
         OUTSIDE_BOX),
        (Intersection((Disk(INSIDE, 0.02), HalfPlane(INSIDE, Point(0.6, 0.8)))),
         math.pi * 0.02**2 / 2, INSIDE),
        (Difference(Disk(INSIDE, 0.02), Disk(INSIDE, 0.01)), math.pi * 3e-4, INSIDE),
    ])
    def test_area_exact(self, region, area, origin):
        # Panel edges sit at polygon vertices and tangent rays, and r dr is
        # integrated exactly along each piece.
        _, _, ws = quadrature_nodes(region, origin, 64, 8)
        assert ws.sum() == pytest.approx(area, rel=1e-9)

    def test_pieces_are_the_inside_of_each_ray(self):
        # All seven node types; points along every ray are inside exactly
        # when they lie within one of its pieces.
        region = Difference(
            Union((Disk(Point(0.03, 0.0), 0.02),
                   Ellipse(Point(0.06, 0.01), 0.015, 0.006, rotation=0.4))),
            Intersection((QUAD, HalfPlane(Point(0.03, 0.0), Point(0.0, 1.0)))))
        for origin in (INSIDE, OUTSIDE_BOX, Point(0.06, 0.01)):
            c, s, _, r0, r1 = ray_segments(region, origin, 16)
            r = np.linspace(0.0, 0.2, 4001)
            for dc, ds in set(zip(c, s)):
                mine = (c == dc) & (s == ds)
                within = ((r[:, None] > r0[mine]) & (r[:, None] < r1[mine])).any(axis=1)
                inside = region.mask(origin.x + r * dc, origin.y + r * ds)
                ends = np.concatenate((r0[mine], r1[mine]))
                near = (np.abs(r[:, None] - ends) < 1e-12).any(axis=1)
                assert np.array_equal(within[~near], inside[~near])

    def test_empty_region_raises(self):
        with pytest.raises(ValidationError, match=r"no ray of \d+ from .* meets the region"):
            ray_segments(Difference(UNIT_DISK, UNIT_DISK), Point(0.0, 0.0), 16)

    def test_unbounded_region_rejected(self):
        with pytest.raises(ValidationError, match="region has an unbounded bounding box"):
            ray_segments(HalfPlane(Point(0, 0), Point(1.0, 0.0)), Point(0.0, 0.0), 16)

    def test_tiny_far_region_is_hit(self):
        # The rays cover only the angles of the region's bounding box.
        _, _, ws = quadrature_nodes(Disk(Point(0.2, 0.1), 1e-9), Point(0.0, 0.0), 16, 8)
        assert ws.sum() == pytest.approx(math.pi * 1e-18, rel=1e-6)

    @pytest.mark.parametrize("panels", [16, 64, 128])
    def test_full_circle_rule_is_shared_and_exact(self, panels, monkeypatch):
        # A cell whose own BS sees no break angle, as in every hotspot cell,
        # reads its rays from one shared read-only rule with the same bits.
        w, c, s = rule = geometry._full_circle_rule(panels)
        assert geometry._full_circle_rule(panels) is rule
        theta, w_fresh = geometry._angle_rule([], panels)
        for got, want in ((w, w_fresh), (c, np.cos(theta)), (s, np.sin(theta))):
            assert not got.flags.writeable
            assert got.tobytes() == want.tobytes()
        cell = Difference(Intersection((Disk(INSIDE, 0.02), HalfPlane(
            Point(INSIDE.x + 0.01, INSIDE.y), Point(-1.0, 0.0)))), Disk(INSIDE, 0.005))
        shared = ray_segments(cell, INSIDE, panels)
        calls = []
        monkeypatch.setattr(geometry, "_full_circle_rule", lambda p: (
            calls.append(p) or (w_fresh, np.cos(theta), np.sin(theta))))
        for got, want in zip(shared, ray_segments(cell, INSIDE, panels)):
            assert got.tobytes() == want.tobytes()
        assert calls == [panels]

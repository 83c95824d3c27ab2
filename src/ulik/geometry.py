"""Planar UE-distribution regions: CSG trees, membership tests and uniform
sampling.

All coordinates are in km.  Regions are immutable and safe to share across
threads; randomness always comes from a caller-provided numpy Generator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegionError, ValidationError

# Rejection sampling: give up once this many bounding-box draws were spent
# while the running acceptance rate stays below ACCEPTANCE_FLOOR.
MAX_REJECTION_TRIALS = 10_000_000
ACCEPTANCE_FLOOR = 1e-4

_BATCH = 1 << 16


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValidationError(f"point coordinates must be finite, got {self}")


class Region:
    """Base class for region tree nodes.

    Subclasses implement ``mask`` (vectorized membership, boundary counts as
    inside) and ``bounding_box``.  Half-planes have an unbounded box and are
    only samplable inside an Intersection that bounds them.
    """

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def bounding_box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((xmin, ymin), (xmax, ymax)); entries may be infinite."""
        raise NotImplementedError

    def contains(self, p: Point) -> bool:
        return bool(self.mask(np.array([p.x]), np.array([p.y]))[0])


@dataclass(frozen=True)
class Disk(Region):
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValidationError(f"disk radius must be positive, got {self.radius}")

    def mask(self, xs, ys):
        return (xs - self.center.x) ** 2 + (ys - self.center.y) ** 2 <= self.radius**2

    def bounding_box(self):
        c, r = self.center, self.radius
        return (c.x - r, c.y - r), (c.x + r, c.y + r)


@dataclass(frozen=True)
class Ellipse(Region):
    center: Point
    semi_major: float
    semi_minor: float
    rotation: float = 0.0  # radians, CCW from the x-axis

    def __post_init__(self):
        if not (self.semi_major >= self.semi_minor > 0):
            raise ValidationError(
                f"ellipse needs semi_major >= semi_minor > 0, got "
                f"({self.semi_major}, {self.semi_minor})"
            )

    def mask(self, xs, ys):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        dx = xs - self.center.x
        dy = ys - self.center.y
        u = c * dx + s * dy
        v = -s * dx + c * dy
        return (u / self.semi_major) ** 2 + (v / self.semi_minor) ** 2 <= 1.0

    def bounding_box(self):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        ex = math.hypot(self.semi_major * c, self.semi_minor * s)
        ey = math.hypot(self.semi_major * s, self.semi_minor * c)
        return (
            (self.center.x - ex, self.center.y - ey),
            (self.center.x + ex, self.center.y + ey),
        )


def _segments_intersect(p1, p2, p3, p4):
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class Polygon(Region):
    """Simple polygon with counter-clockwise vertices."""

    vertices: tuple[Point, ...]

    def __post_init__(self):
        v = self.vertices
        if len(v) < 3:
            raise ValidationError("polygon needs at least 3 vertices")
        pts = [(p.x, p.y) for p in v]
        area2 = sum(
            pts[i][0] * pts[(i + 1) % len(pts)][1] - pts[(i + 1) % len(pts)][0] * pts[i][1]
            for i in range(len(pts))
        )
        if area2 <= 0:
            raise ValidationError(
                "polygon vertices must be counter-clockwise and non-collinear"
            )
        n = len(pts)
        for i in range(n):
            for j in range(i + 1, n):
                if abs(i - j) in (1, n - 1):
                    continue  # adjacent edges share a vertex
                if _segments_intersect(
                    pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]
                ):
                    raise ValidationError("polygon must not self-intersect")

    def _arrays(self):
        return (
            np.array([p.x for p in self.vertices]),
            np.array([p.y for p in self.vertices]),
        )

    def mask(self, xs, ys):
        # Even-odd crossing test, vectorized over the query points.
        vx, vy = self._arrays()
        inside = np.zeros(xs.shape, dtype=bool)
        n = len(vx)
        j = n - 1
        for i in range(n):
            cond = (vy[i] > ys) != (vy[j] > ys)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = (vx[j] - vx[i]) * (ys - vy[i]) / (vy[j] - vy[i]) + vx[i]
            inside ^= cond & (xs < xint)
            j = i
        return inside

    def bounding_box(self):
        vx, vy = self._arrays()
        return (float(vx.min()), float(vy.min())), (float(vx.max()), float(vy.max()))


@dataclass(frozen=True)
class HalfPlane(Region):
    """Points p with (p - point) . normal >= 0; normal points into the kept side."""

    point: Point
    normal: Point

    def __post_init__(self):
        norm = math.hypot(self.normal.x, self.normal.y)
        if not math.isclose(norm, 1.0, rel_tol=1e-9):
            raise ValidationError(f"half-plane normal must be a unit vector, |n|={norm}")

    def mask(self, xs, ys):
        return (xs - self.point.x) * self.normal.x + (ys - self.point.y) * self.normal.y >= 0

    def bounding_box(self):
        inf = math.inf
        return (-inf, -inf), (inf, inf)


@dataclass(frozen=True)
class Intersection(Region):
    children: tuple[Region, ...]

    def __post_init__(self):
        if not self.children:
            raise ValidationError("intersection needs at least one child")

    def mask(self, xs, ys):
        out = self.children[0].mask(xs, ys)
        for child in self.children[1:]:
            if not out.any():
                break
            out &= child.mask(xs, ys)
        return out

    def bounding_box(self):
        los, his = zip(*(c.bounding_box() for c in self.children))
        return (
            (max(p[0] for p in los), max(p[1] for p in los)),
            (min(p[0] for p in his), min(p[1] for p in his)),
        )


@dataclass(frozen=True)
class Union(Region):
    children: tuple[Region, ...]

    def __post_init__(self):
        if not self.children:
            raise ValidationError("union needs at least one child")

    def mask(self, xs, ys):
        out = self.children[0].mask(xs, ys)
        for child in self.children[1:]:
            out |= child.mask(xs, ys)
        return out

    def bounding_box(self):
        los, his = zip(*(c.bounding_box() for c in self.children))
        return (
            (min(p[0] for p in los), min(p[1] for p in los)),
            (max(p[0] for p in his), max(p[1] for p in his)),
        )


@dataclass(frozen=True)
class Difference(Region):
    left: Region
    right: Region

    def mask(self, xs, ys):
        return self.left.mask(xs, ys) & ~self.right.mask(xs, ys)

    def bounding_box(self):
        return self.left.bounding_box()


def sample_uniform_xy(
    region: Region, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n i.i.d. points uniformly over the region, as coordinate arrays.

    Rejection sampling from the bounding box; deterministic for a given
    generator state.  Raises EmptyRegionError when the acceptance rate stays
    below ACCEPTANCE_FLOOR after MAX_REJECTION_TRIALS box draws.
    """
    (x0, y0), (x1, y1) = region.bounding_box()
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise ValidationError("region has an unbounded bounding box; cannot sample")
    if x1 < x0 or y1 < y0:
        raise EmptyRegionError("region bounding box is empty")
    if n <= 0:
        raise ValidationError(f"sample count must be positive, got {n}")
    xs_out = np.empty(n)
    ys_out = np.empty(n)
    got = 0
    trials = 0
    floor = 1024  # doubles while nothing is accepted, so an empty region fails fast
    while got < n:
        m = min(_BATCH, max(4 * (n - got), floor))
        xs = rng.uniform(x0, x1, m)
        ys = rng.uniform(y0, y1, m)
        keep = region.mask(xs, ys)
        k = int(keep.sum())
        take = min(k, n - got)
        if take:
            xs_out[got : got + take] = xs[keep][:take]
            ys_out[got : got + take] = ys[keep][:take]
            got += take
        trials += m
        if not got:
            floor = min(2 * floor, _BATCH)
        if trials >= MAX_REJECTION_TRIALS and got < trials * ACCEPTANCE_FLOOR:
            raise EmptyRegionError(
                f"acceptance rate {got / trials:.2e} below {ACCEPTANCE_FLOOR} "
                f"after {trials} trials; region is empty or too thin"
            )
    return xs_out, ys_out

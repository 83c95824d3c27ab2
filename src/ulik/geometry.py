"""Planar UE-distribution regions: CSG trees, membership tests, ray casting
for region integrals, and uniform sampling.

All coordinates are in km.  Regions are immutable and safe to share across
threads; randomness always comes from a caller-provided numpy Generator.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Rejection sampling: give up once this many bounding-box draws were spent
# while the running acceptance rate stays below ACCEPTANCE_FLOOR.
MAX_REJECTION_TRIALS = 10_000_000
ACCEPTANCE_FLOOR = 1e-4

_BATCH = 1 << 16

# Ray-cast quadrature: the angle rule around the origin is composite
# Gauss-Legendre with this many nodes per panel.
THETA_NODES = 4
# A polygon edge keeps a ray crossing this far past its ends, so a ray through
# a vertex is not lost to rounding (a spurious crossing only splits a segment).
_EDGE_SLACK = 1e-9
_SPAN_PAD = 1e-9  # radians
_SIGNS = np.array([-1.0, 1.0])


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
    inside), ``crossings`` and ``bounding_box``.  Half-planes have an
    unbounded box and are only samplable inside an Intersection that bounds
    them.
    """

    def mask(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def crossings(self, ox: float, oy: float, c: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Distances r at which the rays (ox, oy) + r*(c, s) meet the boundary
        of any leaf of the tree, one row per ray; NaN fills missing roots."""
        raise NotImplementedError

    def break_angles(self, ox: float, oy: float) -> list[tuple[float, bool]]:
        """(angle, tangent) pairs: the ray angles around (ox, oy) at which a
        leaf's boundary makes the inside length of a ray non-smooth.  These
        are tangent rays of disks and ellipses (tangent=True, a square-root
        behaviour), polygon vertices and a line through the origin.  The
        angle rule puts panel edges there."""
        raise NotImplementedError

    def bounding_box(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """((xmin, ymin), (xmax, ymax)); entries may be infinite."""
        raise NotImplementedError


@dataclass(frozen=True)
class Disk(Region):
    center: Point
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValidationError(f"disk radius must be positive, got {self.radius}")

    def mask(self, xs, ys):
        with np.errstate(over="ignore"):  # radius**2's bits, but inf, not OverflowError
            r2 = np.float64(self.radius) ** 2
        return (xs - self.center.x) ** 2 + (ys - self.center.y) ** 2 <= r2

    def crossings(self, ox, oy, c, s):
        return _circle_roots(ox - self.center.x, oy - self.center.y, c, s, self.radius)

    def break_angles(self, ox, oy):
        dx, dy = self.center.x - ox, self.center.y - oy
        d = math.hypot(dx, dy)
        if d <= self.radius:
            return []
        phi, half = math.atan2(dy, dx), math.asin(self.radius / d)
        return [(phi - half, True), (phi + half, True)]

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

    def _scaled(self, dx, dy):
        """A vector in the frame of the axes, scaled so the ellipse is the
        unit circle."""
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        return (c * dx + s * dy) / self.semi_major, (-s * dx + c * dy) / self.semi_minor

    def mask(self, xs, ys):
        u, v = self._scaled(xs - self.center.x, ys - self.center.y)
        return u**2 + v**2 <= 1.0

    def crossings(self, ox, oy, c, s):
        return _circle_roots(*self._scaled(ox - self.center.x, oy - self.center.y),
                             *self._scaled(c, s), 1.0)

    def break_angles(self, ox, oy):
        dx, dy = ox - self.center.x, oy - self.center.y
        px, py = self._scaled(dx, dy)
        p2 = px * px + py * py
        if p2 <= 1.0:
            return []
        cr, sr = math.cos(self.rotation), math.sin(self.rotation)
        out = []
        # Tangent points of the unit circle seen from p, mapped back.
        for sign in (-1.0, 1.0):
            h = sign * math.sqrt(p2 - 1.0)
            tx = self.semi_major * (px - h * py) / p2
            ty = self.semi_minor * (py + h * px) / p2
            out.append((math.atan2(sr * tx + cr * ty - dy, cr * tx - sr * ty - dx), True))
        return out

    def bounding_box(self):
        c, s = math.cos(self.rotation), math.sin(self.rotation)
        ex = math.hypot(self.semi_major * c, self.semi_minor * s)
        ey = math.hypot(self.semi_major * s, self.semi_minor * c)
        return (
            (self.center.x - ex, self.center.y - ey),
            (self.center.x + ex, self.center.y + ey),
        )


def _circle_roots(px, py, ux, uy, rho):
    """Both r with |p + r*u| = rho as an (n, 2) array, NaN where there are
    none.  The discriminant is formed from the cross product p x u, which
    keeps a circle that is small beside |p| resolved."""
    a = ux * ux + uy * uy
    cross = px * uy - py * ux
    with np.errstate(invalid="ignore"):
        h = np.sqrt(a * rho * rho - cross * cross)
    b = px * ux + py * uy
    return (h[:, None] * _SIGNS - b[:, None]) / a[:, None]


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
            if vy[i] != vy[j]:  # a horizontal edge crosses no ray
                xint = ys - vy[i]
                xint *= vx[j] - vx[i]
                xint /= vy[j] - vy[i]
                xint += vx[i]
                inside ^= ((vy[i] > ys) != (vy[j] > ys)) & (xs < xint)
            j = i
        return inside

    def crossings(self, ox, oy, c, s):
        # o + r*u = v_i + t*e_i, solved with 2-D cross products.
        vx, vy = self._arrays()
        ex, ey = np.roll(vx, -1) - vx, np.roll(vy, -1) - vy
        wx, wy = vx - ox, vy - oy
        c, s = c[:, None], s[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            den = c * ey - s * ex
            r = (wx * ey - wy * ex) / den
            t = (wx * s - wy * c) / den
        return np.where((t >= -_EDGE_SLACK) & (t <= 1.0 + _EDGE_SLACK), r, np.nan)

    def break_angles(self, ox, oy):
        return [(math.atan2(p.y - oy, p.x - ox), False) for p in self.vertices]

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

    def _gap(self, ox, oy):
        """Signed distance from (ox, oy) to the line, along the normal."""
        return (self.point.x - ox) * self.normal.x + (self.point.y - oy) * self.normal.y

    def crossings(self, ox, oy, c, s):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self._gap(ox, oy) / (c * self.normal.x + s * self.normal.y))[:, None]

    def break_angles(self, ox, oy):
        # Only a line through the origin is seen edge-on.
        if abs(self._gap(ox, oy)) > 1e-9 * math.hypot(self.point.x - ox, self.point.y - oy):
            return []
        phi = math.atan2(self.normal.x, -self.normal.y)
        return [(phi, False), (phi + math.pi, False)]

    def bounding_box(self):
        inf = math.inf
        return (-inf, -inf), (inf, inf)


class _Combination(Region):
    """A set operation over ``children``: its boundary is theirs."""

    def __post_init__(self):
        if not self.children:
            raise ValidationError(f"{type(self).__name__.lower()} needs at least one child")

    def crossings(self, ox, oy, c, s):
        return np.concatenate([ch.crossings(ox, oy, c, s) for ch in self.children], axis=1)

    def break_angles(self, ox, oy):
        return [a for ch in self.children for a in ch.break_angles(ox, oy)]

    def _box(self, lo, hi):
        """The box from lo of the children's lower corners to hi of their upper
        ones, coordinate by coordinate."""
        los, his = zip(*(c.bounding_box() for c in self.children))
        return tuple(map(lo, zip(*los))), tuple(map(hi, zip(*his)))


@dataclass(frozen=True)
class Intersection(_Combination):
    children: tuple[Region, ...]

    def mask(self, xs, ys):
        out = self.children[0].mask(xs, ys)
        for child in self.children[1:]:
            if not out.any():
                break
            out &= child.mask(xs, ys)
        return out

    def bounding_box(self):
        return self._box(max, min)


@dataclass(frozen=True)
class Union(_Combination):
    children: tuple[Region, ...]

    def mask(self, xs, ys):
        out = self.children[0].mask(xs, ys)
        for child in self.children[1:]:
            out |= child.mask(xs, ys)
        return out

    def bounding_box(self):
        return self._box(min, max)


@dataclass(frozen=True)
class Difference(_Combination):
    left: Region
    right: Region

    @property
    def children(self):
        return self.left, self.right

    def mask(self, xs, ys):
        return self.left.mask(xs, ys) & ~self.right.mask(xs, ys)

    def bounding_box(self):
        return self.left.bounding_box()


def _finite_box(region: Region):
    (x0, y0), (x1, y1) = box = region.bounding_box()
    if not all(map(math.isfinite, (x0, y0, x1, y1))):
        raise ValidationError("region has an unbounded bounding box")
    if x1 < x0 or y1 < y0:
        raise ValidationError("region bounding box is empty")
    return box


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@functools.lru_cache(maxsize=None)
def _panel_maps(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Node positions and weights on [0, 1] of the three panel maps of the
    angle rule, indexed by (break at the start) + 2 * (break at the end):
    t, t^2 and 1 - (1-t)^2."""
    t, w = _gauss_legendre(order)
    u = 1.0 - t
    g = np.array([t, t * t, 1.0 - u * u])
    dg = np.array([np.ones_like(t), 2.0 * t, 2.0 * u])
    return g, w * dg


def _angle_rule(breaks, panels: int, span=None):
    """Composite Gauss-Legendre nodes and weights in the ray angle, with
    about ``panels`` panels whose edges include every break angle.

    ``span`` is (lo, hi), or None for the full circle, which then starts at
    a break.  Every interval between breaks gets at least two panels; a
    panel [a, a+h] that starts at a tangent break is mapped by
    theta = a + h*t^2 (mirrored when it ends at one), which makes the
    square-root behaviour there smooth.
    """
    angle = np.array([b[0] for b in breaks], dtype=float)
    tangent = np.array([b[1] for b in breaks], dtype=bool)
    lo, hi = span if span else (angle.min() if len(angle) else 0.0, math.inf)
    hi = min(hi, lo + 2.0 * math.pi)
    angle = lo + (angle - lo) % (2.0 * math.pi)
    keep = angle < hi
    cuts, at = np.unique(np.concatenate(([lo], angle[keep], [hi])), return_inverse=True)
    smooth = np.zeros(len(cuts), dtype=bool)
    smooth[at[1:-1][tangent[keep]]] = True
    if not span:
        smooth[-1] = smooth[0]
    widths = np.diff(cuts)
    counts = np.maximum(2, np.rint(panels * widths / (hi - lo))).astype(int)
    interval = np.repeat(np.arange(len(counts)), counts)
    i = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    h = (widths / counts)[interval][:, None]
    start = cuts[interval][:, None] + i[:, None] * h
    kind = (i == 0) & smooth[interval]
    kind = kind + 2 * ((i == counts[interval] - 1) & smooth[interval + 1])
    g, wg = _panel_maps(THETA_NODES)
    return (start + h * g[kind]).ravel(), (h * wg[kind]).ravel()


@functools.lru_cache(maxsize=None)
def _full_circle_rule(panels: int):
    """(w, cos theta, sin theta) of the full-circle rule without breaks; shared, read-only."""
    theta, w = _angle_rule([], panels)
    rule = w, np.cos(theta), np.sin(theta)
    for a in rule:
        a.flags.writeable = False
    return rule


def ray_segments(region: Region, origin: Point, panels: int):
    """The parts inside the region of the rays of an angle rule around origin.

    The rule is composite Gauss-Legendre with about ``panels`` panels of
    THETA_NODES nodes, over the full circle, or over the angles the bounding
    box spans when the origin lies outside it, with panel edges at the
    region's break angles (see ``_angle_rule``).  Each ray is cut at every
    leaf crossing and at the farthest box corner; a piece is inside when the
    region's mask holds at its midpoint.  Returns (c, s, w, r0, r1), one
    entry per inside piece: the ray direction (c, s), its angle weight w and
    the piece's radii r0 < r1.  Raises ValidationError when no ray meets
    the region.
    """
    (x0, y0), (x1, y1) = _finite_box(region)
    ox, oy = origin.x, origin.y
    cx, cy = np.array([x0, x1, x1, x0]) - ox, np.array([y0, y0, y1, y1]) - oy
    r_max = float(np.hypot(cx, cy).max())
    span = None
    if not (x0 <= ox <= x1 and y0 <= oy <= y1):
        phi = np.arctan2(cy, cx)
        turn = (phi - phi[0] + math.pi) % (2.0 * math.pi) - math.pi
        # Padded, so a tangent ray along the box's edge stays a break.
        span = phi[0] + turn.min() - _SPAN_PAD, phi[0] + turn.max() + _SPAN_PAD
    breaks = region.break_angles(ox, oy)
    if span is None and not breaks:
        w, c, s = _full_circle_rule(panels)
    else:
        theta, w = _angle_rule(breaks, panels, span)
        c, s = np.cos(theta), np.sin(theta)
    cuts = region.crossings(ox, oy, c, s)
    cuts = np.where((cuts > 0) & (cuts < r_max), cuts, r_max)
    ends = np.sort(np.concatenate((np.zeros((len(c), 1)), cuts, np.full((len(c), 1), r_max)),
                                  axis=1), axis=1)
    r0, r1 = ends[:, :-1], ends[:, 1:]
    mid = 0.5 * (r0 + r1)
    inside = (r1 > r0) & region.mask(ox + mid * c[:, None], oy + mid * s[:, None])
    if not inside.any():
        raise ValidationError(f"no ray of {len(c)} from ({ox}, {oy}) meets the region")
    ray = np.nonzero(inside)[0]
    return c[ray], s[ray], w[ray], r0[inside], r1[inside]


def quadrature_nodes(region: Region, origin: Point, panels: int, radial: int):
    """Nodes and weights (xs, ys, ws) with sum(ws * f(xs, ys)) approximating
    the integral of f over the region, in polar coordinates around origin.

    The rays are those of ``ray_segments``; each inside piece gets a
    ``radial``-node Gauss-Legendre rule in r, with weight r dr.  A piece that
    starts at the origin is mapped by r = r1*u^3, which smooths a log(r)
    singularity there.  Every weight is positive.
    """
    c, s, w, r0, r1 = ray_segments(region, origin, panels)
    u, wu = _gauss_legendre(radial)
    at_origin = (r0 == 0.0)[:, None]
    g = np.where(at_origin, u**3, u)
    dg = np.where(at_origin, 3.0 * u * u, 1.0)
    span = (r1 - r0)[:, None]
    r = r0[:, None] + span * g
    ws = (w[:, None] * span) * (wu * dg) * r
    return (origin.x + r * c[:, None]).ravel(), (origin.y + r * s[:, None]).ravel(), ws.ravel()


def sample_uniform_xy(
    region: Region, rng: "np.random.Generator", n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n i.i.d. points uniformly over the region, as coordinate arrays.

    Rejection sampling from the bounding box; deterministic for a given
    generator state.  Once a batch has accepted points, the next one draws
    about need/p points, p being the acceptance seen so far, so that a
    second batch almost always finishes.  Raises ValidationError when the
    acceptance rate stays below ACCEPTANCE_FLOOR after MAX_REJECTION_TRIALS
    box draws.
    """
    (x0, y0), (x1, y1) = _finite_box(region)
    if n <= 0:
        raise ValidationError(f"sample count must be positive, got {n}")
    xs_out = np.empty(n)
    ys_out = np.empty(n)
    got = 0
    trials = 0
    floor = 1024  # doubles while nothing is accepted, so an empty region fails fast
    while got < n:
        need = n - got
        # The batch size depends only on counts, so the first `need` accepted
        # points of each batch are i.i.d. uniform over the region.
        m = int(need * trials / got * 1.1) + 64 if got else max(need, floor)
        m = min(m, _BATCH)
        xs = rng.uniform(x0, x1, m)
        ys = rng.uniform(y0, y1, m)
        idx = np.flatnonzero(region.mask(xs, ys))[:need]
        take = len(idx)
        xs_out[got : got + take] = xs[idx]
        ys_out[got : got + take] = ys[idx]
        got += take
        trials += m
        if not got:
            floor = min(2 * floor, _BATCH)
        if trials >= MAX_REJECTION_TRIALS and got < trials * ACCEPTANCE_FLOOR:
            raise ValidationError(
                f"acceptance rate {got / trials:.2e} below {ACCEPTANCE_FLOOR} "
                f"after {trials} trials; region is empty or too thin"
            )
    return xs_out, ys_out

"""Scenario data model, JSON (de)serialization and deterministic scenario
generators for the two experiment families: a single interferer with a disk
or irregular region, and a multi-cell hotspot drop.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .channel import ChannelParams, PowerControl
from .errors import SchemaError, UlikError, ValidationError
from .geometry import (
    Difference,
    Disk,
    Ellipse,
    HalfPlane,
    Intersection,
    Point,
    Polygon,
    Region,
    Union,
    ray_segments,
)

FORMAT_VERSION = 1
# Angle panels of the rays that check each UE area for emptiness at load.
_VALIDATION_PANELS = 16
DEFAULT_MIN_BS_UE_DISTANCE = 0.005  # km
_TYPE = "type"  # the key that tags a region node
MAX_PLACEMENT_ATTEMPTS = 100_000  # BS candidates a hotspot drop tries before it gives up
MAX_FILE_NAME_BYTES = 255  # the cap of common file systems, which cell_<id>.bin must meet

DEFAULT_CHANNEL = ChannelParams(a_db=103.8, alpha=20.9, sigma_shad_sq=100.0, n_antennas=4)
DEFAULT_POWER = PowerControl(p0_dbm=-76.0, eta=0.8)


@dataclass(frozen=True)
class Cell:
    id: str
    bs: Point
    region: Region  # as authored; the UE exclusion disk is applied lazily

    def __post_init__(self):
        # `simulate --per-cell` writes cell_<id>.bin.
        if "/" in self.id or "\0" in self.id:
            raise ValidationError(f"cell id {self.id!r} contains '/' or NUL: it cannot name a file")
        size = len(f"cell_{self.id}.bin".encode("utf-8", "surrogatepass"))
        if size > MAX_FILE_NAME_BYTES:
            raise ValidationError(f"cell id too long to name a file: cell_<id>.bin takes "
                                  f"{size} bytes, more than {MAX_FILE_NAME_BYTES}")


@dataclass(frozen=True)
class NetworkScenario:
    cells: tuple[Cell, ...]
    victim_cell_id: str
    channel: ChannelParams
    power: PowerControl
    min_bs_ue_distance: float = DEFAULT_MIN_BS_UE_DISTANCE
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "_by_id", {c.id: c for c in self.cells})

    def victim_cell(self) -> Cell:
        return self.cell(self.victim_cell_id)

    def interfering_cells(self) -> list[Cell]:
        return [c for c in self.cells if c.id != self.victim_cell_id]

    def cell(self, cell_id: str) -> Cell:
        if cell_id not in self._by_id:
            raise ValidationError(f"no cell with id {cell_id!r}")
        return self._by_id[cell_id]

    def ue_region(self, cell_id: str) -> Region:
        """The cell's region minus the UE exclusion disk around its own BS."""
        c = self.cell(cell_id)
        return Difference(c.region, Disk(c.bs, self.min_bs_ue_distance))


def _validate(scenario: NetworkScenario) -> NetworkScenario:
    if len(scenario._by_id) != len(scenario.cells):
        raise ValidationError("cell ids must be unique")
    if scenario.victim_cell_id not in scenario._by_id:
        raise ValidationError(f"victim cell {scenario.victim_cell_id!r} is not present")
    if len(scenario.cells) < 2:
        raise ValidationError("a scenario needs at least 2 cells")
    if not scenario.min_bs_ue_distance > 0:
        raise ValidationError("min BS-to-UE distance must be positive")
    for c in scenario.cells:
        try:
            ray_segments(scenario.ue_region(c.id), c.bs, _VALIDATION_PANELS)
        except UlikError as exc:
            raise ValidationError(
                f"cell {c.id!r}: region is empty after the UE exclusion disk ({exc})"
            ) from exc
    return scenario


# ---------------------------------------------------------------------------
# JSON schema
#
# Each JSON value has a kind: read(value, path) returns the Python
# value or raises a SchemaError that names the JSON path, and write(value)
# returns the JSON value.  The region node types are the _REGION_TYPES table.


class _Kind(NamedTuple):
    read: Callable
    write: Callable


def _expect(value, types, path: str, what: str):
    if isinstance(value, bool) or not isinstance(value, types):  # the format has no booleans
        raise SchemaError(f"{path}: expected {what}")
    return value


def _read_number(value, path: str) -> float:
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise SchemaError(f"{path}: expected a finite number")


def _read_string(value, path: str) -> str:
    try:
        _expect(value, str, path, "a string").encode()
    except UnicodeEncodeError:  # a lone surrogate, which a JSON string may hold
        raise SchemaError(f"{path}: expected UTF-8 text, got {value!r}") from None
    return value


_STRING = _Kind(_read_string, str)


def _read_point(value, path: str) -> Point:
    if not (isinstance(value, list) and len(value) == 2):
        raise SchemaError(f"{path}: expected [x, y]")
    return Point(*(_read_number(v, f"{path}[{i}]") for i, v in enumerate(value)))


def _read_labels(value, path: str) -> dict:
    return {k: _STRING.read(v, f"{path}.{k}")
            for k, v in _expect(value, dict, path, "an object").items()}


def _list_of(kind: _Kind) -> _Kind:
    def read(value, path):
        return tuple(kind.read(v, f"{path}[{i}]")
                     for i, v in enumerate(_expect(value, list, path, "a list")))

    return _Kind(read, lambda values: [kind.write(v) for v in values])


class _Record:
    """A JSON object read into ``cls(**fields)`` and written from its attributes.

    Each field is (json key, attribute, kind); an attribute of None is the
    key itself.  Fields named in ``optional`` fall back to the class default.
    """

    def __init__(self, cls, *fields, optional=()):
        self.cls = cls
        self.fields = [(key, attr or key, kind) for key, attr, kind in fields]
        self.optional = set(optional)

    def read(self, doc, path: str):
        keys = {key for key, _, _ in self.fields}
        missing = keys - self.optional - _expect(doc, dict, path, "an object").keys()
        if missing:
            raise SchemaError(f"{path}: missing field(s) {sorted(missing)}")
        unknown = doc.keys() - keys
        if unknown:
            raise SchemaError(f"{path}: unknown field(s) {sorted(unknown)}")
        values = {attr: kind.read(doc[key], f"{path}.{key}")
                  for key, attr, kind in self.fields if key in doc}
        try:
            return self.cls(**values)
        except ValidationError as exc:
            raise SchemaError(f"{path}: {exc}") from exc

    def write(self, obj) -> dict:
        return {key: kind.write(getattr(obj, attr)) for key, attr, kind in self.fields}


def region_from_dict(doc, path: str = "region") -> Region:
    kind = _expect(doc, dict, path, "an object").get(_TYPE)
    record = _REGION_TYPES.get(kind) if isinstance(kind, str) else None
    if record is None:
        raise SchemaError(f"{path}.{_TYPE}: unknown region type {kind!r}")
    return record.read({k: v for k, v in doc.items() if k != _TYPE}, path)


def region_to_dict(region: Region) -> dict:
    for kind, record in _REGION_TYPES.items():
        if isinstance(region, record.cls):
            return {_TYPE: kind, **record.write(region)}
    raise ValidationError(f"unserializable region node {type(region).__name__}")


_NUMBER = _Kind(_read_number, float)
_INTEGER = _Kind(lambda value, path: _expect(value, int, path, "an integer"), int)
_POINT = _Kind(_read_point, lambda p: [p.x, p.y])
_REGION = _Kind(region_from_dict, region_to_dict)
_CENTER = ("center_km", "center", _POINT)
_CHILDREN = ("children", None, _list_of(_REGION))

_REGION_TYPES = {
    "disk": _Record(Disk, _CENTER, ("radius_km", "radius", _NUMBER)),
    "ellipse": _Record(Ellipse, _CENTER, ("semi_major_km", "semi_major", _NUMBER),
                       ("semi_minor_km", "semi_minor", _NUMBER),
                       ("rotation_rad", "rotation", _NUMBER)),
    "polygon": _Record(Polygon, ("vertices_km", "vertices", _list_of(_POINT))),
    "halfplane": _Record(HalfPlane, ("point_km", "point", _POINT), ("normal", None, _POINT)),
    "intersection": _Record(Intersection, _CHILDREN),
    "union": _Record(Union, _CHILDREN),
    "difference": _Record(Difference, ("left", None, _REGION), ("right", None, _REGION)),
}

_SCENARIO = _Record(
    NetworkScenario,
    ("victim_cell_id", None, _STRING),
    ("min_bs_ue_distance_km", "min_bs_ue_distance", _NUMBER),
    ("channel", None, _Record(
        ChannelParams, ("A_db", "a_db", _NUMBER), ("alpha", None, _NUMBER),
        ("sigma_shad_sq", None, _NUMBER), ("n_antennas", None, _INTEGER),
        optional={"n_antennas"})),
    ("power", None, _Record(PowerControl, ("p0_dbm", None, _NUMBER), ("eta", None, _NUMBER))),
    ("cells", None, _list_of(_Record(
        Cell, ("id", None, _STRING), ("bs_km", "bs", _POINT), ("region", None, _REGION)))),
    ("metadata", None, _Kind(_read_labels, dict)),
    optional={"min_bs_ue_distance_km", "metadata"},
)


def scenario_from_dict(doc) -> NetworkScenario:
    body = dict(_expect(doc, dict, "$", "an object"))
    version = body.pop("format_version", None)
    if version != FORMAT_VERSION:
        raise SchemaError(f"$.format_version: expected {FORMAT_VERSION}, got {version!r}")
    try:
        return _validate(_SCENARIO.read(body, "$"))
    except RecursionError as exc:
        raise SchemaError("$: regions are nested too deeply") from exc


def scenario_to_dict(scenario: NetworkScenario) -> dict:
    return {"format_version": FORMAT_VERSION, **_SCENARIO.write(scenario)}


def load_scenario(path) -> NetworkScenario:
    """Load a scenario from a UTF-8 JSON file."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    return scenario_from_dict(doc)


def save_scenario(scenario: NetworkScenario, path) -> None:
    Path(path).write_text(
        json.dumps(scenario_to_dict(scenario), indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# Generators


def _square(center: Point, half_side: float) -> Polygon:
    x, y, h = center.x, center.y, half_side
    return Polygon((
        Point(x - h, y - h), Point(x + h, y - h),
        Point(x + h, y + h), Point(x - h, y + h),
    ))


def gen_single_interferer(r: float, shape: str = "disk") -> NetworkScenario:
    """Two-cell scenario: victim at the origin, interferer BS at (1.5r, 0).

    shape "disk" uses the reference disk of radius r around the interferer
    BS, restricted to the half-plane where that BS is the nearer of the two
    (the disks overlap at spacing 1.5r, and a UE served by the interferer
    cannot sit closer to the victim BS).  Shape "paper_irregular" is a
    fixed, documented stand-in irregular region (the intersection of a
    square, a circle and an offset rotated ellipse); it is representative,
    not a reproduction of any published layout.
    """
    victim_bs = Point(0.0, 0.0)
    interf_bs = Point(1.5 * r, 0.0)
    if shape == "disk":
        region: Region = _clipped_disk_region(interf_bs, [victim_bs], r)
    elif shape == "paper_irregular":
        region = Intersection((
            _square(interf_bs, r),
            Disk(interf_bs, r),
            Ellipse(Point(interf_bs.x + 0.2 * r, interf_bs.y + 0.1 * r),
                    semi_major=r, semi_minor=0.6 * r, rotation=math.pi / 6),
        ))
    else:
        raise ValidationError(f"unknown single-interferer shape {shape!r}")
    cells = (Cell(id="victim", bs=victim_bs,
                  region=_clipped_disk_region(victim_bs, [interf_bs], r)),
             Cell(id="interferer", bs=interf_bs, region=region))
    return _network(cells, "victim", generator="single_interferer", shape=shape,
                    radius_km=str(r))


@dataclass(frozen=True)
class HotspotDropSpec:
    n_cells: int = 84
    radius_r: float = 0.02
    area_km: tuple[float, float] = (0.5, 0.5)
    min_bs_bs_distance: float | None = None  # defaults to 1.5 * radius_r
    seed: int = 0

    def __post_init__(self):
        w, h = self.area_km
        spacing = self.spacing()
        if self.n_cells < 2:
            raise ValidationError("hotspot drop needs at least 2 cells")
        if self.seed < 0:
            raise ValidationError(f"seed must be nonnegative, got {self.seed}")
        if not (0 < w < math.inf and 0 < h < math.inf):
            raise ValidationError(
                f"drop area sides must be finite and positive, got {self.area_km}")
        if not 0 < self.radius_r < math.inf:
            raise ValidationError(f"radius must be finite and positive, got {self.radius_r}")
        if not 0 <= spacing < math.inf:
            raise ValidationError(f"BS spacing must be finite and nonnegative, got {spacing}")
        density = self.n_cells * math.pi * (spacing / w) * (spacing / h) / 4
        if density >= 0.5:
            raise ValidationError(
                f"infeasible drop: expected packing density {density:.2f} >= 0.5"
            )

    def spacing(self) -> float:
        return self.min_bs_bs_distance if self.min_bs_bs_distance is not None \
            else 1.5 * self.radius_r


def _clipped_disk_region(bs: Point, others: list[Point], r: float) -> Region:
    """Reference disk around `bs` clipped by perpendicular bisectors toward
    the nearer of the `others`, in their order."""
    disk = Disk(bs, r)
    planes: list[Region] = []
    for other in others:
        dx, dy = other.x - bs.x, other.y - bs.y
        dist = math.hypot(dx, dy)
        if dist == 0:
            raise ValidationError(f"two BSs share the position ({bs.x}, {bs.y})")
        if dist >= 2.0 * r:
            continue  # bisector cannot cut the disk
        mid = Point(bs.x + dx / 2, bs.y + dy / 2)
        planes.append(HalfPlane(mid, Point(-dx / dist, -dy / dist)))
    return Intersection((disk, *planes)) if planes else disk


def _disk_cells(positions: list[Point], r: float) -> tuple[Cell, ...]:
    """Cells "cell_00", "cell_01", ... with clipped reference-disk regions."""
    xy = np.array([(p.x, p.y) for p in positions]).reshape(-1, 2)
    cells = []
    with np.errstate(over="ignore"):  # an offset may overflow to inf, which is far
        for i, bs in enumerate(positions):
            # A BS more than 2r away along an axis is at least that far away,
            # so its bisector cannot cut the disk.
            far = np.abs(xy - xy[i]).max(axis=1) > 2.0 * r
            others = [positions[j] for j in np.flatnonzero(~far) if j != i]
            cells.append(Cell(id=f"cell_{i:02d}", bs=bs,
                              region=_clipped_disk_region(bs, others, r)))
    return tuple(cells)


def _network(cells: tuple[Cell, ...], victim_id: str, **metadata) -> NetworkScenario:
    """A validated scenario with the default channel and power control."""
    # Two points within `extent` of the origin lie at most 8*extent^2 apart
    # in squared distance, which the path-loss kernel must hold as a float.
    extent = max(abs(v) for c in cells for corner in c.region.bounding_box() for v in corner)
    if not 8.0 * extent * extent < math.inf:
        raise ValidationError(f"the cells reach {extent:g} km from the origin; squared "
                              "UE-to-BS distances would leave the floating-point range")
    return _validate(NetworkScenario(cells=cells, victim_cell_id=victim_id,
                                     channel=DEFAULT_CHANNEL, power=DEFAULT_POWER,
                                     metadata=metadata))


def gen_hotspot(spec: HotspotDropSpec) -> NetworkScenario:
    """Uniform BS drop with a minimum spacing; each cell's UE area is its
    reference disk restricted to where that BS is the nearest one."""
    w, h = spec.area_km
    spacing = spec.spacing()
    # Drops keep the Philox stream they were made with: a seed names one file.
    ss = np.random.SeedSequence(entropy=int(spec.seed), spawn_key=(0,))
    rng = np.random.Generator(np.random.Philox(ss))
    positions: list[Point] = []
    attempts = 0
    while len(positions) < spec.n_cells:
        if attempts >= MAX_PLACEMENT_ATTEMPTS:
            raise ValidationError(
                f"placed {len(positions)}/{spec.n_cells} BSs in {attempts} attempts"
            )
        attempts += 1
        cand = Point(float(rng.uniform(0, w)), float(rng.uniform(0, h)))
        if all(math.hypot(cand.x - p.x, cand.y - p.y) >= spacing for p in positions):
            positions.append(cand)

    cells = _disk_cells(positions, spec.radius_r)
    centroid = Point(w / 2, h / 2)
    victim = min(cells, key=lambda c: math.hypot(c.bs.x - centroid.x, c.bs.y - centroid.y))
    return _network(cells, victim.id, generator="hotspot", seed=str(spec.seed),
                    radius_km=str(spec.radius_r))


def gen_hex_grid(n_rings: int, pitch: float, r: float) -> NetworkScenario:
    """Hexagonal BS lattice; the center cell is the victim."""
    if n_rings < 1:
        raise ValidationError("hex grid needs at least one ring (B >= 2)")
    positions = [Point(0.0, 0.0)]
    for q in range(-n_rings, n_rings + 1):
        for s in range(-n_rings, n_rings + 1):
            if q == s == 0 or abs(q + s) > n_rings:  # |q|, |s| <= n_rings by the ranges
                continue
            x = pitch * (q + s / 2.0)
            y = pitch * s * math.sqrt(3.0) / 2.0
            positions.append(Point(x, y))
    return _network(_disk_cells(positions, r), "cell_00", generator="hex_grid",
                    pitch_km=str(pitch), radius_km=str(r))

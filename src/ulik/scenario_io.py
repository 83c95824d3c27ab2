"""Scenario data model, JSON (de)serialization and deterministic scenario
generators for the two experiment families: a single interferer with a disk
or irregular region, and a multi-cell hotspot drop.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channel import ChannelParams, PowerControl
from .errors import PlacementFailureError, SchemaError, ValidationError
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
)
from .streams import substream

FORMAT_VERSION = 1
DEFAULT_MIN_BS_UE_DISTANCE = 0.005  # km

DEFAULT_CHANNEL = ChannelParams(a_db=103.8, alpha=20.9, sigma_shad_sq=100.0, n_antennas=4)
DEFAULT_POWER = PowerControl(p0_dbm=-76.0, eta=0.8)

_NONEMPTY_PROBE = 100_000


@dataclass(frozen=True)
class Cell:
    id: str
    bs: Point
    region: Region  # as authored; the UE exclusion disk is applied lazily


@dataclass(frozen=True)
class NetworkScenario:
    cells: tuple[Cell, ...]
    victim_cell_id: str
    channel: ChannelParams
    power: PowerControl
    min_bs_ue_distance: float = DEFAULT_MIN_BS_UE_DISTANCE
    metadata: dict = field(default_factory=dict)

    def victim_cell(self) -> Cell:
        return next(c for c in self.cells if c.id == self.victim_cell_id)

    def interfering_cells(self) -> list[Cell]:
        return [c for c in self.cells if c.id != self.victim_cell_id]

    def cell(self, cell_id: str) -> Cell:
        for c in self.cells:
            if c.id == cell_id:
                return c
        raise ValidationError(f"no cell with id {cell_id!r}")

    def ue_region(self, cell_id: str) -> Region:
        """The cell's region minus the UE exclusion disk around its own BS."""
        c = self.cell(cell_id)
        return Difference(c.region, Disk(c.bs, self.min_bs_ue_distance))


def _validate(scenario: NetworkScenario) -> NetworkScenario:
    ids = [c.id for c in scenario.cells]
    if len(set(ids)) != len(ids):
        raise ValidationError("cell ids must be unique")
    if scenario.victim_cell_id not in ids:
        raise ValidationError(f"victim cell {scenario.victim_cell_id!r} is not present")
    if len(ids) < 2:
        raise ValidationError("a scenario needs at least 2 cells")
    if scenario.min_bs_ue_distance <= 0:
        raise ValidationError("min BS-to-UE distance must be positive")
    for c in scenario.cells:
        if not _probe_nonempty(scenario.ue_region(c.id)):
            raise ValidationError(
                f"cell {c.id!r}: region is empty after the UE exclusion disk"
            )
    return scenario


def _probe_nonempty(region: Region) -> bool:
    (x0, y0), (x1, y1) = region.bounding_box()
    if not all(map(math.isfinite, (x0, y0, x1, y1))) or x1 < x0 or y1 < y0:
        return False
    rng = np.random.Generator(np.random.Philox(12345))
    xs = rng.uniform(x0, x1, _NONEMPTY_PROBE)
    ys = rng.uniform(y0, y1, _NONEMPTY_PROBE)
    return bool(region.mask(xs, ys).any())


# ---------------------------------------------------------------------------
# JSON schema


def _require_keys(doc: dict, allowed: set, required: set, path: str, lenient: bool):
    missing = required - doc.keys()
    if missing:
        raise SchemaError(f"{path}: missing field(s) {sorted(missing)}")
    if not lenient:
        unknown = doc.keys() - allowed
        if unknown:
            raise SchemaError(f"{path}: unknown field(s) {sorted(unknown)}")


def _point(values, path) -> Point:
    if not (isinstance(values, list) and len(values) == 2):
        raise SchemaError(f"{path}: expected [x, y]")
    try:
        return Point(float(values[0]), float(values[1]))
    except (TypeError, ValueError, ValidationError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def region_from_dict(doc, path: str = "region", lenient: bool = False) -> Region:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object")
    kind = doc.get("type")
    try:
        if kind == "disk":
            _require_keys(doc, {"type", "center_km", "radius_km"},
                          {"type", "center_km", "radius_km"}, path, lenient)
            return Disk(_point(doc["center_km"], f"{path}.center_km"),
                        float(doc["radius_km"]))
        if kind == "ellipse":
            keys = {"type", "center_km", "semi_major_km", "semi_minor_km", "rotation_rad"}
            _require_keys(doc, keys, keys, path, lenient)
            return Ellipse(
                _point(doc["center_km"], f"{path}.center_km"),
                float(doc["semi_major_km"]),
                float(doc["semi_minor_km"]),
                float(doc["rotation_rad"]),
            )
        if kind == "polygon":
            _require_keys(doc, {"type", "vertices_km"}, {"type", "vertices_km"},
                          path, lenient)
            verts = doc["vertices_km"]
            if not isinstance(verts, list):
                raise SchemaError(f"{path}.vertices_km: expected a list")
            return Polygon(tuple(
                _point(v, f"{path}.vertices_km[{i}]") for i, v in enumerate(verts)
            ))
        if kind == "halfplane":
            _require_keys(doc, {"type", "point_km", "normal"},
                          {"type", "point_km", "normal"}, path, lenient)
            return HalfPlane(_point(doc["point_km"], f"{path}.point_km"),
                             _point(doc["normal"], f"{path}.normal"))
        if kind in ("intersection", "union"):
            _require_keys(doc, {"type", "children"}, {"type", "children"}, path, lenient)
            children = tuple(
                region_from_dict(c, f"{path}.children[{i}]", lenient)
                for i, c in enumerate(doc["children"])
            )
            return Intersection(children) if kind == "intersection" else Union(children)
        if kind == "difference":
            _require_keys(doc, {"type", "left", "right"}, {"type", "left", "right"},
                          path, lenient)
            return Difference(region_from_dict(doc["left"], f"{path}.left", lenient),
                              region_from_dict(doc["right"], f"{path}.right", lenient))
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raise SchemaError(f"{path}.type: unknown region type {kind!r}")


def region_to_dict(region: Region) -> dict:
    if isinstance(region, Disk):
        return {"type": "disk", "center_km": [region.center.x, region.center.y],
                "radius_km": region.radius}
    if isinstance(region, Ellipse):
        return {"type": "ellipse", "center_km": [region.center.x, region.center.y],
                "semi_major_km": region.semi_major, "semi_minor_km": region.semi_minor,
                "rotation_rad": region.rotation}
    if isinstance(region, Polygon):
        return {"type": "polygon",
                "vertices_km": [[p.x, p.y] for p in region.vertices]}
    if isinstance(region, HalfPlane):
        return {"type": "halfplane", "point_km": [region.point.x, region.point.y],
                "normal": [region.normal.x, region.normal.y]}
    if isinstance(region, Intersection):
        return {"type": "intersection",
                "children": [region_to_dict(c) for c in region.children]}
    if isinstance(region, Union):
        return {"type": "union",
                "children": [region_to_dict(c) for c in region.children]}
    if isinstance(region, Difference):
        return {"type": "difference", "left": region_to_dict(region.left),
                "right": region_to_dict(region.right)}
    raise ValidationError(f"unserializable region node {type(region).__name__}")


def scenario_from_dict(doc: dict, lenient: bool = False) -> NetworkScenario:
    top = {"format_version", "victim_cell_id", "min_bs_ue_distance_km",
           "channel", "power", "cells", "metadata"}
    _require_keys(doc, top, {"format_version", "victim_cell_id", "channel",
                             "power", "cells"}, "$", lenient)
    if doc["format_version"] != FORMAT_VERSION:
        raise SchemaError(f"$.format_version: unsupported version {doc['format_version']}")

    ch = doc["channel"]
    ch_keys = {"A_db", "alpha", "sigma_shad_sq", "n_antennas"}
    _require_keys(ch, ch_keys, {"A_db", "alpha", "sigma_shad_sq"}, "$.channel", lenient)
    pw = doc["power"]
    _require_keys(pw, {"p0_dbm", "eta"}, {"p0_dbm", "eta"}, "$.power", lenient)
    try:
        channel = ChannelParams(
            a_db=float(ch["A_db"]), alpha=float(ch["alpha"]),
            sigma_shad_sq=float(ch["sigma_shad_sq"]),
            n_antennas=int(ch.get("n_antennas", 1)),
        )
        power = PowerControl(p0_dbm=float(pw["p0_dbm"]), eta=float(pw["eta"]))
    except ValidationError as exc:
        raise SchemaError(f"$.channel/$.power: {exc}") from exc

    if not isinstance(doc["cells"], list):
        raise SchemaError("$.cells: expected a list")
    cells = []
    for i, cd in enumerate(doc["cells"]):
        path = f"$.cells[{i}]"
        _require_keys(cd, {"id", "bs_km", "region"}, {"id", "bs_km", "region"},
                      path, lenient)
        cells.append(Cell(
            id=str(cd["id"]),
            bs=_point(cd["bs_km"], f"{path}.bs_km"),
            region=region_from_dict(cd["region"], f"{path}.region", lenient),
        ))

    scenario = NetworkScenario(
        cells=tuple(cells),
        victim_cell_id=str(doc["victim_cell_id"]),
        channel=channel,
        power=power,
        min_bs_ue_distance=float(doc.get("min_bs_ue_distance_km",
                                         DEFAULT_MIN_BS_UE_DISTANCE)),
        metadata=dict(doc.get("metadata", {})),
    )
    return _validate(scenario)


def scenario_to_dict(scenario: NetworkScenario) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "victim_cell_id": scenario.victim_cell_id,
        "min_bs_ue_distance_km": scenario.min_bs_ue_distance,
        "channel": {
            "A_db": scenario.channel.a_db,
            "alpha": scenario.channel.alpha,
            "sigma_shad_sq": scenario.channel.sigma_shad_sq,
            "n_antennas": scenario.channel.n_antennas,
        },
        "power": {"p0_dbm": scenario.power.p0_dbm, "eta": scenario.power.eta},
        "cells": [
            {"id": c.id, "bs_km": [c.bs.x, c.bs.y], "region": region_to_dict(c.region)}
            for c in scenario.cells
        ],
        "metadata": scenario.metadata,
    }


def load_scenario(source, lenient: bool = False) -> NetworkScenario:
    """Load a scenario from a dict, a JSON string or a file path."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text(encoding="utf-8")
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{source}: invalid JSON ({exc})") from exc
    return scenario_from_dict(doc, lenient=lenient)


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


def gen_single_interferer(
    r: float, shape: str = "disk", seed: int = 0
) -> NetworkScenario:
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
    positions = [victim_bs, interf_bs]
    if shape == "disk":
        region: Region = _clipped_disk_region(1, positions, r)
    elif shape == "paper_irregular":
        region = Intersection((
            _square(interf_bs, r),
            Disk(interf_bs, r),
            Ellipse(Point(interf_bs.x + 0.2 * r, interf_bs.y + 0.1 * r),
                    semi_major=r, semi_minor=0.6 * r, rotation=math.pi / 6),
        ))
    else:
        raise ValidationError(f"unknown single-interferer shape {shape!r}")
    scenario = NetworkScenario(
        cells=(
            Cell(id="victim", bs=victim_bs,
                 region=_clipped_disk_region(0, positions, r)),
            Cell(id="interferer", bs=interf_bs, region=region),
        ),
        victim_cell_id="victim",
        channel=DEFAULT_CHANNEL,
        power=DEFAULT_POWER,
        metadata={"generator": "single_interferer", "shape": shape,
                  "radius_km": str(r), "seed": str(seed)},
    )
    return _validate(scenario)


@dataclass(frozen=True)
class HotspotDropSpec:
    n_cells: int = 84
    radius_r: float = 0.02
    area_km: tuple[float, float] = (0.5, 0.5)
    min_bs_bs_distance: float | None = None  # defaults to 1.5 * radius_r
    max_attempts: int = 100_000
    seed: int = 0

    def spacing(self) -> float:
        return self.min_bs_bs_distance if self.min_bs_bs_distance is not None \
            else 1.5 * self.radius_r


def _clipped_disk_region(i: int, positions: list[Point], r: float) -> Region:
    """Reference disk clipped by perpendicular bisectors toward nearer BSs."""
    bs = positions[i]
    planes: list[Region] = []
    for j, other in enumerate(positions):
        if j == i:
            continue
        dx, dy = other.x - bs.x, other.y - bs.y
        dist = math.hypot(dx, dy)
        if dist >= 2.0 * r:
            continue  # bisector cannot cut the disk
        mid = Point(bs.x + dx / 2, bs.y + dy / 2)
        planes.append(HalfPlane(mid, Point(-dx / dist, -dy / dist)))
    disk = Disk(bs, r)
    return Intersection((disk, *planes)) if planes else disk


def gen_hotspot(spec: HotspotDropSpec) -> NetworkScenario:
    """Uniform BS drop with a minimum spacing; each cell's UE area is its
    reference disk restricted to where that BS is the nearest one."""
    if spec.n_cells < 2:
        raise ValidationError("hotspot drop needs at least 2 cells")
    w, h = spec.area_km
    spacing = spec.spacing()
    density = spec.n_cells * math.pi * (spacing / 2) ** 2 / (w * h)
    if density >= 0.5:
        raise ValidationError(
            f"infeasible drop: expected packing density {density:.2f} >= 0.5"
        )
    rng = substream(spec.seed, 0)
    positions: list[Point] = []
    attempts = 0
    while len(positions) < spec.n_cells:
        if attempts >= spec.max_attempts:
            raise PlacementFailureError(
                f"placed {len(positions)}/{spec.n_cells} BSs in {attempts} attempts"
            )
        attempts += 1
        cand = Point(float(rng.uniform(0, w)), float(rng.uniform(0, h)))
        if all(math.hypot(cand.x - p.x, cand.y - p.y) >= spacing for p in positions):
            positions.append(cand)

    cells = tuple(
        Cell(
            id=f"cell_{i:02d}",
            bs=p,
            region=_clipped_disk_region(i, positions, spec.radius_r),
        )
        for i, p in enumerate(positions)
    )
    centroid = Point(w / 2, h / 2)
    victim = min(cells, key=lambda c: math.hypot(c.bs.x - centroid.x, c.bs.y - centroid.y))
    scenario = NetworkScenario(
        cells=cells,
        victim_cell_id=victim.id,
        channel=DEFAULT_CHANNEL,
        power=DEFAULT_POWER,
        metadata={"generator": "hotspot", "seed": str(spec.seed),
                  "radius_km": str(spec.radius_r)},
    )
    return _validate(scenario)


def gen_hex_grid(n_rings: int, pitch: float, r: float) -> NetworkScenario:
    """Hexagonal BS lattice; the center cell is the victim."""
    if n_rings < 1:
        raise ValidationError("hex grid needs at least one ring (B >= 2)")
    positions = [Point(0.0, 0.0)]
    for q in range(-n_rings, n_rings + 1):
        for s in range(-n_rings, n_rings + 1):
            if q == 0 and s == 0:
                continue
            if abs(q + s) > n_rings or abs(q) > n_rings or abs(s) > n_rings:
                continue
            x = pitch * (q + s / 2.0)
            y = pitch * s * math.sqrt(3.0) / 2.0
            positions.append(Point(x, y))
    cells = tuple(
        Cell(id=f"cell_{i:02d}", bs=p, region=_clipped_disk_region(i, positions, r))
        for i, p in enumerate(positions)
    )
    scenario = NetworkScenario(
        cells=cells,
        victim_cell_id="cell_00",
        channel=DEFAULT_CHANNEL,
        power=DEFAULT_POWER,
        metadata={"generator": "hex_grid", "pitch_km": str(pitch), "radius_km": str(r)},
    )
    return _validate(scenario)

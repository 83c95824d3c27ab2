import json
import math
import re
import tempfile
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ulik import scenario_io
from ulik.errors import SchemaError, UlikError, ValidationError
from ulik.geometry import Disk, HalfPlane, Intersection, Point, sample_uniform_xy
from ulik.scenario_io import (
    HotspotDropSpec,
    gen_hex_grid,
    gen_hotspot,
    gen_single_interferer,
    load_scenario,
    region_to_dict,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from ulik.simulator import substream


def minimal_doc():
    return {
        "format_version": 1,
        "victim_cell_id": "c1",
        "min_bs_ue_distance_km": 0.005,
        "channel": {"A_db": 103.8, "alpha": 20.9, "sigma_shad_sq": 100.0, "n_antennas": 2},
        "power": {"p0_dbm": -76.0, "eta": 0.8},
        "cells": [
            {"id": "c1", "bs_km": [0.0, 0.0],
             "region": {"type": "disk", "center_km": [0.0, 0.0], "radius_km": 0.02}},
            {"id": "c2", "bs_km": [0.03, 0.0],
             "region": {"type": "disk", "center_km": [0.03, 0.0], "radius_km": 0.02}},
        ],
    }


class TestLoadScenario:
    def test_minimal_two_cell(self):
        sc = scenario_from_dict(minimal_doc())
        assert len(sc.cells) == 2
        assert sc.victim_cell().id == "c1"
        assert len(sc.interfering_cells()) == 1

    def test_missing_victim_id(self):
        doc = minimal_doc()
        del doc["victim_cell_id"]
        with pytest.raises(SchemaError):
            scenario_from_dict(doc)

    # Each JSON path of the document below, with the keys that lead to it.
    _OBJECTS = {
        "$": (),
        "$.channel": ("channel",),
        "$.power": ("power",),
        "$.cells[1]": ("cells", 1),
        "$.cells[1].region": ("cells", 1, "region"),
        "$.cells[1].region.children[0]": ("cells", 1, "region", "children", 0),
    }

    @pytest.mark.parametrize("json_path", list(_OBJECTS))
    def test_unknown_field_names_its_path(self, json_path):
        doc = minimal_doc()
        cell = doc["cells"][1]
        cell["region"] = {"type": "intersection", "children": [cell["region"]]}
        assert scenario_from_dict(doc).cell("c2").region.children[0].radius == 0.02
        reduce(getitem, self._OBJECTS[json_path], doc)["extra"] = 1
        with pytest.raises(SchemaError, match=rf"^{re.escape(json_path)}: "
                                              r"unknown field\(s\) \['extra'\]$"):
            scenario_from_dict(doc)

    def test_region_swallowed_by_exclusion_disk(self):
        doc = minimal_doc()
        doc["cells"][1]["region"] = {
            "type": "disk", "center_km": [0.03, 0.0], "radius_km": 0.004,
        }
        with pytest.raises(ValidationError, match="c2"):
            scenario_from_dict(doc)

    def test_duplicate_cell_ids(self):
        doc = minimal_doc()
        doc["cells"][1]["id"] = "c1"
        with pytest.raises((SchemaError, ValidationError)):
            scenario_from_dict(doc)

    def test_exclusion_disk_applied(self):
        sc = scenario_from_dict(minimal_doc())
        region = sc.ue_region("c2")
        np.testing.assert_array_equal(
            region.mask(np.array([0.03, 0.03]), np.array([0.0, 0.01])), [False, True])

    def test_deep_region_tree_is_a_schema_error(self):
        doc = minimal_doc()
        cell = doc["cells"][1]
        for _ in range(1000):
            cell["region"] = {"type": "union", "children": [cell["region"]]}
        with pytest.raises(SchemaError, match="nested too deeply"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("kind", ["intersection", "union"])
    def test_childless_combination_names_the_path(self, kind):
        doc = minimal_doc()
        doc["cells"][1]["region"] = {"type": kind, "children": []}
        with pytest.raises(SchemaError, match=rf"^\$\.cells\[1\]\.region: {kind} needs at "
                                              "least one child$"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("cell_id", ["sub/dir", "a\0b"], ids=["slash", "nul"])
    def test_cell_id_must_name_a_file(self, tmp_path, cell_id):
        doc = minimal_doc()
        doc["cells"][1]["id"] = cell_id
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"^\$\.cells\[1\]: cell id .* cannot name a file$"):
            load_scenario(path)

    # cell_<id>.bin: 9 bytes around the id, 255 in all.
    @pytest.mark.parametrize("cell_id, loads", [
        ("x" * 246, True), ("x" * 247, False), ("x" * 300, False),
        ("\u00e9" * 123, True), ("\u00e9" * 124, False),  # two UTF-8 bytes each
    ], ids=["246", "247", "300", "246-bytes-utf8", "248-bytes-utf8"])
    def test_cell_id_length_is_a_file_name_limit(self, tmp_path, cell_id, loads):
        doc = minimal_doc()
        doc["cells"][1]["id"] = cell_id
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        if loads:
            assert load_scenario(path).cells[1].id == cell_id
            (tmp_path / f"cell_{cell_id}.bin").write_bytes(b"")  # the name is usable
        else:
            with pytest.raises(SchemaError, match=r"^\$\.cells\[1\]: cell id too long to "
                                                  r"name a file: cell_<id>\.bin takes \d+ "
                                                  r"bytes, more than 255$"):
                load_scenario(path)

    def test_cell_id_must_be_utf8_text(self, tmp_path):
        doc = minimal_doc()
        doc["cells"][1]["id"] = "\ud800x"  # valid JSON, but no file name holds it
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"^\$\.cells\[1\]\.id: expected UTF-8 text"):
            load_scenario(path)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(minimal_doc()))
        assert load_scenario(path).victim_cell().id == "c1"


class TestRoundTrip:
    @pytest.mark.parametrize("scenario", [
        gen_single_interferer(0.02),
        gen_single_interferer(0.01, shape="paper_irregular"),
        gen_hotspot(HotspotDropSpec(n_cells=10, seed=4)),
        gen_hex_grid(1, 0.04, 0.02),
    ], ids=["disk", "irregular", "hotspot", "hex"])
    def test_save_load_identity(self, tmp_path, scenario):
        path = tmp_path / "sc.json"
        save_scenario(scenario, path)
        back = load_scenario(path)
        assert scenario_to_dict(back) == scenario_to_dict(scenario)


def all_region_types_doc():
    """The two-cell document plus a third cell whose region uses every node type."""
    doc = minimal_doc()
    doc["cells"].append({"id": "c3", "bs_km": [0.0, 0.04], "region": {
        "type": "difference",
        "left": {"type": "union", "children": [
            {"type": "intersection", "children": [
                {"type": "ellipse", "center_km": [0.0, 0.04], "semi_major_km": 0.02,
                 "semi_minor_km": 0.01, "rotation_rad": 0.5},
                {"type": "halfplane", "point_km": [0.0, 0.04], "normal": [0.0, 1.0]},
            ]},
            {"type": "polygon", "vertices_km": [[-0.01, 0.03], [0.01, 0.03], [0.0, 0.05]]},
        ]},
        "right": {"type": "disk", "center_km": [0.0, 0.06], "radius_km": 0.005},
    }})
    doc["metadata"] = {"note": "every region node type"}
    return doc


def json_paths(value, path=()):
    """The key path of every node of a JSON document, the root included."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in (value.items() if isinstance(value, dict) else enumerate(value)):
            yield from json_paths(child, path + (key,))


GENERATED_SCENARIOS = st.one_of(
    st.builds(lambda n, r, seed: gen_hotspot(HotspotDropSpec(n_cells=n, radius_r=r, seed=seed)),
              st.integers(2, 20), st.floats(0.01, 0.03), st.integers(0, 2**32 - 1)),
    st.builds(gen_single_interferer, st.floats(0.01, 0.05),
              st.sampled_from(["disk", "paper_irregular"])),
    st.builds(gen_hex_grid, st.integers(1, 2), st.floats(0.03, 0.06), st.floats(0.01, 0.03)),
)

JUNK = st.one_of(
    st.none(), st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2), st.integers(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


class TestCodecProperties:
    def test_all_region_types_doc_is_valid(self):
        doc = all_region_types_doc()
        assert scenario_to_dict(scenario_from_dict(doc)) == doc

    @settings(max_examples=30, deadline=None)
    @given(GENERATED_SCENARIOS)
    def test_save_load_save_byte_identical(self, scenario):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "first.json"), Path(tmp, "second.json")
            save_scenario(scenario, first)
            save_scenario(load_scenario(first), second)
            assert first.read_bytes() == second.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(list(json_paths(all_region_types_doc()))), JUNK)
    def test_malformed_node_raises_only_ulik_errors(self, path, junk):
        doc = all_region_types_doc()
        if path:
            reduce(getitem, path[:-1], doc)[path[-1]] = junk
        else:
            doc = junk
        try:
            scenario_from_dict(doc)
        except UlikError:
            pass


class TestGenSingleInterferer:
    def test_metadata(self):
        assert gen_single_interferer(0.02, shape="paper_irregular").metadata == {
            "generator": "single_interferer", "shape": "paper_irregular", "radius_km": "0.02"}

    def test_bs_spacing_is_1_5r(self):
        for r in (0.01, 0.02, 0.04):
            sc = gen_single_interferer(r)
            bs = sc.interfering_cells()[0].bs
            assert math.hypot(bs.x, bs.y) == pytest.approx(1.5 * r)
        assert gen_single_interferer(0.04).interfering_cells()[0].bs.x == pytest.approx(0.06)
        assert gen_single_interferer(0.01).interfering_cells()[0].bs.x == pytest.approx(0.015)

    @pytest.mark.parametrize("r", [0.01, 0.02, 0.04])
    def test_irregular_region_nonempty(self, r):
        sc = gen_single_interferer(r, shape="paper_irregular")
        xs, ys = sample_uniform_xy(sc.ue_region("interferer"), substream(0, 0), 100)
        assert len(xs) == 100

    def test_regions_respect_nearest_bs_partition(self):
        # D = 1.5r < 2r: overlapping reference disks are split at the bisector
        sc = gen_single_interferer(0.02)
        bs1 = sc.victim_cell().bs
        bs2 = sc.interfering_cells()[0].bs
        for cell_id, own, other in [("victim", bs1, bs2), ("interferer", bs2, bs1)]:
            xs, ys = sample_uniform_xy(sc.ue_region(cell_id), substream(1, 0), 5000)
            d_own = np.hypot(xs - own.x, ys - own.y)
            d_other = np.hypot(xs - other.x, ys - other.y)
            assert (d_own <= d_other).all()


class TestGenHotspot:
    def test_default_drop(self):
        sc = gen_hotspot(HotspotDropSpec(seed=2))
        assert len(sc.cells) == 84
        for cell in sc.cells:
            xs, _ = sample_uniform_xy(sc.ue_region(cell.id), substream(0, 0), 10)
            assert len(xs) == 10

    def test_deterministic_per_seed(self):
        a = gen_hotspot(HotspotDropSpec(n_cells=12, seed=9))
        b = gen_hotspot(HotspotDropSpec(n_cells=12, seed=9))
        assert scenario_to_dict(a) == scenario_to_dict(b)
        c = gen_hotspot(HotspotDropSpec(n_cells=12, seed=10))
        assert scenario_to_dict(c) != scenario_to_dict(a)

    def test_far_cells_keep_full_disks(self):
        # large area, 2 cells: overlap is virtually impossible at seed 0
        spec = HotspotDropSpec(n_cells=2, radius_r=0.01, area_km=(2.0, 2.0), seed=0)
        sc = gen_hotspot(spec)
        for cell in sc.cells:
            reference = Disk(cell.bs, 0.01)
            xs, ys = sample_uniform_xy(reference, substream(3, 0), 2000)
            inside = np.hypot(xs - cell.bs.x, ys - cell.bs.y) >= sc.min_bs_ue_distance
            region = sc.ue_region(cell.id)
            np.testing.assert_array_equal(region.mask(xs, ys), inside)

    def test_regions_disjoint(self):
        sc = gen_hotspot(HotspotDropSpec(n_cells=30, seed=5))
        regions = [sc.ue_region(c.id) for c in sc.cells]
        for i, region in enumerate(regions):
            xs, ys = sample_uniform_xy(region, substream(6, i), 300)
            for j, other in enumerate(regions):
                if j != i:
                    assert not other.mask(xs, ys).any()

    def test_victim_is_near_centroid(self):
        sc = gen_hotspot(HotspotDropSpec(seed=3))
        victim = sc.victim_cell().bs
        center = (0.25, 0.25)
        d_victim = math.hypot(victim.x - center[0], victim.y - center[1])
        assert all(
            d_victim <= math.hypot(c.bs.x - center[0], c.bs.y - center[1]) + 1e-12
            for c in sc.cells
        )

    def test_attempt_budget(self, monkeypatch):
        monkeypatch.setattr(scenario_io, "MAX_PLACEMENT_ATTEMPTS", 10)
        with pytest.raises(ValidationError, match=r"placed \d+/50 BSs in 10 attempts"):
            gen_hotspot(HotspotDropSpec(n_cells=50))

    # tests/test_cli.py::TestBadInput runs the zero, negative and NaN cases.
    @pytest.mark.parametrize("field, value, message", [
        ("n_cells", 1, "at least 2 cells"),
        ("area_km", (0.5, math.inf), "drop area sides must be finite and positive"),
        ("radius_r", math.inf, "radius must be finite and positive"),
        ("min_bs_bs_distance", -0.1, "BS spacing must be finite and nonnegative"),
    ])
    def test_spec_rejects(self, field, value, message):
        with pytest.raises(ValidationError, match=message):
            HotspotDropSpec(**{field: value})

    def test_placement_failure(self):
        with pytest.raises(ValidationError, match="infeasible drop"):
            gen_hotspot(HotspotDropSpec(n_cells=50, radius_r=0.2, area_km=(0.1, 0.1),
                                        min_bs_bs_distance=0.3, seed=0))


def _brute_force_disk_region(i, positions, r):
    """Disk i clipped toward every other BS within 2r, found by testing all of them."""
    bs = positions[i]
    planes = []
    for j, other in enumerate(positions):
        if j == i:
            continue
        dx, dy = other.x - bs.x, other.y - bs.y
        dist = math.hypot(dx, dy)
        if dist == 0:
            raise ValidationError(f"two BSs share the position ({bs.x}, {bs.y})")
        if dist < 2.0 * r:
            planes.append(HalfPlane(Point(bs.x + dx / 2, bs.y + dy / 2),
                                    Point(-dx / dist, -dy / dist)))
    return Intersection((Disk(bs, r), *planes)) if planes else Disk(bs, r)


def _outcome(regions):
    """The regions as JSON, or the message of the error that refused them."""
    try:
        return [region_to_dict(region) for region in regions()]
    except ValidationError as exc:
        return str(exc)


class TestDiskClipping:
    """Testing only the BSs within 2r along both axes finds the same bisectors as
    testing every BS."""

    def assert_matches_brute_force(self, positions, r):
        assert _outcome(lambda: [c.region for c in scenario_io._disk_cells(positions, r)]) == (
            _outcome(lambda: [_brute_force_disk_region(i, positions, r)
                              for i in range(len(positions))]))

    @pytest.mark.parametrize("n_cells, r, side, seed", [
        (84, 0.02, 0.5, 2), (12, 0.05, 1.0, 7), (160, 0.01, 0.3, 11), (30, 0.02, 0.25, 3),
    ])
    def test_hotspot_drops(self, n_cells, r, side, seed):
        sc = gen_hotspot(HotspotDropSpec(n_cells=n_cells, radius_r=r, area_km=(side, side),
                                         seed=seed))
        self.assert_matches_brute_force([c.bs for c in sc.cells], r)

    @pytest.mark.parametrize("pitch", [0.03, 0.04, 0.05, 0.0399999])
    def test_hex_grids(self, pitch):
        sc = gen_hex_grid(4, pitch=pitch, r=0.02)
        self.assert_matches_brute_force([c.bs for c in sc.cells], 0.02)

    def test_far_from_the_origin(self):
        # Far out, an offset of 0.03 km is rounded to a few ulps of 1e9.
        positions = [Point(1e9, 5.0), Point(1e9 + 0.03, 5.0), Point(1e9, 5.03)]
        self.assert_matches_brute_force(positions, 0.02)

    def test_offsets_beyond_the_float_range(self):
        positions = [Point(-1e308, 0.0), Point(1e308, 0.0), Point(1e308, 0.01)]
        self.assert_matches_brute_force(positions, 0.02)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)),
                    min_size=2, max_size=12),
           st.sampled_from([0.01, 0.02, 0.025, 0.1 / 3]))
    def test_pairs_near_2r_and_on_bucket_edges(self, steps, r):
        # Points on a 0.005 km lattice: many pairs lie at or near 2r, or on
        # a bucket edge, and repeated points must raise the same error.
        positions = [Point(0.005 * i, 0.005 * j) for i, j in steps]
        self.assert_matches_brute_force(positions, r)


class TestGenHexGrid:
    def test_one_ring(self):
        sc = gen_hex_grid(1, pitch=0.05, r=0.02)
        assert len(sc.cells) == 7
        victim = sc.victim_cell().bs
        for cell in sc.interfering_cells():
            d = math.hypot(cell.bs.x - victim.x, cell.bs.y - victim.y)
            assert d == pytest.approx(0.05)

    def test_tangent_disks_not_clipped(self):
        sc = gen_hex_grid(1, pitch=0.04, r=0.02)
        for cell in sc.cells:
            region = sc.ue_region(cell.id)
            xs, ys = sample_uniform_xy(Disk(cell.bs, 0.02), substream(8, 0), 2000)
            d_own = np.hypot(xs - cell.bs.x, ys - cell.bs.y)
            expected = d_own >= sc.min_bs_ue_distance
            np.testing.assert_array_equal(region.mask(xs, ys), expected)

    def test_zero_rings_rejected(self):
        with pytest.raises(ValidationError):
            gen_hex_grid(0, pitch=0.05, r=0.02)

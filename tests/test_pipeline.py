import dataclasses

import numpy as np
import pytest

from ulik import geometry
from ulik.channel import combined_shadow_stats
from ulik.errors import ValidationError
from ulik.gaussian_approx import (
    interferer_gaussian,
    lognormal_exp_gaussian,
    region_moments,
    tau,
)
from ulik.lognormal_sum import DEFAULT_ORDER, DEFAULT_S1, DEFAULT_S2, fit_sum, gh_rule
from ulik.pipeline import analyze
from ulik.scenario_io import HotspotDropSpec, gen_hotspot


@pytest.fixture(scope="module")
def scenario():
    return gen_hotspot(HotspotDropSpec(n_cells=5, radius_r=0.02, area_km=(0.2, 0.2), seed=4))


def test_matches_the_chain_step_by_step(scenario):
    """Each cell's moments at the given accuracy; the fit runs at the declared
    design and is referenced to P0."""
    sc = scenario
    result = analyze(sc, 5_000)
    g = lognormal_exp_gaussian(combined_shadow_stats(sc.channel, sc.power))
    comps = []
    assert [c.cell_id for c in result.cells] == [c.id for c in sc.interfering_cells()]
    for cell, got in zip(sc.interfering_cells(), result.cells):
        m = region_moments(sc.ue_region(cell.id), cell.bs, sc.victim_cell().bs,
                           sc.channel, sc.power, 5_000)
        assert got.moments == m
        assert got.tau == tau(m, g)
        assert got.component == interferer_gaussian(sc.power.p0_dbm, m, g)
        comps.append(got.component)
    assert result.fit == fit_sum(comps, s1=DEFAULT_S1, s2=DEFAULT_S2, rule=gh_rule(DEFAULT_ORDER),
                                 ref_dbm=sc.power.p0_dbm)


def test_missing_victim_is_a_validation_error(scenario):
    sc = dataclasses.replace(scenario, victim_cell_id="absent")
    with pytest.raises(ValidationError, match="no cell with id 'absent'"):
        analyze(sc, 2_000)


def test_ue_on_a_bs_names_the_cell(scenario, monkeypatch):
    # Every quadrature node sits on the victim BS.
    victim = scenario.victim_cell().bs
    monkeypatch.setattr(geometry, "quadrature_nodes", lambda region, origin, panels, radial: (
        np.array([victim.x]), np.array([victim.y]), np.ones(1)))
    first = scenario.interfering_cells()[0].id
    with pytest.raises(ValidationError,
                       match=f"^cell '{first}': sampled UE position coincides with a BS"):
        analyze(scenario, 2_000)

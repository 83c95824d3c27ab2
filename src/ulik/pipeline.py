"""The analysis chain: region moments -> tau certificate -> per-cell Gaussian
-> one MGF-matched lognormal for the aggregate."""

from dataclasses import dataclass

from . import channel, gaussian_approx, lognormal_sum
from .errors import ValidationError
from .gaussian_approx import GaussianApprox, RegionMoments


@dataclass(frozen=True)
class CellAnalysis:
    cell_id: str
    moments: RegionMoments
    tau: float
    component: GaussianApprox


@dataclass(frozen=True)
class Analysis:
    cells: tuple[CellAnalysis, ...]  # interfering cells, in scenario order
    fit: lognormal_sum.LognormalFit


def analyze(scenario, samples: int) -> Analysis:
    """Run the chain on every interfering cell of the scenario.

    The chain draws nothing at random: ``samples`` is the accuracy target of
    the region-moment quadrature (see ``gaussian_approx.region_moments``).
    The fit runs at ``fit_sum``'s own design, with the cell-edge receive
    target P0 as its reference level.
    Library calls go through module attributes, so a wrapper installed on
    ``gaussian_approx.region_moments`` or ``lognormal_sum.fit_sum`` sees them.
    """
    g = gaussian_approx.lognormal_exp_gaussian(
        channel.combined_shadow_stats(scenario.channel, scenario.power))
    p0 = scenario.power.p0_dbm
    victim_bs = scenario.victim_cell().bs
    cells = []
    for cell in scenario.interfering_cells():
        try:
            moments = gaussian_approx.region_moments(
                scenario.ue_region(cell.id), cell.bs, victim_bs,
                scenario.channel, scenario.power, samples)
            cells.append(CellAnalysis(cell.id, moments, gaussian_approx.tau(moments, g),
                                      gaussian_approx.interferer_gaussian(p0, moments, g)))
        except ValidationError as exc:
            raise ValidationError(f"cell {cell.id!r}: {exc}") from exc
    fit = lognormal_sum.fit_sum([c.component for c in cells], ref_dbm=p0)
    return Analysis(tuple(cells), fit)

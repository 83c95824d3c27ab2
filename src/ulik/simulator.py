"""Monte Carlo oracle for the full generative interference model: uniform UE
positions, shadowing, exp(1) effective fading and FPC transmit power.

Per-cell variates come from counter-based substreams keyed by
(seed, cell index, variate kind), so results are bit-identical for a fixed
(seed, n_samples) regardless of worker count.
"""

import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from . import channel, geometry
from .distribution import DBM, EmpiricalDistribution
from .errors import EmptyRegionError, SchemaError, ValidationError
from .streams import substream

_LN10 = math.log(10.0)
_BLOCK = 1 << 17  # realizations per block; fixed so results never depend on it
_MIN_FADING = 2.0**-54

_TAG_POS = 0
_TAG_S_OWN = 1
_TAG_S_VICTIM = 2
_TAG_FADING = 3

SAMPLE_DUMP_MAGIC = b"ULIKSMP1"


@dataclass(frozen=True)
class SimConfig:
    n_samples: int
    seed: int = 0
    record_per_cell: bool = False
    threads: int = 1

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValidationError(f"need at least one realization, got {self.n_samples}")
        if self.threads < 1:
            raise ValidationError("thread count must be positive")


@dataclass(frozen=True)
class SimResult:
    aggregate_dbm: EmpiricalDistribution
    per_cell_db: dict | None = None


def _standard_normal(rng, n):
    # Inversion instead of ziggurat: identical draws on every platform.
    u = rng.random(n)
    return ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))


def _exponential(rng, n):
    # u = 0 would give h = 0.  The floor is below -log1p(-2**-53), the gain of
    # the smallest nonzero draw, so every u > 0 keeps its exact value.
    return np.maximum(-np.log1p(-rng.random(n)), _MIN_FADING)


class _CellSampler:
    """Owns one interfering cell's region and RNG substreams."""

    def __init__(self, cell, region, victim_bs, params, pc, seed, index):
        self.cell = cell
        self.region = region
        self.victim_bs = victim_bs
        self.params = params
        self.pc = pc
        self.rng_pos = substream(seed, index, _TAG_POS)
        self.rng_s_own = substream(seed, index, _TAG_S_OWN)
        self.rng_s_vic = substream(seed, index, _TAG_S_VICTIM)
        self.rng_h = substream(seed, index, _TAG_FADING)

    def draw_block(self, m: int) -> np.ndarray:
        try:
            xs, ys = geometry.sample_uniform_xy(self.region, self.rng_pos, m)
        except EmptyRegionError as exc:
            raise EmptyRegionError(f"cell {self.cell.id!r}: {exc}") from exc
        sigma = math.sqrt(self.params.sigma_shad_sq)
        s_own = sigma * _standard_normal(self.rng_s_own, m)
        s_vic = sigma * _standard_normal(self.rng_s_vic, m)
        h = _exponential(self.rng_h, m)
        return channel.interference_db(self.pc, self.params, xs, ys, self.cell.bs,
                                       self.victim_bs, s_own, s_vic, h)


def simulate(scenario, cfg: SimConfig) -> SimResult:
    """Sample the aggregate (and optionally per-cell) interference distribution."""
    interferers = scenario.interfering_cells()
    if not interferers:
        raise ValidationError("scenario has no interfering cell")
    victim_bs = scenario.victim_cell().bs
    samplers = [
        _CellSampler(
            cell,
            scenario.ue_region(cell.id),
            victim_bs,
            scenario.channel,
            scenario.power,
            cfg.seed,
            idx,
        )
        for idx, cell in enumerate(interferers)
    ]

    n = cfg.n_samples
    aggregate = np.empty(n)
    per_cell = {c.id: np.empty(n) for c in interferers} if cfg.record_per_cell else None

    pool = ThreadPoolExecutor(max_workers=cfg.threads) if cfg.threads > 1 else None
    try:
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            if pool is not None:
                blocks = list(pool.map(lambda sm: sm.draw_block(m), samplers))
            else:
                blocks = [sm.draw_block(m) for sm in samplers]
            # Aggregate in the log domain (natural log of mW), reduced in fixed
            # cell order; logaddexp keeps large dB values from overflowing.
            acc = blocks[0] * (_LN10 / 10.0)
            for block in blocks[1:]:
                acc = np.logaddexp(acc, block * (_LN10 / 10.0))
            aggregate[start : start + m] = acc * (10.0 / _LN10)
            if per_cell is not None:
                for cell, block in zip(interferers, blocks):
                    per_cell[cell.id][start : start + m] = block
    finally:
        if pool is not None:
            pool.shutdown()

    result_per_cell = None
    if per_cell is not None:
        result_per_cell = {
            cid: EmpiricalDistribution.from_samples(v, DBM) for cid, v in per_cell.items()
        }
    return SimResult(
        aggregate_dbm=EmpiricalDistribution.from_samples(aggregate, DBM),
        per_cell_db=result_per_cell,
    )


def simulate_shadow_fading_product(
    sigma_s_sq: float, n: int, seed: int
) -> EmpiricalDistribution:
    """Samples of S + 10*log10(H), S ~ N(0, sigma_s_sq), H ~ exp(1).

    Validates the fixed-offset Gaussian surrogate for the lognormal-times-
    exponential product.
    """
    rng_s = substream(seed, 0, _TAG_S_OWN)
    rng_h = substream(seed, 0, _TAG_FADING)
    s = math.sqrt(sigma_s_sq) * _standard_normal(rng_s, n)
    h = _exponential(rng_h, n)
    return EmpiricalDistribution.from_samples(s + 10.0 * np.log10(h), DBM)


def write_samples(path, dist: EmpiricalDistribution) -> None:
    """Raw dump: magic, little-endian u64 count, float64 LE dBm values."""
    data = np.ascontiguousarray(dist.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(SAMPLE_DUMP_MAGIC)
        fh.write(struct.pack("<Q", len(data)))
        fh.write(data.tobytes())


def read_samples(path) -> EmpiricalDistribution:
    raw = Path(path).read_bytes()
    if raw[:8] != SAMPLE_DUMP_MAGIC:
        raise SchemaError(f"{path}: not a ulik sample dump")
    (count,) = struct.unpack("<Q", raw[8:16])
    data = np.frombuffer(raw[16:], dtype="<f8")
    if len(data) != count:
        raise SchemaError(f"{path}: declared {count} samples, found {len(data)}")
    return EmpiricalDistribution.from_samples(data, DBM)

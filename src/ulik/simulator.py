"""Monte Carlo oracle for the full generative interference model: uniform UE
positions, shadowing, exp(1) effective fading and FPC transmit power.

The two shadowing terms of a link pair enter only as eta*S_own - S_victim,
so each realization draws that combination once, as one normal of variance
(1 + eta^2)*sigma^2.  Per-cell variates come from SFC64 substreams seeded by
SeedSequence keys (seed, cell index, variate kind), and the cells' linear
powers are summed in fixed cell order, so results are bit-identical for a
fixed (seed, n_samples) regardless of worker count.  Hotspot drops keep their
Philox stream, so a seed still names one scenario file.  Only numpy is needed.
"""

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .distribution import EmpiricalDistribution
from .errors import SchemaError, ValidationError

_LN10 = math.log(10.0)
_BLOCK = 1 << 17  # realizations per block; fixed so results never depend on it
_MIN_FADING = 2.0**-54

_TAG_POS = 0
_TAG_SHADOW = 1
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
        if self.n_samples > 2**53:  # past it, the KS's i/n and quantile's (n-1)*p are inexact
            raise ValidationError(f"at most 2**53 realizations, got {self.n_samples}")
        if self.threads < 1:
            raise ValidationError("thread count must be positive")


@dataclass(frozen=True)
class SimResult:
    aggregate_dbm: EmpiricalDistribution
    per_cell_db: dict | None = None


def substream(seed: int, *key: int) -> "np.random.Generator":
    """SFC64 generator of the independent substream keyed by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.SFC64(ss))


def _exponential(rng, n):
    # u = 0 would give h = 0.  The floor is below -log1p(-2**-53), the gain of
    # the smallest nonzero draw, so every u > 0 keeps its exact value.
    # max(-log1p(-u), floor), bit for bit, in place on the one array -u.
    h = np.negative(rng.random(n))
    np.log1p(h, out=h)
    np.negative(h, out=h)
    return np.maximum(h, _MIN_FADING, out=h)


def simulate(scenario, cfg: SimConfig) -> SimResult:
    """Sample the aggregate (and optionally per-cell) interference distribution."""
    # Loaded here, not by every import: reading a dump needs none of them.
    from concurrent.futures import ThreadPoolExecutor

    from . import channel, geometry

    interferers = scenario.interfering_cells()
    if not interferers:
        raise ValidationError("scenario has no interfering cell")
    victim_bs = scenario.victim_cell().bs
    params, pc = scenario.channel, scenario.power
    shadow_sd = math.sqrt(channel.combined_shadow_stats(params, pc).variance)
    # Per cell: the cell, its UE region, its position, shadowing and fading streams.
    cells = [(cell, scenario.ue_region(cell.id),
              *(substream(cfg.seed, idx, tag) for tag in (_TAG_POS, _TAG_SHADOW, _TAG_FADING)))
             for idx, cell in enumerate(interferers)]

    n = cfg.n_samples
    p0 = pc.p0_dbm
    aggregate = np.empty(n)
    per_cell = {c.id: np.empty(n) for c in interferers} if cfg.record_per_cell else None

    def linear_power(state, start, m):
        # The cell's dB block x from its three streams, then 10^((x - P0)/10)
        # formed in place; P0 is the receive level a link with L = 0 and no
        # shadowing or fading reaches.
        cell, region, rng_pos, rng_s, rng_h = state
        try:
            xs, ys = geometry.sample_uniform_xy(region, rng_pos, m)
            s = shadow_sd * rng_s.standard_normal(m)
            h = _exponential(rng_h, m)
            x = channel.interference_db(pc, params, xs, ys, cell.bs, victim_bs, s, h)
        except ValidationError as exc:
            raise ValidationError(f"cell {cell.id!r}: {exc}") from exc
        if per_cell is not None:
            per_cell[cell.id][start : start + m] = x
        x -= p0
        x *= _LN10 / 10.0
        # An overflow is caught by the finiteness check of the sum; worker
        # threads do not see the caller's numpy error state, so it is set here.
        with np.errstate(over="ignore"):
            return np.exp(x, out=x)

    # With one thread the blocks run on the calling thread, the only one the
    # benchmark's tracer records; the pool then starts no worker, and map
    # draws each cell's block only when the sum below reaches it.
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        run = pool.map if cfg.threads > 1 else map
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            terms = run(lambda state: linear_power(state, start, m), cells)
            # Summed in fixed cell order, then one log.
            total = next(terms)
            for term in terms:
                total += term
            with np.errstate(divide="ignore", over="ignore"):
                block = p0 + 10.0 * np.log10(total)
            if not np.isfinite(block).all():
                raise ValidationError("aggregate interference leaves the floating-point "
                                      "range around the power basis P0")
            aggregate[start : start + m] = block

    # from_samples sorts these arrays in place; nothing here reads them again.
    per_cell_db = None if per_cell is None else {
        cid: EmpiricalDistribution.from_samples(v) for cid, v in per_cell.items()}
    return SimResult(EmpiricalDistribution.from_samples(aggregate), per_cell_db)


def simulate_shadow_fading_product(
    sigma_s_sq: float, n: int, seed: int
) -> EmpiricalDistribution:
    """Samples of S + 10*log10(H), S ~ N(0, sigma_s_sq), H ~ exp(1).

    Validates the fixed-offset Gaussian surrogate for the lognormal-times-
    exponential product.
    """
    rng_s = substream(seed, 0, _TAG_SHADOW)
    rng_h = substream(seed, 0, _TAG_FADING)
    s = math.sqrt(sigma_s_sq) * rng_s.standard_normal(n)
    h = _exponential(rng_h, n)
    # s + 10*log10(h), bit for bit, formed in place on h.
    np.log10(h, out=h)
    h *= 10.0
    h += s
    return EmpiricalDistribution.from_samples(h)


def write_samples(path, dist: EmpiricalDistribution) -> None:
    """Raw dump: magic, little-endian u64 count, float64 LE dBm values in
    ascending order."""
    data = np.ascontiguousarray(dist.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(SAMPLE_DUMP_MAGIC)
        fh.write(struct.pack("<Q", len(data)))
        fh.write(memoryview(data))


def read_samples(path) -> EmpiricalDistribution:
    """The dump written by write_samples, read into one read-only array."""
    with open(path, "rb") as fh:
        header = fh.read(16)
        if header[:8] != SAMPLE_DUMP_MAGIC:
            raise SchemaError(f"{path}: not a ulik sample dump")
        size = os.fstat(fh.fileno()).st_size
        if size < 16 or size % 8:
            raise SchemaError(f"{path}: truncated sample dump ({size} bytes)")
        (count,) = struct.unpack("<Q", header[8:])
        if count != (size - 16) // 8:
            raise SchemaError(f"{path}: declared {count} samples, found {(size - 16) // 8}")
        data = np.empty(count, dtype="<f8")
        got = fh.readinto(data)
    if got != data.nbytes:
        raise SchemaError(f"{path}: the sample dump changed while it was read "
                          f"({16 + got} of {size} bytes)")
    data.flags.writeable = False
    try:
        return EmpiricalDistribution(data)  # already sorted by write_samples
    except ValidationError as exc:
        raise SchemaError(f"{path}: {exc}") from exc

"""The channel model: path-loss and power-control parameters, and the
per-interferer dB-domain interference at a UE position.

All functions accept scalars or numpy arrays and are pure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .gaussian_approx import GaussianApprox, pathloss_difference


@dataclass(frozen=True)
class ChannelParams:
    a_db: float  # path loss at the 1 km reference distance
    alpha: float  # path loss exponent x 10 (dB per decade)
    sigma_shad_sq: float  # per-link shadowing variance, dB^2
    n_antennas: int = 1  # documentation only; effective fading is exp(1) regardless

    def __post_init__(self):
        if not math.isfinite(self.a_db):
            raise ValidationError("reference path loss must be finite")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValidationError(f"path loss exponent must be finite and > 0, got {self.alpha}")
        if not (math.isfinite(self.sigma_shad_sq) and self.sigma_shad_sq >= 0):
            raise ValidationError("shadowing variance must be finite and nonnegative")


@dataclass(frozen=True)
class PowerControl:
    p0_dbm: float  # power basis
    eta: float  # fractional compensation factor, in (0, 1]

    def __post_init__(self):
        if not math.isfinite(self.p0_dbm):
            raise ValidationError(f"power basis must be finite, got {self.p0_dbm}")
        if not 0 < self.eta <= 1:
            raise ValidationError(f"FPC factor must be in (0, 1], got {self.eta}")


def interference_db(pc: PowerControl, params: ChannelParams, xs, ys, own_bs, victim_bs, s, h):
    """Received interference power in dBm at the victim BS from a UE at (xs, ys)
    served by own_bs: P0 + L + s + 10*log10(h).

    L is gaussian_approx.pathloss_difference, the variable whose moments the
    analysis integrates; s is the combined shadowing eta*S_own - S_victim in
    dB (see combined_shadow_stats) and h the effective (linear) fading gain.
    """
    h = np.asarray(h, dtype=float)
    if np.any(h <= 0):
        raise ValidationError("effective fading gain must be positive")
    out = (
        pc.p0_dbm
        + pathloss_difference(xs, ys, own_bs, victim_bs, params, pc)
        + np.asarray(s)
        + 10.0 * np.log10(h)
    )
    return float(out) if np.ndim(out) == 0 else out


def combined_shadow_stats(params: ChannelParams, pc: PowerControl) -> GaussianApprox:
    """Statistics of the combined shadowing term eta*S_bb - S_b1."""
    return GaussianApprox(mean=0.0, variance=(1.0 + pc.eta**2) * params.sigma_shad_sq)

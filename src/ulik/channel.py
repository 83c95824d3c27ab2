"""Deterministic channel formulas: path loss, fractional power control and
per-interferer dB-domain interference assembly.

All functions accept scalars or numpy arrays and are pure.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveDistanceError, NonpositiveFadingError, ValidationError
from .gaussian_approx import GaussianApprox


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


def path_loss(params: ChannelParams, d):
    """Path loss in dB at distance d km: A + alpha * log10(d)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise NonpositiveDistanceError("path loss needs a positive distance")
    out = params.a_db + params.alpha * np.log10(d)
    return float(out) if out.ndim == 0 else out


def interference_db(pc: PowerControl, params: ChannelParams, d_bb, d_b1, s_bb, s_b1, h_b1):
    """Received interference power in dBm at the victim BS.

    d_bb is UE-to-serving-BS distance, d_b1 UE-to-victim distance, s_* the
    shadowing realizations in dB and h_b1 the effective (linear) fading gain.
    """
    h_b1 = np.asarray(h_b1, dtype=float)
    if np.any(h_b1 <= 0):
        raise NonpositiveFadingError("effective fading gain must be positive")
    l_bb = path_loss(params, d_bb)
    l_b1 = path_loss(params, d_b1)
    out = (
        pc.p0_dbm
        + (pc.eta * l_bb - l_b1)
        + (pc.eta * np.asarray(s_bb) - np.asarray(s_b1))
        + 10.0 * np.log10(h_b1)
    )
    return float(out) if np.ndim(out) == 0 else out


def combined_shadow_stats(params: ChannelParams, pc: PowerControl) -> GaussianApprox:
    """Statistics of the combined shadowing term eta*S_bb - S_b1."""
    return GaussianApprox(mean=0.0, variance=(1.0 + pc.eta**2) * params.sigma_shad_sq)

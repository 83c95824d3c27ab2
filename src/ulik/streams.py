"""Deterministic RNG substreams.

Streams are keyed by (seed, *key) through numpy's SeedSequence spawn keys,
each feeding an SFC64 generator (Doty-Humphrey's Small Fast Chaotic
generator).  Distinct keys seed statistically independent streams, so
independent consumers (cells, variate kinds, workers) can draw in any order
or in parallel without perturbing each other.  Hotspot drops
(scenario_io.gen_hotspot) keep the Philox stream they were made with, so a
seed still names the same scenario file.
"""

import numpy as np


def substream(seed: int, *key: int) -> "np.random.Generator":
    """Generator for the substream identified by (seed, *key)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.SFC64(ss))

"""Spans and counts around the public calls of each ulik module.

The tracer wraps module attributes at run time; no file of the program
changes.  Only calls made on the thread that installed the tracer are
recorded, so a multi-threaded ``simulate`` shows as one span whose worker
calls go untraced.  A span's self time is its duration minus that of its
child spans, which on one thread never overlap.
"""

import contextlib
import functools
import threading
import time


class _CountingRegion:
    """Delegates to a region and counts the points its mask is asked about."""

    def __init__(self, region):
        self.region = region
        self.draws = 0

    def bounding_box(self):
        return self.region.bounding_box()

    def mask(self, xs, ys):
        self.draws += len(xs)
        return self.region.mask(xs, ys)


def _sample(fn, span, region, rng, n):
    counted = _CountingRegion(region)
    out = fn(counted, rng, n)
    span["n"], span["draws"] = n, counted.draws
    return out


def _moments(fn, span, *args, **kwargs):
    out = fn(*args, **kwargs)
    span["n"] = out.sample_count
    return out


def _fit(fn, span, *args, **kwargs):
    out = fn(*args, **kwargs)
    span["iterations"] = out.iterations
    return out


def _simulate(fn, span, scenario, cfg):
    span["threads"] = cfg.threads
    span["job"] = [len(scenario.cells), cfg.n_samples, cfg.seed]
    return fn(scenario, cfg)


def _write(fn, span, path, dist):
    span["bytes"] = 16 + 8 * dist.count
    return fn(path, dist)


def _ks(fn, span, a, b):
    span["points"] = a.count + getattr(b, "count", 0)
    return fn(a, b)


def _plain(fn, span, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Records spans while ``installed()`` holds the wrappers in place."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._thread = threading.get_ident()

    def _wrap(self, name, fn, call):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                return call(fn, span, *args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return wrapper

    def take(self):
        """The spans recorded since the last call; parents index into them."""
        spans, self.spans = self.spans, []
        return spans

    @contextlib.contextmanager
    def installed(self):
        from ulik import (channel, cli, distribution, gaussian_approx, geometry,
                          lognormal_sum, scenario_io, simulator)

        targets = [
            (scenario_io, "gen_hotspot", "scenario_io.gen", _plain),
            (scenario_io, "gen_single_interferer", "scenario_io.gen", _plain),
            (scenario_io, "save_scenario", "scenario_io.gen", _plain),
            (scenario_io, "load_scenario", "scenario_io.load", _plain),
            (geometry, "sample_uniform_xy", "geometry.sample", _sample),
            (gaussian_approx, "region_moments", "gaussian_approx.region_moments", _moments),
            (gaussian_approx, "pathloss_difference", "gaussian_approx.pathloss", _plain),
            (lognormal_sum, "fit_sum", "lognormal_sum.fit_sum", _fit),
            (channel, "interference_db", "channel.interference_db", _plain),
            (simulator, "simulate", "simulator.simulate", _simulate),
            (simulator, "write_samples", "simulator.write_samples", _write),
            (simulator, "read_samples", "simulator.read_samples", _plain),
            (distribution, "ks_distance", "distribution.ks_distance", _ks),
            (cli, "ks_distance", "distribution.ks_distance", _ks),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        empirical = distribution.EmpiricalDistribution
        saved.append((empirical, "from_samples", empirical.__dict__["from_samples"]))
        try:
            for owner, attr, name, call in targets:
                setattr(owner, attr, self._wrap(name, getattr(owner, attr), call))
            empirical.from_samples = classmethod(self._wrap(
                "distribution.from_samples", empirical.from_samples.__func__, _plain))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def layer_metrics(spans):
    """Per-layer figures of one traced round of the workload."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(i):
        return dur(spans[i]) - sum(dur(c) for c in children[i])

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s["name"] == name]

    def total(name):
        return sum(dur(s) for _, s in named(name))

    sims = named("simulator.simulate")
    sim1 = [i for i, s in sims if s["threads"] == 1]
    sim2 = [s for _, s in sims if s["threads"] > 1]
    # The same job at one thread, for each multi-threaded simulate.
    single = {str(spans[i]["job"]): dur(spans[i]) for i in sim1}
    samples = [s for _, s in named("geometry.sample")]
    t_sim1 = sum(dur(spans[i]) for i in sim1)
    fits = [s for _, s in named("lognormal_sum.fit_sum")]
    return {
        "scenario_io.load_s": total("scenario_io.load"),
        "geometry.sample_s": sum(dur(s) for s in samples),
        "geometry.box_draws": sum(s["draws"] for s in samples),
        "geometry.accept_ratio": sum(s["n"] for s in samples) / sum(s["draws"] for s in samples),
        "gaussian_approx.pathloss_s": total("gaussian_approx.pathloss"),
        "gaussian_approx.reduce_s": sum(self_time(i) for i, _ in
                                        named("gaussian_approx.region_moments")),
        "gaussian_approx.points": sum(s["n"] for _, s in named("gaussian_approx.region_moments")),
        "lognormal_sum.fit_s": sum(dur(s) for s in fits),
        "lognormal_sum.fits": len(fits),
        "lognormal_sum.fit_iterations": sum(s.get("iterations", 0) for s in fits),
        "channel.interference_db_s": total("channel.interference_db"),
        "simulator.simulate_s": t_sim1,
        "simulator.positions_s": sum(dur(c) for i in sim1 for c in children[i]
                                     if c["name"] == "geometry.sample"),
        "simulator.rest_s": sum(self_time(i) for i in sim1),
        "simulator.speedup_2t": (sum(single[str(s["job"])] for s in sim2)
                                 / sum(dur(s) for s in sim2)),
        "simulator.write_s": total("simulator.write_samples"),
        "simulator.read_s": total("simulator.read_samples"),
        "simulator.bytes_written": sum(s["bytes"] for _, s in named("simulator.write_samples")),
        "distribution.sort_s": total("distribution.from_samples"),
        "distribution.ks_s": total("distribution.ks_distance"),
        "distribution.ks_points": sum(s["points"] for _, s in named("distribution.ks_distance")),
    }

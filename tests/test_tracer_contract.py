"""The benchmark's tracer (bench/tracing.py) wraps module attributes of the
program by name.  These tests pin the names and call paths it relies on."""

import importlib.util
from pathlib import Path

import pytest

from ulik import pipeline, simulator
from ulik.scenario_io import gen_single_interferer

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sc = gen_single_interferer(0.02)
    tracer = tracing.Tracer()
    with tracer.installed():
        pipeline.analyze(sc, 2000)
        simulator.simulate(sc, simulator.SimConfig(n_samples=2000, seed=2, threads=1))
    return tracer.take()


@pytest.mark.parametrize("name", [
    "gaussian_approx.pathloss", "gaussian_approx.region_moments", "geometry.sample",
    "lognormal_sum.fit_sum", "channel.interference_db", "simulator.simulate",
])
def test_span_recorded(spans, name):
    assert any(s["name"] == name for s in spans)


def test_analysis_kernel_not_timed_inside_simulate(spans):
    def ancestors(s):
        while s["parent"] is not None:
            s = spans[s["parent"]]
            yield s["name"]

    kernel = [s for s in spans if s["name"] == "gaussian_approx.pathloss"]
    assert kernel
    assert all("simulator.simulate" not in ancestors(s) for s in kernel)

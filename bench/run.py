"""Benchmark of the ulik analysis chain, driven through its command line.

    python3 bench/run.py --workload hotspot84 --seed 1 --seconds 25 --trace 0

The script lives in a source checkout; the program is taken from the
checkout's ``src/`` and nothing is installed.  Each workload first writes its
scenario files with ``ulik gen`` (timed as ``setup_s``), then repeats whole
rounds of the same steps until ``--seconds`` have passed:

    analyze -> simulate (1 thread) -> simulate (2 threads) -> compare -> sweep

With ``--trace 0`` every step is a fresh ``python3 -m ulik.cli`` process, as
users run it, and each end-to-end metric is the median over rounds of that
stage's time in a round (CPU seconds; see ``WALL_STAGES``).  With
``--trace 1`` the same rounds run inside this process, alternately untraced
and with spans around every public call (see ``tracing.py``), and the
per-layer metrics are medians over the traced rounds.  Either way the
outputs are checked by ``checks.py`` and the last line of stdout is one JSON
object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

An operation is one CLI invocation or one fit of the design-point sweep.
The workloads are listed in ``WORKLOADS`` and described in README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3
TRACE_IMPORT_REPS = 3
# Points drawn by the checks' own sampler, shared over the run's cells.
CHECK_POINTS = 4_000_000

HOTSPOT84 = ("hotspot", "--cells", "84", "--r", "0.02", "--area", "0.5", "--seed", "2")
SMALL_GRID = tuple((s1, s2, m) for s1, s2 in ((1.0, 0.1), (10.0, 1.0)) for m in (12, 20))
FULL_GRID = tuple(
    (s1, s2, m)
    for s1, s2 in ((0.1, 0.01), (0.3, 0.03), (1.0, 0.1), (1.0, 0.01), (3.0, 0.3),
                   (3.0, 0.03), (10.0, 1.0), (10.0, 0.1), (30.0, 3.0))
    for m in (8, 12, 16, 20, 24, 32)
)
# fit_sum raises OverflowError here (math.exp(2*log_sigma) in the line
# search).  Tried on inputs that do not depend on the seed, so it fails on
# every run, and counted as a failed operation.
OVERFLOW_POINT = (1e4, 1e3, 12)

E2E_UNITS = {"setup_s": "s", "analyze_s": "s", "simulate_s": "s", "simulate_2t_s": "s",
             "compare_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}
STAGES = ("analyze_s", "simulate_s", "simulate_2t_s", "compare_s", "sweep_s")
# Stages are timed in CPU seconds (user + system) of their processes: on a
# shared virtual machine the hypervisor now and then holds a busy vCPU for up
# to a third of its wall time, which CPU time leaves out.  The 2-thread
# simulate is timed in wall seconds, since its point is the wall time two
# threads save.
WALL_STAGES = {"simulate_2t_s"}
LAYER_UNITS = {
    "cli.import_s": "s", "scenario_io.gen_s": "s", "scenario_io.load_s": "s",
    "geometry.sample_s": "s", "geometry.box_draws": "count", "geometry.accept_ratio": "ratio",
    "gaussian_approx.pathloss_s": "s", "gaussian_approx.reduce_s": "s",
    "gaussian_approx.points": "count", "lognormal_sum.fit_s": "s",
    "lognormal_sum.fits": "count", "lognormal_sum.fit_iterations": "count",
    "channel.interference_db_s": "s", "simulator.simulate_s": "s",
    "simulator.positions_s": "s", "simulator.rest_s": "s", "simulator.speedup_2t": "ratio",
    "simulator.write_s": "s", "simulator.read_s": "s", "simulator.bytes_written": "B",
    "distribution.sort_s": "s", "distribution.ks_s": "s", "distribution.ks_points": "count",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Drop:
    """One scenario of a workload and how each round treats it."""

    name: str
    gen: tuple  # arguments of `ulik gen`
    samples: int  # analyze sample count
    sim_samples: int  # simulate sample count
    analyze_seed: int
    simulate_seed: int
    full: bool = False  # also per-cell dumps, a 2-thread simulate and compare
    points: tuple = SMALL_GRID  # sweep design points (s1, s2, GH order)


def _seed(rng):
    return rng.randrange(2**31)


def hotspot84(rng):
    return [Drop("h84", HOTSPOT84, 100_000, 50_000, _seed(rng), _seed(rng), full=True)]


def irregular1(rng):
    gen = ("single", "--shape", "paper_irregular", "--r", "0.02")
    return [Drop("irr", gen, 3_000_000, 3_000_000, _seed(rng), _seed(rng), full=True)]


def fit_sweep(rng):
    sparse = ("hotspot", "--cells", "12", "--r", "0.05", "--area", "1.0", "--seed", str(_seed(rng)))
    ultra = ("hotspot", "--cells", "160", "--r", "0.01", "--area", "0.3", "--seed", str(_seed(rng)))
    return [
        Drop("sparse", sparse, 20_000, 20_000, _seed(rng), _seed(rng), full=True,
             points=FULL_GRID),
        Drop("ref", HOTSPOT84, 20_000, 20_000, 0, 0, points=FULL_GRID + (OVERFLOW_POINT,)),
        Drop("ultra", ultra, 20_000, 20_000, _seed(rng), _seed(rng), points=FULL_GRID),
    ]


WORKLOADS = {"hotspot84": hotspot84, "irregular1": irregular1, "fit_sweep": fit_sweep}


@dataclass(frozen=True)
class Step:
    """How one CLI invocation or sweep ended, and its wall and CPU seconds."""

    code: int
    wall: float
    cpu: float


def child_env():
    """The checkout's sources first, one BLAS thread."""
    return dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
                OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class Subprocesses:
    """Runs each step as a fresh process, the way users run the CLI."""

    def __init__(self):
        self.env = child_env()
        self.peak_rss_kb = 0

    def cli(self, argv, log):
        return self._run([sys.executable, "-m", "ulik.cli", *map(str, argv)], log)

    def sweep(self, spec, log):
        return self._run([sys.executable, str(BENCH / "sweep.py"), str(spec)], log)

    def _run(self, cmd, log):
        t0 = time.perf_counter()
        with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return Step(proc.returncode, wall, usage.ru_utime + usage.ru_stime)


class InProcess:
    """Runs each step in this process through the same entry points."""

    def __init__(self):
        from ulik import cli
        import sweep

        self._cli, self._sweep = cli.main, sweep.main

    def cli(self, argv, log):
        return self._call(self._cli, [str(a) for a in argv], log)

    def sweep(self, spec, log):
        return self._call(self._sweep, [str(spec)], log)

    @staticmethod
    def _call(entry, argv, log):
        t0, c0 = time.perf_counter(), time.process_time()
        with open(f"{log}.out", "w") as out, open(f"{log}.err", "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = entry(argv)
            except Exception:  # a failed step is counted, and the round goes on
                traceback.print_exc()
                code = 1
        return Step(code, time.perf_counter() - t0, time.process_time() - c0)


class Layout:
    """Where a workload's files go under the work directory."""

    def __init__(self, workload):
        self.base = WORK / workload
        self.scenarios = self.base / "scenarios"
        self.outputs = self.base / "outputs"
        self.logs = self.base / "logs"

    def reset(self):
        shutil.rmtree(self.base, ignore_errors=True)
        for d in (self.scenarios, self.outputs, self.logs):
            d.mkdir(parents=True)

    def scenario(self, drop):
        return self.scenarios / f"{drop.name}.json"

    def out(self, drop, step):
        return self.outputs / drop.name / step


def setup(runner, drops, lay):
    """Write every scenario file SETUP_REPS times; the seconds of each pass."""
    times = []
    for rep in range(SETUP_REPS):
        total = 0.0
        for d in drops:
            step = runner.cli(["gen", *d.gen, "-o", lay.scenario(d)], lay.logs / f"gen-{d.name}")
            if step.code != 0:
                raise SystemExit(f"bench: `ulik gen {' '.join(d.gen)}` exited with {step.code}")
            total += step.cpu
        times.append(total)
    return times


def run_round(runner, drops, lay):
    """Every step of the workload once: (seconds per stage, attempted, failed)."""
    times = dict.fromkeys(STAGES, 0.0)
    counts = [0, 0]

    def step(stage, argv, log):
        done = runner.cli(argv, lay.logs / log)
        times[stage] += done.wall if stage in WALL_STAGES else done.cpu
        counts[0] += 1
        counts[1] += done.code != 0

    for d in drops:
        scen, an, sim1 = lay.scenario(d), lay.out(d, "analyze"), lay.out(d, "sim1")
        step("analyze_s", ["analyze", scen, "--samples", d.samples, "--seed", d.analyze_seed,
                           "--tau-threshold", checks.TAU_THRESHOLD, "--out", an],
             f"analyze-{d.name}")
        sim = ["simulate", scen, "--samples", d.sim_samples, "--seed", d.simulate_seed, "--raw"]
        sim += ["--per-cell"] if d.full else []
        step("simulate_s", [*sim, "--threads", 1, "--out", sim1], f"sim1-{d.name}")
        if d.full:
            step("simulate_2t_s", [*sim, "--threads", 2, "--out", lay.out(d, "sim2")],
                 f"sim2-{d.name}")
            step("compare_s", ["compare", "--fit", an / "fit.csv", "--report", an / "report.csv",
                               "--samples", sim1 / "samples.bin", "--per-cell-dir", sim1,
                               "--out", lay.out(d, "compare")], f"compare-{d.name}")

    out = lay.outputs / "sweep.csv"
    spec = lay.base / "sweep.json"
    spec.write_text(json.dumps({"out": str(out), "drops": [
        {"name": d.name, "scenario": str(lay.scenario(d)),
         "report": str(lay.out(d, "analyze") / "report.csv"),
         "samples": str(lay.out(d, "sim1") / "samples.bin"), "points": d.points}
        for d in drops]}))
    out.unlink(missing_ok=True)
    times["sweep_s"] = runner.sweep(spec, lay.logs / "sweep").cpu
    planned = sum(len(d.points) for d in drops)
    done = checks.read_csv(out) if out.exists() else []
    counts[0] += planned
    counts[1] += planned - sum(1 for r in done if not r["error"])
    return times, counts[0], counts[1]


def digest(lay):
    h = hashlib.sha256()
    for p in sorted(lay.outputs.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(lay.outputs)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def verify(drops, lay, seed):
    """Check the last round's outputs against computations apart from ulik."""
    chk = checks.Checker()
    scenarios = [checks.Scenario(json.loads(lay.scenario(d).read_text())) for d in drops]
    n_mine = min(2_000_000, max(20_000, CHECK_POINTS // sum(len(s.interferers) for s in scenarios)))
    sweep_rows = checks.read_csv(lay.outputs / "sweep.csv")
    for i, (d, sc) in enumerate(zip(drops, scenarios)):
        an, sim1 = lay.out(d, "analyze"), lay.out(d, "sim1")
        report = checks.read_csv(an / "report.csv")
        fit = checks.read_csv(an / "fit.csv")[0]
        mine = {cid: checks.cell_moments(sc, cid, n_mine, np.random.default_rng([seed, i, j]))
                for j, cid in enumerate(sc.interferers)}
        checks.check_report(chk, sc, report, mine, d.samples, d.name)
        comps = [(float(r["mu_qb"]), float(r["var_qb"])) for r in report]
        chk.check(fit["converged"] == "True", f"{d.name}: analyze fit did not converge")
        checks.check_fit_mgf(chk, comps, sc.p0, float(fit["mu_q"]), float(fit["var_q"]),
                             float(fit["s1"]), float(fit["s2"]), int(fit["m0"]), f"{d.name} fit")
        agg = checks.read_dump(sim1 / "samples.bin")
        chk.check(len(agg) == d.sim_samples, f"{d.name}: {len(agg)} simulated samples")
        if d.full:
            ks_sur = checks.surrogate_ks(sc)
            checks.check_simulation(chk, sc, sim1, agg, report, mine, d.name)
            checks.check_same_files(chk, sim1, lay.out(d, "sim2"), f"{d.name} 1 vs 2 threads")
            taus = {r["cell_id"]: float(r["tau"]) for r in report}
            checks.check_compare(chk, checks.read_csv(lay.out(d, "compare") / "comparison.csv"),
                                 report, fit, sim1, agg, taus, ks_sur, d.name)
        for row in sweep_rows:
            if row["drop"] == d.name and not row["error"]:
                checks.check_sweep_row(chk, row, comps, sc.p0, agg,
                                       f"{d.name} sweep ({row['s1']}, {row['s2']}, {row['m0']})")
    return chk


def measure(runner, drops, lay, seconds, on_round=None):
    """Whole rounds for about `seconds`: a round starts unless it would end
    more than half a round past the deadline.  Per-round stage times."""
    rounds, attempted, failed = [], 0, 0
    first, same = None, True
    t_end = time.perf_counter() + seconds
    last = 0.0
    while not rounds or time.perf_counter() + last / 2 < t_end:
        t0 = time.perf_counter()
        times, a, f = (on_round or run_round)(runner, drops, lay)
        last = time.perf_counter() - t0
        rounds.append(times)
        sys.stderr.write(f"bench: round {len(rounds)}: " + " ".join(
            f"{k}={v:.3f}" for k, v in times.items()) + "\n")
        attempted += a
        failed += f
        d = digest(lay)
        first = first or d
        same &= d == first
    return rounds, attempted, failed, same


def run_untraced(drops, lay, seconds):
    runner = Subprocesses()
    setup_times = setup(runner, drops, lay)
    rounds, attempted, failed, same = measure(runner, drops, lay, seconds)
    metrics = {k: statistics.median(r[k] for r in rounds) for k in STAGES}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = runner.peak_rss_kb / 1024.0
    sys.stderr.write(f"bench: {len(rounds)} rounds\n")
    return metrics, E2E_UNITS, attempted, failed, same


def fresh_import_seconds():
    code = "import time; t = time.perf_counter(); import ulik.cli; print(time.perf_counter() - t)"
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout)
        for _ in range(TRACE_IMPORT_REPS))


def run_traced(drops, lay, seconds, seed):
    sys.path.insert(0, str(SRC))
    import tracing

    import_s = fresh_import_seconds()
    runner = InProcess()
    tracer = tracing.Tracer()
    with tracer.installed():
        setup(runner, drops, lay)
    gen = [s["end"] - s["start"] for s in tracer.take() if s["name"] == "scenario_io.gen"]
    per_pass = len(gen) // SETUP_REPS
    gen_times = [sum(gen[i:i + per_pass]) for i in range(0, len(gen), per_pass)]
    run_round(runner, drops, lay)  # warm-up: lazy imports and first-touch costs

    walls = {"plain": [], "traced": []}
    layers, spans = [], []

    def pair(runner, drops, lay):
        t0 = time.perf_counter()
        _, a0, f0 = run_round(runner, drops, lay)
        walls["plain"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        with tracer.installed():
            times, a1, f1 = run_round(runner, drops, lay)
        walls["traced"].append(time.perf_counter() - t0)
        spans.append(tracer.take())
        layers.append(tracing.layer_metrics(spans[-1]))
        return times, a0 + a1, f0 + f1

    _, attempted, failed, same = measure(runner, drops, lay, seconds, on_round=pair)
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["cli.import_s"] = import_s
    metrics["scenario_io.gen_s"] = statistics.median(gen_times)
    metrics["trace.overhead_ratio"] = (statistics.median(walls["traced"])
                                       / statistics.median(walls["plain"]))
    trace_file = lay.base / f"trace-seed{seed}.json"
    trace_file.write_text(json.dumps({"walls": walls, "layers": layers, "rounds": spans}))
    sys.stderr.write(f"bench: {len(layers)} traced rounds, spans in {trace_file}\n")
    return metrics, LAYER_UNITS, attempted, failed, same


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "ulik" / "cli.py").is_file():
        sys.stderr.write(f"bench: no ulik sources under {SRC}; run from a source checkout\n")
        return 2

    drops = WORKLOADS[args.workload](random.Random(args.seed))
    lay = Layout(args.workload)
    lay.reset()
    if args.trace:
        metrics, units, attempted, failed, same = run_traced(drops, lay, args.seconds, args.seed)
    else:
        metrics, units, attempted, failed, same = run_untraced(drops, lay, args.seconds)
    try:
        chk = verify(drops, lay, args.seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
        chk = checks.Checker()
        chk.check(False, f"outputs could not be checked: {exc!r}")
    chk.check(same, "outputs differ between rounds of the same inputs")
    for failure in chk.failures[:20]:
        sys.stderr.write(f"bench: CHECK FAILED: {failure}\n")
    sys.stderr.write(f"bench: {chk.passed} checks passed, {len(chk.failures)} failed; "
                     f"{failed}/{attempted} operations failed\n")
    print(json.dumps({
        "correct": not chk.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

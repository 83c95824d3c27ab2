"""Command-line front end.

Subcommands: gen (scenario generators), analyze (moments -> tau -> per-cell
Gaussian -> lognormal fit), simulate (Monte Carlo), compare (KS distances
between analytic and simulated distributions).

Machine-readable "key=value" summary lines go to stdout, diagnostics to
stderr.  Exit code 0 covers runs where some tau certificates fail their
threshold (that is an analysis result, flagged in the report); nonzero means
the tool itself failed.

Each subcommand imports the modules only it calls when it runs, so that,
for example, `compare` never loads the geometry engine.
"""

import argparse
import csv
import ctypes
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import gaussian_approx, lognormal_sum
from .distribution import ks_distance
from .errors import SchemaError, UlikError, ValidationError
from .gaussian_approx import GaussianApprox


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_cdf(path, column, dist):
    """The CDF of `dist` on 1000 points between its 0.001 and 0.999 quantiles."""
    grid = np.linspace(dist.quantile(0.001), dist.quantile(0.999), 1000)
    _write_csv(path, ["value_dbm", column], zip(grid, dist.cdf(grid)))


def _emit(key, value):
    if isinstance(value, float):
        value = f"{value:.10g}"
    sys.stdout.write(f"{key}={value}\n")


def cmd_analyze(args) -> int:
    from . import pipeline, scenario_io

    scenario = scenario_io.load_scenario(args.scenario, lenient=args.lenient)
    t0 = time.monotonic()

    result = pipeline.analyze(scenario, args.samples, m0=args.m0, s1=args.s1, s2=args.s2,
                              tau_threshold=args.tau_threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [[c.cell_id, c.moments.mu_l, c.moments.var_l, c.moments.abs3_l,
             c.certificate.tau, c.certificate.passes, c.component.mean, c.component.variance,
             *c.moments.std_errors, c.moments.sample_count]
            for c in result.cells]
    fit = result.fit

    _write_csv(out / "report.csv",
               ["cell_id", "mu_l", "var_l", "abs3_l", "tau", "passes",
                "mu_qb", "var_qb", "se_mu_l", "se_var_l", "se_abs3_l", "nodes"],
               rows)
    scenario_id = scenario.metadata.get("generator", Path(str(args.scenario)).stem)
    _write_csv(out / "fit.csv",
               ["scenario_id", "s1", "s2", "m0", "mu_q", "var_q",
                "residual1", "residual2", "iterations", "converged"],
               [[scenario_id, args.s1, args.s2, args.m0, fit.mu_q, fit.var_q,
                 fit.residuals[0], fit.residuals[1], fit.iterations, fit.converged]])

    if fit.converged and fit.var_q > 0:
        _write_cdf(out / "analytic_cdf.csv", "analytic_cdf", GaussianApprox(fit.mu_q, fit.var_q))

    _emit("cells", len(rows))
    _emit("tau_max", max(row[4] for row in rows))
    _emit("tau_all_pass", str(all(row[5] for row in rows)).lower())
    _emit("mu_q", fit.mu_q)
    _emit("var_q", fit.var_q)
    _emit("converged", str(fit.converged).lower())
    _emit("elapsed_s", time.monotonic() - t0)
    return 0


def cmd_simulate(args) -> int:
    from . import scenario_io, simulator

    cfg = simulator.SimConfig(
        n_samples=args.samples, seed=args.seed,
        record_per_cell=args.per_cell, threads=args.threads,
    )
    scenario = scenario_io.load_scenario(args.scenario, lenient=args.lenient)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.monotonic()

    result = simulator.simulate(scenario, cfg)

    agg = result.aggregate_dbm
    _write_cdf(out / "empirical_cdf.csv", "empirical_cdf", agg)
    if args.raw:
        simulator.write_samples(out / "samples.bin", agg)
    if result.per_cell_db is not None:
        for cid, dist in result.per_cell_db.items():
            simulator.write_samples(out / f"cell_{cid}.bin", dist)

    _emit("n", agg.count)
    _emit("aggregate_mean_dbm", float(agg.samples.mean()))
    _emit("aggregate_median_dbm", agg.quantile(0.5))
    _emit("elapsed_s", time.monotonic() - t0)
    return 0


def _read_report(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _field(path, line, row, column):
    """The number in `column` on line `line` of a CSV file; a missing, malformed
    or non-finite value is a SchemaError naming the file, line and column."""
    text = row.get(column)
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not math.isfinite(value):
        raise SchemaError(f"{path}: line {line}, column {column!r}: "
                          f"expected a finite number, got {text!r}")
    return value


def cmd_compare(args) -> int:
    from . import simulator

    fit_rows = _read_report(args.fit)
    if len(fit_rows) != 1:
        raise ValidationError(f"{args.fit}: expected exactly one fit row")
    mu_q, var_q = (_field(args.fit, 2, fit_rows[0], c) for c in ("mu_q", "var_q"))
    if fit_rows[0].get("converged") != "True":
        raise ValidationError(f"{args.fit}: the fit did not converge; it matches no MGF")
    if (args.report is None) != (args.per_cell_dir is None):
        raise ValidationError("--report and --per-cell-dir go together: "
                              "give both for per-cell KS, or neither")
    agg = simulator.read_samples(args.samples)

    rows = []
    if args.report is not None:
        per_cell_dir = Path(args.per_cell_dir)
        for line, row in enumerate(_read_report(args.report), start=2):
            cell_id = row.get("cell_id")
            if cell_id is None:
                raise SchemaError(f"{args.report}: line {line}: no 'cell_id' value")
            dump = per_cell_dir / f"cell_{cell_id}.bin"
            if not dump.exists():
                raise ValidationError(f"{dump}: no per-cell dump of cell {cell_id!r}; "
                                      "run simulate with --per-cell")
            mu_qb, var_qb = (_field(args.report, line, row, c) for c in ("mu_qb", "var_qb"))
            ks = ks_distance(simulator.read_samples(dump), GaussianApprox(mu_qb, var_qb))
            rows.append([cell_id, ks])

    ks_agg = ks_distance(agg, GaussianApprox(mu_q, var_q))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "comparison.csv", ["cell_id", "ks"], rows + [["aggregate", ks_agg]])
    if rows:
        _emit("KS_percell_max", max(ks for _, ks in rows))
    _emit("KS_aggregate", ks_agg)
    return 0


def cmd_gen(args) -> int:
    from . import scenario_io

    if args.kind == "single":
        scenario = scenario_io.gen_single_interferer(args.r, shape=args.shape)
    elif args.kind == "hotspot":
        spec = scenario_io.HotspotDropSpec(
            n_cells=args.cells, radius_r=args.r,
            area_km=(args.area, args.area),
            min_bs_bs_distance=args.min_spacing, seed=args.seed,
        )
        scenario = scenario_io.gen_hotspot(spec)
    else:
        scenario = scenario_io.gen_hex_grid(args.rings, args.pitch, args.r)
    scenario_io.save_scenario(scenario, args.out)
    _emit("cells", len(scenario.cells))
    _emit("victim", scenario.victim_cell_id)
    _emit("path", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulik",
        description="Uplink inter-cell interference lognormal approximation kit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a scenario file")
    gsub = p.add_subparsers(dest="kind", required=True)
    g1 = gsub.add_parser("single", help="single-interferer scenario")
    g1.add_argument("--r", type=float, required=True, help="reference radius, km")
    g1.add_argument("--shape", choices=["disk", "paper_irregular"], default="disk")
    g1.add_argument("-o", "--out", required=True)
    g2 = gsub.add_parser("hotspot", help="random multi-cell hotspot drop")
    g2.add_argument("--cells", type=int, default=84)
    g2.add_argument("--r", type=float, default=0.02)
    g2.add_argument("--area", type=float, default=0.5, help="square side, km")
    g2.add_argument("--min-spacing", type=float, default=None)
    g2.add_argument("--seed", type=int, default=0)
    g2.add_argument("-o", "--out", required=True)
    g3 = gsub.add_parser("hex", help="hexagonal lattice scenario")
    g3.add_argument("--rings", type=int, required=True)
    g3.add_argument("--pitch", type=float, required=True)
    g3.add_argument("--r", type=float, required=True)
    g3.add_argument("-o", "--out", required=True)
    for g in (g1, g2, g3):
        g.set_defaults(func=cmd_gen)

    p = sub.add_parser("analyze", help="run the approximation chain")
    p.add_argument("scenario")
    p.add_argument("--samples", type=int, default=1_000_000,
                   help="accuracy target: each moment's quadrature error estimate stays "
                        "below the standard error of this many uniform points")
    p.add_argument("--m0", type=int, default=lognormal_sum.DEFAULT_ORDER,
                   help="Gauss-Hermite order")
    p.add_argument("--s1", type=float, default=lognormal_sum.DEFAULT_S1)
    p.add_argument("--s2", type=float, default=lognormal_sum.DEFAULT_S2)
    p.add_argument("--tau-threshold", type=float,
                   default=gaussian_approx.DEFAULT_TAU_THRESHOLD)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for scripts; has no effect, the analysis draws nothing")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo simulation")
    p.add_argument("scenario")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-cell", action="store_true")
    p.add_argument("--raw", action="store_true", help="dump raw aggregate samples")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="KS distances analytic vs simulated")
    p.add_argument("--fit", required=True, help="fit.csv from analyze")
    p.add_argument("--report", default=None, help="report.csv from analyze")
    p.add_argument("--samples", required=True, help="raw dump from simulate")
    p.add_argument("--per-cell-dir", default=None,
                   help="directory with per-cell raw dumps")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


# glibc mallopt (parameter, value) pairs: M_ARENA_MAX, M_TRIM_THRESHOLD and
# M_MMAP_THRESHOLD, at 32 MiB the largest every 64-bit glibc accepts.
_MEMORY_POLICY = ((-8, 1), (-1, 1 << 30), (-3, 32 << 20))


def _apply_memory_policy():
    """Keep freed numpy temporaries in one heap for reuse (glibc only).

    By default glibc maps each block-sized array afresh and trims the heap
    after every free, so each Monte Carlo block faults its memory in again,
    and a worker thread keeps its own arena.  Only the CLI, which owns its
    process, sets this; importing ulik does not.  Without mallopt it does
    nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _MEMORY_POLICY:
        mallopt(param, value)


def main(argv=None) -> int:
    _apply_memory_policy()
    args = build_parser().parse_args(argv)
    try:
        # Extreme inputs overflow on the way to an error: every result is
        # checked for finiteness, so numpy's warnings would only add lines.
        with np.errstate(all="ignore"):
            return args.func(args)
    except (UlikError, OSError, MemoryError) as exc:
        sys.stderr.write(f"ulik: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Subcommands: gen (scenario generators), analyze (moments -> tau -> per-cell
Gaussian -> lognormal fit), simulate (Monte Carlo), compare (KS distances
between analytic and simulated distributions).

Machine-readable "key=value" summary lines go to stdout, diagnostics to
stderr.  Exit code 0 covers runs where some tau certificates fail their
threshold (that is an analysis result, flagged in the report); nonzero means
the tool itself failed.

Each subcommand imports the modules only it calls when it runs, so that,
for example, `compare` never loads the geometry engine and only `analyze`
loads the lognormal fit.  The `ulik` command and `python -m ulik.cli` enter
through `run`.
"""

import argparse
import csv
import ctypes
import gc
import math
import os
import sys
import time
from pathlib import Path

# No stage does BLAS work worth a second thread, and OpenBLAS's idle one
# spins; it reads this once, when numpy loads.  A caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .distribution import ks_distance
from .errors import SchemaError, UlikError, ValidationError
from .gaussian_approx import GaussianApprox


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
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
    from . import lognormal_sum, pipeline, scenario_io

    threshold = args.tau_threshold
    if not 0 < threshold < math.inf:
        raise ValidationError(f"tau threshold must be positive and finite, got {threshold}")
    scenario = scenario_io.load_scenario(args.scenario)
    # fit.csv names the scenario by its generator label, else by its file's name.
    scenario_id = scenario.metadata.get("generator", Path(str(args.scenario)).stem)
    try:
        scenario_id.encode()
    except UnicodeEncodeError:  # a file name that is not UTF-8; the label was checked at load
        raise ValidationError(f"file name {scenario_id!r} is not UTF-8 text, so it cannot "
                              "name the scenario in fit.csv; give it a generator label") from None
    t0 = time.monotonic()

    result = pipeline.analyze(scenario, args.samples)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [[c.cell_id, c.moments.mu_l, c.moments.var_l, c.moments.abs3_l,
             c.tau, c.tau <= threshold, c.component.mean, c.component.variance,
             *c.moments.std_errors, c.moments.sample_count]
            for c in result.cells]
    fit = result.fit

    _write_csv(out / "report.csv",
               ["cell_id", "mu_l", "var_l", "abs3_l", "tau", "passes",
                "mu_qb", "var_qb", "se_mu_l", "se_var_l", "se_abs3_l", "nodes"],
               rows)
    _write_csv(out / "fit.csv",
               ["scenario_id", "s1", "s2", "m0", "mu_q", "var_q",
                "residual1", "residual2", "iterations", "converged"],
               [[scenario_id, lognormal_sum.DEFAULT_S1, lognormal_sum.DEFAULT_S2,
                 lognormal_sum.DEFAULT_ORDER, fit.mu_q, fit.var_q,
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
    scenario = scenario_io.load_scenario(args.scenario)
    for cell in scenario.interfering_cells() if args.per_cell else ():
        try:
            os.fsencode(f"cell_{cell.id}.bin")
        except UnicodeEncodeError:  # found now, not after the whole run
            raise ValidationError(f"cell id {cell.id!r} cannot name a file in the file-system "
                                  f"encoding ({sys.getfilesystemencoding()})") from None
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
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.DictReader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise SchemaError(f"{path}: not a readable CSV file: {exc}") from exc


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


def _gaussian(path, line, row, mean, variance):
    """The GaussianApprox of two columns of a CSV line, which ks_distance
    scores against; a bad value or a variance of 0 is a SchemaError."""
    mu, var = (_field(path, line, row, c) for c in (mean, variance))
    try:
        if var == 0:
            raise ValidationError(f"KS needs a positive variance, got {var}")
        return GaussianApprox(mu, var)
    except ValidationError as exc:
        raise SchemaError(f"{path}: line {line}, column {variance!r}: {exc}") from exc


def cmd_compare(args) -> int:
    from . import simulator

    fit_rows = _read_report(args.fit)
    if len(fit_rows) != 1:
        raise ValidationError(f"{args.fit}: expected exactly one fit row")
    q = _gaussian(args.fit, 2, fit_rows[0], "mu_q", "var_q")
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
            q_b = _gaussian(args.report, line, row, "mu_qb", "var_qb")
            rows.append([cell_id, ks_distance(simulator.read_samples(dump), q_b)])

    ks_agg = ks_distance(agg, q)
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


DEFAULT_TAU_THRESHOLD = 0.01


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
    p.add_argument("--tau-threshold", type=float, default=DEFAULT_TAU_THRESHOLD)
    p.add_argument("--seed", type=int, default=0,
                   help="accepted for scripts; has no effect, the analysis draws nothing")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="Monte Carlo simulation")
    p.add_argument("scenario")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-cell", action="store_true")
    p.add_argument("--raw", action="store_true", help="dump raw aggregate samples")
    p.add_argument("--threads", type=int, default=1)
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


def run():
    """The console entry: main(), then the end of the process.

    Ctrl-C is one error line and exit 130 here; main() lets it through.
    Output is flushed here, so a reader that went away reads as an error
    like any other.  Freezing every object first spares the exit's garbage
    collection from walking the whole heap, most of the teardown's cost.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        sys.stderr.write("ulik: error: interrupted\n")
        code = 130
    try:
        sys.stdout.flush()
    except OSError as exc:
        sys.stderr.write(f"ulik: error: {exc}\n")
        code = 2
        # What is left unwritten goes nowhere, not to a second error at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.stderr.flush()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()

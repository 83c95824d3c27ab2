"""Design-point study over finished analyses: fit the aggregate lognormal at a
grid of MGF design points and Gauss-Hermite orders, and measure each fit's KS
distance against the simulated aggregate of the same drop.

    PYTHONPATH=src python3 bench/sweep.py SPEC.json

SPEC.json holds ``{"out": path, "drops": [{"name", "scenario", "report",
"samples", "points": [[s1, s2, order], ...]}]}``; ``report`` is the
``report.csv`` of ``ulik analyze`` and ``samples`` the ``samples.bin`` of
``ulik simulate --raw``.  One CSV row is written per point.  A point whose
fit raises is recorded with the exception's type, and the study goes on.

The library is called through its module attributes (``lognormal_sum.fit_sum``
and so on), so the benchmark's traced run sees these calls too.
"""

import csv
import json
import sys
from pathlib import Path

from ulik import distribution, lognormal_sum, simulator
from ulik.gaussian_approx import GaussianApprox

HEADER = ["drop", "s1", "s2", "m0", "mu_q", "var_q", "iterations", "converged",
          "ks", "error"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    rows = []
    for drop in spec["drops"]:
        doc = json.loads(Path(drop["scenario"]).read_text(encoding="utf-8"))
        p0 = float(doc["power"]["p0_dbm"])
        with open(drop["report"], newline="") as fh:
            comps = [GaussianApprox(float(r["mu_qb"]), float(r["var_qb"]))
                     for r in csv.DictReader(fh)]
        agg = simulator.read_samples(drop["samples"])
        for s1, s2, m0 in drop["points"]:
            try:
                fit = lognormal_sum.fit_sum(comps, s1=s1, s2=s2,
                                            rule=lognormal_sum.gh_rule(m0), ref_dbm=p0)
            except Exception as exc:  # recorded per point; the grid goes on
                rows.append([drop["name"], s1, s2, m0, "", "", "", "", "",
                             type(exc).__name__])
                continue
            ks, error = "", ""
            if not fit.converged:
                error = "not_converged"
            elif fit.var_q <= 0:
                error = "zero_variance"
            else:
                ks = distribution.ks_distance(
                    agg, distribution.GaussianDb(fit.mu_q, fit.var_q))
            rows.append([drop["name"], s1, s2, m0, fit.mu_q, fit.var_q,
                         fit.iterations, fit.converged, ks, error])
    with open(spec["out"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(HEADER)
        writer.writerows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks for the ulik benchmark.

Every check recomputes a result apart from the program, or tests a property
the method must have.  Nothing here imports ``ulik`` or compares against a
stored copy of earlier output: regions are evaluated from the scenario JSON by
this file's own code, positions are drawn by its own polar sampler, and the
Gauss-Hermite rule, sample-dump reader and KS reference are its own (numpy and
scipy only).

Statistical checks use ``Z_LIMIT`` combined standard errors, or a DKW
allowance at confidence ``1 - DKW_DELTA``.  A benchmark run makes about 10^3
such comparisons, so these limits keep a false alarm below one in 10^3 runs.
"""

import csv
import filecmp
import functools
import math
import struct
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import logsumexp, ndtr

BERRY_ESSEEN_C0 = 0.56
SURROGATE_MEAN_DB = -2.5
SURROGATE_STD_DB = 5.57
TAU_THRESHOLD = 0.01
Z_LIMIT = 5.0
DKW_DELTA = 1e-6
MGF_TOL = 1e-8
KS_TOL = 1e-9
DB = 10.0 / math.log(10.0)
DUMP_MAGIC = b"ULIKSMP1"


class Checker:
    """Collects named pass/fail results; ``failures`` lists what went wrong."""

    def __init__(self):
        self.passed = 0
        self.failures = []

    def check(self, ok, what):
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)
        return ok

    def within(self, got, want, se, what):
        z = abs(got - want) / se if se > 0 else math.inf
        return self.check(z <= Z_LIMIT, f"{what}: {got:.6g} vs {want:.6g} ({z:.1f} std errors)")


# ---------------------------------------------------------------------------
# Inputs and outputs, read without the program


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_dump(path):
    """A ``ulik simulate`` sample dump: magic, u64 LE count, f64 LE values."""
    raw = Path(path).read_bytes()
    if raw[:8] != DUMP_MAGIC:
        raise ValueError(f"{path}: bad magic")
    (count,) = struct.unpack("<Q", raw[8:16])
    data = np.frombuffer(raw, dtype="<f8", offset=16)
    if len(data) != count:
        raise ValueError(f"{path}: {len(data)} values, header says {count}")
    return data


class Scenario:
    """The parameters of a scenario JSON document that the checks need."""

    def __init__(self, doc):
        self.p0 = float(doc["power"]["p0_dbm"])
        self.eta = float(doc["power"]["eta"])
        self.a_db = float(doc["channel"]["A_db"])
        self.alpha = float(doc["channel"]["alpha"])
        self.sigma_sq = float(doc["channel"]["sigma_shad_sq"])
        self.min_dist = float(doc["min_bs_ue_distance_km"])
        self.cells = {c["id"]: c for c in doc["cells"]}
        self.victim_bs = self.cells[doc["victim_cell_id"]]["bs_km"]
        self.interferers = [c["id"] for c in doc["cells"] if c["id"] != doc["victim_cell_id"]]
        self.shadow_var = (1.0 + self.eta**2) * self.sigma_sq
        self.g_var = self.shadow_var + SURROGATE_STD_DB**2


# ---------------------------------------------------------------------------
# Regions and moments


def region_mask(node, x, y):
    kind = node["type"]
    if kind == "disk":
        (cx, cy), r = node["center_km"], node["radius_km"]
        return np.square(x - cx) + np.square(y - cy) <= r * r
    if kind == "halfplane":
        (px, py), (nx, ny) = node["point_km"], node["normal"]
        return (x - px) * nx + (y - py) * ny >= 0
    if kind == "ellipse":
        (cx, cy) = node["center_km"]
        c, s = math.cos(node["rotation_rad"]), math.sin(node["rotation_rad"])
        u = ((x - cx) * c + (y - cy) * s) / node["semi_major_km"]
        v = ((y - cy) * c - (x - cx) * s) / node["semi_minor_km"]
        return u * u + v * v <= 1.0
    if kind == "polygon":
        # Convex counter-clockwise polygon: inside every edge's left side.
        verts = node["vertices_km"]
        out = np.ones(x.shape, dtype=bool)
        for (ax, ay), (bx, by) in zip(verts, verts[1:] + verts[:1]):
            out &= (bx - ax) * (y - ay) - (by - ay) * (x - ax) >= 0
        return out
    if kind == "intersection":
        out = np.ones(x.shape, dtype=bool)
        for child in node["children"]:
            out &= region_mask(child, x, y)
        return out
    if kind == "union":
        out = np.zeros(x.shape, dtype=bool)
        for child in node["children"]:
            out |= region_mask(child, x, y)
        return out
    if kind == "difference":
        return region_mask(node["left"], x, y) & ~region_mask(node["right"], x, y)
    raise ValueError(f"unknown region type {kind!r}")


def enclosing_disk(node):
    """A disk of the region tree that contains the whole region, or None."""
    kind = node["type"]
    if kind == "disk":
        return node["center_km"], node["radius_km"]
    if kind == "difference":
        return enclosing_disk(node["left"])
    if kind == "intersection":
        disks = [d for d in map(enclosing_disk, node["children"]) if d is not None]
        return min(disks, key=lambda d: d[1]) if disks else None
    return None


def cell_moments(sc: Scenario, cell_id, n, rng):
    """Moments of the pathloss-difference variable L over a uniform UE position.

    Positions come from polar draws in the enclosing disk, kept when inside
    the cell region and outside the UE exclusion disk.  L is formed from
    squared distances: (eta-1) A + (alpha/2) (eta log10 d_own^2 - log10 d_vic^2).
    """
    cell = sc.cells[cell_id]
    disk = enclosing_disk(cell["region"])
    if disk is None:
        raise ValueError(f"cell {cell_id}: region has no enclosing disk")
    (cx, cy), radius = disk
    (bx, by), (vx, vy) = cell["bs_km"], sc.victim_bs
    xs, ys, got = [], [], 0
    while got < n:
        m = 2 * (n - got) + 1024
        rad = radius * np.sqrt(rng.random(m))
        ang = 2.0 * math.pi * rng.random(m)
        x, y = cx + rad * np.cos(ang), cy + rad * np.sin(ang)
        keep = region_mask(cell["region"], x, y)
        keep &= np.square(x - bx) + np.square(y - by) > sc.min_dist**2
        xs.append(x[keep])
        ys.append(y[keep])
        got += int(keep.sum())
    x, y = np.concatenate(xs)[:n], np.concatenate(ys)[:n]
    d_own_sq = np.square(x - bx) + np.square(y - by)
    d_vic_sq = np.square(x - vx) + np.square(y - vy)
    lv = (sc.eta - 1.0) * sc.a_db + 0.5 * sc.alpha * (
        sc.eta * np.log10(d_own_sq) - np.log10(d_vic_sq))
    mu = float(np.mean(lv))
    c = lv - mu
    c2 = c * c
    a3 = np.abs(c) * c2
    rt = math.sqrt(n)
    return {"mu": mu, "var": float(c2.mean()), "abs3": float(a3.mean()),
            "se_mu": float(c.std() / rt), "se_var": float(c2.std() / rt),
            "se_abs3": float(a3.std() / rt), "n": n}


# ---------------------------------------------------------------------------
# The analysis chain


@functools.lru_cache(maxsize=None)
def gh_rule(order):
    """Gauss-Hermite nodes and weights for E f(Z), Z ~ N(0, 1/2)."""
    x, w = np.polynomial.hermite.hermgauss(order)
    return x, w / math.sqrt(math.pi)


def log_mgf(means, variances, s, order):
    """log E exp(-s 10^(X/10)) for each X ~ N(mean, variance), by an
    order-point Gauss-Hermite rule."""
    x, w = gh_rule(order)
    means, variances = np.atleast_1d(means), np.atleast_1d(variances)
    z = np.power(10.0, (np.sqrt(2.0 * variances)[:, None] * x + means[:, None]) / 10.0)
    t = np.expm1(-s * z) @ w
    out = np.empty_like(t)
    # log1p keeps full precision when the MGF is near 1; logsumexp when it is small.
    near_one = t > -0.5
    out[near_one] = np.log1p(t[near_one])
    out[~near_one] = logsumexp(np.log(w) - s * z[~near_one], axis=1)
    return out


def check_fit_mgf(chk, comps, ref, mu_q, var_q, s1, s2, order, what):
    """The fitted lognormal reproduces the product of component MGFs."""
    means, variances = np.array(comps).T
    for s in (s1, s2):
        target = float(log_mgf(means - ref, variances, s, order).sum())
        got = float(log_mgf(mu_q - ref, var_q, s, order)[0])
        rel = abs(math.expm1(got - target))
        chk.check(rel <= MGF_TOL, f"{what}: MGF mismatch {rel:.2e} at s={s:g}")


def check_report(chk, sc: Scenario, report, mine, n_analyze, what):
    """tau, pass flag and per-cell Gaussian from the reported moments, the
    Lyapunov inequality, and the moments against this file's own estimate."""
    chk.check([r["cell_id"] for r in report] == sc.interferers,
              f"{what}: report rows differ from the scenario's interferers")
    for row in report:
        cid = row["cell_id"]
        mu, var, abs3 = float(row["mu_l"]), float(row["var_l"]), float(row["abs3_l"])
        t = BERRY_ESSEEN_C0 * abs3 / (var + sc.g_var) ** 1.5
        chk.check(math.isclose(float(row["tau"]), t, rel_tol=1e-9),
                  f"{what} {cid}: tau {row['tau']} != {t}")
        chk.check(row["passes"] == str(t <= TAU_THRESHOLD),
                  f"{what} {cid}: pass flag {row['passes']} for tau {t}")
        chk.check(math.isclose(float(row["mu_qb"]), sc.p0 + mu + SURROGATE_MEAN_DB,
                                rel_tol=0, abs_tol=1e-9), f"{what} {cid}: mu_qb")
        chk.check(math.isclose(float(row["var_qb"]), var + sc.g_var, rel_tol=1e-12),
                  f"{what} {cid}: var_qb")
        chk.check(abs3 >= var**1.5 * (1 - 1e-12), f"{what} {cid}: Lyapunov bound")
        m = mine[cid]
        # The report carries no standard errors; the program's are this
        # estimate's, scaled to its sample count.
        scale = math.sqrt(1.0 + m["n"] / n_analyze)
        for key in ("mu", "var", "abs3"):
            chk.within(float(row[f"{key}_l"]), m[key], m[f"se_{key}"] * scale,
                       f"{what} {cid}: {key}_l against an independent estimate")


def surrogate_ks(sc: Scenario):
    """sup |F_W - Phi_G| for W = S + 10 log10 H, S ~ N(0, shadow_var),
    H ~ exp(1), against its Gaussian surrogate G, by quadrature over S."""
    sd = math.sqrt(sc.shadow_var)
    g_sd = math.sqrt(sc.g_var)
    u = np.linspace(-12.0, 12.0, 2401)
    w = np.exp(-0.5 * u * u)
    w /= w.sum()
    x = np.linspace(SURROGATE_MEAN_DB - 10 * g_sd, SURROGATE_MEAN_DB + 10 * g_sd, 4001)
    f_w = -np.expm1(-np.power(10.0, (x[:, None] - sd * u[None, :]) / 10.0)) @ w
    return float(np.max(np.abs(f_w - ndtr((x - SURROGATE_MEAN_DB) / g_sd))))


def check_simulation(chk, sc: Scenario, sim_dir, agg, report, mine, what):
    """Per-cell simulated mean and variance against the model's exact values,
    and the aggregate's dominance over every cell."""
    euler_db = -DB * np.euler_gamma
    fading_var = DB**2 * math.pi**2 / 6.0
    for row in report:
        cid = row["cell_id"]
        x = read_dump(Path(sim_dir) / f"cell_{cid}.bin")
        n = len(x)
        m = mine[cid]
        mean, var = float(x.mean()), float(x.var())
        m4 = float(np.mean((x - mean) ** 4))
        chk.within(mean, sc.p0 + m["mu"] + euler_db,
                   math.sqrt(var / n + m["se_mu"] ** 2), f"{what} {cid}: simulated mean")
        chk.within(var, m["var"] + sc.shadow_var + fading_var,
                   math.sqrt((m4 - var * var) / n + m["se_var"] ** 2),
                   f"{what} {cid}: simulated variance")
        chk.check(len(agg) == n and bool(np.all(agg >= x - 1e-9 * np.abs(x))),
                  f"{what} {cid}: sorted aggregate does not dominate the sorted cell")


def check_compare(chk, cmp_rows, report, fit, sim_dir, agg, tau_by_cell, ks_sur, what):
    """Every reported KS equals scipy's, and each per-cell KS stays within
    tau + surrogate KS + a DKW allowance for the sample size."""
    by_id = {r["cell_id"]: r for r in report}
    chk.check(len(cmp_rows) == len(report) + 1, f"{what}: comparison.csv has "
              f"{len(cmp_rows)} rows for {len(report)} cells")
    for row in cmp_rows:
        cid = row["cell_id"]
        if cid == "aggregate":
            x = agg
            mean, var = float(fit["mu_q"]), float(fit["var_q"])
        else:
            x = read_dump(Path(sim_dir) / f"cell_{cid}.bin")
            mean, var = float(by_id[cid]["mu_qb"]), float(by_id[cid]["var_qb"])
        ks = float(row["ks"])
        ref = stats.kstest(x, "norm", args=(mean, math.sqrt(var)), method="asymp").statistic
        chk.check(abs(ks - ref) <= KS_TOL, f"{what} {cid}: KS {ks} != scipy {ref}")
        if cid != "aggregate":
            allowance = math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * len(x)))
            bound = tau_by_cell[cid] + ks_sur + allowance
            chk.check(ks <= bound, f"{what} {cid}: KS {ks:.4g} above bound {bound:.4g}")


def check_same_files(chk, dir_a, dir_b, what):
    names = sorted(p.name for p in Path(dir_a).iterdir())
    chk.check(names == sorted(p.name for p in Path(dir_b).iterdir()),
              f"{what}: different file sets")
    match, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    chk.check(not mismatch and not errors, f"{what}: differing files {mismatch + errors}")


def check_sweep_row(chk, row, comps, ref, agg, what):
    """A converged sweep point: its MGFs, and its KS against scipy's."""
    mu_q, var_q = float(row["mu_q"]), float(row["var_q"])
    s1, s2, order = float(row["s1"]), float(row["s2"]), int(row["m0"])
    check_fit_mgf(chk, comps, ref, mu_q, var_q, s1, s2, order, what)
    want = stats.kstest(agg, "norm", args=(mu_q, math.sqrt(var_q)), method="asymp").statistic
    chk.check(abs(float(row["ks"]) - want) <= KS_TOL, f"{what}: KS {row['ks']} != scipy {want}")

import csv
import json
import math
import struct

import pytest

from ulik.cli import main
from ulik.distribution import EmpiricalDistribution
from ulik.geometry import Difference, Disk, Point
from ulik.scenario_io import (
    DEFAULT_CHANNEL,
    DEFAULT_POWER,
    Cell,
    HotspotDropSpec,
    NetworkScenario,
    gen_hotspot,
    gen_single_interferer,
    load_scenario,
    save_scenario,
)
from ulik.simulator import SAMPLE_DUMP_MAGIC, write_samples


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def b2_scenario(tmp_path):
    path = tmp_path / "b2.json"
    save_scenario(gen_single_interferer(0.02), path)
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestGen:
    def test_single(self, tmp_path):
        out = tmp_path / "sc.json"
        assert run("gen", "single", "--r", 0.02, "-o", out) == 0
        doc = json.loads(out.read_text())
        assert len(doc["cells"]) == 2

    def test_hotspot(self, tmp_path):
        out = tmp_path / "hs.json"
        assert run("gen", "hotspot", "--cells", 10, "--r", 0.02, "--seed", 3, "-o", out) == 0
        assert len(json.loads(out.read_text())["cells"]) == 10

    def test_hex(self, tmp_path):
        out = tmp_path / "hex.json"
        assert run("gen", "hex", "--rings", 1, "--pitch", 0.05, "--r", 0.02, "-o", out) == 0
        assert len(json.loads(out.read_text())["cells"]) == 7


# Each malformed variant of the two-cell scenario, keyed by the JSON path of its bad field.
_MALFORMED = {
    "$": lambda d: [],
    "$.cells[1].region.children": lambda d: d["cells"][1]["region"].update(children=5),
    "$.cells[1].region.children[0].radius_km":
        lambda d: d["cells"][1]["region"]["children"][0].update(radius_km=[1]),
    "$.channel.A_db": lambda d: d["channel"].update(A_db={}),
    "$.channel.n_antennas": lambda d: d["channel"].update(n_antennas="four"),
    "$.cells[1]": lambda d: d["cells"].__setitem__(1, "x"),
    "$.channel": lambda d: d.update(channel=3),
    "$.metadata": lambda d: d.update(metadata=5),
    "$.min_bs_ue_distance_km": lambda d: d.update(min_bs_ue_distance_km="nan"),
    "$.channel.sigma_shad_sq": lambda d: d["channel"].update(sigma_shad_sq="inf"),
    "$.power.p0_dbm": lambda d: d["power"].update(p0_dbm=math.nan),
}


class TestAnalyze:
    def test_b2_identity_fit(self, tmp_path, b2_scenario, capsys):
        out = tmp_path / "analysis"
        assert run("analyze", b2_scenario, "--samples", 50_000, "--seed", 1,
                   "--out", out) == 0
        rows = read_rows(out / "report.csv")
        assert len(rows) == 1  # B - 1
        fit = read_rows(out / "fit.csv")[0]
        # B=2: the fitted lognormal is the single cell's Gaussian
        assert float(fit["mu_q"]) == pytest.approx(float(rows[0]["mu_qb"]), abs=1e-6)
        assert float(fit["var_q"]) == pytest.approx(float(rows[0]["var_qb"]), rel=1e-6)
        assert fit["converged"] == "True"
        # The quadrature's error estimates and node count ride along as the last columns.
        assert list(rows[0])[-4:] == ["se_mu_l", "se_var_l", "se_abs3_l", "nodes"]
        assert all(float(rows[0][k]) > 0 for k in ("se_mu_l", "se_var_l", "se_abs3_l"))
        assert int(rows[0]["nodes"]) > 0
        captured = capsys.readouterr().out
        assert "mu_q=" in captured and "tau_max=" in captured

    def test_missing_file(self, tmp_path, capsys):
        rc = run("analyze", tmp_path / "nope.json", "--out", tmp_path / "x")
        assert rc != 0

    @pytest.mark.parametrize("kind", ["directory", "non_utf8"])
    def test_unreadable_scenario(self, tmp_path, capsys, kind):
        path = tmp_path
        if kind == "non_utf8":
            path = tmp_path / "latin1.json"
            path.write_bytes('{"victim_cell_id": "\u00e9"}'.encode("latin-1"))
        assert run("analyze", path, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("ulik: error: ")

    @pytest.mark.parametrize("path", list(_MALFORMED))
    def test_malformed_scenario_names_json_path(self, tmp_path, b2_scenario, capsys, path):
        doc = json.loads(b2_scenario.read_text())
        replaced = _MALFORMED[path](doc)
        doc = doc if replaced is None else replaced
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run("analyze", bad, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith(f"ulik: error: {path}: expected ")

    def test_design_point_without_root(self, tmp_path, capsys):
        # On this drop the 12-node Gauss-Hermite MGF has no fit at (1e4, 1e3):
        # a result to report, not a tool failure.
        path = tmp_path / "hotspot.json"
        save_scenario(gen_hotspot(HotspotDropSpec(seed=2)), path)
        assert run("analyze", path, "--samples", 20_000, "--seed", 0, "--s1", 1e4,
                   "--s2", 1e3, "--out", tmp_path / "ana") == 0
        assert "converged=false" in capsys.readouterr().out.splitlines()
        # Newton stalls here; the stall stop ends it long before 60 iterations.
        assert int(read_rows(tmp_path / "ana" / "fit.csv")[0]["iterations"]) <= 10
        # The solver's last iterate matches no MGF, so it gets no CDF and
        # compare refuses to score it.
        assert not (tmp_path / "ana" / "analytic_cdf.csv").exists()
        dump = tmp_path / "samples.bin"
        write_samples(dump, EmpiricalDistribution.from_samples([-81.0, -80.0, -79.0]))
        assert run("compare", "--fit", tmp_path / "ana" / "fit.csv", "--samples", dump,
                   "--out", tmp_path / "cmp") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ulik: error: {tmp_path / 'ana' / 'fit.csv'}: ")
        assert "converge" in err
        assert not (tmp_path / "cmp").exists()

    def test_seed_has_no_effect(self, tmp_path, b2_scenario):
        for seed in (1, 2):
            assert run("analyze", b2_scenario, "--samples", 20_000, "--seed", seed,
                       "--out", tmp_path / str(seed)) == 0
        for name in ("report.csv", "fit.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    @pytest.mark.parametrize("samples", [0, -3])
    def test_nonpositive_samples_rejected(self, tmp_path, b2_scenario, capsys, samples):
        assert run("analyze", b2_scenario, "--samples", samples, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("ulik: error: ")
        assert not (tmp_path / "x").exists()

    def test_too_thin_region_names_cell(self, tmp_path, capsys):
        # A 1 um wide annulus integrates exactly, but the simulator's
        # rejection sampler gives up on it at an acceptance rate below 1e-4.
        ring_center = Point(0.05, 0.0)
        ring = Difference(Disk(ring_center, 0.02), Disk(ring_center, 0.02 - 1e-6))
        sc = NetworkScenario(
            cells=(Cell("v", Point(0.0, 0.0), Disk(Point(0.004, 0.0), 0.002)),
                   Cell("ring", ring_center, ring)),
            victim_cell_id="v", channel=DEFAULT_CHANNEL, power=DEFAULT_POWER)
        path = tmp_path / "thin.json"
        save_scenario(sc, path)
        load_scenario(path)
        assert run("analyze", path, "--samples", 2000, "--out", tmp_path / "ana") == 0
        capsys.readouterr()
        assert run("simulate", path, "--samples", 2000, "--out", tmp_path / "sim") == 2
        assert capsys.readouterr().err.startswith("ulik: error: cell 'ring': acceptance rate")

    def test_tau_failures_do_not_fail_run(self, tmp_path, b2_scenario):
        out = tmp_path / "strict"
        assert run("analyze", b2_scenario, "--samples", 20_000,
                   "--tau-threshold", 1e-6, "--out", out) == 0
        rows = read_rows(out / "report.csv")
        assert rows[0]["passes"] == "False"


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path, b2_scenario):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("simulate", b2_scenario, "--samples", 20_000, "--seed", 5,
                       "--raw", "--out", out) == 0
        assert (a / "samples.bin").read_bytes() == (b / "samples.bin").read_bytes()
        assert (a / "empirical_cdf.csv").read_bytes() == (b / "empirical_cdf.csv").read_bytes()

    def test_per_cell_equals_aggregate_for_b2(self, tmp_path, b2_scenario):
        out = tmp_path / "sim"
        assert run("simulate", b2_scenario, "--samples", 5_000, "--seed", 2,
                   "--raw", "--per-cell", "--out", out) == 0
        from ulik.simulator import read_samples
        agg = read_samples(out / "samples.bin")
        (cell_file,) = out.glob("cell_*.bin")
        cell = read_samples(cell_file)
        assert sorted(cell.samples) == pytest.approx(list(agg.samples), abs=1e-12)

    def test_zero_samples_rejected(self, tmp_path, b2_scenario, capsys):
        assert run("simulate", b2_scenario, "--samples", 0, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("ulik: error: ")
        assert not (tmp_path / "x").exists()


class TestCompare:
    def test_pipeline_ks(self, tmp_path, b2_scenario, capsys):
        ana, sim, cmp_out = tmp_path / "ana", tmp_path / "sim", tmp_path / "cmp"
        assert run("analyze", b2_scenario, "--samples", 100_000, "--seed", 1,
                   "--out", ana) == 0
        assert run("simulate", b2_scenario, "--samples", 100_000, "--seed", 9,
                   "--raw", "--per-cell", "--out", sim) == 0
        capsys.readouterr()
        assert run("compare", "--fit", ana / "fit.csv", "--report", ana / "report.csv",
                   "--samples", sim / "samples.bin", "--per-cell-dir", sim,
                   "--out", cmp_out) == 0
        out = capsys.readouterr().out
        assert any(l.startswith("KS_percell_max=") for l in out.splitlines())
        line = next(l for l in out.splitlines() if l.startswith("KS_aggregate="))
        assert float(line.split("=")[1]) <= 0.02

    def test_degenerate_fit_gives_finite_ks(self, tmp_path, capsys):
        # A fit with var_q = 0 is a point mass: its CDF is the step at mu_q.
        fit = tmp_path / "fit.csv"
        fit.write_text("scenario_id,s1,s2,m0,mu_q,var_q,residual1,residual2,iterations,"
                       "converged\nx,1.0,0.1,12,-80.0,0.0,0.0,0.0,0,True\n")
        dump = tmp_path / "samples.bin"
        write_samples(dump, EmpiricalDistribution.from_samples([-81.0, -80.0, -79.0, -78.0]))
        assert run("compare", "--fit", fit, "--samples", dump, "--out", tmp_path / "cmp") == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("KS_aggregate="))
        ks = float(line.split("=")[1])
        assert math.isfinite(ks) and ks == 0.5

    FIT_HEADER = "scenario_id,s1,s2,m0,mu_q,var_q,residual1,residual2,iterations,converged\n"
    GOOD_FIT = "x,1.0,0.1,12,-80.0,4.0,0.0,0.0,3,True\n"

    @pytest.mark.parametrize("flag", ["--report", "--per-cell-dir"])
    def test_per_cell_flags_go_together(self, tmp_path, capsys, flag):
        fit, dump = tmp_path / "fit.csv", tmp_path / "s.bin"
        fit.write_text(self.FIT_HEADER + self.GOOD_FIT)
        write_samples(dump, EmpiricalDistribution.from_samples([-81.0, -80.0, -79.0]))
        assert run("compare", "--fit", fit, "--samples", dump, flag, tmp_path,
                   "--out", tmp_path / "cmp") == 2
        assert capsys.readouterr().err.startswith("ulik: error: --report and --per-cell-dir")
        assert not (tmp_path / "cmp").exists()

    @pytest.mark.parametrize("fit_text, report_text, dump_bytes, message", [
        ("scenario_id,var_q\nx,4.0\n", None, None, "'mu_q'"),
        (FIT_HEADER + "x,1.0,0.1,12,abc,4.0,0.0,0.0,3,True\n", None, None, "'abc'"),
        (FIT_HEADER + "x,1.0,0.1,12,nan,4.0,0.0,0.0,3,True\n", None, None, "'nan'"),
        (FIT_HEADER + GOOD_FIT, "cell_id,var_qb\n7,4.0\n", None, "'mu_qb'"),
        (FIT_HEADER + GOOD_FIT, "mu_qb,var_qb\n-80.0,4.0\n", None, "'cell_id'"),
        (FIT_HEADER + GOOD_FIT, None, SAMPLE_DUMP_MAGIC + b"\x01\x00", "truncated"),
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qd", 2, -80.0) + b"\x00" * 3, "truncated"),
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qdd", 2, -80.0, math.inf), "non-finite"),
    ], ids=["fit_no_mu_q", "fit_text_mu_q", "fit_nan_mu_q", "report_no_mu_qb",
            "report_no_cell_id", "dump_short_header", "dump_partial_value", "dump_inf_value"])
    def test_malformed_input_exits_2(self, tmp_path, capsys, fit_text, report_text,
                                     dump_bytes, message):
        good = EmpiricalDistribution.from_samples([-81.0, -80.0, -79.0])
        fit, report, dump = tmp_path / "fit.csv", tmp_path / "report.csv", tmp_path / "s.bin"
        fit.write_text(fit_text)
        write_samples(dump, good)
        if dump_bytes is not None:
            dump.write_bytes(dump_bytes)
        argv = ["compare", "--fit", fit, "--samples", dump, "--out", tmp_path / "cmp"]
        if report_text is not None:
            report.write_text(report_text)
            write_samples(tmp_path / "cell_7.bin", good)
            argv += ["--report", report, "--per-cell-dir", tmp_path]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("ulik: error:") and message in err

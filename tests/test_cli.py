import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import ulik
from ulik import simulator
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

    def test_fixture_drop_is_pinned(self, tmp_path):
        # The acceptance gate's and the benchmark's drop: its file must not move.
        out = tmp_path / "hs.json"
        assert run("gen", "hotspot", "--cells", 84, "--r", 0.02, "--area", 0.5,
                   "--seed", 2, "-o", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4cbde5fd90329e7bdc539068cee1d8ba27a4032da374712e9e1e34339a7c1e19")


def _subprocess_env():
    """The environment of a child Python that imports ulik from this tree."""
    src = str(Path(ulik.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestStartup:
    def test_no_command_loads_scipy(self, tmp_path):
        # The run time needs numpy only: the Gaussian CDF and quantile come
        # from the standard library.
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import ulik.cli\n"
            "from ulik.distribution import EmpiricalDistribution, ks_distance\n"
            "from ulik.gaussian_approx import GaussianApprox\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "out = sys.argv[1]\n"
            "seen = {'import': scipy_modules()}\n"
            "assert ulik.cli.main(['gen', 'hotspot', '--cells', '6', '--seed', '1',\n"
            "                      '-o', out + '/hs.json']) == 0\n"
            "seen['gen'] = scipy_modules()\n"
            "assert ulik.cli.main(['simulate', out + '/hs.json', '--samples', '2000',\n"
            "                      '--per-cell', '--raw', '--out', out + '/sim']) == 0\n"
            "seen['simulate'] = scipy_modules()\n"
            "assert ulik.cli.main(['analyze', out + '/hs.json', '--samples', '2000',\n"
            "                      '--out', out + '/ana']) == 0\n"
            "seen['analyze'] = scipy_modules()\n"
            "assert ulik.cli.main(['compare', '--fit', out + '/ana/fit.csv',\n"
            "                      '--report', out + '/ana/report.csv',\n"
            "                      '--samples', out + '/sim/samples.bin',\n"
            "                      '--per-cell-dir', out + '/sim', '--out', out + '/cmp']) == 0\n"
            "seen['compare'] = scipy_modules()\n"
            "e = EmpiricalDistribution.from_samples(np.linspace(-1.0, 1.0, 101))\n"
            "ks_distance(e, GaussianApprox(0.0, 1.0))\n"
            "seen['ks_distance'] = scipy_modules()\n"
            "print(seen)\n"
        )
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=_subprocess_env(), capture_output=True, text=True, check=True)
        steps = ("import", "gen", "simulate", "analyze", "compare", "ks_distance")
        assert done.stdout.splitlines()[-1] == str({step: [] for step in steps})

    def test_only_simulate_loads_numpy_random_and_the_thread_pool(self, tmp_path):
        # analyze, compare and the modules bench/sweep.py imports pay for
        # neither; simulate needs both.
        scenario = tmp_path / "hs.json"
        save_scenario(gen_hotspot(HotspotDropSpec(n_cells=6, seed=1)), scenario)
        assert run("simulate", scenario, "--samples", 2000, "--per-cell", "--raw",
                   "--out", tmp_path / "sim") == 0
        script = (
            "import sys\n"
            "import ulik.cli\n"
            "from ulik import distribution, lognormal_sum, simulator\n"
            "def loaded():\n"
            "    return [m for m in ('numpy.random', 'concurrent.futures') if m in sys.modules]\n"
            "out = sys.argv[1]\n"
            "assert ulik.cli.main(['analyze', out + '/hs.json', '--samples', '2000',\n"
            "                      '--out', out + '/ana']) == 0\n"
            "assert ulik.cli.main(['compare', '--fit', out + '/ana/fit.csv',\n"
            "                      '--report', out + '/ana/report.csv',\n"
            "                      '--samples', out + '/sim/samples.bin',\n"
            "                      '--per-cell-dir', out + '/sim', '--out', out + '/cmp']) == 0\n"
            "seen = {'analyze, compare': loaded()}\n"
            "assert ulik.cli.main(['simulate', out + '/hs.json', '--samples', '2000',\n"
            "                      '--out', out + '/sim2']) == 0\n"
            "seen['simulate'] = loaded()\n"
            "print(seen)\n"
        )
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=_subprocess_env(), capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == str(
            {"analyze, compare": [], "simulate": ["numpy.random", "concurrent.futures"]})

    # Each fresh process below reports which of these ulik modules it loaded.
    MODULES = ("ulik.geometry", "ulik.channel", "ulik.scenario_io", "ulik.pipeline",
               "ulik.simulator")

    def loaded_modules(self, body, *argv):
        script = ("import sys\n" + body
                  + f"print([m for m in {self.MODULES!r} if m in sys.modules])\n")
        done = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                              env=_subprocess_env(), capture_output=True, text=True, check=True)
        return done.stdout.splitlines()[-1]

    def test_each_subcommand_loads_only_the_modules_it_calls(self, tmp_path):
        # compare and bench/sweep.py read dumps and fit; neither touches a
        # scenario, its geometry or a random stream.  gen writes a scenario
        # and neither simulates nor analyzes.
        scenario = tmp_path / "hs.json"
        save_scenario(gen_hotspot(HotspotDropSpec(n_cells=6, seed=1)), scenario)
        assert run("simulate", scenario, "--samples", 2000, "--per-cell", "--raw",
                   "--out", tmp_path / "sim") == 0
        assert run("analyze", scenario, "--samples", 2000, "--out", tmp_path / "ana") == 0
        compare = (
            "import ulik.cli\n"
            "out = sys.argv[1]\n"
            "assert ulik.cli.main(['compare', '--fit', out + '/ana/fit.csv',\n"
            "                      '--report', out + '/ana/report.csv',\n"
            "                      '--samples', out + '/sim/samples.bin',\n"
            "                      '--per-cell-dir', out + '/sim', '--out', out + '/cmp']) == 0\n"
        )
        assert self.loaded_modules(compare, tmp_path) == "['ulik.simulator']"
        bench = Path(__file__).resolve().parents[1] / "bench"
        sweep = "sys.path.insert(0, sys.argv[1])\nimport sweep\n"  # its imports only
        assert self.loaded_modules(sweep, bench) == "['ulik.simulator']"
        gen = ("import ulik.cli\n"
               "assert ulik.cli.main(['gen', 'hotspot', '--cells', '6', '-o', sys.argv[1]]) == 0\n")
        assert self.loaded_modules(gen, tmp_path / "gen.json") == (
            "['ulik.geometry', 'ulik.channel', 'ulik.scenario_io']")


def _no_library(name):
    raise OSError("no C library")


class TestMemoryPolicy:
    @pytest.mark.parametrize("cdll", [_no_library, lambda name: object()],
                             ids=["no-library", "no-mallopt"])
    def test_missing_mallopt_is_harmless(self, tmp_path, monkeypatch, cdll):
        monkeypatch.setattr(ctypes, "CDLL", cdll)
        assert run("gen", "single", "--r", 0.02, "-o", tmp_path / "sc.json") == 0

    def test_import_does_not_apply_it(self, tmp_path):
        script = (
            "import ctypes, sys\n"
            "looked_up = []\n"
            "class Spy(ctypes.CDLL):\n"
            "    def __getattr__(self, name):\n"
            "        looked_up.append(name)\n"
            "        return super().__getattr__(name)\n"
            "ctypes.CDLL = Spy\n"
            "import ulik, ulik.cli\n"
            "seen = {'import': looked_up.count('mallopt')}\n"
            "assert ulik.cli.main(['gen', 'single', '--r', '0.02', '-o', sys.argv[1]]) == 0\n"
            "seen['main'] = looked_up.count('mallopt')\n"
            "print(seen)\n"
        )
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "sc.json")],
                              env=_subprocess_env(), capture_output=True, text=True, check=True)
        assert done.stdout.splitlines()[-1] == str({"import": 0, "main": 1})

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="the policy is glibc's mallopt")
    def test_simulate_does_not_fault_its_blocks_in_again(self, tmp_path):
        # About 5,300 minor faults go to importing ulik.cli; without the policy
        # this run takes some 34,000, with it about 9,000.
        sc = tmp_path / "irregular.json"
        save_scenario(gen_single_interferer(0.02, shape="paper_irregular"), sc)
        proc = subprocess.Popen([sys.executable, "-m", "ulik.cli", "simulate", str(sc),
                                 "--samples", "1000000", "--out", str(tmp_path / "sim")],
                                env=_subprocess_env(), stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        assert usage.ru_minflt < 15_000


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

    def test_unsorted_dump_rejected(self, tmp_path, capsys):
        # simulate writes its dumps in ascending order, and compare reads
        # them as they are; it does not sort an out-of-order file.
        fit, dump = tmp_path / "fit.csv", tmp_path / "s.bin"
        fit.write_text(self.FIT_HEADER + self.GOOD_FIT)
        dump.write_bytes(SAMPLE_DUMP_MAGIC + struct.pack("<Q3d", 3, -80.0, -81.0, -79.0))
        assert run("compare", "--fit", fit, "--samples", dump, "--out", tmp_path / "cmp") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"ulik: error: {dump}: samples must be sorted ascending"
        assert not (tmp_path / "cmp").exists()

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
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qddd", 3, -81.0, math.nan, -79.0), "non-finite"),
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qdd", 2, -math.inf, -80.0), "non-finite"),
    ], ids=["fit_no_mu_q", "fit_text_mu_q", "fit_nan_mu_q", "report_no_mu_qb",
            "report_no_cell_id", "dump_short_header", "dump_partial_value", "dump_inf_value",
            "dump_nan_value", "dump_minus_inf_value"])
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


def _interferer_disk(doc):
    return doc["cells"][1]["region"]["children"][0]


_ANALYZE = ["analyze", "b2.json", "--samples", 2000, "--out", "ana"]
_SIMULATE = ["simulate", "b2.json", "--samples", 100, "--out", "sim"]

# Inputs that once ended in a raw traceback, or in exit 0 with NaN results.
# Each case is an optional edit of the two-cell scenario saved as b2.json, the
# commands to run in its directory, and a part of the expected message: every
# command but the last exits 0, and the last exits 2 with one `ulik: error:` line.
_BAD_INPUTS = {
    "hotspot_area_0": (None, [["gen", "hotspot", "--area", 0, "-o", "s.json"]],
                       "drop area sides must be finite and positive"),
    "hotspot_area_negative": (None, [["gen", "hotspot", "--area", -1, "-o", "s.json"]],
                              "drop area sides must be finite and positive"),
    "hotspot_r_nan": (None, [["gen", "hotspot", "--r", "nan", "-o", "s.json"]],
                      "radius must be finite and positive"),
    "hotspot_spacing_nan": (None, [["gen", "hotspot", "--min-spacing", "nan", "-o", "s.json"]],
                            "BS spacing must be finite and nonnegative"),
    "hotspot_spacing_1e200": (None, [["gen", "hotspot", "--min-spacing", 1e200, "-o", "s.json"]],
                              "infeasible drop"),
    "hex_pitch_0": (None, [["gen", "hex", "--rings", 1, "--pitch", 0, "--r", 0.02,
                            "-o", "s.json"]], "two BSs share the position"),
    "single_r_1e300": (None, [["gen", "single", "--r", 1e300, "-o", "b2.json"]],
                       "would leave the floating-point range"),
    "analyze_disk_1e300": (lambda d: _interferer_disk(d).update(radius_km=1e300), [_ANALYZE],
                           "cell 'interferer': moments must be finite"),
    "simulate_disk_1e300": (lambda d: _interferer_disk(d).update(radius_km=1e300), [_SIMULATE],
                            "leaves the floating-point range"),
    "analyze_exclusion_1e300": (lambda d: d.update(min_bs_ue_distance_km=1e300), [_ANALYZE],
                                "region is empty after the UE exclusion disk"),
    "simulate_exclusion_1e300": (lambda d: d.update(min_bs_ue_distance_km=1e300), [_SIMULATE],
                                 "region is empty after the UE exclusion disk"),
    "analyze_sigma_1e308": (lambda d: d["channel"].update(sigma_shad_sq=1e308), [_ANALYZE],
                            "no lognormal seed"),
    "analyze_alpha_1e308": (lambda d: d["channel"].update(alpha=1e308), [_ANALYZE],
                            "cell 'interferer': moments must be finite"),
    "analyze_a_db_1e308": (lambda d: d["channel"].update(A_db=1e308), [_ANALYZE],
                           "cell 'interferer': moments must be finite"),
    "analyze_a_db_1e5": (lambda d: d["channel"].update(A_db=1e5), [_ANALYZE],
                         "no lognormal seed"),
    "analyze_tau_threshold_nan": (None, [_ANALYZE + ["--tau-threshold", "nan"]],
                                  "tau threshold must be positive and finite, got nan"),
    "analyze_tau_threshold_negative": (None, [_ANALYZE + ["--tau-threshold", -1]],
                                       "tau threshold must be positive and finite, got -1.0"),
    "simulate_samples_2_61": (None, [["simulate", "b2.json", "--samples", 2**61, "--out", "sim"]],
                              f"at most 2**53 realizations, got {2**61}"),
    "compare_without_per_cell_dumps": (None, [
        _ANALYZE, ["simulate", "b2.json", "--samples", 100, "--raw", "--out", "sim"],
        ["compare", "--fit", "ana/fit.csv", "--report", "ana/report.csv",
         "--samples", "sim/samples.bin", "--per-cell-dir", "sim", "--out", "cmp"],
    ], "sim/cell_interferer.bin: no per-cell dump of cell 'interferer'"),
}


# Extreme inputs whose numpy overflow warnings once reached stderr ahead of
# the error line (pytest captures warnings, so only a child process shows them).
_EXTREME = {
    "gen_single_r_1e300": (None, ["gen", "single", "--r", "1e300", "-o", "big.json"]),
    "analyze_alpha_1e308": (("alpha", 1e308),
                            ["analyze", "b2.json", "--samples", "2000", "--out", "ana"]),
    "simulate_sigma_1e308": (("sigma_shad_sq", 1e308),
                             ["simulate", "b2.json", "--samples", "100", "--out", "sim"]),
}


@pytest.mark.parametrize("case", list(_EXTREME))
def test_extreme_input_prints_one_line(tmp_path, b2_scenario, case):
    edit, argv = _EXTREME[case]
    if edit is not None:
        doc = json.loads(b2_scenario.read_text())
        doc["channel"][edit[0]] = edit[1]
        b2_scenario.write_text(json.dumps(doc))
    done = subprocess.run([sys.executable, "-m", "ulik.cli", *argv], cwd=tmp_path,
                          env=_subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 2
    (line,) = done.stderr.splitlines()
    assert line.startswith("ulik: error: ")


class TestBadInput:
    @pytest.mark.parametrize("case", list(_BAD_INPUTS))
    def test_exits_2_with_one_error_line(self, tmp_path, b2_scenario, monkeypatch, capsys,
                                         case):
        edit, commands, message = _BAD_INPUTS[case]
        if edit is not None:
            doc = json.loads(b2_scenario.read_text())
            edit(doc)
            b2_scenario.write_text(json.dumps(doc))
        monkeypatch.chdir(tmp_path)
        for argv in commands[:-1]:
            assert run(*argv) == 0
        capsys.readouterr()
        assert run(*commands[-1]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("ulik: error: ") and message in line

    def test_memory_error_exits_2(self, tmp_path, b2_scenario, monkeypatch, capsys):
        # Stands in for a sample count too large to allocate; no such count
        # is ever asked for here.
        def simulate(scenario, cfg):
            raise MemoryError(f"Unable to allocate arrays for {cfg.n_samples} samples")

        monkeypatch.setattr(simulator, "simulate", simulate)
        monkeypatch.chdir(tmp_path)
        assert run("simulate", "b2.json", "--samples", 2**40, "--out", "sim") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"ulik: error: Unable to allocate arrays for {2**40} samples"

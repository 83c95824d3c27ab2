import argparse
import csv
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import signal
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import ulik
from ulik import cli, lognormal_sum, pipeline, simulator
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

    def test_only_analyze_loads_the_lognormal_fit(self, tmp_path):
        scenario = tmp_path / "hs.json"
        save_scenario(gen_hotspot(HotspotDropSpec(n_cells=6, seed=1)), scenario)
        assert run("simulate", scenario, "--samples", 2000, "--per-cell", "--raw",
                   "--out", tmp_path / "sim") == 0
        assert run("analyze", scenario, "--samples", 2000, "--out", tmp_path / "ana") == 0
        commands = {
            "gen": ["gen", "hotspot", "--cells", "6", "-o", "gen.json"],
            "simulate": ["simulate", "hs.json", "--samples", "2000", "--out", "sim2"],
            "analyze": ["analyze", "hs.json", "--samples", "2000", "--out", "ana2"],
            "compare": ["compare", "--fit", "ana/fit.csv", "--report", "ana/report.csv",
                        "--samples", "sim/samples.bin", "--per-cell-dir", "sim",
                        "--out", "cmp"],
        }
        loaded = {}
        for name, argv in commands.items():  # each in a fresh process
            script = ("import sys, ulik.cli\n"
                      f"assert ulik.cli.main({argv!r}) == 0\n"
                      "print('ulik.lognormal_sum' in sys.modules)\n")
            done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                                  env=_subprocess_env(), capture_output=True, text=True,
                                  check=True)
            loaded[name] = done.stdout.splitlines()[-1]
        assert loaded == {"gen": "False", "simulate": "False", "analyze": "True",
                          "compare": "False"}

    def blas_child(self, body, threads=None):
        """The last line `body` prints in a child given OPENBLAS_NUM_THREADS=threads."""
        env = _subprocess_env()
        env.pop("OPENBLAS_NUM_THREADS", None)  # importing ulik.cli here set it
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = str(threads)
        done = subprocess.run([sys.executable, "-c", body], env=env, capture_output=True,
                              text=True, check=True)
        return done.stdout.splitlines()[-1]

    TASKS = "import os, ulik.cli\nprint(len(os.listdir('/proc/self/task')))\n"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux's /proc")
    def test_cli_runs_one_blas_thread(self):
        assert self.blas_child(self.TASKS) == "1"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs Linux and 2 CPUs")
    def test_a_callers_blas_threads_win(self):
        assert self.blas_child(self.TASKS, threads=2) == "2"

    def test_the_library_leaves_blas_threads_alone(self):
        body = ("import os, ulik, ulik.geometry, ulik.simulator, ulik.pipeline\n"
                "print('OPENBLAS_NUM_THREADS' in os.environ)\n")
        assert self.blas_child(body) == "False"


class TestEntry:
    """`python -m ulik.cli` and the `ulik` command go through cli.run."""

    def cli(self, tmp_path, *argv, env=None, **kwargs):
        return subprocess.run([sys.executable, "-m", *map(str, argv)], cwd=tmp_path,
                              env=env or _subprocess_env(), **kwargs)

    def test_through_pipes(self, tmp_path):
        done = self.cli(tmp_path, "ulik.cli", "gen", "single", "--r", 0.02, "-o", "s.json",
                        capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == ["cells=2", "victim=victim", "path=s.json"]
        done = self.cli(tmp_path, "ulik.cli", "gen", "single", "--r", -1, "-o", "s.json",
                        capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (2, "")
        (line,) = done.stderr.splitlines()
        assert line.startswith("ulik: error: ")

    def test_closed_stdout_is_an_error_line(self, tmp_path):
        # With the reader gone, the summary lines fail only when flushed.
        env = _subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self.cli(tmp_path, "ulik.cli", "gen", "single", "--r", 0.02, "-o", "s.json",
                            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["ulik: error: [Errno 32] Broken pipe"]

    def test_profiler_writes_its_output(self, tmp_path):
        done = self.cli(tmp_path, "cProfile", "-o", "prof.out", "-m", "ulik.cli", "gen",
                        "single", "--r", 0.02, "-o", "s.json", capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "s.json").exists()
        assert (tmp_path / "prof.out").stat().st_size > 0

    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_exit_skips_teardown_unless_traced(self, tmp_path, traced):
        # No run skips teardown any more: plain and traced runs both tear down
        # after gc.freeze(), and atexit handlers run only on a teardown.
        script = ("import atexit, gc, runpy, sys\n"
                  "atexit.register(lambda: print(gc.get_freeze_count() > 0))\n"
                  + ("sys.settrace(lambda *args: None)\n" if traced else "")
                  + "sys.argv = ['ulik', 'gen', 'single', '--r', '0.02', '-o', 's.json']\n"
                  "runpy.run_module('ulik.cli', run_name='__main__')\n")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                              env=_subprocess_env(), capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines() == ["cells=2", "victim=victim", "path=s.json", "True"]

    def test_closed_stdout_under_a_profiler(self, tmp_path):
        # The error line, then a normal exit that must not meet the broken
        # pipe again (that would add "Exception ignored" lines and exit 120).
        env = _subprocess_env()
        env.pop("PYTHONUNBUFFERED", None)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = self.cli(tmp_path, "cProfile", "-o", "prof.out", "-m", "ulik.cli", "gen",
                            "single", "--r", 0.02, "-o", "s.json",
                            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert done.stderr.splitlines() == ["ulik: error: [Errno 32] Broken pipe"]
        assert done.returncode == 0  # cProfile's runner drops the code of a SystemExit
        assert (tmp_path / "prof.out").stat().st_size > 0

    @pytest.mark.skipif(sys.platform != "linux", reason="sends SIGINT to a child process")
    def test_ctrl_c_is_one_error_line(self, tmp_path, b2_scenario):
        # A simulate that waits to be interrupted; SIGINT gets Python's own
        # handler back in case this run's parent ignores it.
        script = ("import signal, sys, time\n"
                  "import ulik.cli, ulik.simulator\n"
                  "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                  "def simulate(scenario, cfg):\n"
                  "    print('ready', flush=True)\n"
                  "    time.sleep(60)\n"
                  "ulik.simulator.simulate = simulate\n"
                  f"sys.argv = ['ulik', 'simulate', {str(b2_scenario)!r}, '--out', 'sim']\n"
                  "ulik.cli.run()\n")
        child = subprocess.Popen([sys.executable, "-c", script], cwd=tmp_path,
                                 env=_subprocess_env(), stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
        try:
            assert child.stdout.readline() == "ready\n"
            child.send_signal(signal.SIGINT)
            _, err = child.communicate(timeout=30)
        finally:
            child.kill()
            child.wait()
        assert (child.returncode, err) == (130, "ulik: error: interrupted\n")

    def test_main_returns_its_code(self, tmp_path, capsys):
        assert main(["gen", "single", "--r", "0.02", "-o", str(tmp_path / "s.json")]) == 0
        assert main(["gen", "single", "--r", "-1", "-o", str(tmp_path / "s.json")]) == 2
        assert capsys.readouterr().err.startswith("ulik: error: ")


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
        # a result to report, not a tool failure.  Lowering A_db by 200 dB
        # raises every component's dB mean by (1 - eta) * 200 = 40 dB, the
        # same as scaling the design points by 1e4, so analyze's own design
        # meets that fit.
        sc = gen_hotspot(HotspotDropSpec(seed=2))
        sc = dataclasses.replace(sc, channel=dataclasses.replace(sc.channel,
                                                                 a_db=sc.channel.a_db - 200))
        path = tmp_path / "hotspot.json"
        save_scenario(sc, path)
        assert run("analyze", path, "--samples", 20_000, "--seed", 0,
                   "--out", tmp_path / "ana") == 0
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

    def test_fit_names_its_design_point(self, tmp_path, b2_scenario):
        assert run("analyze", b2_scenario, "--samples", 2000, "--out", tmp_path / "a") == 0
        row = read_rows(tmp_path / "a" / "fit.csv")[0]
        design = [row[k] for k in ("s1", "s2", "m0")]
        assert design == [str(v) for v in (lognormal_sum.DEFAULT_S1, lognormal_sum.DEFAULT_S2,
                                           lognormal_sum.DEFAULT_ORDER)]
        assert design == ["1.0", "0.1", "12"]  # the bytes bench/checks.py reads

    def test_csv_files_are_utf8_whatever_the_locale(self, tmp_path, b2_scenario):
        # report.csv names the cell; under the POSIX locale without UTF-8
        # mode, Python's default encoding is ASCII.
        doc = json.loads(b2_scenario.read_text())
        doc["cells"][1]["id"] = "zelle_\u00fc"
        b2_scenario.write_text(json.dumps(doc))
        env = dict(_subprocess_env(), LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        done = subprocess.run([sys.executable, "-m", "ulik.cli", "analyze", b2_scenario,
                               "--samples", "2000", "--out", "ana"], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stderr) == (0, "")
        report = (tmp_path / "ana" / "report.csv").read_bytes().decode("utf-8")
        assert report.splitlines()[1].startswith("zelle_\u00fc,")

    def test_label_that_is_not_utf8_text(self, tmp_path, b2_scenario, capsys):
        # analyze writes the generator label into fit.csv.
        doc = json.loads(b2_scenario.read_text())
        doc["metadata"]["generator"] = "\ud800"
        b2_scenario.write_text(json.dumps(doc))
        assert run("analyze", b2_scenario, "--samples", 1000, "--out", tmp_path / "ana") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == "ulik: error: $.metadata.generator: expected UTF-8 text, got '\\ud800'"

    def test_file_name_that_is_not_utf8_text(self, tmp_path, b2_scenario, monkeypatch, capsys):
        # Without a generator label, fit.csv names the scenario by its file's
        # name, which is checked before the analysis runs.
        doc = json.loads(b2_scenario.read_text())
        del doc["metadata"]["generator"]
        path = tmp_path / os.fsdecode(b"sc\xff.json")
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(pipeline, "analyze", lambda *args, **kwargs: pytest.fail("analysed"))
        assert run("analyze", path, "--samples", 1000, "--out", tmp_path / "ana") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("ulik: error: file name 'sc\\udcff' is not UTF-8 text, so it cannot "
                        "name the scenario in fit.csv; give it a generator label")
        assert not (tmp_path / "ana").exists()

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
        for threshold, passes in ((1e-6, "False"), (1.0, "True")):
            out = tmp_path / str(threshold)
            assert run("analyze", b2_scenario, "--samples", 20_000,
                       "--tau-threshold", threshold, "--out", out) == 0
            (row,) = read_rows(out / "report.csv")
            assert row["passes"] == passes


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

    def test_two_threads_finish_and_match_one(self, tmp_path):
        # One cell over three blocks, so that two threads split it.  A pool
        # that deadlocks fails here at the timeout instead of hanging the suite.
        sc = tmp_path / "irregular.json"
        save_scenario(gen_single_interferer(0.02, shape="paper_irregular"), sc)
        for threads in (1, 2):
            done = subprocess.run(
                [sys.executable, "-m", "ulik.cli", "simulate", str(sc), "--samples",
                 str(2 * simulator._BLOCK + 1000), "--seed", "3", "--per-cell", "--raw",
                 "--threads", str(threads), "--out", str(tmp_path / str(threads))],
                env=_subprocess_env(), capture_output=True, text=True, timeout=60)
            assert (done.returncode, done.stderr) == (0, "")
        for name in ("samples.bin", "cell_interferer.bin", "empirical_cdf.csv"):
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()

    def test_zero_samples_rejected(self, tmp_path, b2_scenario, capsys):
        assert run("simulate", b2_scenario, "--samples", 0, "--out", tmp_path / "x") == 2
        assert capsys.readouterr().err.startswith("ulik: error: ")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("cell_id", ["sub/dir", "a\0b"], ids=["slash", "nul"])
    def test_cell_id_that_cannot_name_a_dump(self, tmp_path, b2_scenario, monkeypatch, capsys,
                                             cell_id):
        doc = json.loads(b2_scenario.read_text())
        doc["cells"][1]["id"] = cell_id
        b2_scenario.write_text(json.dumps(doc))
        monkeypatch.setattr(simulator, "simulate", lambda *args: pytest.fail("sampled"))
        assert run("simulate", b2_scenario, "--samples", 100, "--per-cell",
                   "--out", tmp_path / "sim") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"ulik: error: $.cells[1]: cell id {cell_id!r} contains '/' or NUL: "
                        "it cannot name a file")

    def test_cell_id_the_file_system_encoding_cannot_spell(self, tmp_path, b2_scenario):
        # Under the POSIX locale without UTF-8 mode the file-system encoding
        # is ASCII, so cell_zelle_ü.bin cannot be made; that is found before
        # anything is drawn or written.
        doc = json.loads(b2_scenario.read_text())
        doc["cells"][1]["id"] = "zelle_ü"
        b2_scenario.write_text(json.dumps(doc))
        env = dict(_subprocess_env(), LC_ALL="POSIX", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        done = subprocess.run([sys.executable, "-m", "ulik.cli", "simulate", b2_scenario,
                               "--samples", "100", "--per-cell", "--out", "sim"], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stderr == ("ulik: error: cell id 'zelle_\\xfc' cannot name a file in the "
                               "file-system encoding (ascii)\n")
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("cell_id, message", [
        ("x" * 300, "$.cells[1]: cell id too long to name a file: cell_<id>.bin takes "
                    "309 bytes, more than 255"),
        ("\ud800x", "$.cells[1].id: expected UTF-8 text, got '\\ud800x'"),
    ], ids=["300-bytes", "lone-surrogate"])
    def test_cell_id_no_file_system_takes(self, tmp_path, b2_scenario, monkeypatch, capsys,
                                          cell_id, message):
        doc = json.loads(b2_scenario.read_text())
        doc["cells"][1]["id"] = cell_id
        b2_scenario.write_text(json.dumps(doc))
        monkeypatch.setattr(simulator, "simulate", lambda *args: pytest.fail("sampled"))
        assert run("simulate", b2_scenario, "--samples", 100, "--per-cell",
                   "--out", tmp_path / "sim") == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == f"ulik: error: {message}"


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
        (FIT_HEADER + "x,1.0,0.1,12,-80.0,-1.0,0.0,0.0,3,True\n", None, None,
         "fit.csv: line 2, column 'var_q': need a finite mean and a finite nonnegative variance"),
        (FIT_HEADER + GOOD_FIT, "cell_id,var_qb\n7,4.0\n", None, "'mu_qb'"),
        (FIT_HEADER + GOOD_FIT, "mu_qb,var_qb\n-80.0,4.0\n", None, "'cell_id'"),
        (FIT_HEADER + GOOD_FIT, "cell_id,mu_qb,var_qb\n7,-80.0,-1.0\n", None,
         "report.csv: line 2, column 'var_qb': need a finite mean and a finite nonnegative"),
        (FIT_HEADER + GOOD_FIT, None, SAMPLE_DUMP_MAGIC + b"\x01\x00", "truncated"),
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qd", 2, -80.0) + b"\x00" * 3, "truncated"),
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qdd", 2, -80.0, math.inf), "non-finite"),
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qddd", 3, -81.0, math.nan, -79.0), "non-finite"),
        (FIT_HEADER + GOOD_FIT, None,
         SAMPLE_DUMP_MAGIC + struct.pack("<Qdd", 2, -math.inf, -80.0), "non-finite"),
    ], ids=["fit_no_mu_q", "fit_text_mu_q", "fit_nan_mu_q", "fit_negative_var_q",
            "report_no_mu_qb", "report_no_cell_id", "report_negative_var_qb",
            "dump_short_header", "dump_partial_value", "dump_inf_value", "dump_nan_value",
            "dump_minus_inf_value"])
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

    @pytest.mark.parametrize("which", ["fit_not_utf8", "report_field_too_large"])
    def test_unreadable_csv_exits_2(self, tmp_path, capsys, which):
        fit, report, dump = tmp_path / "fit.csv", tmp_path / "report.csv", tmp_path / "s.bin"
        write_samples(dump, EmpiricalDistribution.from_samples([-81.0, -80.0, -79.0]))
        argv = ["compare", "--samples", dump, "--out", tmp_path / "cmp"]
        if which == "fit_not_utf8":
            fit = bad = dump  # a sample dump given as the fit
        else:
            bad = report
            fit.write_text(self.FIT_HEADER + self.GOOD_FIT)
            report.write_text("cell_id,mu_qb,var_qb\n" + "7" * 200_000 + ",-80.0,4.0\n")
            argv += ["--report", report, "--per-cell-dir", tmp_path]
        assert run(*argv, "--fit", fit) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"ulik: error: {bad}: ")
        assert not (tmp_path / "cmp").exists()


def _interferer_disk(doc):
    return doc["cells"][1]["region"]["children"][0]


_ANALYZE = ["analyze", "b2.json", "--samples", 2000, "--out", "ana"]
_SIMULATE = ["simulate", "b2.json", "--samples", 100, "--out", "sim"]
_COMPARE = ["compare", "--fit", "ana/fit.csv", "--report", "ana/report.csv",
            "--samples", "sim/samples.bin", "--per-cell-dir", "sim", "--out", "cmp"]


def _zero_column(path, column):
    """A step that sets `column` to 0 on every row of the CSV file `path`."""
    def edit():
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows({**row, column: "0.0"} for row in rows)
    return edit


# Inputs that once ended in a raw traceback, or in exit 0 with NaN results.
# Each case is an optional edit of the two-cell scenario saved as b2.json, the
# steps to run in its directory (commands, or edits of the files they wrote),
# and a part of the expected message: every command but the last exits 0, and
# the last exits 2 with one `ulik: error:` line.
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
    "hotspot_seed_negative": (None, [["gen", "hotspot", "--seed", -1, "-o", "s.json"]],
                              "seed must be nonnegative, got -1"),
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
    "analyze_tau_threshold_0": (None, [_ANALYZE + ["--tau-threshold", 0]],
                                "tau threshold must be positive and finite, got 0.0"),
    "analyze_tau_threshold_inf": (None, [_ANALYZE + ["--tau-threshold", "inf"]],
                                  "tau threshold must be positive and finite, got inf"),
    "simulate_seed_negative": (None, [_SIMULATE + ["--seed", -1]],
                               "seed must be nonnegative, got -1"),
    "simulate_samples_2_61": (None, [["simulate", "b2.json", "--samples", 2**61, "--out", "sim"]],
                              f"at most 2**53 realizations, got {2**61}"),
    "compare_without_per_cell_dumps": (None, [
        _ANALYZE, ["simulate", "b2.json", "--samples", 100, "--raw", "--out", "sim"], _COMPARE,
    ], "sim/cell_interferer.bin: no per-cell dump of cell 'interferer'"),
    # KS scores against a Gaussian of positive variance only; analyze never
    # writes a variance of 0.
    "compare_fit_var_q_0": (None, [
        _ANALYZE, _SIMULATE + ["--raw", "--per-cell"], _zero_column("ana/fit.csv", "var_q"),
        _COMPARE,
    ], "ana/fit.csv: line 2, column 'var_q': KS needs a positive variance, got 0.0"),
    "compare_report_var_qb_0": (None, [
        _ANALYZE, _SIMULATE + ["--raw", "--per-cell"], _zero_column("ana/report.csv", "var_qb"),
        _COMPARE,
    ], "ana/report.csv: line 2, column 'var_qb': KS needs a positive variance, got 0.0"),
}


# Extreme inputs whose numpy overflow warnings once reached stderr ahead of
# the error line (pytest captures warnings, so only a child process shows them).
_EXTREME = {
    "gen_single_r_1e300": (None, ["gen", "single", "--r", "1e300", "-o", "big.json"]),
    "analyze_alpha_1e308": (("alpha", 1e308),
                            ["analyze", "b2.json", "--samples", "2000", "--out", "ana"]),
    "simulate_sigma_1e308": (("sigma_shad_sq", 1e308),
                             ["simulate", "b2.json", "--samples", "100", "--out", "sim"]),
    # One interferer on two threads splits each block: the next block's
    # positions are in flight when block 0's sum leaves the float range, and
    # the process must still end at once.
    "simulate_sigma_1e8_two_threads": (("sigma_shad_sq", 1e8), [
        "simulate", "b2.json", "--samples", str(2 * simulator._BLOCK + 1000), "--threads", "2",
        "--per-cell", "--out", "sim"]),
}


@pytest.mark.parametrize("case", list(_EXTREME))
def test_extreme_input_prints_one_line(tmp_path, b2_scenario, case):
    edit, argv = _EXTREME[case]
    if edit is not None:
        doc = json.loads(b2_scenario.read_text())
        doc["channel"][edit[0]] = edit[1]
        b2_scenario.write_text(json.dumps(doc))
    done = subprocess.run([sys.executable, "-m", "ulik.cli", *argv], cwd=tmp_path,
                          env=_subprocess_env(), capture_output=True, text=True, timeout=60)
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
        for step in commands[:-1]:
            if callable(step):
                step()
            else:
                assert run(*step) == 0
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


def _long_options(parser, command="ulik"):
    """(command, option) for every long option of `parser` and its subcommands."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _long_options(sub, f"{command} {name}")
        elif not isinstance(action, argparse._HelpAction):
            yield from ((command, o) for o in action.option_strings if o.startswith("--"))


class TestOptionsInReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_every_long_option_is_in_the_readme(self):
        readme = self.README.read_text(encoding="utf-8")
        options = list(_long_options(cli.build_parser()))
        assert ("ulik compare", "--per-cell-dir") in options
        missing = [f"{command} {option}" for command, option in options
                   if not re.search(rf"{re.escape(option)}(?![\w-])", readme)]
        assert not missing

    def test_every_option_in_the_readme_exists(self):
        # pip's flag is the one README option that is not ulik's.
        readme = self.README.read_text(encoding="utf-8")
        options = {option for _, option in _long_options(cli.build_parser())}
        options.add("--no-build-isolation")
        unknown = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme)) - options
        assert not unknown

    @pytest.mark.parametrize("argv, option", [
        (_ANALYZE, ["--lenient"]), (_SIMULATE, ["--lenient"]),
        (_ANALYZE, ["--m0", 8]), (_ANALYZE, ["--s1", 2]), (_ANALYZE, ["--s2", 0.5]),
    ], ids=["analyze", "simulate", "analyze-m0", "analyze-s1", "analyze-s2"])
    def test_lenient_is_a_usage_error(self, capsys, argv, option):
        # --lenient, and analyze's fit options --m0, --s1 and --s2, are gone.
        with pytest.raises(SystemExit) as exc:
            run(*argv, *option)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(map(str, option))}" in capsys.readouterr().err

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spinamp
from spinamp import cli, dynamics
from spinamp.cli import (ConfigError, DEFAULT_CONFIG, apply_overrides,
                         envelope_deviation, load_config, main,
                         resolve_config, _csv_lines, _n_workers)
from spinamp.dynamics import POSITIVITY_TOL, TRACE_TOL, TimeGrid
from spinamp.hilbert import DensityMatrix, SpaceDims
from spinamp.model import SystemParams, build_drive, build_hc, collapse_ops
from spinamp.oracle import arrowhead_norm, arrowhead_omega_max, sample_frequencies

TWO_PI = 2.0 * np.pi


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


FAST_FIG2 = {
    "fock_cutoff": 8,
    "grid": {"t_end_us": 0.02, "n_record": 40},
}


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = load_config(None)
        assert cfg["params"]["g"] == 75.0
        assert cfg["fock_cutoff"] == 16

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"fock_cutof": 8})
        with pytest.raises(ConfigError, match="unknown config key: fock_cutof"):
            load_config(path)

    def test_unknown_nested_key_rejected(self, tmp_path):
        path = write_config(tmp_path, {"params": {"gama": 10}})
        with pytest.raises(ConfigError, match="params.gama"):
            load_config(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/cfg.json")

    def test_overrides(self):
        cfg = load_config(None)
        apply_overrides(cfg, ["params.gamma=10", "fock_cutoff=8",
                              "params.drive=matched"])
        assert cfg["params"]["gamma"] == 10
        assert cfg["fock_cutoff"] == 8
        assert cfg["params"]["drive"] == "matched"

    def test_override_unknown_path(self):
        cfg = load_config(None)
        with pytest.raises(ConfigError, match="override path"):
            apply_overrides(cfg, ["params.nope=1"])

    def test_override_needs_equals(self):
        with pytest.raises(ConfigError, match="key=value"):
            apply_overrides(load_config(None), ["fock_cutoff"])

    def test_resolve_defaults_per_experiment(self):
        rc2 = resolve_config(load_config(None), "figure2")
        rc3 = resolve_config(load_config(None), "figure3")
        assert rc2.t_end == 0.5
        assert rc3.t_end == 1.0
        assert rc2.params.gamma == pytest.approx(TWO_PI * 12.5)

    def test_experiment_conflict(self):
        cfg = load_config(None)
        cfg["experiment"] = "figure3"
        with pytest.raises(ConfigError, match="conflicts"):
            resolve_config(cfg, "figure2")

    def test_resolve_rejects_unknown_keys(self):
        # dicts built in code take the same key check as config files
        cfg = load_config(None)
        cfg["fock_cutof"] = 8
        with pytest.raises(ConfigError, match="unknown config key: fock_cutof"):
            resolve_config(cfg, "figure2")
        cfg = load_config(None)
        cfg["grid"]["n_recrod"] = 100
        with pytest.raises(ConfigError, match="unknown config key: grid.n_recrod"):
            resolve_config(cfg, "figure2")

    def test_resolve_fills_missing_keys(self):
        cfg = load_config(None)
        del cfg["oracle_n"]
        del cfg["grid"]["n_record"]
        rc = resolve_config(cfg, "validate")
        assert rc.oracle_n == DEFAULT_CONFIG["oracle_n"]
        assert rc.n_record == DEFAULT_CONFIG["grid"]["n_record"]
        assert rc.resolved["oracle_n"] == DEFAULT_CONFIG["oracle_n"]

    def test_resolve_rejects_non_object_section(self):
        cfg = load_config(None)
        cfg["grid"] = 5
        with pytest.raises(ConfigError, match="grid must be an object"):
            resolve_config(cfg, "figure2")

    def test_resolve_without_experiment_key(self):
        rc = resolve_config({"fock_cutoff": 8}, "figure3")
        assert rc.experiment == "figure3"
        assert rc.fock_cutoff == 8
        assert rc.resolved["experiment"] == "figure3"
        assert rc.resolved["gamma_sweep_mhz"] == DEFAULT_CONFIG["gamma_sweep_mhz"]

    def test_resolved_shares_nothing_with_the_callers_dict(self):
        cfg = load_config(None)
        rc = resolve_config(cfg, "figure3")
        rc.resolved["seeds"].append(99)
        rc.resolved["gamma_sweep_mhz"].clear()
        rc.resolved["params"]["g"] = 1.0
        assert cfg == load_config(None)

    def test_physical_validation(self):
        cfg = load_config(None)
        cfg["params"]["g"] = -5
        with pytest.raises(ConfigError, match="params.g"):
            resolve_config(cfg, "figure2")
        cfg = load_config(None)
        cfg["params"]["gamma"] = float("nan")
        with pytest.raises(ConfigError):
            resolve_config(cfg, "figure2")
        cfg = load_config(None)
        cfg["gamma_sweep_mhz"] = []
        with pytest.raises(ConfigError, match="non-empty"):
            resolve_config(cfg, "figure3")

    def test_n_steps_must_align_with_recording(self):
        # records are read inside Taylor steps, so no step count has to align
        # with them; the key that set one is refused instead
        cfg = load_config(None)
        cfg["grid"]["n_steps"] = 1001
        cfg["grid"]["n_record"] = 100
        with pytest.raises(ConfigError, match="grid.n_steps must be left out"):
            resolve_config(cfg, "figure2")

    def test_n_steps_key_rejected(self, tmp_path, capsys):
        # every run takes its derived plan; a fixed step count is no option
        message = ("config error: grid.n_steps must be left out: every run takes the "
                   "step plan derived from its generator's norm bound, and records "
                   "may fall inside a step\n")
        cfg = write_config(tmp_path, {"grid": {"n_steps": 1000}})
        assert main(["figure2", "--config", cfg]) == 2
        assert capsys.readouterr().err == message
        assert main(["validate", "--override", "grid.n_steps=1000"]) == 2
        assert capsys.readouterr().err == message


def _fmt(x) -> str:
    """The per-cell CSV format that the row format replaced, as reference."""
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return f"{x:.9g}"


class TestFormatting:
    def test_nine_significant_digits(self):
        assert list(_csv_lines([(0.123456789123, 1.0, -0.0)], 3)) == ["0.123456789,1,0\n"]

    def test_rows_match_the_per_cell_format(self):
        rng = np.random.default_rng(5)
        cells = [-0.0, 0.0, np.float64(-0.0), 3, -7, np.int64(12), True, 1e-300, -1e-300,
                 5e-324, 1e300, -1e300, 123456789.0, 1234567891.0, 0.1 + 0.2,
                 2.0 / 3.0, -1.0 / 7.0, 1e16, 12345.678949999, float("inf"),
                 float("nan"), *rng.normal(size=23) * 10.0 ** rng.integers(-12, 12, 23)]
        rows = [tuple(cells[i:i + 4]) for i in range(0, len(cells), 4)]
        assert all(len(row) == 4 for row in rows)
        expected = [",".join(_fmt(x) for x in row) + "\n" for row in rows]
        assert list(_csv_lines(rows, 4)) == expected
        assert list(_csv_lines(np.array(rows, dtype=float), 4)) == expected
        assert list(_csv_lines([], 4)) == []

    def test_envelope_deviation_identical(self):
        t = np.linspace(0, 1, 500)
        y = np.abs(np.sin(40 * t)) * np.exp(-t)
        assert envelope_deviation(t, y, y) == 0.0

    def test_envelope_deviation_scaled(self):
        t = np.linspace(0, 1, 2000)
        y = np.abs(np.sin(40 * t)) * np.exp(-t)
        dev = envelope_deviation(t, 1.04 * y, y)
        assert dev == pytest.approx(0.04, abs=0.005)


class TestFigure2Command:
    def test_writes_csv_and_meta(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FIG2)
        out = str(tmp_path / "fig2.csv")
        assert main(["figure2", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t_us,n_num_e,n_ana_e,n_num_g,n_ana_g"
        assert len(lines) == 42  # header + 41 recorded points
        meta = json.loads(Path(out + ".meta.json").read_text(encoding="utf-8"))
        assert meta["experiment"] == "figure2"
        assert meta["config"]["params"]["gamma"] == 12.5
        assert meta["checks"]["cutoff_convergence"] < 1e-3

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {**FAST_FIG2, "convergence_checks": False})
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["figure2", "--config", cfg, "--out", out1]) == 0
        assert main(["figure2", "--config", cfg, "--out", out2]) == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus_key": 1})
        assert main(["figure2", "--config", cfg]) == 2

    def test_cutoff_failure_aborts_with_suggestion(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"fock_cutoff": 3,
                                      "grid": {"t_end_us": 0.05, "n_record": 20}})
        out = str(tmp_path / "f.csv")
        assert main(["figure2", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "cutoff_convergence" in err
        assert "fock_cutoff=6" in err

    def test_closed_forms_start_at_t_start(self, tmp_path):
        # both the runs and the frozen-qubit closed forms start from vacuum
        out = str(tmp_path / "f.csv")
        assert main(["figure2", *SMALL_RUN, "--override", "grid.t_start_us=-0.01",
                     "--override", "grid.t_end_us=0", "--override",
                     "convergence_checks=false", "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[0, 0] == -0.01 and rows[-1, 0] == 0.0
        np.testing.assert_array_equal(rows[0, 1:], 0.0)
        assert rows[-1, 2] > 0.0 and rows[-1, 4] > 0.0


class TestFigure3Command:
    def test_smoke(self, tmp_path):
        cfg = write_config(tmp_path, {
            "fock_cutoff": 8,
            "grid": {"t_end_us": 0.05, "n_record": 25},
            "gamma_sweep_mhz": [10.0, 25.0],
            "convergence_checks": False,
        })
        out = str(tmp_path / "fig3.csv")
        assert main(["figure3", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (2 * 26, 5)
        gammas = np.unique(rows[:, 1])
        np.testing.assert_array_equal(gammas, [10.0, 25.0])
        for g in gammas:
            block = rows[rows[:, 1] == g]
            assert block[0, 4] == 0.0  # zero gain from vacuum at t=0
            assert np.all(block[:, 2] >= block[:, 3] - 1e-6)  # total_e >= total_g

    def test_sweep_summary(self, tmp_path):
        cfg = write_config(tmp_path, {
            "fock_cutoff": 8,
            "grid": {"t_end_us": 0.05, "n_record": 25},
            "gamma_sweep_mhz": [12.5],
            "convergence_checks": False,
        })
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        lines = Path(out).read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("gamma_mhz,max_gain")
        assert len(lines) == 2


class TestSpectrumCommand:
    def test_levels_match_diagonalization(self, tmp_path):
        cfg = write_config(tmp_path, {"fock_cutoff": 12, "n_levels": 8})
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (8, 7)
        np.testing.assert_array_equal(rows[:, 0], np.arange(8))
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.all(rows[:, 6] < 1e-9)

    def test_resonant_mixing_angle(self, tmp_path):
        cfg = write_config(tmp_path, {
            "params": {"nu_t": 100.0, "nu_bar": 100.0, "drive": 100.0,
                       "lambda_d": 0.0},
            "fock_cutoff": 8, "n_levels": 5,
        })
        out = str(tmp_path / "res.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        np.testing.assert_allclose(rows[:, 3], np.pi / 2, rtol=1e-8)  # 9-digit CSV


class TestValidateCommand:
    def test_default_small_config_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "fock_cutoff": 8,
            "grid": {"t_end_us": 0.1, "n_record": 100},
            "seeds": [11],
        })
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert report["passed"] is True
        names = {c["name"] for c in report["checks"]}
        assert {"timestep_guard", "conservation", "jc_spectrum_match",
                "cutoff_convergence", "timestep_convergence", "oracle_traceout",
                "analytic_steady_e", "analytic_steady_g"} <= names
        assert "PASS conservation" in capsys.readouterr().out

    def test_conservation_run_is_the_undriven_model(self, tmp_path, monkeypatch):
        # the run behind the conservation check, recorded from inside validate,
        # is bit for bit an evolve of the undriven build_hc on its own grid
        runs = []
        branch = cli._run_branch_meta

        def recorded(p, d, *args, **kwargs):
            result = branch(p, d, *args, **kwargs)
            runs.append((p, d, *result))
            return result
        monkeypatch.setattr(cli, "_run_branch_meta", recorded)
        argv = ["validate", *SMALL_RUN, "--override", "fock_cutoff=6",
                "--override", "oracle_n=500", "--out", str(tmp_path / "report.json")]
        assert main(argv) == 0
        p = resolve_config(load_config(None), "validate").params
        (q, d, traj, grid), = [run for run in runs if run[0].lambda_d == 0.0]
        assert q == replace(p, lambda_d=0.0, gamma_s=0.0) and d == 6
        num, qubit = cli._joint_observables(d)
        ref = dynamics.evolve(build_hc(p, d), collapse_ops(p, d),
                              DensityMatrix.basis(SpaceDims((2, d)), 1, 0), grid,
                              [num, qubit], gamma=p.gamma)
        for name in ("collective_n", "qubit_excited", "subradiant_n", "trace_err",
                     "min_eig", "herm_err"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(ref, name))

    def test_window_ending_at_zero_matches_the_window_from_zero(self, tmp_path):
        # the generator is time-independent, so every run of a shifted window
        # takes the same steps; t_end_us <= 0 must not fall back to t = 0
        reports = []
        for start, end in ((0.0, 0.001), (-0.001, 0.0)):
            out = tmp_path / f"report{start}.json"
            assert main(["validate", *SMALL_RUN, "--override", "fock_cutoff=6",
                         "--override", "oracle_n=500", "--override",
                         f"grid.t_start_us={start}", "--override", f"grid.t_end_us={end}",
                         "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text(encoding="utf-8")))
        assert reports[0]["checks"] == reports[1]["checks"]
        assert reports[0]["plans"] == reports[1]["plans"]

    def test_small_cutoff_named_failure(self, tmp_path):
        cfg = write_config(tmp_path, {
            "fock_cutoff": 3,
            "grid": {"t_end_us": 0.1, "n_record": 100},
            "seeds": [11],
        })
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", cfg, "--out", out]) == 1
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["cutoff_convergence"]["passed"] is False


# One case per config hole: each was either a traceback or silently accepted.
# The small settings come first so that the hole's own override wins.
SMALL_RUN = ["--override", "fock_cutoff=4", "--override", "grid.t_end_us=0.001",
             "--override", "grid.n_record=10", "--override", "oracle_n=50",
             "--override", "seeds=[11]"]


class TestConfigHoles:
    @pytest.mark.parametrize("experiment, override, message", [
        ("spectrum", "params=5", "params must be an object"),
        ("spectrum", "grid.t_end_us=x", "grid.t_end_us must be null or a finite"),
        ("spectrum", "grid.t_end_us=NaN", "grid.t_end_us must be null or a finite"),
        ("spectrum", "fock_cutoff=2.7", "fock_cutoff must be an integer"),
        ("spectrum", "grid.n_steps=-500", "grid.n_steps must be left out"),
        ("spectrum", "grid.n_record=2.5", "grid.n_record must be an integer"),
        ("spectrum", 'convergence_checks="false"', "convergence_checks must be true"),
        ("spectrum", "params.g=true", "params.g must be a finite number"),
        ("spectrum", "seeds=[]", "seeds must be a non-empty list"),
        ("spectrum", 'seeds="ab"', "seeds must be a non-empty list"),
        ("spectrum", "seeds=[11, 11]", "seeds must be a non-empty list of distinct"),
        ("figure3", "gamma_sweep_mhz=[10, 10.0]",
         "gamma_sweep_mhz must be a list of distinct numbers >= 0, got [10, 10.0]"),
        ("figure3", 'gamma_sweep_mhz=[5, "a"]', "gamma_sweep_mhz must be a list of"),
        ("spectrum", "oracle_n=0", "oracle_n must be an integer >= 1"),
        ("spectrum", "n_levels=0", "n_levels must be an integer >= 1"),
        ("validate", "params.gamma=0", "params.gamma must be > 0 for validate"),
    ])
    def test_exits_2_with_message(self, tmp_path, capsys, experiment, override,
                                  message):
        out = str(tmp_path / "out")
        argv = [experiment, *SMALL_RUN, "--override", override, "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err


SRC = os.path.dirname(os.path.dirname(spinamp.__file__))
REPO = os.path.dirname(SRC)


def run_python(args, blas_threads=None, cwd=None):
    """A fresh interpreter with spinamp on its path; OpenBLAS reads its
    thread variable when numpy loads, so each setting needs its own."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True, timeout=300)


def readme_block(heading: str) -> str:
    """The first python code block under a README heading."""
    text = Path(REPO, "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_library_quickstart_runs(self, tmp_path):
        done = run_python(["-c", readme_block("Library quickstart")], cwd=tmp_path)
        printed = done.stdout.split()
        assert len(printed) == 1
        assert math.isfinite(float(printed[0]))


class TestThreadDeterminism:
    def test_figure2_bytes_independent_of_thread_count(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FIG2)
        outputs = []
        for threads in (None, "1", "2"):
            out = str(tmp_path / f"fig2-{threads}.csv")
            run_python(["-m", "spinamp.cli", "figure2", "--config", cfg, "--out", out],
                       blas_threads=threads)
            outputs.append((Path(out).read_bytes(),
                            Path(out + ".meta.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


# Reads the thread count of every loaded OpenBLAS copy after cli.main, with
# scipy's copy loaded before main starts; prints {path: threads} and main's
# exit code. It finds the getters the way the benchmark's invoke.py does.
BLAS_READBACK = """
import ctypes, json, sys
import scipy.linalg
from spinamp import cli
code = cli.main(sys.argv[1:])
names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
         "openblas_get_num_threads64_", "openblas_get_num_threads")
try:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
except OSError:
    paths = []
threads = {}
for path in paths:
    lib = ctypes.CDLL(path)
    for name in names:
        if hasattr(lib, name):
            threads[path] = int(getattr(lib, name)())
            break
print(json.dumps({"exit": code, "threads": threads}))
"""


class TestThreadPolicy:
    def test_main_pins_every_openblas_to_one_thread(self, tmp_path):
        out = str(tmp_path / "fig2.csv")
        res = run_python(["-c", BLAS_READBACK, "figure2", *SMALL_RUN,
                          "--override", "convergence_checks=false", "--out", out],
                         blas_threads="2")
        result = json.loads(res.stdout.strip().splitlines()[-1])
        assert result["exit"] == 0
        threads = result["threads"]
        if not any("numpy" in path for path in threads):
            pytest.skip("no OpenBLAS thread getter found in numpy's libraries")
        assert set(threads.values()) == {1}
        meta = json.loads(Path(out + ".meta.json").read_text(encoding="utf-8"))
        assert meta["threads"] == {"workers": 1, "blas": 1}

    def test_branches_run_serially(self):
        assert _n_workers() == 1
        assert cli._pmap(lambda x: 2 * x, iter([3, 1, 2])) == [6, 2, 4]

    @pytest.mark.parametrize("experiment", ["figure2", "figure3", "sweep", "validate"])
    def test_artifacts_record_threads(self, tmp_path, experiment):
        out = str(tmp_path / "out")
        main([experiment, *SMALL_RUN, "--override", "convergence_checks=false",
              "--out", out])
        path = out if experiment == "validate" else out + ".meta.json"
        artifact = json.loads(Path(path).read_text(encoding="utf-8"))
        assert artifact["threads"] == {"workers": 1, "blas": cli._blas_threads()}
        if experiment == "validate":
            assert len(artifact["checks"]) == 12

    def test_figure2_branch_builds_the_liouvillian_once(self, fig_params, monkeypatch):
        calls = []
        build = dynamics.liouvillian

        def counted(h, ops):
            calls.append(h.dim)
            return build(h, ops)
        monkeypatch.setattr(dynamics, "liouvillian", counted)
        _, grid = cli._run_branch_meta(fig_params, 6, "e", 0.0, 0.005, 10)
        assert calls == [12]
        assert grid.degree > 4  # planned on the norm of that one build


@pytest.mark.parametrize("experiment, overrides, traced", [
    ("figure2", [], {"cli._pmap", "cli._pmap.task", "cli._run_branch_meta"}),
    ("figure3", [], {"cli._pmap", "cli._pmap.task", "cli._run_branch_meta"}),
    # a validate config that passes, so every check's path runs; its
    # timestep_guard is the one caller of omega_max, as planned runs need none
    ("validate", ["fock_cutoff=6", "oracle_n=500"],
     {"cli._check_cutoff", "cli._run_branch_meta", "dynamics.omega_max",
      "oracle.single_excitation_evolve"}),
], ids=["figure2", "figure3", "validate"])
def test_benchmark_hook_traces_a_serial_figure2(tmp_path, experiment, overrides, traced):
    """The benchmark's invoke.py wraps cli, dynamics and oracle names
    (cli._pmap, dynamics.evolve, ...) and reads some of their parameters; a
    rename that breaks it fails here."""
    result, spans = tmp_path / "result.json", tmp_path / "spans.json"
    extra = [arg for item in overrides for arg in ("--override", item)]
    run_python([os.path.join(REPO, "perfbench", "invoke.py"), "run", str(result),
                "--spans", str(spans), "--", experiment, *SMALL_RUN, *extra,
                "--out", str(tmp_path / "out")], cwd=tmp_path)
    measured = json.loads(result.read_text(encoding="utf-8"))
    assert measured["exit"] == 0
    assert measured["pool_workers"] == 1
    names = {span["name"] for span in json.loads(spans.read_text(encoding="utf-8"))}
    assert {"dynamics.evolve", *traced} <= names


class TestHygieneExtrema:
    @pytest.mark.parametrize("experiment", ["figure2", "figure3", "sweep"])
    def test_sidecar_records_extrema(self, tmp_path, experiment):
        out = str(tmp_path / "out.csv")
        assert main([experiment, "--override", "fock_cutoff=6",
                     "--override", "grid.t_end_us=0.01", "--override", "grid.n_record=10",
                     "--override", "gamma_sweep_mhz=[10.0, 25.0]",
                     "--override", "convergence_checks=false", "--out", out]) == 0
        meta = json.loads(Path(out + ".meta.json").read_text(encoding="utf-8"))
        hygiene = meta["hygiene"]
        assert set(hygiene) == {"trace_err_max", "herm_err_max", "min_eig_min"}
        assert 0.0 <= hygiene["trace_err_max"] <= TRACE_TOL
        assert 0.0 <= hygiene["herm_err_max"] <= 1e-9
        assert hygiene["min_eig_min"] >= -POSITIVITY_TOL


def test_cli_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(spinamp.__file__))
    code = "import sys, spinamp.cli; print('scipy.integrate' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
    assert res.stdout.strip() == "False"


class TestPlanChoice:
    def grid(self, fig_params, t_end, n_record, d=16):
        # the grid the production run path chooses, without integrating on it
        h = build_hc(fig_params, d) + build_drive(fig_params, d)
        ops = collapse_ops(fig_params, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "evolve", lambda *args, **kwargs: None)
            _, grid = cli._run_branch_meta(fig_params, d, "e", 0.0, t_end, n_record)
        return grid, TimeGrid.auto(h, 0.0, t_end, n_record, ops)

    # records far denser than the dynamics: a Taylor step spans many records
    # and reads them off its terms, so the plan beats RK4's 4-8 products per
    # record; at d=32 the step buffer caps the records per step
    @pytest.mark.parametrize("d", [16, 32])
    def test_record_dense_shape_takes_a_multi_record_taylor_plan(self, fig_params, d):
        grid, rk = self.grid(fig_params, 0.0025, 1000, d)
        assert grid.degree > 4 and grid.n_steps < grid.n_record
        assert grid.applications < rk.applications
        assert grid.buffer((2 * d) ** 2) * 16 * (2 * d) ** 2 <= dynamics.STEP_BUFFER_BYTES

    def test_step_heavy_shape_takes_the_taylor_plan(self, fig_params):
        grid, rk = self.grid(fig_params, 0.005, 50)
        assert grid.degree > 4
        assert grid.applications < rk.applications

    @pytest.mark.parametrize("n_steps, calls", [(0, {"omega_max": 0, "norm1": 1}),
                                                (400, {"omega_max": 1, "norm1": 0})])
    def test_branch_computes_each_norm_once(self, fig_params, monkeypatch, n_steps,
                                            calls):
        # a planned run computes the 1-norm it plans on and hands it to the
        # guard; a fixed RK4 grid needs only omega_max
        counts = {"omega_max": 0, "norm1": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(dynamics, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(dynamics, name, counted)
        cli._run_branch_meta(fig_params, 6, "e", 0.0, 0.005, 10, n_steps=n_steps)
        assert counts == calls

    def test_step_halving_of_a_plan_whose_steps_span_records(self, fig_params,
                                                              monkeypatch):
        base, grid = cli._run_branch_meta(fig_params, 6, "e", 0.0, 0.005, 50)
        assert 50 % grid.n_steps and 50 % (2 * grid.n_steps)  # records inside steps
        reruns = []
        branch = cli._run_branch_meta

        def recorded(*args, **kwargs):
            result = branch(*args, **kwargs)
            reruns.append(result[1])
            return result
        monkeypatch.setattr(cli, "_run_branch_meta", recorded)
        dev = cli._check_timestep(fig_params, 6, base, grid)
        [half] = reruns
        assert (half.n_steps, half.n_record, half.degree) == (2 * grid.n_steps, 50,
                                                              grid.degree)
        assert 0.0 < dev < cli.TIMESTEP_TOL

    # the benchmark shapes, the default figure 2 and figure 3 windows at the
    # production cutoff and its doubling, for every swept gamma
    @pytest.mark.parametrize("t_end, n_record", [(0.005, 50), (0.0025, 1000),
                                                 (0.01, 200), (0.5, 500), (1.0, 500)])
    @pytest.mark.parametrize("d", [16, 32])
    def test_no_plan_buffer_exceeds_the_constant(self, fig_params, t_end, n_record, d):
        for gamma in (5.0, 10.0, 12.5, 25.0, 50.0):
            p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0,
                                      gamma=gamma)
            grid, _ = self.grid(p, t_end, n_record, d)
            assert grid.buffer((2 * d) ** 2) * 16 * (2 * d) ** 2 \
                <= dynamics.STEP_BUFFER_BYTES
            if (t_end, n_record, d, gamma) == (0.5, 500, 16, 12.5):  # default figure2
                assert grid.applications <= 25_000

    @pytest.mark.parametrize("seed", [11, 13, 17])
    def test_no_oracle_plan_buffer_exceeds_the_constant(self, fig_params, seed):
        p = fig_params
        sample = sample_frequencies(2000, p.omega_bar, p.gamma, seed,
                                    g_collective=p.g_collective)
        grid = TimeGrid.taylor(arrowhead_norm(sample, p.delta), 0.0, 3.0 / p.gamma, 400,
                               size=sample.n + 1)
        assert grid.buffer(sample.n + 1) * 16 * (sample.n + 1) <= dynamics.STEP_BUFFER_BYTES
        assert grid.n_steps < grid.n_record  # records inside steps


class TestPlanTelemetry:
    ARGV = ["--override", "fock_cutoff=6", "--override", "grid.t_end_us=0.01",
            "--override", "grid.n_record=10", "--override", "gamma_sweep_mhz=[10.0, 25.0]",
            "--override", "convergence_checks=false"]

    @pytest.mark.parametrize("experiment", ["figure2", "figure3", "sweep"])
    def test_sidecar_records_the_plan(self, tmp_path, experiment):
        out = str(tmp_path / "out.csv")
        assert main([experiment, *self.ARGV, "--out", out]) == 0
        meta = json.loads(Path(out + ".meta.json").read_text(encoding="utf-8"))
        assert meta["generator_dim"] == (2 * 6) ** 2
        keys = ("degree", "n_steps", "dt_us", "applications", "step_buffer")
        if experiment == "figure2":
            per_run = [tuple(meta[key] for key in keys)]
            assert "record_every" not in meta
        else:
            assert all(set(meta[key]) == {"10.0", "25.0"} for key in keys)
            per_run = [tuple(meta[key][g] for key in keys) for g in meta["degree"]]
        # two branches (excited and ground) per written run
        assert meta["generator_applications"] == sum(2 * a for _, _, _, a, _ in per_run)
        # the state vectors the step buffer held on each run's grid: at d=6
        # the terms fit the buffer, so a step with records inside keeps them
        for m, n, dt, applications, held in per_run:
            grid = TimeGrid(0.0, 0.01, n, degree=m, n_record=10)
            assert dt == grid.dt and applications == m * n
            assert held == grid.buffer(meta["generator_dim"])
            assert held == (m + 1 if n % 10 else 0)
            assert held * 16 * meta["generator_dim"] <= dynamics.STEP_BUFFER_BYTES

    @pytest.mark.parametrize("experiment, gammas", [("figure2", {"12.5"}),
                                                    ("figure3", {"10.0", "25.0"})])
    def test_sidecar_records_the_cutoff_check_per_gamma(self, tmp_path, experiment,
                                                        gammas):
        out = str(tmp_path / "out.csv")
        assert main([experiment, *self.ARGV, "--override", "convergence_checks=true",
                     "--out", out]) == 0
        meta = json.loads(Path(out + ".meta.json").read_text(encoding="utf-8"))
        per_gamma = meta["cutoff_convergence_by_gamma"]
        assert set(per_gamma) == gammas
        assert set(meta["checks"]) == {"cutoff_convergence", "timestep_convergence"}
        assert meta["checks"]["cutoff_convergence"] == max(per_gamma.values())

    def test_validate_report_records_the_plans(self, tmp_path):
        cfg = write_config(tmp_path, {"fock_cutoff": 8, "seeds": [11],
                                      "grid": {"t_end_us": 0.1, "n_record": 100}})
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert set(report["plans"]) == {"conservation", "short_window",
                                        "analytic_steady_e", "analytic_steady_g",
                                        "oracle_seed_11"}
        for plan in report["plans"].values():
            assert set(plan) == {"degree", "n_steps", "dt_us", "applications",
                                 "step_buffer"}
            assert plan["applications"] == plan["degree"] * plan["n_steps"]
        # 400 oracle records over fewer steps, read off the steps' terms
        oracle_plan = report["plans"]["oracle_seed_11"]
        assert oracle_plan["n_steps"] < 400 and oracle_plan["step_buffer"] > 0
        assert oracle_plan["step_buffer"] * 16 * 2001 <= dynamics.STEP_BUFFER_BYTES
        assert len(report["checks"]) == 12

    def test_validate_report_records_the_oracle_per_seed(self, tmp_path):
        cfg = write_config(tmp_path, {"fock_cutoff": 8, "seeds": [11, 13],
                                      "grid": {"t_end_us": 0.1, "n_record": 100}})
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        checks = {c["name"]: c["value"] for c in report["checks"]}
        per_seed = report["oracle"]
        assert set(per_seed) == {"11", "13"}
        for seed, entry in per_seed.items():
            assert set(entry) == {"envelope_deviation", "norm_drift", "plan_norm",
                                  "row_sum"}
            p = resolve_config(load_config(cfg), "validate").params
            sample = sample_frequencies(2000, p.omega_bar, p.gamma, int(seed),
                                        g_collective=p.g_collective)
            assert entry["plan_norm"] == arrowhead_norm(sample, p.delta)
            assert entry["row_sum"] == arrowhead_omega_max(sample, p.delta)
            assert entry["plan_norm"] < entry["row_sum"] / 5
            assert 0.0 <= entry["norm_drift"] < 1e-12
            plan = report["plans"][f"oracle_seed_{seed}"]
            assert plan["applications"] == TimeGrid.taylor(
                entry["plan_norm"], 0.0, 3.0 / p.gamma, 400, size=2001).applications
        assert checks["oracle_traceout"] == max(e["envelope_deviation"]
                                                for e in per_seed.values())
        assert checks["oracle_norm"] == max(e["norm_drift"] for e in per_seed.values())
        assert len(report["checks"]) == 12


class TestPathErrors:
    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["spectrum", "--config", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read config")

    def test_missing_output_directory_exits_2_before_any_run(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_run(*_):
            raise AssertionError("ran before the output path was checked")
        monkeypatch.setattr(cli, "run_figure2", no_run)
        out = str(tmp_path / "missing" / "f.csv")
        assert main(["figure2", *SMALL_RUN, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: output directory does not exist")

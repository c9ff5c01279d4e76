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
from spinamp.hilbert import DensityMatrix, Operator, SpaceDims
from spinamp.model import SystemParams, build_drive, build_hc, collapse_ops
from spinamp.oracle import arrowhead_norm, sample_frequencies

from conftest import rk4_steps

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

    @pytest.mark.parametrize("cfg, kind", [([], "list"), (None, "NoneType"), (5, "int")])
    def test_resolve_refuses_a_config_that_is_not_a_dict(self, cfg, kind):
        with pytest.raises(ConfigError, match=f"config must be a dict of settings, got {kind}"):
            resolve_config(cfg, "figure2")

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


def _leaf_paths(cfg: dict, path: str = "") -> list[str]:
    """The dot paths of the values of a nested config dict that are not dicts."""
    paths = []
    for key, value in cfg.items():
        here = f"{path}.{key}" if path else key
        paths += _leaf_paths(value, here) if isinstance(value, dict) else [here]
    return paths


class TestConfigSchema:
    @pytest.mark.parametrize("path", list(cli.CONFIG_SCHEMA))
    def test_every_default_passes_its_own_test(self, path):
        default, test, _ = cli.CONFIG_SCHEMA[path]
        assert test(default)

    def test_default_config_nests_the_schema(self):
        assert _leaf_paths(DEFAULT_CONFIG) == ["experiment", *cli.CONFIG_SCHEMA]
        for path, (default, _, _) in cli.CONFIG_SCHEMA.items():
            section, _, key = path.rpartition(".")
            assert (DEFAULT_CONFIG[section][key] if section else DEFAULT_CONFIG[key]) == default


class TestOneMergeWalk:
    # an override and the config file that holds the same nested key take the
    # same walk, so they resolve alike and are refused alike
    @pytest.mark.parametrize("override, payload", [
        ('params={"gamma": 10}', {"params": {"gamma": 10}}),
        ("grid.n_record=7", {"grid": {"n_record": 7}}),
    ])
    def test_same_resolved_config(self, tmp_path, override, payload):
        by_override = resolve_config(apply_overrides(load_config(None), [override]), "figure2")
        by_file = resolve_config(load_config(write_config(tmp_path, payload)), "figure2")
        assert by_override.resolved == by_file.resolved

    @pytest.mark.parametrize("override, payload, message", [
        ("grid.n_steps=1", {"grid": {"n_steps": 1}}, "grid.n_steps must be left out"),
        ("params=5", {"params": 5}, "params must be an object"),
    ])
    def test_same_refusal(self, tmp_path, override, payload, message):
        with pytest.raises(ConfigError) as by_override:
            apply_overrides(load_config(None), [override])
        with pytest.raises(ConfigError) as by_file:
            load_config(write_config(tmp_path, payload))
        assert str(by_override.value) == str(by_file.value)
        assert str(by_override.value).startswith(message)


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

    # both curves have two maxima, but all of a's come before all of b's: the
    # envelopes share no time, so the curves are compared pointwise
    def test_envelope_deviation_disjoint_envelopes(self):
        t = np.linspace(0, 1, 21)
        a, b = np.zeros(21), np.zeros(21)
        a[[2, 4]] = 1.0, 0.5
        b[[12, 16]] = 2.0, 1.0
        assert envelope_deviation(t, a, b) == 1.0


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
    @staticmethod
    def check_levels(tmp_path, g_mhz):
        cfg = write_config(tmp_path, {"fock_cutoff": 12, "n_levels": 8,
                                      "params": {"g": g_mhz}})
        out = str(tmp_path / "spec.csv")
        assert main(["spectrum", "--config", cfg, "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (8, 7)
        np.testing.assert_array_equal(rows[:, 0], np.arange(8))
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert np.all(rows[:, 6] < 1e-9)

    def test_levels_match_diagonalization(self, tmp_path):
        self.check_levels(tmp_path, 75.0)

    def test_weak_coupling_levels_match_diagonalization(self, tmp_path):
        # at 1 kHz coupling, levels of neighbouring excitation blocks lie so
        # close that one full diagonalisation mixes their eigenvectors; each
        # block is diagonalised on its own
        self.check_levels(tmp_path, 0.001)

    def test_doublets_refuse_a_non_hermitian_h(self, fig_params):
        h = build_hc(fig_params, 6)
        skew = h + Operator(h.dims, np.triu(np.ones(h.mat.shape), 1))
        with pytest.raises(ValueError, match="requires a Hermitian operator"):
            cli.numeric_doublet(skew, 6, 4)

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

    def test_default_config_passes(self, tmp_path):
        out = str(tmp_path / "report.json")
        assert main(["validate", "--out", out]) == 0
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert report["passed"] is True
        assert len(report["checks"]) == 12
        assert all(c["passed"] for c in report["checks"])
        # the model's real generator is its Liouvillian on the coordinates,
        # to rounding
        [herm] = [c["value"] for c in report["checks"] if c["name"] == "hermiticity"]
        assert herm <= 1e-14

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
        ref = dynamics.evolve(dynamics.Lindblad.build(build_hc(p, d), collapse_ops(p, d)),
                              DensityMatrix.basis(SpaceDims((2, d)), 1, 0), grid,
                              [num, qubit], gamma=p.gamma)
        for name in ("collective_n", "qubit_excited", "subradiant_n", "trace_err",
                     "min_eig"):
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
        ("spectrum", "params.drive=1e308", "omega_d must be finite, got inf"),
    ])
    def test_exits_2_with_message(self, tmp_path, capsys, experiment, override,
                                  message):
        out = str(tmp_path / "out")
        argv = [experiment, *SMALL_RUN, "--override", override, "--out", out]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert message in err

    # zero detuning under a numeric drive (a matched drive needs a detuning
    # under every command): figure2's and validate's closed forms divide by
    # it, so both refuse the config; figure3, sweep and spectrum run at it
    @pytest.mark.parametrize("experiment, code", [
        ("figure2", 2), ("validate", 2), ("figure3", 0), ("sweep", 0), ("spectrum", 0)])
    def test_zero_detuning_with_a_numeric_drive(self, tmp_path, capsys, experiment, code):
        argv = [experiment, *SMALL_RUN, "--override", "params.nu_t=0",
                "--override", "params.drive=10", "--out", str(tmp_path / "out")]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert err == (f"config error: params.nu_t must differ from params.nu_bar "
                           f"for {experiment}: its closed forms divide by the "
                           f"qubit-ensemble detuning\n")

    # finite settings whose generator norm times window overflows: no step
    # count can be planned
    @pytest.mark.parametrize("override", ["params.gamma=1e300", "params.lambda_d=1e300",
                                          "grid.t_start_us=-1e308"])
    @pytest.mark.parametrize("experiment", ["figure2", "validate"])
    def test_overflowing_window_exits_1(self, tmp_path, capsys, experiment, override):
        out = str(tmp_path / "out")
        argv = [experiment, *SMALL_RUN, "--override", override, "--out", out]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("validation failure: ") and "is not finite" in err
        assert "Traceback" not in err

    # a finite config whose plan would take about 1e102 generator products
    # (50 x 2.0e100 steps), or a 1e304 or 3e304 us window whose norm times
    # span is still finite (4.3e307 and 1.3e308 at d=4), is refused before it
    # steps, in a fresh interpreter under a timeout so that a regression
    # cannot hang the suite
    @pytest.mark.parametrize("experiment, override", [
        ("figure2", "params.gamma=1e100"), ("validate", "params.gamma=1e100"),
        ("figure2", "grid.t_end_us=1e304"), ("validate", "grid.t_end_us=1e304"),
        ("figure2", "grid.t_end_us=3e304"), ("validate", "grid.t_end_us=3e304"),
    ], ids=["figure2", "validate", "figure2-1e304", "validate-1e304", "figure2-3e304",
            "validate-3e304"])
    def test_astronomical_plan_exits_1(self, tmp_path, experiment, override):
        args = ["-m", "spinamp.cli", experiment, "--override", override,
                "--override", "fock_cutoff=4", "--out", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": SRC}
        done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith("validation failure: ")
        assert "needs more than PLAN_MAX_PRODUCTS" in done.stderr
        assert "Traceback" not in done.stderr

    # couplings so weak that the sampled spins' sum of squares underflows
    # (g = 1e-300 MHz) or comes near it: validate reports all 12 checks and
    # exits on them, without a traceback
    @pytest.mark.parametrize("g", ["1e-150", "1e-300"])
    def test_vanishing_coupling_reports_every_check(self, tmp_path, capsys, g):
        out = str(tmp_path / "report.json")
        argv = ["validate", *SMALL_RUN, "--override", f"params.g={g}", "--out", out]
        code = main(argv)
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert len(report["checks"]) == 12
        assert code == (0 if all(c["passed"] for c in report["checks"]) else 1)
        assert "Traceback" not in capsys.readouterr().err

    # at both couplings the reduced model's collective amplitude underflows
    # to 0 at every record (at 1e-150 the oracle's peaks at 4.8e-153), so no
    # envelope deviation can be measured: the check fails with no value
    # instead of reading 0 (1e-300) or about 5e147 (1e-150)
    @pytest.mark.parametrize("g", ["1e-150", "1e-300"])
    def test_vanishing_coupling_fails_the_traceout_check(self, tmp_path, g):
        out = str(tmp_path / "report.json")
        assert main(["validate", *SMALL_RUN, "--override", f"params.g={g}",
                     "--out", out]) == 1
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        [check] = [c for c in report["checks"] if c["name"] == "oracle_traceout"]
        assert check["value"] is None and check["passed"] is False
        assert "no positive normal value" in check["error"]
        assert report["oracle"]["11"]["envelope_deviation"] is None
        assert report["passed"] is False


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


def readme_block(heading: str, language: str = "python") -> str:
    """The first code block fenced as `language` under a README heading."""
    text = Path(REPO, "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


class TestReadme:
    def test_library_quickstart_runs(self, tmp_path):
        done = run_python(["-c", readme_block("Library quickstart")], cwd=tmp_path)
        printed = done.stdout.split()
        assert len(printed) == 1
        assert math.isfinite(float(printed[0]))

    def test_config_keys_block_lists_the_defaults(self):
        # the README's copy of the config keys and their defaults
        block = json.loads(readme_block("CLI", "jsonc"))
        assert block == {k: v for k, v in DEFAULT_CONFIG.items() if k != "experiment"}


class TestThreadDeterminism:
    @staticmethod
    def outputs(tmp_path, argv, suffixes):
        """The bytes of each output file, for BLAS thread settings None, 1 and 2."""
        outputs = []
        for threads in (None, "1", "2"):
            out = str(tmp_path / f"out-{threads}")
            run_python(["-m", "spinamp.cli", *argv, "--out", out], blas_threads=threads)
            outputs.append([Path(out + suffix).read_bytes() for suffix in suffixes])
        return outputs

    def test_figure2_bytes_independent_of_thread_count(self, tmp_path):
        cfg = write_config(tmp_path, FAST_FIG2)
        outputs = self.outputs(tmp_path, ["figure2", "--config", cfg], ["", ".meta.json"])
        assert outputs[0] == outputs[1] == outputs[2]

    def test_validate_report_independent_of_thread_count(self, tmp_path):
        # the oracle's and the Lindblad runs' early stops read no BLAS result
        outputs = self.outputs(tmp_path, ["validate", *PASSING_RUN], [""])
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


# Counts this process's threads after cli.main, with only numpy's OpenBLAS
# loaded, then runs one BLAS product; prints main's exit code, whether a
# loaded OpenBLAS exports blas_thread_shutdown_, the thread count and
# whether the product is right.
BLAS_WORKERS = """
import ctypes, json, os, sys
import numpy as np
from spinamp import cli
code = cli.main(sys.argv[1:])
tasks = len(os.listdir("/proc/self/task"))
with open("/proc/self/maps", encoding="utf-8") as fh:
    paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
m = 2.0 * np.eye(300)
print(json.dumps({"exit": code, "tasks": tasks, "blas_ok": bool((m @ m)[0, 0] == 4.0),
                  "shutdown": any(hasattr(ctypes.CDLL(p), "blas_thread_shutdown_")
                                  for p in paths)}))
"""


class TestThreadPolicy:
    def test_main_shuts_down_the_idle_openblas_workers(self, tmp_path):
        # OpenBLAS starts its workers when numpy loads; with two threads one
        # worker would be left to spin next to main
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads in")
        res = run_python(["-c", BLAS_WORKERS, "figure2", *SMALL_RUN,
                          "--override", "convergence_checks=false",
                          "--out", str(tmp_path / "fig2.csv")], blas_threads="2")
        result = json.loads(res.stdout.strip().splitlines()[-1])
        if not result["shutdown"]:
            pytest.skip("no OpenBLAS exports blas_thread_shutdown_")
        assert result == {"exit": 0, "tasks": 1, "blas_ok": True, "shutdown": True}

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
        # planned on the norm of that one build
        lv = build(build_hc(fig_params, 6) + build_drive(fig_params, 6),
                   collapse_ops(fig_params, 6))
        assert grid == TimeGrid.taylor(dynamics.norm_bound(lv), 0.0, 0.005, 10)


# a small config on which validate passes, so every check's path runs
PASSING_RUN = [*SMALL_RUN, "--override", "fock_cutoff=6", "--override", "oracle_n=500"]


# a window so short (norm * window <= theta_5) that the fewest products
# over all degrees are one step of the lowest degree, 5
TINY_WINDOW = ["--override", "grid.t_end_us=1e-8"]


@pytest.mark.parametrize("experiment, window", [
    ("figure2", []), ("figure3", []), ("sweep", []), ("spectrum", []), ("validate", []),
    ("validate", TINY_WINDOW)],
    ids=["figure2", "figure3", "sweep", "spectrum", "validate", "validate-tiny_window"])
def test_no_cli_run_sizes_an_rk4_grid(tmp_path, monkeypatch, experiment, window):
    """Every run plans on TimeGrid.taylor from the norm it has built, and its
    guard reads that norm, so no subcommand calls TimeGrid.auto, which
    builds a Liouvillian of its own, or omega_max, the full model's norm;
    the benchmark's hooks still wrap both names."""
    def unused(*args, **kwargs):
        raise AssertionError("a CLI run called TimeGrid.auto or omega_max")
    monkeypatch.setattr(dynamics.TimeGrid, "auto", classmethod(unused))
    monkeypatch.setattr(dynamics, "omega_max", unused)
    assert main([experiment, *PASSING_RUN, *window, "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("experiment", ["figure2", "figure3", "sweep", "validate"])
def test_every_cli_run_applies_at_most_its_plan(tmp_path, monkeypatch, experiment):
    """Each run's steps stop early, the Lindblad runs' on the infinity norm
    and the oracle's on the 2-norm, so no run applies more than
    grid.applications, and each kind of run applies fewer in all."""
    runs = []
    stepper = dynamics.taylor_steps

    def counted(rhs, y0, grid, *args, **kwargs):
        products = stepper(rhs, y0, grid, *args, **kwargs)
        runs.append((np.iscomplexobj(y0), products, grid.applications))
        return products
    monkeypatch.setattr(dynamics, "taylor_steps", counted)
    assert main([experiment, *PASSING_RUN, "--out", str(tmp_path / "out")]) == 0
    for kind in (False, True) if experiment == "validate" else (False,):
        counts = [(products, cap) for oracle, products, cap in runs if oracle == kind]
        assert counts and all(0 < products <= cap for products, cap in counts)
        assert sum(products for products, _ in counts) < sum(cap for _, cap in counts)


def test_validate_closed_forms_decay_at_gamma_plus_gamma_s(tmp_path):
    """The frozen-qubit runs decay at gamma + gamma_s (collapse_ops adds
    sqrt(gamma_s) A), and so do the closed forms they are checked against."""
    out = tmp_path / "report.json"
    assert main(["validate", *PASSING_RUN, "--override", "params.gamma_s=20",
                 "--out", str(out)]) == 0
    checks = {c["name"]: c["value"] for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    # the 6-level cutoff leaves about 1e-9; at the rate gamma alone they read
    # 0.28 and 0.004
    assert checks["analytic_steady_e"] < 1e-8 and checks["analytic_steady_g"] < 1e-8


def test_validate_closed_forms_follow_the_configured_drive(tmp_path):
    """The frozen-qubit runs detune the mode by wbar - w_d +- G^2/Delta at the
    configured drive, and so do the closed forms they are checked against."""
    out = tmp_path / "report.json"
    assert main(["validate", *PASSING_RUN, "--override", "params.drive=0",
                 "--out", str(out)]) == 0
    checks = {c["name"]: c["value"] for c in
              json.loads(out.read_text(encoding="utf-8"))["checks"]}
    # under the matched drive's closed forms they read 0.275 and 0.042
    assert checks["analytic_steady_e"] < 1e-8 and checks["analytic_steady_g"] < 1e-8


def test_hermiticity_fails_on_a_sign_slipped_generator(tmp_path, monkeypatch, capsys):
    """R built with the sign of Im L slipped is the generator of H -> -H: its
    runs stay physical and every other check passes, but it is not L on the
    coordinates, so hermiticity fails and validate exits 1."""
    real_generator = dynamics.real_generator

    def slipped(lv):
        return real_generator(dynamics.CsrMatrix(lv.data.conj(), lv.indices, lv.indptr,
                                                 lv.shape))
    monkeypatch.setattr(dynamics, "real_generator", slipped)
    out = tmp_path / "report.json"
    assert main(["validate", *PASSING_RUN, "--out", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text(encoding="utf-8"))["checks"]}
    assert checks["hermiticity"]["value"] > dynamics.HERMITICITY_TOL
    assert [name for name, c in checks.items() if not c["passed"]] == ["hermiticity"]
    assert "FAIL hermiticity" in capsys.readouterr().out


# the tiny window plans every Lindblad run at degree 5, the lowest a plan
# takes, one step each
@pytest.mark.parametrize("window", [[], TINY_WINDOW], ids=["small", "tiny_window"])
def test_timestep_guard_reads_the_short_window_plan(tmp_path, window):
    """timestep_guard is the short-window run's dt * norm over theta_m,
    scaled by STABILITY_LIMIT: it passes exactly when dt * norm <= theta_m,
    the bound that run's plan is sized on."""
    argv = [*PASSING_RUN, *window]
    out = tmp_path / "report.json"
    assert main(["validate", *argv, "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    rc = resolve_config(apply_overrides(load_config(None), argv[1::2]), "validate")
    plan = report["plans"]["short_window"]
    norm = cli._model(rc.params, rc.fock_cutoff).norm
    expected = (dynamics.STABILITY_LIMIT * (plan["dt_us"] * norm)
                / dynamics.TAYLOR_THETA[plan["degree"]])
    guard = report["checks"][0]
    assert guard["name"] == "timestep_guard"
    assert guard["value"] == expected and expected <= guard["threshold"] == 0.25
    assert (plan["degree"] == 5) == bool(window)


@pytest.mark.parametrize("experiment, overrides, traced", [
    ("figure2", [], {"cli._pmap", "cli._pmap.task", "cli._run_branch_meta"}),
    ("figure3", [], {"cli._pmap", "cli._pmap.task", "cli._run_branch_meta"}),
    # a validate config that passes, so every check's path runs; no run
    # calls TimeGrid.auto or omega_max, so their wrappers see no call, but a
    # rename of either still fails the hook's install
    ("validate", ["fock_cutoff=6", "oracle_n=500"],
     {"cli._check_cutoff", "cli._run_branch_meta", "oracle.single_excitation_evolve"}),
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
        assert set(hygiene) == {"trace_err_max", "min_eig_min"}
        assert 0.0 <= hygiene["trace_err_max"] <= TRACE_TOL
        assert hygiene["min_eig_min"] >= -POSITIVITY_TOL


class TestCertifiedReruns:
    """Only the runs whose min_eig an artifact reads measure it: the records
    of the runs written to the CSV and of validate's conservation run. The
    other runs certify positivity (a Cholesky per block), and the step
    halving reruns the model its base run took."""

    @staticmethod
    def spy(monkeypatch):
        """Count the matrices numpy's eigvalsh takes in blocks of records,
        and keep each evolve call's positivity, trajectory and state
        dimension and each Liouvillian build's dimension."""
        seen = {"eigvalsh": 0, "runs": [], "builds": []}
        eigvalsh, evolve, build = np.linalg.eigvalsh, dynamics.evolve, dynamics.liouvillian

        def counted_eigvalsh(a, *args, **kwargs):
            if np.ndim(a) == 3:  # evolve's record blocks (a single matrix is a state check)
                seen["eigvalsh"] += len(a)
            return eigvalsh(a, *args, **kwargs)

        def recorded_evolve(model, *args, positivity="measure", **kwargs):
            traj = evolve(model, *args, positivity=positivity, **kwargs)
            seen["runs"].append((positivity, traj, model.h.dim))
            return traj

        def counted_build(h, ops):
            seen["builds"].append(h.dim)
            return build(h, ops)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_eigvalsh)
        monkeypatch.setattr(dynamics, "evolve", recorded_evolve)
        monkeypatch.setattr(dynamics, "liouvillian", counted_build)
        return seen

    def test_figure2_measures_only_the_production_records(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch)
        out = str(tmp_path / "out.csv")
        assert main(["figure2", "--override", "fock_cutoff=6",
                     "--override", "grid.t_end_us=0.005", "--override", "grid.n_record=10",
                     "--override", "convergence_checks=true", "--out", out]) == 0
        measured = [traj for how, traj, _ in seen["runs"] if how == "measure"]
        reruns = [(traj, dim) for how, traj, dim in seen["runs"] if how == "certify"]
        # the two production branches; two cutoff-doubling reruns at d=12 and
        # the step-halving rerun at d=6
        assert len(measured) == 2 and all(t.min_eig.shape == (11,) for t in measured)
        assert sorted(dim for _, dim in reruns) == [12, 24, 24]
        assert all(traj.min_eig is None for traj, _ in reruns)
        assert seen["eigvalsh"] == 2 * 11
        # one d=6 model for the branches and the step halving, one d=12 model
        assert seen["builds"] == [12, 24]
        meta = json.loads(Path(out + ".meta.json").read_text(encoding="utf-8"))
        assert meta["hygiene"]["min_eig_min"] == min(float(t.min_eig.min())
                                                     for t in measured)

    def test_validate_measures_only_the_conservation_run(self, tmp_path, monkeypatch):
        seen = self.spy(monkeypatch)
        out = str(tmp_path / "report.json")
        assert main(["validate", *SMALL_RUN, "--override", "fock_cutoff=6",
                     "--override", "oracle_n=500", "--out", out]) == 0
        [(conservation, dim)] = [(traj, dim) for how, traj, dim in seen["runs"]
                                 if how == "measure"]
        assert dim == 12 and seen["eigvalsh"] == len(conservation.min_eig) == 11
        # the two frozen-qubit steady runs, the short window and its step
        # halving, and its cutoff doubling
        certified = [dim for how, _, dim in seen["runs"] if how == "certify"]
        assert sorted(certified) == [6, 6, 12, 12, 24]
        # the step halving reruns the short window's model: the d=6 builds
        # are the conservation run's, the short window's and its rebuild for
        # the hermiticity check
        assert sorted(seen["builds"]) == [6, 6, 12, 12, 12, 24]
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        [positivity] = [c for c in report["checks"] if c["name"] == "positivity"]
        assert positivity["value"] == -float(conservation.min_eig.min())


# Imports spinamp.cli and prints the scipy modules it loaded; with the
# argument "then scipy.sparse", imports scipy.sparse after it and prints the
# name of scipy's own _sparsetools module and whether scipy's product and
# dynamics.csr_matvec give the same bits.
IMPORT_GRAPH = """
import json, sys
import spinamp.cli
result = {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
          "numpy.random": "numpy.random" in sys.modules}
if sys.argv[1:] == ["then scipy.sparse"]:
    import numpy as np
    import scipy.sparse
    from scipy.sparse import _sparsetools
    from spinamp import dynamics
    a = scipy.sparse.random_array((40, 40), density=0.2, format="csr", rng=1)
    x = np.random.default_rng(2).normal(size=40)
    out = np.zeros(40)
    dynamics.csr_matvec(40, 40, a.indptr, a.indices, a.data, x, out)
    result["sparsetools"] = _sparsetools.__name__
    result["same_bits"] = bool(np.array_equal(a @ x, out))
print(json.dumps(result))
"""


@pytest.mark.parametrize("case", ["import alone", "then scipy.sparse"])
def test_cli_import_leaves_out_scipy_integrate(case):
    # no scipy module at all: dynamics loads scipy's sparse kernels from
    # their extension file, which a later import of scipy.sparse must not
    # disturb; nor numpy.random, which the oracle's sampling loads when it
    # runs (its import costs 9-22 ms and about 5.4 MB of peak RSS)
    src = os.path.dirname(os.path.dirname(spinamp.__file__))
    res = subprocess.run([sys.executable, "-c", IMPORT_GRAPH, case], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
                         timeout=120)
    result = json.loads(res.stdout)
    assert result.pop("scipy") == []
    assert result.pop("numpy.random") is False
    if case == "then scipy.sparse":
        assert result == {"sparsetools": "scipy.sparse._sparsetools", "same_bits": True}


class TestPlanChoice:
    def grid(self, fig_params, t_end, n_record, d=16):
        # the grid the production run path chooses, without integrating on
        # it, and the products of the tests' RK4 reference over its records
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "evolve", lambda *args, **kwargs: None)
            _, grid = cli._run_branch_meta(fig_params, d, "e", 0.0, t_end, n_record)
        return grid, 4 * rk4_steps(cli._model(fig_params, d).norm, t_end, n_record)

    # records far denser than the dynamics: a Taylor step spans many records
    # and reads them off its kept terms, so the plan beats RK4's 4-8 products
    # per record; at d=32 too the plan is the plain fewest products
    @pytest.mark.parametrize("d", [16, 32])
    def test_record_dense_shape_takes_a_multi_record_taylor_plan(self, fig_params, d):
        grid, rk4_products = self.grid(fig_params, 0.0025, 1000, d)
        assert grid.n_steps < grid.n_record
        assert grid.applications < rk4_products
        assert (grid.degree, grid.n_steps) == {16: (45, 3), 32: (45, 4)}[d]
        assert grid.buffer == grid.degree + 1

    def test_step_heavy_shape_takes_the_taylor_plan(self, fig_params):
        grid, rk4_products = self.grid(fig_params, 0.005, 50)
        assert grid.applications < rk4_products

    @pytest.mark.parametrize("n_steps, calls", [(0, {"omega_max": 0, "norm_bound": 1}),
                                                (400, {"omega_max": 0, "norm_bound": 1})])
    def test_branch_computes_each_norm_once(self, fig_params, monkeypatch, n_steps,
                                            calls):
        # a run computes the 2-norm bound it plans on and hands it to the
        # guard; a rerun with a step count set plans too, for its degree
        counts = {"omega_max": 0, "norm_bound": 0}
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(dynamics, name)):
                counts[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(dynamics, name, counted)
        cli._run_branch_meta(fig_params, 6, "e", 0.0, 0.005, 10, n_steps=n_steps)
        assert counts == calls

    def test_step_halving_of_a_plan_whose_steps_span_records(self, fig_params,
                                                              monkeypatch):
        model = cli._model(fig_params, 6)
        base, grid = cli._run_branch_meta(fig_params, 6, "e", 0.0, 0.005, 50, model=model)
        assert 50 % grid.n_steps and 50 % (2 * grid.n_steps)  # records inside steps
        reruns = []
        branch = cli._run_branch_meta

        def recorded(*args, **kwargs):
            result = branch(*args, **kwargs)
            reruns.append(result)
            return result
        monkeypatch.setattr(cli, "_run_branch_meta", recorded)
        dev, plan = cli._check_timestep(fig_params, 6, base, grid, model)
        [(traj, half)] = reruns
        assert (half.n_steps, half.n_record, half.degree) == (2 * grid.n_steps, 50,
                                                              grid.degree)
        assert 0.0 < dev < cli.TIMESTEP_TOL
        assert plan == cli._plan(half, traj)
        assert 0 < plan["products"] == traj.products <= half.applications

    # the benchmark shapes, the default figure 2 and figure 3 windows at the
    # production cutoff and its doubling, for every swept gamma: the step
    # buffer is the degree + 1 terms where a record falls inside a step,
    # else empty
    @pytest.mark.parametrize("t_end, n_record", [(0.005, 50), (0.0025, 1000),
                                                 (0.01, 200), (0.5, 500), (1.0, 500)])
    @pytest.mark.parametrize("d", [16, 32])
    def test_no_plan_buffer_exceeds_the_constant(self, fig_params, t_end, n_record, d):
        for gamma in (5.0, 10.0, 12.5, 25.0, 50.0):
            p = SystemParams.from_mhz(nu_t=412.5, nu_bar=0.0, g=75.0, lambda_d=40.0,
                                      gamma=gamma)
            grid, _ = self.grid(p, t_end, n_record, d)
            inside = grid.n_steps % n_record != 0
            assert cli._plan(grid)["step_buffer"] == (grid.degree + 1 if inside else 0)
            if (t_end, n_record, d, gamma) == (0.5, 500, 16, 12.5):  # default figure2
                assert grid.applications <= 25_000

    @pytest.mark.parametrize("seed", [11, 13, 17])
    def test_no_oracle_plan_buffer_exceeds_the_constant(self, fig_params, seed):
        p = fig_params
        sample = sample_frequencies(2000, p.omega_bar, p.gamma, seed,
                                    g_collective=p.g_collective)
        grid = TimeGrid.taylor(arrowhead_norm(sample, p.delta), 0.0, 3.0 / p.gamma, 400)
        assert grid.n_steps < grid.n_record  # records inside steps
        assert cli._plan(grid)["step_buffer"] == grid.degree + 1


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
        keys = ("degree", "n_steps", "dt_us", "applications", "step_buffer", "products")
        if experiment == "figure2":
            per_run = [tuple(meta[key] for key in keys)]
            assert "record_every" not in meta
        else:
            assert all(set(meta[key]) == {"10.0", "25.0"} for key in keys)
            per_run = [tuple(meta[key][g] for key in keys) for g in meta["degree"]]
        # the products the two branches (excited and ground) of each written
        # run applied, at most the plan's cap on each
        assert meta["generator_applications"] == sum(run[5] for run in per_run)
        assert meta["generator_applications"] <= sum(2 * run[3] for run in per_run)
        # the state vectors the step buffer held on each run's grid: a step
        # with records inside keeps its terms
        for m, n, dt, applications, held, _ in per_run:
            assert m in dynamics.TAYLOR_THETA  # a Taylor plan
            grid = TimeGrid(0.0, 0.01, n, degree=m, n_record=10)
            assert dt == grid.dt and applications == m * n
            assert held == grid.buffer == (m + 1 if n % 10 else 0)

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
        # the reruns' plans: cutoff doubling per gamma at d=12, and step
        # halving of the smallest gamma's plan at d=6
        plans = meta["convergence_plans"]
        assert set(plans["cutoff_doubling"]) == gammas
        for plan in [*plans["cutoff_doubling"].values(), plans["step_halving"]]:
            assert plan["degree"] in dynamics.TAYLOR_THETA
            assert plan["applications"] == plan["degree"] * plan["n_steps"]
        # both branches rerun at doubled cutoff, the excited one at half step
        for plan in plans["cutoff_doubling"].values():
            assert 0 < plan["products"] <= 2 * plan["applications"]
        halving = plans["step_halving"]
        assert 0 < halving["products"] <= halving["applications"]
        smallest = min(gammas, key=float)
        degree = meta["degree"] if experiment == "figure2" else meta["degree"][smallest]
        n_steps = (meta["n_steps"] if experiment == "figure2"
                   else meta["n_steps"][smallest])
        assert halving == {**cli._plan(TimeGrid(0.0, 0.01, 2 * n_steps, 10, degree)),
                           "products": halving["products"]}

    def test_validate_report_records_the_plans(self, tmp_path):
        cfg = write_config(tmp_path, {"fock_cutoff": 8, "seeds": [11],
                                      "grid": {"t_end_us": 0.1, "n_record": 100}})
        out = str(tmp_path / "report.json")
        assert main(["validate", "--config", cfg, "--out", out]) == 0
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert set(report["plans"]) == {"conservation", "short_window",
                                        "short_window_cutoff_doubling",
                                        "short_window_step_halving",
                                        "analytic_steady_e", "analytic_steady_g",
                                        "oracle_seed_11"}
        for plan in report["plans"].values():
            assert set(plan) == {"degree", "n_steps", "dt_us", "applications",
                                 "step_buffer", "products"}
            assert plan["degree"] in dynamics.TAYLOR_THETA  # the reruns' plans too
            assert 0 < plan["products"] <= 2 * plan["applications"]
            assert plan["applications"] == plan["degree"] * plan["n_steps"]
        # 400 oracle records over fewer steps, read off the steps' terms
        oracle_plan = report["plans"]["oracle_seed_11"]
        assert oracle_plan["products"] < oracle_plan["applications"]  # the 2-norm stop
        assert oracle_plan["n_steps"] < 400
        assert oracle_plan["step_buffer"] == oracle_plan["degree"] + 1
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
            assert set(entry) == {"envelope_deviation", "norm_drift", "plan_norm"}
            p = resolve_config(load_config(cfg), "validate").params
            sample = sample_frequencies(2000, p.omega_bar, p.gamma, int(seed),
                                        g_collective=p.g_collective)
            assert entry["plan_norm"] == arrowhead_norm(sample, p.delta)
            assert 0.0 <= entry["norm_drift"] < 1e-12
            plan = report["plans"][f"oracle_seed_{seed}"]
            assert plan["applications"] == TimeGrid.taylor(
                entry["plan_norm"], 0.0, 3.0 / p.gamma, 400).applications
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

"""Reproducible experiment runner: config ingestion, figure data, sweeps,
validation suite, CSV/JSON emission.

Config files carry ordinary frequencies in MHz; everything internal is
angular (rad/us). CSVs are written with 9 significant digits, '.' decimal
separators and LF line endings so identical configs give byte-identical
output. Every CSV gets a `<out>.meta.json` sidecar with the fully resolved
configuration.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__, analytic, dynamics, oracle
from .hilbert import HERM_TOL, DensityMatrix, Operator, SpaceDims, identity, kron, ladder
from .model import SystemParams, build_drive, build_hc, build_anc, collapse_ops

CUTOFF_TOL = 1e-3      # max-normalized curve change under cutoff doubling
TIMESTEP_TOL = 1e-6    # max-normalized curve change under step halving
CONSERVATION_TOL = 1e-6
ORACLE_TOL = 0.05
ANALYTIC_STEADY_TOL = 1e-4

T_END_DEFAULT = {"figure2": 0.5, "figure3": 1.0, "sweep": 1.0,
                 "validate": 1.0, "spectrum": 0.5}

EXPERIMENTS = tuple(T_END_DEFAULT)


def _finite(v) -> bool:
    """A JSON number other than a bool, and finite."""
    if isinstance(v, bool):
        return False
    return isinstance(v, int) or (isinstance(v, float) and math.isfinite(v))


def _integral(v) -> bool:
    return _finite(v) and (isinstance(v, int) or v.is_integer())


def _at_least(lo, kind=_finite):
    return lambda v: kind(v) and v >= lo


# dot path -> (default, test, what the value must be): the one place where a
# config key is declared. DEFAULT_CONFIG nests the defaults, and
# resolve_config checks every entry, in this order, before it reads any value
CONFIG_SCHEMA = {
    "params.nu_t": (412.5, _finite, "a finite number"),
    "params.nu_bar": (0.0, _finite, "a finite number"),
    "params.g": (75.0, lambda v: _finite(v) and v > 0, "a finite number > 0"),
    "params.lambda_d": (40.0, _finite, "a finite number"),
    "params.gamma": (12.5, _at_least(0), "a finite number >= 0"),
    "params.gamma_s": (0.0, _at_least(0), "a finite number >= 0"),
    "params.drive": ("matched", lambda v: v == "matched" or _finite(v),
                     '"matched" or a nu_d value in MHz'),
    "fock_cutoff": (16, _at_least(2, _integral), "an integer >= 2"),
    "grid.t_start_us": (0.0, _finite, "a finite number"),
    "grid.t_end_us": (None, lambda v: v is None or _finite(v), "null or a finite number"),
    "grid.n_record": (500, _at_least(1, _integral), "an integer >= 1"),
    "gamma_sweep_mhz": ([5.0, 10.0, 12.5, 25.0, 50.0],
                        lambda v: isinstance(v, list) and all(map(_at_least(0), v))
                        and len(set(map(float, v))) == len(v),
                        "a list of distinct numbers >= 0"),
    "seeds": ([11, 13, 17],
              lambda v: isinstance(v, list) and bool(v)
              and all(map(_at_least(0, _integral), v)) and len(set(v)) == len(v),
              "a non-empty list of distinct integers >= 0"),
    "oracle_n": (2000, _at_least(1, _integral), "an integer >= 1"),
    "n_levels": (11, _at_least(1, _integral), "an integer >= 1"),
    "convergence_checks": (True, lambda v: isinstance(v, bool), "true or false"),
    "output_path": (None, lambda v: v is None or isinstance(v, str), "null or a path"),
}

# dot path -> why a key that configs once took is now refused
RETIRED_KEYS = {
    "grid.n_steps": "every run takes the step plan derived from its generator's "
                    "norm bound, and records may fall inside a step",
}


def _nest(flat: dict) -> dict:
    """The nested dict of the {dot path: value} dict `flat`."""
    out = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return out


DEFAULT_CONFIG = _nest({"experiment": None,
                        **{path: row[0] for path, row in CONFIG_SCHEMA.items()}})


class ConfigError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    params: SystemParams
    params_mhz: dict
    fock_cutoff: int
    t_start: float
    t_end: float
    n_record: int
    gamma_sweep: list
    seeds: list
    oracle_n: int
    n_levels: int
    convergence_checks: bool
    output_path: str | None
    resolved: dict


def _merge(cfg: dict, user: dict, unknown: str = "config key", path: str = "") -> dict:
    """Merge the nested dict `user` into `cfg` in place, copying its values,
    and return cfg. A retired key is refused with its reason, a key not in
    cfg as an unknown `unknown`, and a section of cfg takes only an object."""
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if here in RETIRED_KEYS:
            raise ConfigError(f"{here} must be left out: {RETIRED_KEYS[here]}")
        if key not in cfg:
            raise ConfigError(f"unknown {unknown}: {here}")
        if isinstance(cfg[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here} must be an object")
            _merge(cfg[key], value, unknown, here)
        else:
            cfg[key] = copy.deepcopy(value)
    return cfg


def load_config(path: str | None) -> dict:
    if path is None:
        return copy.deepcopy(DEFAULT_CONFIG)
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(copy.deepcopy(DEFAULT_CONFIG), user)


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Merge each `key=value` (a dot path and a JSON value, else a string)
    into cfg in place, as a config file's nested key would be."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        _merge(cfg, _nest({key: value}), "override path")
    return cfg


def resolve_config(cfg: dict, experiment: str) -> RunConfig:
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a dict of settings, got {type(cfg).__name__}")
    cfg = _merge(copy.deepcopy(DEFAULT_CONFIG), cfg)
    if cfg["experiment"] is not None and cfg["experiment"] != experiment:
        raise ConfigError(
            f"config experiment {cfg['experiment']!r} conflicts with subcommand {experiment!r}")
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    cfg["experiment"] = experiment

    for path, (_, test, requirement) in CONFIG_SCHEMA.items():
        section, _, key = path.rpartition(".")
        value = cfg[section][key] if section else cfg[key]
        if not test(value):
            raise ConfigError(f"{path} must be {requirement}, got {value!r}")
    pm = cfg["params"]
    if experiment == "validate" and pm["gamma"] == 0:
        raise ConfigError("params.gamma must be > 0 for validate: the oracle "
                          "samples a Lorentzian of that width")
    try:
        params = SystemParams.from_mhz(**pm)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if experiment in ("figure2", "validate") and params.delta == 0.0:
        raise ConfigError(f"params.nu_t must differ from params.nu_bar for {experiment}: "
                          "its closed forms divide by the qubit-ensemble detuning")

    grid = cfg["grid"]
    t_start = float(grid["t_start_us"])
    t_end = grid["t_end_us"]
    t_end = float(T_END_DEFAULT[experiment] if t_end is None else t_end)
    if t_end <= t_start:
        raise ConfigError("grid.t_end_us must exceed grid.t_start_us")
    n_record = int(grid["n_record"])
    sweep = list(cfg["gamma_sweep_mhz"])
    if experiment in ("figure3", "sweep") and not sweep:
        raise ConfigError("gamma_sweep_mhz must be non-empty")

    cfg["grid"]["t_end_us"] = t_end
    return RunConfig(
        experiment=experiment, params=params, params_mhz=dict(pm),
        fock_cutoff=int(cfg["fock_cutoff"]), t_start=t_start, t_end=t_end,
        n_record=n_record, gamma_sweep=sweep,
        seeds=[int(s) for s in cfg["seeds"]], oracle_n=int(cfg["oracle_n"]),
        n_levels=int(cfg["n_levels"]), convergence_checks=cfg["convergence_checks"],
        output_path=cfg["output_path"], resolved=cfg)


# ---------------------------------------------------------------------------
# simulation helpers
# ---------------------------------------------------------------------------

def _n_workers() -> int:
    """Workers that run `_pmap`'s items: one."""
    return 1


def _pmap(fn, items):
    """fn over items, in order, in this thread: each item is a Python loop
    that holds the GIL, so threads would contend instead of overlapping."""
    return [fn(it) for it in items]


def _blas_threads(pin: bool = False) -> int:
    """The most threads of any OpenBLAS loaded in this process, 0 if none is.
    With `pin`, every copy is first set to one thread and its idle workers
    are shut down (``blas_thread_shutdown_``, which OpenBLAS's own fork
    handler calls; a later threaded call would start them again): per-record
    calls as small as a 32x32 eigvalsh only make a second thread spin-wait,
    and a worker started with the library spins on a core while main runs."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return 0
    threads = 0
    for lib in map(ctypes.CDLL, paths):
        # scipy-openblas (numpy's and scipy's wheels) prefixes the names, ILP64 suffixes them
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(lib, name.format("get")):
                if pin:
                    getattr(lib, name.format("set"))(1)
                    if hasattr(lib, "blas_thread_shutdown_"):
                        shutdown = lib.blas_thread_shutdown_
                        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                        shutdown()
                threads = max(threads, getattr(lib, name.format("get"))())
                break
    return threads


def _joint_observables(d: int):
    a = ladder(d)
    idq = identity(SpaceDims((2,)))
    num = kron(idq, a.dag() @ a)
    proj_e = Operator(SpaceDims((2,)), np.diag([0.0, 1.0]))
    qubit = kron(proj_e, identity(SpaceDims((d,))))
    return [num, qubit]


def _run(model: dynamics.Lindblad, rho0: DensityMatrix, observables: list, gamma: float,
         t_start: float, t_end: float, n_record: int, n_steps: int = 0,
         positivity: str = "measure"):
    """One run of `model`; returns (Trajectory, grid). The grid is the
    `TimeGrid.taylor` plan on the model's 2-norm bound, which `evolve`'s
    guard reuses; with n_steps set (the step-halving rerun) it takes n_steps
    steps of the plan's degree. `positivity` is `evolve`'s: a run whose
    min_eig no artifact reads only certifies it."""
    grid = dynamics.TimeGrid.taylor(model.norm, t_start, t_end, n_record)
    if n_steps:
        grid = replace(grid, n_steps=n_steps)
    traj = dynamics.evolve(model, rho0, grid, observables, gamma=gamma, positivity=positivity)
    return traj, grid


def _model(p: SystemParams, d: int) -> dynamics.Lindblad:
    """The driven reduced model at cutoff d, for one run or for the branches
    that share it."""
    return dynamics.Lindblad.build(build_hc(p, d) + build_drive(p, d), collapse_ops(p, d))


def _run_branch_meta(p: SystemParams, d: int, state: str, t_start: float,
                     t_end: float, n_record: int, n_steps: int = 0,
                     model: dynamics.Lindblad | None = None, positivity: str = "measure"):
    """One driven reduced-model run from |state, 0>, on `_model(p, d)` when
    the caller shares it between branches; returns (Trajectory, grid)."""
    model = model or _model(p, d)
    rho0 = DensityMatrix.basis(SpaceDims((2, d)), 1 if state == "e" else 0, 0)
    return _run(model, rho0, _joint_observables(d), p.gamma, t_start, t_end, n_record,
                n_steps, positivity)


def _max_normalized_dev(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _check_cutoff(p, d, base: dict, grid) -> tuple[float, dict]:
    """Max-normalized change of the <A†A> curves {state: Trajectory} `base`,
    run over `grid`'s window and records, under cutoff doubling, and the
    `_plan` of the reruns (every branch takes the same one). No artifact
    reads a rerun's min_eig, so the reruns only certify positivity."""
    model = _model(p, 2 * d)

    def dev(state):
        doubled, rerun = _run_branch_meta(p, 2 * d, state, grid.t_start, grid.t_end,
                                          grid.n_record, model=model, positivity="certify")
        return (_max_normalized_dev(base[state].collective_n, doubled.collective_n),
                doubled, rerun)
    devs = _pmap(dev, base)
    return (max(dev for dev, _, _ in devs),
            _plan(devs[0][2], *(doubled for _, doubled, _ in devs)))


def _check_timestep(p, d, base, grid, model: dynamics.Lindblad) -> tuple[float, dict]:
    """Max-normalized change of the excited-branch <A†A> curve `base`, run
    on `grid` and on `model` (`_model(p, d)`), under step halving, and the
    rerun's `_plan`: the rerun plans the same model over the same window and
    records, so it keeps the degree. Like the cutoff reruns it only
    certifies positivity."""
    half, rerun = _run_branch_meta(p, d, "e", grid.t_start, grid.t_end, grid.n_record,
                                   n_steps=2 * grid.n_steps, model=model,
                                   positivity="certify")
    return _max_normalized_dev(base.collective_n, half.collective_n), _plan(rerun, half)


def _convergence(rc: RunConfig, runs: list, model: dynamics.Lindblad | None) -> dict:
    """Sidecar entries of the convergence reruns of the (gamma_mhz, params,
    {state: Trajectory}, grid) runs: cutoff doubling of every run, its
    deviation and plan kept per gamma, then step halving of the
    smallest-gamma run, on `model`, the `_model` that run took, and its
    plan; raises ConvergenceError when a curve moves beyond tolerance."""
    if not rc.convergence_checks:
        return {"checks": {}}
    d = rc.fock_cutoff
    cutoff = {str(g): _check_cutoff(p, d, trajs, grid) for g, p, trajs, grid in runs}
    per_gamma = {g: dev for g, (dev, _) in cutoff.items()}
    dev_c = max(per_gamma.values())
    if dev_c > CUTOFF_TOL:
        raise ConvergenceError(
            f"cutoff_convergence failed: curve change {dev_c:.3g} > {CUTOFF_TOL}; "
            f"retry with fock_cutoff={2 * d}")
    _, p, trajs, grid = min(runs, key=lambda run: run[0])
    dev_t, halving = _check_timestep(p, d, trajs["e"], grid, model)
    if dev_t > TIMESTEP_TOL:
        raise ConvergenceError(
            f"timestep_convergence failed: curve change {dev_t:.3g} > {TIMESTEP_TOL}")
    return {"checks": {"cutoff_convergence": dev_c, "timestep_convergence": dev_t},
            "cutoff_convergence_by_gamma": per_gamma,
            "convergence_plans": {"cutoff_doubling": {g: plan for g, (_, plan)
                                                      in cutoff.items()},
                                  "step_halving": halving}}


def _plan(grid, *runs) -> dict:
    """A plan, with the state vectors its step buffer held, the products it
    caps (``applications``) and the products that `runs`, the Trajectory or
    oracle result of each branch run on it, applied."""
    return {"degree": grid.degree, "n_steps": grid.n_steps, "dt_us": grid.dt,
            "applications": grid.applications, "step_buffer": grid.buffer,
            "products": sum(run.products for run in runs)}


def _runs_meta(runs: list, d: int, per_gamma: bool = True) -> dict:
    """Sidecar entries of the written (gamma_mhz, params, {state: Trajectory},
    grid) runs: each run's ``_plan`` (keyed by gamma, or bare for a single
    run), the extrema of the per-record state diagnostics, and the generator
    products applied over every branch with the dimension of the Liouvillian
    they apply (the real coordinates of rho at cutoff d)."""
    plans = {str(g): _plan(grid, *branches.values()) for g, _, branches, grid in runs}
    if per_gamma:
        meta = {key: {g: plan[key] for g, plan in plans.items()}
                for key in next(iter(plans.values()))}
    else:
        [meta] = plans.values()
    trajs = [t for _, _, branches, _ in runs for t in branches.values()]
    meta["hygiene"] = {"trace_err_max": max(float(t.trace_err.max()) for t in trajs),
                       "min_eig_min": min(float(t.min_eig.min()) for t in trajs)}
    meta["generator_applications"] = sum(plan["products"] for plan in plans.values())
    meta["generator_dim"] = (2 * d) ** 2
    return meta


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _csv_lines(rows, n_cols: int):
    """The lines of the table `rows` (a sequence of rows or a 2-D array), one
    at a time, each value as a float to 9 significant digits."""
    # adding 0.0 turns -0.0 into 0.0 and leaves every other value as it is
    table = np.array(rows, dtype=float).reshape(-1, n_cols) + 0.0
    line = ",".join(["%.9g"] * n_cols) + "\n"
    return (line % tuple(row.tolist()) for row in table)


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(_csv_lines(rows, len(header)))


def write_meta(out_path: str, rc: RunConfig, extra: dict) -> None:
    meta = {
        "code_version": __version__,
        "experiment": rc.experiment,
        "config": rc.resolved,
        "units": {"config_frequencies": "MHz", "time": "us",
                  "internal": "rad/us (omega = 2*pi*nu)"},
        "threads": {"workers": _n_workers(), "blas": _blas_threads()},
    }
    meta.update(extra)
    with open(out_path + ".meta.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _branch_runs(rc: RunConfig, gammas,
                 halving: bool = False) -> tuple[list, dynamics.Lindblad | None]:
    """(gamma_mhz, params, {state: Trajectory}, grid) per gamma value, one
    `_pmap` task each, and, with `halving`, the `_model` of the smallest
    gamma value, which `_convergence` reruns at half the step (else None).
    Both branches of a gamma value share its grid and its model; no other
    model outlives its task."""
    kept = []

    def run(g_mhz):
        p = SystemParams.from_mhz(**{**rc.params_mhz, "gamma": g_mhz})
        model = _model(p, rc.fock_cutoff)
        runs = {s: _run_branch_meta(p, rc.fock_cutoff, s, rc.t_start, rc.t_end,
                                    rc.n_record, model=model) for s in ("e", "g")}
        if halving and g_mhz == min(gammas):
            kept.append(model)
        return g_mhz, p, {s: traj for s, (traj, _) in runs.items()}, runs["e"][1]
    runs = _pmap(run, gammas)
    return runs, (kept[0] if kept else None)


def run_figure2(rc: RunConfig, out: str) -> dict:
    runs, model = _branch_runs(rc, [rc.params_mhz["gamma"]], rc.convergence_checks)
    [(_, p, trajs, _)] = runs
    meta = {**_convergence(rc, runs, model),
            **_runs_meta(runs, rc.fock_cutoff, per_gamma=False)}

    traj_e, traj_g = trajs["e"], trajs["g"]
    times = traj_e.times
    # the closed forms start from vacuum at t = 0, the runs at t_start
    ana_e = analytic.excited_population(times - rc.t_start, p)
    ana_g = analytic.ground_population(times - rc.t_start, p)
    rows = np.column_stack((times, traj_e.collective_n, ana_e, traj_g.collective_n, ana_g))
    write_csv(out, ["t_us", "n_num_e", "n_ana_e", "n_num_g", "n_ana_g"], rows)
    write_meta(out, rc, meta)
    return meta


def run_figure3(rc: RunConfig, out: str) -> dict:
    runs, model = _branch_runs(rc, rc.gamma_sweep, rc.convergence_checks)
    meta = {"gamma_sweep_mhz": rc.gamma_sweep, **_convergence(rc, runs, model),
            **_runs_meta(runs, rc.fock_cutoff),
            "sweep_note": "gamma set and 1 us duration are artifact defaults, "
                          "not asserted values"}

    blocks = []
    for g_mhz, _, trajs, _ in runs:
        total_e, total_g = trajs["e"].total_n, trajs["g"].total_n
        blocks.append(np.column_stack((trajs["e"].times, np.full(len(total_e), g_mhz),
                                       total_e, total_g, total_e - total_g)))
    write_csv(out, ["t_us", "gamma_mhz", "total_e", "total_g", "gain"], np.vstack(blocks))
    write_meta(out, rc, meta)
    return meta


def run_sweep(rc: RunConfig, out: str) -> dict:
    runs, _ = _branch_runs(rc, rc.gamma_sweep)
    rows = []
    for g_mhz, _, trajs, _ in runs:
        total_e, total_g = trajs["e"].total_n, trajs["g"].total_n
        gain = total_e - total_g
        i = int(np.argmax(gain))
        rows.append((g_mhz, gain[i], trajs["e"].times[i], total_e[-1], total_g[-1]))
    write_csv(out, ["gamma_mhz", "max_gain", "t_at_max_us", "total_e_final",
                    "total_g_final"], rows)
    meta = _runs_meta(runs, rc.fock_cutoff)
    write_meta(out, rc, meta)
    return meta


def numeric_doublet(h: Operator, d: int, n_max: int) -> list[tuple[float, float]]:
    """Eigenvalues of the (n+1)-excitation block of the joint Hamiltonian for
    n = 0..n_max. The conserved total-excitation number is diagonal in the
    product basis, so each block is the submatrix of h on the basis states
    with n + 1 excitations, diagonalised on its own: levels of different
    blocks never mix, however close they lie."""
    if not h.hermitian:
        raise ValueError(f"numeric_doublet requires a Hermitian operator: "
                         f"|H - H†| exceeds {HERM_TOL:g}")
    num, qubit = _joint_observables(d)
    exc = np.diag(qubit.mat + num.mat).real
    doublets = []
    for n in range(n_max + 1):
        rows = np.flatnonzero(np.abs(exc - (n + 1)) < 0.5)
        if len(rows) != 2:
            raise RuntimeError(f"excitation block {n + 1} has {len(rows)} levels")
        lo, hi = np.linalg.eigvalsh(h.mat[np.ix_(rows, rows)])
        doublets.append((float(lo), float(hi)))
    return doublets


def _doublet_gap(level: analytic.JcLevel, lo: float, hi: float) -> float:
    """Relative gap of a numerical doublet to the closed-form level."""
    return max(abs(level.omega_minus - lo) / max(abs(level.omega_minus), 1e-300),
               abs(level.omega_plus - hi) / max(abs(level.omega_plus), 1e-300))


def run_spectrum(rc: RunConfig, out: str) -> dict:
    p = rc.params
    d = rc.fock_cutoff
    n_max = min(rc.n_levels - 1, d - 2)
    h = build_hc(p, d)
    rows = []
    two_pi = 2.0 * np.pi
    for n, (lo, hi) in enumerate(numeric_doublet(h, d, n_max)):
        level = analytic.jc_spectrum(n, p)
        rows.append((n, level.omega_plus / two_pi, level.omega_minus / two_pi,
                     level.phi_n, hi / two_pi, lo / two_pi, _doublet_gap(level, lo, hi)))
    write_csv(out, ["n", "Omega_plus_mhz", "Omega_minus_mhz", "phi_n_rad",
                    "num_plus_mhz", "num_minus_mhz", "rel_gap"], rows)
    meta = {"n_levels": n_max + 1}
    write_meta(out, rc, meta)
    return meta


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def _check(name, value, threshold):
    """A measured check: it passes when value <= threshold."""
    return {"name": name, "value": float(value), "threshold": float(threshold),
            "passed": bool(value <= threshold)}


def _failed(name, threshold, error: str) -> dict:
    """A check that could not be measured: no value, failed, and why."""
    return {"name": name, "value": None, "threshold": float(threshold), "passed": False,
            "error": error}


def run_validate(rc: RunConfig, out: str | None) -> tuple[list[dict], bool]:
    p = rc.params
    d = rc.fock_cutoff
    checks = []
    plans = {}

    # the driven model of the short windows below, and how far its real
    # generator is from its Liouvillian on the coordinates
    model = _model(p, d)
    herm = dynamics.generator_gap(dynamics.liouvillian(model.h, model.collapse),
                                  model.generator)

    # conservation bookkeeping (undriven, initial |e,0>) plus state hygiene
    p0 = replace(p, lambda_d=0.0, gamma_s=0.0)
    traj0, grid0 = _run_branch_meta(p0, d, "e", rc.t_start, rc.t_end, rc.n_record)
    plans["conservation"] = _plan(grid0, traj0)
    q = traj0.qubit_excited + traj0.total_n
    checks.append(_check("conservation", np.max(np.abs(q - 1.0)), CONSERVATION_TOL))
    checks.append(_check("trace_error", traj0.trace_err.max(), dynamics.TRACE_TOL))
    checks.append(_check("hermiticity", herm, dynamics.HERMITICITY_TOL))
    checks.append(_check("positivity", -traj0.min_eig.min(), dynamics.POSITIVITY_TOL))

    # short driven windows for the convergence checks; no check reads the
    # min_eig of these runs or of the steady ones below, so they certify
    # positivity, and the step halving reruns the base run's model
    t_short = rc.t_start + min(0.2, rc.t_end - rc.t_start)
    base, g_short = _run_branch_meta(p, d, "e", rc.t_start, t_short, 200, model=model,
                                     positivity="certify")
    plans["short_window"] = _plan(g_short, base)
    # that plan's dt * norm, the bound its guard reads, scaled so that 0.25
    # is theta_m: a correct program passes it by construction
    guard = dynamics.STABILITY_LIMIT * (g_short.dt * model.norm)
    checks.insert(0, _check("timestep_guard", guard / dynamics.TAYLOR_THETA[g_short.degree],
                            dynamics.STABILITY_LIMIT))
    try:
        dev_c, plans["short_window_cutoff_doubling"] = _check_cutoff(p, d, {"e": base},
                                                                     g_short)
        checks.append(_check("cutoff_convergence", dev_c, CUTOFF_TOL))
    except dynamics.IntegrationError as exc:
        checks.append(_failed("cutoff_convergence", CUTOFF_TOL, str(exc)))
    dev_t, plans["short_window_step_halving"] = _check_timestep(p, d, base, g_short,
                                                                model)
    del model
    checks.append(_check("timestep_convergence", dev_t, TIMESTEP_TOL))

    # closed-form spectrum vs numerical diagonalization
    doublets = numeric_doublet(build_hc(p, d), d, min(10, d - 2))
    gap = max(_doublet_gap(analytic.jc_spectrum(n, p), lo, hi)
              for n, (lo, hi) in enumerate(doublets))
    checks.append(_check("jc_spectrum_match", gap, 1e-9))

    # analytic steady values vs the integrator under the frozen-qubit model
    t_steady = 10.0 / p.gamma
    a = ladder(d)
    num = a.dag() @ a
    anc_ops = collapse_ops(p, d, include_qubit=False)
    rho0 = DensityMatrix.basis(SpaceDims((d,)), 0)
    for state, ana in (("e", analytic.excited_population),
                       ("g", analytic.ground_population)):
        traj, steady = _run(dynamics.Lindblad.build(build_anc(p, state, d), anc_ops),
                            rho0, [num], p.gamma, 0.0, t_steady, 200, positivity="certify")
        plans[f"analytic_steady_{state}"] = _plan(steady, traj)
        ref = float(ana(np.array([t_steady]), p)[0])
        checks.append(_check(f"analytic_steady_{state}",
                             abs(traj.collective_n[-1] - ref), ANALYTIC_STEADY_TOL))

    # oracle trace-out: collective-amplitude envelope over gamma*t <= 3
    t_oracle = 3.0 / p.gamma
    per_seed = {}
    for seed in rc.seeds:
        sample = oracle.sample_frequencies(rc.oracle_n, p.omega_bar, p.gamma,
                                           seed, g_collective=p.g_collective)
        bound = oracle.arrowhead_norm(sample, p.delta, p.gamma_s)
        s_grid = dynamics.TimeGrid.taylor(bound, 0.0, t_oracle, 400)
        res = oracle.single_excitation_evolve(sample, p.delta, s_grid, p.gamma_s)
        plans[f"oracle_seed_{seed}"] = _plan(s_grid, res)
        _, c_red = oracle.reduced_single_excitation(p.delta, p.g_collective,
                                                    p.gamma, res.times, p.gamma_s)
        ref = np.abs(c_red)
        # a reference with no positive normal value (a coupling so weak that
        # it underflows) leaves no envelope to compare against
        deviation = (envelope_deviation(res.times, np.abs(res.collective), ref)
                     if np.max(ref) >= np.finfo(float).tiny else None)
        per_seed[str(seed)] = {
            "envelope_deviation": deviation,
            "norm_drift": res.norm_drift(p.gamma_s),
            "plan_norm": bound}
    deviations = [r["envelope_deviation"] for r in per_seed.values()]
    if None in deviations:
        checks.append(_failed("oracle_traceout", ORACLE_TOL,
                              "the reduced model's collective amplitude has no positive "
                              "normal value over gamma*t <= 3: the coupling underflows"))
    else:
        checks.append(_check("oracle_traceout", max(deviations), ORACLE_TOL))
    checks.append(_check("oracle_norm", max(r["norm_drift"] for r in per_seed.values()),
                         1e-8))

    all_passed = all(c["passed"] for c in checks)
    report = {"code_version": __version__, "passed": all_passed, "checks": checks,
              "plans": plans,
              "oracle": per_seed,
              "threads": {"workers": _n_workers(), "blas": _blas_threads()},
              "config": rc.resolved}
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text + "\n")
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"{status} {c['name']}: value={c['value']} threshold={c['threshold']}")
    return checks, all_passed


def envelope_deviation(times: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Max relative deviation between the oscillation envelopes of two
    nonnegative series (local maxima, linearly interpolated, compared on the
    interior where both envelopes are defined); pointwise, relative to max(b),
    when either has fewer than two maxima or the envelopes share no time."""
    ia = _local_maxima(a)
    ib = _local_maxima(b)
    if len(ia) >= 2 and len(ib) >= 2:
        mask = ((times >= max(times[ia[0]], times[ib[0]]))
                & (times <= min(times[ia[-1]], times[ib[-1]])))
        if mask.any():
            env_a = np.interp(times[mask], times[ia], a[ia])
            env_b = np.interp(times[mask], times[ib], b[ib])
            return float(np.max(np.abs(env_a - env_b) / np.maximum(env_b, 1e-300)))
    return float(np.max(np.abs(a - b))) / max(float(np.max(b)), 1e-300)


def _local_maxima(y: np.ndarray) -> np.ndarray:
    inner = (y[1:-1] >= y[:-2]) & (y[1:-1] > y[2:])
    return np.flatnonzero(inner) + 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinamp",
        description="Spin-amplification readout simulator: figure data, "
                    "spectra, sweeps and validation")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config path")
        sp.add_argument("--out", default=None, help="output path")
        sp.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE", help="dot-path config override")
    return parser


def _check_output(out: str | None) -> None:
    """Reject an output path that cannot be written, before any run."""
    if out is None:
        return
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"output directory does not exist: {folder}")
    if os.path.isdir(out):
        raise ConfigError(f"output path is a directory: {out}")


def main(argv: list[str] | None = None) -> int:
    # first: the OpenBLAS workers started when numpy loaded spin until shut down
    _blas_threads(pin=True)
    args = build_parser().parse_args(argv)
    try:
        cfg = apply_overrides(load_config(args.config), args.override)
        rc = resolve_config(cfg, args.command)
        out = args.out or rc.output_path
        if out is None and rc.experiment != "validate":
            out = f"{rc.experiment}.csv"
        _check_output(out)
        if rc.experiment == "validate":
            _, ok = run_validate(rc, out)
            return 0 if ok else 1
        runner = {"figure2": run_figure2, "figure3": run_figure3,
                  "sweep": run_sweep, "spectrum": run_spectrum}[rc.experiment]
        runner(rc, out)
        print(f"wrote {out} and {out}.meta.json")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    # OverflowError: a finite parameter whose square leaves double range
    # (G^2/Delta, Delta^2), where Python's float ** raises and numpy's gives inf
    except (ConvergenceError, dynamics.IntegrationError, dynamics.StabilityError,
            OverflowError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the spinamp CLI: three workloads, each run in fresh
interpreters and checked against references computed apart from the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run sets up spinamp several times (``setup_s`` is the median), computes
the workload's reference, then makes whole rounds of CLI invocations, one
at a time, until S seconds have passed. One invocation is one operation; it
fails when the CLI exits non-zero or leaves no artifact. Each artifact is
checked; ``correct`` is false if any completed invocation's output is wrong.
With --trace 1 a round is an untraced invocation followed by a traced one,
and the per-layer metrics come from the traced ones. The last line of
stdout is the JSON result. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
# interpreter and BLAS thread settings the program must see at their defaults
THREAD_VARS = ("SPINAMP_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEFAULT_MHZ = {"nu_t": 412.5, "nu_bar": 0.0, "g": 75.0, "gamma": 12.5}
GAMMA_SWEEP_MHZ = (5.0, 10.0, 12.5, 25.0, 50.0)
ORACLE_SEEDS = (11, 13, 17)
ORACLE_N = 2000

UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    experiment: str
    overrides: dict
    artifact: str


WORKLOADS = {
    # step-heavy: 38 RK4 steps per record at d=16, plus the d=32 cutoff
    # doubling and the step-halving reruns
    "fig2-converged": Workload("figure2", {"grid.t_end_us": 0.005, "grid.n_record": 50,
                                           "convergence_checks": True}, "figure2.csv"),
    # record-dense: 1-2 steps per record over ten branches through the pool
    "fig3-dense": Workload("figure3", {"grid.t_end_us": 0.0025, "grid.n_record": 1000,
                                       "convergence_checks": False}, "figure3.csv"),
    # oracle-heavy: three 2000-spin single-excitation solves
    "validate-short": Workload("validate", {"grid.t_end_us": 0.01}, "report.json"),
}


def drive_mhz(seed: int) -> float:
    """The seeded input: the drive amplitude lambda_d, uniform in
    [36, 44] MHz around the default 40 MHz, rounded to 1 kHz. Over this
    range every integration grid of the three workloads keeps its step
    count, so the seed changes the curves but not the work."""
    return round(36.0 + 8.0 * float(np.random.default_rng(seed).random()), 3)


def cli_args(wl: Workload, lambda_d: float, out: Path) -> list[str]:
    overrides = {**wl.overrides, "params.lambda_d": lambda_d}
    args = [wl.experiment, "--out", str(out)]
    for key, value in overrides.items():
        args += ["--override", f"{key}={json.dumps(value)}"]
    return args


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.pop("PYTHONPATH", None)
    return env


def invoke(mode: str, args: list[str], run_dir: Path, tag: str,
           spans: Path | None = None) -> dict | None:
    """One fresh interpreter running invoke.py; its measurements, or None if
    it failed or timed out. stdout and stderr go to files in run_dir."""
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "invoke.py"), mode, str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    with open(run_dir / f"{tag}.log", "w", encoding="utf-8") as log:
        try:
            done = subprocess.run(cmd + ["--"] + args, cwd=run_dir, env=child_env(),
                                  stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            return None
    if done.returncode != 0 or not result.exists():
        return None
    return json.loads(result.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# references and checks per workload
# ---------------------------------------------------------------------------

def params(lambda_d: float, gamma: float = DEFAULT_MHZ["gamma"]) -> reference.Params:
    return reference.Params.from_mhz(DEFAULT_MHZ["nu_t"], DEFAULT_MHZ["nu_bar"],
                                     DEFAULT_MHZ["g"], lambda_d, gamma)


def make_reference(name: str, wl: Workload, lambda_d: float):
    t_end = wl.overrides["grid.t_end_us"]
    if name == "fig2-converged":
        n_record = wl.overrides["grid.n_record"]
        p = params(lambda_d)
        times = np.linspace(0.0, t_end, n_record + 1)
        return (reference.lindblad_records(p, 16, t_end, n_record),
                reference.closed_form_excited(times, p),
                reference.closed_form_ground(times, p))
    if name == "fig3-dense":
        n_record = wl.overrides["grid.n_record"]
        return {g: reference.lindblad_records(params(lambda_d, g), 16, t_end, n_record)
                for g in GAMMA_SWEEP_MHZ}
    return reference.oracle_traceout(params(lambda_d), ORACLE_N, ORACLE_SEEDS)


def check_artifacts(name: str, wl: Workload, lambda_d: float, out: Path, ref) -> list[str]:
    if name == "validate-short":
        report = json.loads(out.read_text(encoding="utf-8"))
        problems = checks.check_validate(report, ref)
        config = report.get("config", {})
    else:
        text = out.read_text(encoding="utf-8")
        t_end = wl.overrides["grid.t_end_us"]
        n_record = wl.overrides["grid.n_record"]
        if name == "fig2-converged":
            problems = checks.check_figure2(text, *ref, t_end, n_record)
        else:
            problems = checks.check_figure3(text, ref, t_end, n_record)
        meta = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))
        config = meta.get("config", {})
        if wl.overrides["convergence_checks"]:
            ran = set(meta.get("checks", {}))
            if ran != {"cutoff_convergence", "timestep_convergence"}:
                problems.append(f"convergence checks that ran: {sorted(ran)}")
    if config.get("params", {}).get("lambda_d") != lambda_d:
        problems.append("the artifact's config does not hold the seeded lambda_d")
    return problems


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(statistics.median(values))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "spinamp" / "cli.py").is_file():
        print(f"no spinamp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    name, wl = args.workload, WORKLOADS[args.workload]
    lambda_d = drive_mhz(args.seed)
    run_dir = HERE / ".runs" / f"{name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out = run_dir / wl.artifact
    argv = cli_args(wl, lambda_d, out)

    # one warm-up fills the bytecode and file caches, then the samples
    setups = [invoke("setup", argv, run_dir, f"setup{k}") for k in range(SETUP_SAMPLES + 1)]
    if any(s is None for s in setups):
        print(f"set-up failed; see {run_dir}", file=sys.stderr)
        return 1
    ref = make_reference(name, wl, lambda_d)

    plain, layers, problems = [], [], []
    attempted = failed = 0
    round_size = 2 if args.trace else 1
    start = time.perf_counter()
    while attempted == 0 or time.perf_counter() - start < args.seconds:
        for k in range(round_size):
            spans = run_dir / f"spans{attempted}.json" if k == 1 else None
            for path in (out, Path(f"{out}.meta.json")):
                path.unlink(missing_ok=True)
            res = invoke("run", argv, run_dir, f"run{attempted}", spans)
            attempted += 1
            if res is None or res["exit"] != 0 or not out.exists():
                failed += 1
                print(f"invocation {attempted} failed; see {run_dir}", file=sys.stderr)
                continue
            problems += [f"invocation {attempted}: {p}"
                         for p in check_artifacts(name, wl, lambda_d, out, ref)]
            print(f"invocation {attempted}: wall {res['wall_s']:.3f} s, "
                  f"cpu {res['cpu_s']:.3f} s", file=sys.stderr)
            if spans is None:
                plain.append(res)
            else:
                layers.append({**tracing.layer_metrics(json.loads(spans.read_text())),
                               "blas.threads": res["blas_threads"],
                               "trace.wall_s": res["wall_s"]})
    for line in problems:
        print(line, file=sys.stderr)

    metrics = {}
    if args.trace and layers:
        metrics = {key: {"value": median(m[key] for m in layers), "unit": tracing.UNITS[key]}
                   for key in layers[0]}
        if plain:
            overhead = (median(m["trace.wall_s"] for m in layers)
                        - median(r["wall_s"] for r in plain))
            metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif not args.trace:
        metrics["setup_s"] = {"value": median(s["setup_s"] for s in setups[1:]), "unit": "s"}
        if plain:
            metrics.update({key: {"value": median(r[key] for r in plain), "unit": UNITS[key]}
                            for key in ("wall_s", "cpu_s", "peak_rss_mb")})
    if not failed and not problems:
        for path in run_dir.iterdir():
            if not path.name.startswith("spans"):
                path.unlink()
        if not any(run_dir.iterdir()):
            run_dir.rmdir()
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

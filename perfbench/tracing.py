"""Span recording around spinamp's module functions, from outside the package.

``install`` replaces module attributes with wrappers that record one span
per call: name, start, end, parent span and thread, plus a few counts read
from the arguments. Spans stay in memory until ``Tracer.dump``.
``layer_metrics`` turns a list of spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        rec = {"id": next(self._ids), "name": name, "parent": parent,
               "thread": threading.get_ident(), "attrs": {}}
        stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, fn, attrs=None):
        """fn recorded as span `name`; attrs(arguments, result) -> dict of
        counts, with arguments bound to fn's parameter names."""
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    rec["attrs"].update(attrs(bound.arguments, result))
            return result
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _grid_counts(arg: str):
    def attrs(a, _result):
        grid = a[arg]
        return {"steps": grid.n_steps, "records": grid.n_record + 1}
    return attrs


def _evolve_counts(a, result):
    return {**_grid_counts("grid")(a, result), "dim": a["rho0"].dims.dim}


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every spinamp module, and the private
    cli helpers that carry the thread pool and the convergence reruns.
    Names imported into cli are wrapped there as well as at their home."""
    from spinamp import analytic, cli, dynamics, hilbert, model, oracle

    def patch(module, attr, attrs=None):
        name = f"{module.__name__.split('.')[-1]}.{attr}"
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), attrs))
        if module is not cli and getattr(cli, attr, None) is not None:
            setattr(cli, attr, tracer.wrap(name, getattr(cli, attr), attrs))

    for attr in ("build_hc", "build_drive", "build_anc", "collapse_ops"):
        patch(model, attr)
    patch(hilbert, "eig_hermitian")
    patch(dynamics, "evolve", _evolve_counts)
    patch(dynamics, "omega_max")
    auto = dynamics.TimeGrid.__dict__["auto"].__func__
    dynamics.TimeGrid.auto = classmethod(tracer.wrap("dynamics.TimeGrid.auto", auto))
    for attr in ("excited_population", "ground_population", "jc_spectrum",
                 "lambda_eff", "dispersive_shift"):
        patch(analytic, attr)
    patch(oracle, "sample_frequencies")
    patch(oracle, "single_excitation_evolve", _grid_counts("grid"))
    patch(oracle, "reduced_single_excitation")
    for attr in ("resolve_config", "_check_cutoff", "write_meta", "numeric_doublet",
                 "run_figure2", "run_figure3", "run_validate"):
        patch(cli, attr)
    patch(cli, "_run_branch_meta", lambda a, _r: {"n_steps": a["n_steps"]})
    patch(cli, "write_csv", lambda a, _r: {"bytes": os.path.getsize(a["path"])})

    pmap = cli._pmap

    def traced_pmap(fn, items):
        with tracer.span("cli._pmap") as rec:
            def task(item):
                with tracer.span("cli._pmap.task", parent=rec["id"]):
                    return fn(item)
            return pmap(task, items)
    cli._pmap = traced_pmap


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

GROUPS = {
    "dynamics.evolve": {"dynamics.evolve"},
    "dynamics.grid": {"dynamics.TimeGrid.auto", "dynamics.omega_max"},
    "model.assembly": {"model.build_hc", "model.build_drive", "model.build_anc",
                       "model.collapse_ops"},
    "hilbert.eig_hermitian": {"hilbert.eig_hermitian"},
    "analytic.closed_form": {"analytic.excited_population", "analytic.ground_population",
                             "analytic.jc_spectrum", "analytic.lambda_eff",
                             "analytic.dispersive_shift"},
    "oracle.sample": {"oracle.sample_frequencies"},
    "oracle.solve": {"oracle.single_excitation_evolve"},
    "oracle.reduced": {"oracle.reduced_single_excitation"},
    "cli.resolve_config": {"cli.resolve_config"},
    "cli.pmap": {"cli._pmap"},
    "cli.pmap_task": {"cli._pmap.task"},
    "cli.write_csv": {"cli.write_csv"},
    "cli.write_meta": {"cli.write_meta"},
    "cli.spectrum": {"cli.numeric_doublet"},
}


def _ancestors(span: dict, by_id: dict):
    parent = by_id.get(span["parent"])
    while parent is not None:
        yield parent
        parent = by_id.get(parent["parent"])


def _is_convergence(span: dict, by_id: dict) -> bool:
    """_check_cutoff, or the step-halving rerun: a branch run with an explicit
    step count made directly by the experiment, not through the pool."""
    if span["name"] == "cli._check_cutoff":
        return True
    return (span["name"] == "cli._run_branch_meta" and span["attrs"]["n_steps"] > 0
            and all(a["name"] != "cli._pmap.task" for a in _ancestors(span, by_id)))


def _outermost(spans: list[dict], member, by_id: dict) -> list[dict]:
    """Spans selected by member() that have no selected ancestor, so nested
    calls inside one layer are counted once."""
    return [s for s in spans if member(s)
            and not any(member(a) for a in _ancestors(s, by_id))]


def _duration(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def self_times(spans: list[dict]) -> dict:
    """{span name: [calls, total s, self s]}: self time is a span's duration
    minus the part of it covered by its child spans (on any thread)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out: dict = {}
    for s in spans:
        covered, edge = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, edge), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                edge = hi
        entry = out.setdefault(s["name"], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s["end"] - s["start"]
        entry[2] += s["end"] - s["start"] - covered
    return out


UNITS = {
    "dynamics.evolve_s": "s", "dynamics.evolve_calls": "count", "dynamics.steps": "count",
    "dynamics.records": "count", "dynamics.us_per_step": "us", "dynamics.max_dim": "dim",
    "dynamics.grid_s": "s",
    "oracle.sample_s": "s", "oracle.solve_s": "s", "oracle.solve_steps": "count",
    "oracle.us_per_step": "us", "oracle.reduced_s": "s",
    "cli.resolve_config_s": "s", "cli.pmap_s": "s", "cli.pmap_task_s": "s",
    "cli.pmap_tasks": "count", "cli.pmap_threads": "count", "cli.convergence_s": "s",
    "cli.write_csv_s": "s", "cli.csv_bytes": "bytes", "cli.write_meta_s": "s",
    "cli.spectrum_s": "s",
    "model.assembly_s": "s", "model.assembly_calls": "count",
    "hilbert.eig_hermitian_s": "s", "analytic.closed_form_s": "s",
    "blas.threads": "count", "trace.wall_s": "s", "trace.overhead_s": "s",
}


def layer_metrics(spans: list[dict]) -> dict:
    by_id = {s["id"]: s for s in spans}
    busy = {group: _duration(_outermost(spans, lambda s, n=names: s["name"] in n, by_id))
            for group, names in GROUPS.items()}
    evolve = [s for s in spans if s["name"] == "dynamics.evolve"]
    solve = [s for s in spans if s["name"] == "oracle.single_excitation_evolve"]
    tasks = [s for s in spans if s["name"] == "cli._pmap.task"]
    steps = sum(s["attrs"]["steps"] for s in evolve)
    solve_steps = sum(s["attrs"]["steps"] for s in solve)
    return {
        "dynamics.evolve_s": busy["dynamics.evolve"],
        "dynamics.evolve_calls": len(evolve),
        "dynamics.steps": steps,
        "dynamics.records": sum(s["attrs"]["records"] for s in evolve),
        "dynamics.us_per_step": 1e6 * busy["dynamics.evolve"] / steps if steps else 0.0,
        "dynamics.max_dim": max((s["attrs"]["dim"] for s in evolve), default=0),
        "dynamics.grid_s": busy["dynamics.grid"],
        "oracle.sample_s": busy["oracle.sample"],
        "oracle.solve_s": busy["oracle.solve"],
        "oracle.solve_steps": solve_steps,
        "oracle.us_per_step": 1e6 * busy["oracle.solve"] / solve_steps if solve_steps else 0.0,
        "oracle.reduced_s": busy["oracle.reduced"],
        "cli.resolve_config_s": busy["cli.resolve_config"],
        "cli.pmap_s": busy["cli.pmap"],
        "cli.pmap_task_s": busy["cli.pmap_task"],
        "cli.pmap_tasks": len(tasks),
        "cli.pmap_threads": max((len({t["thread"] for t in tasks if t["parent"] == p["id"]})
                                 for p in spans if p["name"] == "cli._pmap"), default=0),
        "cli.convergence_s": _duration(
            _outermost(spans, lambda s: _is_convergence(s, by_id), by_id)),
        "cli.write_csv_s": busy["cli.write_csv"],
        "cli.csv_bytes": sum(s["attrs"]["bytes"] for s in spans if s["name"] == "cli.write_csv"),
        "cli.write_meta_s": busy["cli.write_meta"],
        "cli.spectrum_s": busy["cli.spectrum"],
        "model.assembly_s": busy["model.assembly"],
        "model.assembly_calls": len(_outermost(
            spans, lambda s: s["name"] in GROUPS["model.assembly"], by_id)),
        "hilbert.eig_hermitian_s": busy["hilbert.eig_hermitian"],
        "analytic.closed_form_s": busy["analytic.closed_form"],
    }

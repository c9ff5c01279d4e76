"""Tests of the benchmark's own checkers and trace aggregation.

Kept out of the repository's test suite on purpose (the file name does not
match pytest's test_*.py pattern). Run with

    python3 -m pytest -q perfbench/checker_tests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

T_END, N_RECORD, D = 0.01, 20, 4
P = reference.Params.from_mhz(412.5, 0.0, 75.0, 40.0, 12.5)
TIMES = np.linspace(0.0, T_END, N_RECORD + 1)


def to_csv(header, columns) -> str:
    """CSV text printed the way the program prints it: 9 significant digits."""
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(f"{float(x) + 0.0:.9g}" for x in row))
    return "\n".join(lines) + "\n"


def moved(text: str, row: int, col: int, share: float) -> str:
    """text with one cell moved by `share` of the maximum of its curve: the
    column within the row's block of N_RECORD + 1 records."""
    header, rows = checks.read_csv(text)
    lo = row - row % (N_RECORD + 1)
    rows[row, col] += share * np.max(np.abs(rows[lo:lo + N_RECORD + 1, col]))
    return to_csv(header, rows.T)


@pytest.fixture(scope="module")
def fig2():
    ref = reference.lindblad_records(P, D, T_END, N_RECORD)
    e, g = reference.closed_form_excited(TIMES, P), reference.closed_form_ground(TIMES, P)
    text = to_csv(checks.FIGURE2_HEADER, [TIMES, ref["e"][0], e, ref["g"][0], g])
    return text, (ref, e, g)


@pytest.fixture(scope="module")
def fig3():
    refs = {g: reference.lindblad_records(
        reference.Params.from_mhz(412.5, 0.0, 75.0, 40.0, g), D, T_END, N_RECORD)
        for g in (10.0, 50.0)}
    cols = [[] for _ in checks.FIGURE3_HEADER]
    for g, ref in refs.items():
        te, tg = sum(ref["e"]), sum(ref["g"])
        for col, values in zip(cols, (TIMES, np.full_like(TIMES, g), te, tg, te - tg)):
            col.extend(values)
    return to_csv(checks.FIGURE3_HEADER, cols), refs


def test_figure2_reference_passes(fig2):
    text, ref = fig2
    assert checks.check_figure2(text, *ref, T_END, N_RECORD) == []


@pytest.mark.parametrize("col", [1, 2, 3, 4])
def test_figure2_cell_moved_by_1e_4_fails(fig2, col):
    text, ref = fig2
    assert checks.check_figure2(moved(text, N_RECORD // 2, col, 1e-4), *ref,
                                T_END, N_RECORD)


def test_figure2_missing_row_fails(fig2):
    text, ref = fig2
    assert checks.check_figure2(text.rsplit("\n", 2)[0] + "\n", *ref, T_END, N_RECORD)


def test_figure3_reference_passes(fig3):
    text, refs = fig3
    assert checks.check_figure3(text, refs, T_END, N_RECORD) == []


@pytest.mark.parametrize("col", [2, 3, 4])
@pytest.mark.parametrize("row", [N_RECORD // 2, N_RECORD + 1 + N_RECORD // 2])
def test_figure3_cell_moved_by_1e_4_fails(fig3, row, col):
    text, refs = fig3
    assert checks.check_figure3(moved(text, row, col, 1e-4), refs, T_END, N_RECORD)


def _report(value=0.0375, failed=()):
    return {"passed": not failed, "checks": [
        {"name": n, "value": value if n == "oracle_traceout" else 0.0,
         "threshold": 1.0, "passed": n not in failed}
        for n in sorted(checks.VALIDATE_CHECKS)]}


def test_validate_passing_report_passes():
    assert checks.check_validate(_report(), [0.0375, 0.02, 0.03]) == []


@pytest.mark.parametrize("name", sorted(checks.VALIDATE_CHECKS))
def test_validate_one_failed_check_fails(name):
    report = _report(failed=(name,))
    report["passed"] = True   # a report whose summary disagrees with a check
    assert checks.check_validate(report, [0.0375])


def test_validate_oracle_value_off_fails():
    assert checks.check_validate(_report(value=0.0375 + 1e-5), [0.0375])


def test_validate_missing_check_fails():
    report = _report()
    report["checks"] = report["checks"][1:]
    assert checks.check_validate(report, [0.0375])


def test_envelope_of_identical_series_is_zero():
    y = np.abs(np.sin(40.0 * TIMES)) * np.exp(-TIMES)
    assert reference.envelope_deviation(TIMES, y, y) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        {"id": 1, "name": "cli._pmap", "parent": None, "thread": 1, "attrs": {},
         "start": 0.0, "end": 10.0},
        # two overlapping children on two threads cover [1, 8]
        {"id": 2, "name": "cli._pmap.task", "parent": 1, "thread": 2, "attrs": {},
         "start": 1.0, "end": 6.0},
        {"id": 3, "name": "cli._pmap.task", "parent": 1, "thread": 3, "attrs": {},
         "start": 2.0, "end": 8.0},
    ]
    out = tracing.self_times(spans)
    assert out["cli._pmap"] == [1, 10.0, 3.0]
    assert out["cli._pmap.task"] == [2, 11.0, 11.0]


def test_convergence_counts_check_cutoff_and_direct_rerun_only():
    def span(i, name, parent, start, end, n_steps=None):
        attrs = {} if n_steps is None else {"n_steps": n_steps}
        return {"id": i, "name": name, "parent": parent, "thread": 1, "attrs": attrs,
                "start": start, "end": end}
    spans = [
        span(1, "cli.run_figure2", None, 0.0, 20.0),
        span(2, "cli._pmap", 1, 0.0, 5.0),
        span(3, "cli._pmap.task", 2, 0.0, 5.0),
        span(4, "cli._run_branch_meta", 3, 0.0, 5.0, n_steps=0),
        span(5, "cli._check_cutoff", 1, 5.0, 9.0),
        span(6, "cli._run_branch_meta", 1, 9.0, 16.0, n_steps=7600),
    ]
    assert tracing.layer_metrics(spans)["cli.convergence_s"] == pytest.approx(11.0)


def test_benchmark_json_lists_what_the_runs_print():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.UNITS

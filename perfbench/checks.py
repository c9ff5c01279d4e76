"""Checks of the program's artifacts against the references in reference.py.

Every checker returns a list of problems; an empty list means the artifact
passed. Curve tolerances are shares of the reference curve's maximum.
"""

from __future__ import annotations

import numpy as np

CURVE_TOL = 1e-6      # integrated curves vs the exact propagation
FORMAT_TOL = 2e-8     # cells that are exact up to 9-significant-digit printing
ORACLE_TOL = 1e-6     # absolute, recomputed oracle_traceout vs the report

FIGURE2_HEADER = ["t_us", "n_num_e", "n_ana_e", "n_num_g", "n_ana_g"]
FIGURE3_HEADER = ["t_us", "gamma_mhz", "total_e", "total_g", "gain"]
VALIDATE_CHECKS = {
    "timestep_guard", "conservation", "trace_error", "hermiticity", "positivity",
    "cutoff_convergence", "timestep_convergence", "jc_spectrum_match",
    "analytic_steady_e", "analytic_steady_g", "oracle_traceout", "oracle_norm",
}


def read_csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    if not lines:
        return [], np.empty((0, 0))
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return header, rows.reshape(len(lines) - 1, len(header))


def compare(name: str, got, ref, tol: float) -> list[str]:
    """Problem if any |got - ref| exceeds tol times the largest |ref|."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} vs reference {ref.shape}"]
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    dev = float(np.max(np.abs(got - ref))) / scale
    return [f"{name}: deviation {dev:.3g} of the curve maximum > {tol:g}"] if dev > tol else []


def _times(name: str, got, t_end: float, n_record: int) -> list[str]:
    return compare(name, got, np.linspace(0.0, t_end, n_record + 1), FORMAT_TOL)


def check_figure2(text: str, ref: dict, closed_e, closed_g,
                  t_end: float, n_record: int) -> list[str]:
    """figure2 CSV vs the exact collective curves ref[state][0] and the
    closed forms evaluated on the record times."""
    header, rows = read_csv(text)
    if header != FIGURE2_HEADER:
        return [f"figure2 header {header}"]
    if rows.shape[0] != n_record + 1:
        return [f"figure2 has {rows.shape[0]} rows, expected {n_record + 1}"]
    return (_times("t_us", rows[:, 0], t_end, n_record)
            + compare("n_num_e", rows[:, 1], ref["e"][0], CURVE_TOL)
            + compare("n_ana_e", rows[:, 2], closed_e, FORMAT_TOL)
            + compare("n_num_g", rows[:, 3], ref["g"][0], CURVE_TOL)
            + compare("n_ana_g", rows[:, 4], closed_g, FORMAT_TOL))


def check_figure3(text: str, refs: dict, t_end: float, n_record: int) -> list[str]:
    """figure3 CSV, one block of n_record + 1 rows per gamma in the order of
    refs ({gamma_mhz: reference records}): totals vs collective + subradiant
    of the exact propagation, and gain == total_e - total_g per row."""
    header, rows = read_csv(text)
    if header != FIGURE3_HEADER:
        return [f"figure3 header {header}"]
    per = n_record + 1
    if rows.shape[0] != per * len(refs):
        return [f"figure3 has {rows.shape[0]} rows, expected {per * len(refs)}"]
    problems = []
    for k, (gamma, ref) in enumerate(refs.items()):
        block = rows[k * per:(k + 1) * per]
        tag = f"gamma={gamma:g}"
        if np.any(block[:, 1] != gamma):
            problems.append(f"{tag}: gamma_mhz column does not hold {gamma:g}")
        total_e, total_g, gain = block[:, 2], block[:, 3], block[:, 4]
        scale = max(float(np.max(np.abs(total_e))), float(np.max(np.abs(total_g))))
        problems += _times(f"{tag} t_us", block[:, 0], t_end, n_record)
        problems += compare(f"{tag} total_e", total_e, sum(ref["e"]), CURVE_TOL)
        problems += compare(f"{tag} total_g", total_g, sum(ref["g"]), CURVE_TOL)
        # a residual against the larger total: gain itself can be tiny
        residual = float(np.max(np.abs(gain - (total_e - total_g)))) / max(scale, 1e-300)
        if residual > FORMAT_TOL:
            problems.append(f"{tag} gain != total_e - total_g: {residual:.3g} of the total")
    return problems


def check_validate(report: dict, oracle_values) -> list[str]:
    """validate report: every expected check present and passed, and the
    worst oracle_traceout equal to the recomputed per-seed maximum."""
    checks = {c.get("name"): c for c in report.get("checks", [])}
    problems = []
    if report.get("passed") is not True:
        problems.append("report does not say passed")
    if set(checks) != VALIDATE_CHECKS:
        problems.append(f"check names {sorted(checks)}")
    problems += [f"check {name} failed" for name, c in checks.items()
                 if c.get("passed") is not True]
    value = checks.get("oracle_traceout", {}).get("value")
    expect = max(oracle_values)
    if not isinstance(value, (int, float)) or abs(value - expect) > ORACLE_TOL:
        problems.append(f"oracle_traceout {value} vs recomputed {expect:.9g}")
    return problems

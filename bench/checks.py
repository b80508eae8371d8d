"""Output checks: every operation of a job is checked against physics and,
for the canonical seed, against reference outputs.

An operation is one scan point, spectrum lane or ladder run together with
its check.  ``check_outputs`` returns one ``(name, ok, detail)`` row per
operation; an operation whose files are missing, non-finite or wrong counts
as failed, so a broken solver can never pass as a fast one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

SUM_RULE_TOL = 0.01  # |integral A dnu - pi mu^2| / (pi mu^2)
ZERO_COUPLING_MIN_OVERLAP = 99.99  # percent, both methods are exact at V = 0
SCAN_REFERENCE_TOL = 1e-3  # percentage points (ROADMAP item 4)
SPECTRUM_REFERENCE_MIN_OVERLAP = 99.99  # percent
LADDER_TOLERANCE = 1e-3  # the scenario's pm_tolerance


def read_tsv(path):
    return np.loadtxt(path, comments="#", ndmin=2)


def area_overlap(nu, a, b):
    """Percent common area of two spectra on one grid (clip, normalize, min).

    Kept independent of ``aggspec.spectra.overlap`` so that the check does
    not trust the code it checks.
    """
    a = np.maximum(a, 0.0)
    b = np.maximum(b, 0.0)
    area_a = np.trapezoid(a, nu)
    area_b = np.trapezoid(b, nu)
    if not (area_a > 0 and area_b > 0):
        return 0.0
    return 100.0 * float(np.trapezoid(np.minimum(a / area_a, b / area_b), nu))


def check_trace(path, mu_sq):
    """Problems with a trace file: missing, non-finite, or M(0) != mu^2."""
    if not Path(path).is_file():
        return [f"{Path(path).name} missing"]
    data = read_tsv(path)
    if not np.all(np.isfinite(data)):
        return [f"{Path(path).name} has non-finite samples"]
    m0 = complex(data[0, 1], data[0, 2])
    if abs(m0 - mu_sq) > 1e-12 * mu_sq:
        return [f"{Path(path).name}: M(0) = {m0} != mu^2 = {mu_sq}"]
    return []


def check_spectrum(path, mu_sq, reference=None, min_overlap=None):
    """Problems with a spectrum file: missing, non-finite, sum rule, reference."""
    name = Path(path).name
    if not Path(path).is_file():
        return [f"{name} missing"]
    data = read_tsv(path)
    nu, values = data[:, 0], data[:, 1]
    if not np.all(np.isfinite(data)):
        return [f"{name} has non-finite values"]
    problems = []
    area = float(np.trapezoid(values, nu))
    if not abs(area - math.pi * mu_sq) <= SUM_RULE_TOL * math.pi * mu_sq:
        problems.append(f"{name}: sum rule {area:.6g} != pi mu^2 = {math.pi * mu_sq:.6g}")
    if reference is not None:
        ref = np.asarray(reference, dtype=float)
        if ref.shape != values.shape:
            problems.append(f"{name}: {values.size} points, reference has {ref.size}")
        else:
            value = area_overlap(nu, values, ref)
            if not value >= min_overlap:
                problems.append(f"{name}: overlap with reference {value:.6f}% < {min_overlap}%")
    return problems


def load_reference(workload):
    return json.loads(REFERENCE_FILE.read_text())[workload]


def _op(name, problems):
    return (name, not problems, "; ".join(problems))


def _check_scan(scenario, out, reference):
    mu_sq = float(scenario.n_monomers)
    rows = read_tsv(out / "overlap.tsv") if (out / "overlap.tsv").is_file() else np.empty((0, 2))
    ref = dict(map(tuple, reference["overlap"])) if reference else {}
    ops = []
    for k, (v, suffix) in enumerate(zip(scenario.couplings, scenario.suffixes)):
        name = f"V={v:.6g}"
        if k >= len(rows) or rows[k, 0] != v:
            ops.append(_op(name, ["no overlap.tsv row"]))
            continue
        value = rows[k, 1]
        problems = []
        if not math.isfinite(value):
            problems.append(f"overlap is {value}")
        for method in ("zofe", "pm"):
            problems += check_spectrum(out / f"spectrum_{method}{suffix}.tsv", mu_sq)
        if abs(v) <= 1e-9 and not value >= ZERO_COUPLING_MIN_OVERLAP:
            problems.append(f"V = 0 overlap {value:.6f}% < {ZERO_COUPLING_MIN_OVERLAP}%")
        if reference:
            expected = ref.get(v)
            if expected is None:
                problems.append("no reference overlap at this V")
            elif not abs(value - expected) <= SCAN_REFERENCE_TOL:
                problems.append(f"overlap {value:.6f}% differs from reference {expected:.6f}%")
        ops.append(_op(name, problems))
    return ops


def _check_spectra(scenario, out, reference, min_overlap):
    mu_sq = float(scenario.n_monomers)
    ops = []
    for v, suffix in zip(scenario.couplings, scenario.suffixes):
        spectrum_file = f"spectrum_{scenario.method}{suffix}.tsv"
        problems = check_trace(out / f"trace_{scenario.method}{suffix}.tsv", mu_sq)
        problems += check_spectrum(
            out / spectrum_file, mu_sq,
            reference=reference["spectra"][spectrum_file] if reference else None,
            min_overlap=min_overlap,
        )
        ops.append(_op(f"V={v:.6g}", problems))
    return ops


def check_outputs(scenario, out_dir, reference=None):
    """One (name, ok, detail) row per operation of the finished job.

    ``reference`` is the canonical reference of this workload, or None to
    run the physics checks only.
    """
    out = Path(out_dir)
    if scenario.entry == "run_vscan":
        return _check_scan(scenario, out, reference)
    if scenario.entry == "run_converge":
        ops = _check_spectra(scenario, out, reference, 100.0 * (1.0 - LADDER_TOLERANCE))
        if not (out / "converged_caps.tsv").is_file():
            ops = [(name, False, (detail + "; " if detail else "") + "converged_caps.tsv missing")
                   for name, _, detail in ops]
        return ops
    return _check_spectra(scenario, out, reference, SPECTRUM_REFERENCE_MIN_OVERLAP)

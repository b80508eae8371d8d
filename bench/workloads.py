"""Workload definitions: the scenario each workload feeds to ``aggspec.cli``.

A workload is one batch job driven through a public ``aggspec.cli`` entry
point.  ``scenario(name, seed)`` returns the scenario file text and the
coupling values the job visits.  Seed 0 is the canonical input set; any other
seed shifts the workload's coupling values inside the same range, drawn from
values on which the job does the same amount of work (see README.md), so a
claim can be re-checked on inputs it was not tuned on.

This module imports nothing outside the standard library: generating the
scenario is part of the measured set-up, and the program is imported only by
the worker.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

_FIG1A_BATH = """\
[bath]
huang_rhys = 0.64
omega = 1.0
gamma = 0.25
"""

_SIXTERM_BATH = """\
[bath]
huang_rhys = 0.4 0.07 0.18 0.24 0.12 0.24
omega = 0.23 0.42 0.57 1.29 1.41 1.61
gamma = 0.0575 0.105 0.1425 0.3225 0.3525 0.4025
"""

# Half-widths a of the dimer scan [-a, a] (11 points, so V = 0 is always on
# the grid).  At dt = 0.01 both end lanes +-a trip the ZOFE norm guard and are
# rerun at dt/2, and no interior lane trips, for every value listed here.
# The guard windows are narrower than 0.001 in V, so the scan edge is drawn
# from values checked one by one instead of from an interval: the edges
# 0.423, 0.424, 0.428, 0.434 and 0.435 trip more lanes or need more halvings,
# and at 0.431 the end lanes fail at every step of the retry ladder.
DIMER_EDGES = (0.425, 0.429, 0.433)

# Other seeds move each coupling of heptamer_zofe and trimer_converge by a
# multiple of SHIFT_STEP, at most SHIFT_STEPS steps either way.  Every value on
# that grid was run once and does the same work as the canonical one: no ZOFE
# guard trip (the heptamer lane at V = 0.42, one step further, trips it) and
# caps 8 accepted on the trimer ladder.
SHIFT_STEP = 0.005
SHIFT_STEPS = 3


@dataclass(frozen=True)
class Scenario:
    """What one workload run feeds to the program, and what to check."""

    workload: str
    seed: int
    entry: str  # run_vscan | run_spectrum | run_converge
    text: str
    n_monomers: int
    couplings: tuple  # the V values the job visits, in output order
    method: str  # the method whose trace/spectrum files are written
    suffixes: tuple  # output file suffix of each coupling ("" = unsuffixed)


def _aggregate(n, coupling_v=0.0):
    return (
        "[aggregate]\n"
        f"n_monomers = {n}\n"
        f"epsilon = {' '.join(['0'] * n)}\n"
        f"coupling_v = {coupling_v!r}\n"
        "dipoles = equal-parallel\n"
        "polarization = 1 0 0\n"
    )


def _run(method, nu, caps, extra=""):
    nu_min, nu_max = nu
    return (
        "[run]\n"
        f"method = {method}\n"
        "dt = 0.01\n"
        "t_max = 150\n"
        "eta = 0.01\n"
        f"nu_min = {nu_min}\n"
        f"nu_max = {nu_max}\n"
        "nu_step = 0.01\n"
        f"pm_caps = {caps}\n"
        + extra
    )


def _shift(rng, base):
    """``base`` moved by a whole number of SHIFT_STEPs, rounded to 1e-6."""
    return round(base + SHIFT_STEP * rng.randint(-SHIFT_STEPS, SHIFT_STEPS), 6)


def _dimer_scan(rng):
    edge = DIMER_EDGES[0] if rng is None else rng.choice(DIMER_EDGES)
    steps = 11
    text = (
        _aggregate(2) + _FIG1A_BATH + _run("both", (-6, 10), "12 12")
        + f"[scan]\nv_min = {-edge!r}\nv_max = {edge!r}\nv_steps = {steps}\n"
        "keep_spectra = true\n"
    )
    grid = tuple(-edge + 2 * edge * k / (steps - 1) for k in range(steps))
    return "run_vscan", text, 2, grid, "both", tuple(f"_V{v:g}" for v in grid)


def _sixterm_pm(rng):
    v = 0.44 if rng is None else round(rng.uniform(0.40, 0.48), 6)
    text = _aggregate(2, v) + _SIXTERM_BATH + _run("pm", (-7, 11), "6 6")
    return "run_spectrum", text, 2, (v,), "pm", ("",)


def _heptamer_zofe(rng):
    base = (-1.0, 0.44, 1.0)
    values = base if rng is None else tuple(_shift(rng, v) for v in base)
    text = (
        _aggregate(7) + _FIG1A_BATH
        + _run("zofe", (-5, 9), "auto",
               f"v_values = {' '.join(repr(v) for v in values)}\n")
    )
    return "run_spectrum", text, 7, values, "zofe", tuple(f"_V{v:g}" for v in values)


def _trimer_converge(rng):
    v = 1.5 if rng is None else _shift(rng, 1.5)
    text = (
        _aggregate(3, v) + _FIG1A_BATH
        + _run("pm", (-7, 11), "auto", "pm_tolerance = 1e-3\n")
    )
    return "run_converge", text, 3, (v,), "pm", ("",)


_BUILDERS = {
    "dimer_scan": _dimer_scan,
    "sixterm_pm": _sixterm_pm,
    "heptamer_zofe": _heptamer_zofe,
    "trimer_converge": _trimer_converge,
}

WORKLOADS = tuple(_BUILDERS)


def scenario(workload: str, seed: int) -> Scenario:
    """The scenario of ``workload`` for ``seed`` (0 = canonical)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = None if seed == 0 else random.Random(f"{workload}:{seed}")
    return Scenario(workload, seed, *_BUILDERS[workload](rng))

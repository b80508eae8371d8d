"""Tests of the benchmark itself:  python3 -m pytest -q bench"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Pseudomode dimer at caps 12 with a step far too large: RK4 overflows to
# inf/nan, and run_spectrum still writes the files without raising.
NAN_DIMER = """\
[aggregate]
n_monomers = 2
coupling_v = 0.44
[bath]
huang_rhys = 0.64
omega = 1.0
gamma = 0.25
[run]
method = pm
dt = 0.6
t_max = 150
nu_min = -6
nu_max = 10
nu_step = 0.01
pm_caps = 12 12
"""


def test_non_finite_trace_is_a_failed_operation(tmp_path):
    scenario = workloads.Scenario(
        workload="nan_dimer", seed=0, entry="run_spectrum", text=NAN_DIMER,
        n_monomers=2, couplings=(0.44,), method="pm", suffixes=("",),
    )
    cli, cfg, _ = worker.setup(scenario, tmp_path)
    _, _, error = worker.run(cli, scenario, cfg, tmp_path / "run")
    ops = checks.check_outputs(scenario, tmp_path / "run")
    assert len(ops) == 1
    name, ok, detail = ops[0]
    assert not ok, "a non-finite trace must count as a failed operation"
    assert error is not None or "non-finite" in detail


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_are_deterministic_and_stay_in_range(name):
    canonical = workloads.scenario(name, 0)
    assert workloads.scenario(name, 7) == workloads.scenario(name, 7)
    shifted = {workloads.scenario(name, seed).couplings for seed in range(1, 30)}
    assert len(shifted) > 1
    width = 0.01 if name == "dimer_scan" else 0.045
    for couplings in shifted:
        assert len(couplings) == len(canonical.couplings)
        for v, v0 in zip(couplings, canonical.couplings):
            assert abs(v - v0) <= width


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli.run_spectrum", "parent": None, "start": 0.0, "end": 10.0,
         "error": None, "bytes": 5},
        {"name": "zofe.propagate_zofe", "parent": 0, "start": 1.0, "end": 4.0,
         "error": "PropagationError"},
        {"name": "zofe.propagate_zofe", "parent": 0, "start": 4.0, "end": 8.0,
         "error": None, "steps": 100},
        {"name": "spectra.absorption_from_trace", "parent": 0, "start": 8.0,
         "end": 9.0, "error": None, "terms": 1000},
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["cli.bytes_written"] == 5
    assert m["zofe.propagate_s"] == pytest.approx(7.0)
    assert m["zofe.guard_trips"] == 1
    assert m["zofe.steps"] == 100
    assert m["zofe.step_us"] == pytest.approx(4e4)
    assert m["zofe.useful_time_ratio"] == pytest.approx(4.0 / 7.0)
    assert m["spectra.transform_ns_per_term"] == pytest.approx(1e6)
    assert m["pseudomode.propagate_s"] == 0

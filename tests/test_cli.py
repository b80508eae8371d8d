import dataclasses
from pathlib import Path

import numpy as np
import pytest

from aggspec import pseudomode
from aggspec.cli import (
    ConfigError,
    _zofe_scan_spectra,
    load_scenario,
    main,
    run_converge,
    run_spectrum,
    run_vscan,
)
from aggspec.model import AggregateSpec, LorentzianBath
from aggspec.propagation import PropagationConfig, PropagationError
from aggspec.spectra import absorption_from_trace
from aggspec.zofe import propagate_zofe

MONOMER_CFG = """
[aggregate]
n_monomers = 1
epsilon = 0
dipoles = equal-parallel
polarization = 1 0 0

[bath]
huang_rhys = 0.64
omega = 1.0
gamma = 0.25

[run]
method = both
dt = 0.01
t_max = 120
eta = 0.02
nu_min = -4
nu_max = 6
nu_step = 0.01
pm_caps = 10 10
"""

STICK_CFG = """
[aggregate]
n_monomers = 2
epsilon = 0 0
coupling_v = 0.3
dipoles = equal-parallel
polarization = 1 0 0

[run]
method = both
dt = 0.01
t_max = 120
eta = 0.1
nu_min = -2
nu_max = 2
nu_step = 0.002
pm_caps = 0 0
"""

VSCAN_CFG = """
[aggregate]
n_monomers = 2
epsilon = 0 0
dipoles = equal-parallel

[bath]
huang_rhys = 0.64
omega = 1.0
gamma = 0.25

[run]
method = both
dt = 0.01
t_max = 150
eta = 0.01
nu_min = -5
nu_max = 8
nu_step = 0.01
pm_caps = 12 12

[scan]
v_min = 0
v_max = 0
v_steps = 1
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def read_tsv(path):
    rows = [
        [float(x) for x in line.split("\t")]
        for line in Path(path).read_text().splitlines()
        if not line.startswith("#")
    ]
    return np.asarray(rows)


def test_unknown_key_rejected(tmp_path):
    # a typo, the retired doubling knob (propagation always doubles when the
    # bright state is real) and the retired max_states knob
    for text in (MONOMER_CFG.replace("eta =", "etaa ="),
                 MONOMER_CFG.replace("[run]", "[run]\ndoubling = false"),
                 MONOMER_CFG.replace("[run]", "[run]\nmax_states = 10")):
        path = write_cfg(tmp_path, text)
        with pytest.raises(ConfigError, match="unknown key"):
            load_scenario(path)


def test_unknown_block_rejected(tmp_path):
    path = write_cfg(tmp_path, MONOMER_CFG + "\n[extras]\nfoo = 1\n")
    with pytest.raises(ConfigError, match="unknown block"):
        load_scenario(path)


def test_duplicate_key_rejected(tmp_path):
    path = write_cfg(tmp_path, MONOMER_CFG + "\n[scan]\nv_min = 0\nv_min = 1\n")
    with pytest.raises(ConfigError, match="duplicate key"):
        load_scenario(path)


def test_missing_aggregate_rejected(tmp_path):
    path = write_cfg(tmp_path, "[run]\nmethod = zofe\n")
    with pytest.raises(ConfigError, match="aggregate"):
        load_scenario(path)


def test_bath_needs_exactly_one_strength_kind(tmp_path):
    bad = MONOMER_CFG.replace(
        "huang_rhys = 0.64", "huang_rhys = 0.64\ngamma_amp = 0.64"
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_scenario(write_cfg(tmp_path, bad))


def test_scenario_fields(tmp_path):
    cfg = load_scenario(write_cfg(tmp_path, MONOMER_CFG))
    assert cfg.method == "both"
    assert cfg.aggregate.n_monomers == 1
    assert cfg.bath.terms[0][0] == (0.64, 1.0, 0.25)
    assert cfg.pm_caps == (10, 10)
    assert cfg.nu[0] == pytest.approx(-4.0)
    assert cfg.nu[-1] == pytest.approx(6.0)
    # 0.6 / 0.1 is 5.999999999999999 in floating point; nu_max stays on the grid
    text = MONOMER_CFG.replace("nu_min = -4\nnu_max = 6\nnu_step = 0.01",
                               "nu_min = -0.3\nnu_max = 0.3\nnu_step = 0.1")
    cfg = load_scenario(write_cfg(tmp_path, text))
    assert cfg.nu.size == 7
    assert cfg.nu[-1] == pytest.approx(0.3)


def test_zero_strength_terms_are_dropped(tmp_path):
    text = MONOMER_CFG.replace("huang_rhys = 0.64", "huang_rhys = 0.64 0") \
                      .replace("omega = 1.0", "omega = 1.0 2.0") \
                      .replace("gamma = 0.25", "gamma = 0.25 0.5")
    cfg = load_scenario(write_cfg(tmp_path, text))
    assert len(cfg.bath.terms[0]) == 1


def test_spectrum_run_writes_files_and_is_reproducible(tmp_path):
    cfg = load_scenario(write_cfg(tmp_path, MONOMER_CFG))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run_spectrum(cfg, out_a)
    run_spectrum(cfg, out_b)
    for name in ("spectrum_zofe.tsv", "spectrum_pm.tsv", "trace_zofe.tsv", "trace_pm.tsv"):
        assert (out_a / name).exists()
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / "spectrum_zofe.tsv").read_text().splitlines()[0]
    assert header == "# nu A"
    data = read_tsv(out_a / "spectrum_zofe.tsv")
    assert data.shape == (1001, 2)
    trace = read_tsv(out_a / "trace_zofe.tsv")
    assert trace.shape[1] == 3
    assert trace[0, 1] == pytest.approx(1.0)  # Re M(0) = mu_tot^2


def test_empty_bath_gives_stick_spectrum_at_eigenvalues(tmp_path):
    cfg = load_scenario(write_cfg(tmp_path, STICK_CFG))
    out = tmp_path / "out"
    run_spectrum(cfg, out)
    data = read_tsv(out / "spectrum_pm.tsv")
    nu, a = data[:, 0], data[:, 1]
    idx = np.flatnonzero((a[1:-1] > a[:-2]) & (a[1:-1] > a[2:])) + 1
    peaks = nu[idx[a[idx] > 0.1 * a.max()]]
    # equal parallel dipoles excite only the symmetric eigenstate at +V
    assert len(peaks) == 1
    assert peaks[0] == pytest.approx(0.3, abs=0.004)
    # the pm trace is recorded at spacing 2*dt (doubling), so the quadrature
    # differs slightly from the zofe one
    zofe = read_tsv(out / "spectrum_zofe.tsv")
    np.testing.assert_allclose(zofe[:, 1], a, atol=1e-4)


def test_vscan_single_point_at_zero_coupling(tmp_path):
    cfg = load_scenario(write_cfg(tmp_path, VSCAN_CFG))
    out = tmp_path / "out"
    paths, n_failed = run_vscan(cfg, out, threads=1)
    assert n_failed == 0
    data = read_tsv(out / "overlap.tsv")
    assert data.shape == (1, 2)
    assert data[0, 0] == 0.0
    assert data[0, 1] >= 99.9


def test_vscan_threads_do_not_change_output(tmp_path):
    three = VSCAN_CFG.replace("v_min = 0\nv_max = 0\nv_steps = 1",
                              "v_min = -0.2\nv_max = 0.2\nv_steps = 3")
    # five lanes split 3 + 2 over the workers; both end lanes trip the norm
    # guard at dt and rerun at dt/2, each in a different chunk
    five = VSCAN_CFG.replace("t_max = 150\neta = 0.01", "t_max = 30\neta = 0.4") \
                    .replace("v_min = 0\nv_max = 0\nv_steps = 1",
                             "v_min = -0.425\nv_max = 0.425\nv_steps = 5")
    for name, text in (("three", three), ("five", five)):
        cfg = load_scenario(write_cfg(tmp_path, text, f"{name}.cfg"))
        out1 = tmp_path / name / "serial"
        out2 = tmp_path / name / "pooled"
        assert run_vscan(cfg, out1, threads=1)[1] == 0
        assert run_vscan(cfg, out2, threads=2)[1] == 0
        assert (out1 / "overlap.tsv").read_bytes() == (out2 / "overlap.tsv").read_bytes()


def test_scan_step_ladder_matches_per_lane_ladder():
    # Each lane ends at the first dt of the ladder dt, dt/2, ... that its norm
    # guard accepts, exactly as when every lane is retried on its own.
    bath = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)
    cfg = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "fig1a_scan.cfg")
    cfg = dataclasses.replace(cfg, propagation=PropagationConfig(dt=0.01, t_max=20.0), eta=0.5)
    couplings = (-0.425, -0.2, 0.0, 0.425)
    aggs = [AggregateSpec.equal_parallel(2, coupling_v=v) for v in couplings]
    spectra = _zofe_scan_spectra(aggs, cfg)
    used = []
    for agg, spectrum in zip(aggs, spectra):
        dt = 0.01
        while True:
            try:
                trace = propagate_zofe(agg, bath, PropagationConfig(dt=dt, t_max=20.0))
                break
            except PropagationError:
                dt /= 2
        used.append(dt)
        assert np.array_equal(spectrum.values, absorption_from_trace(trace, 0.5, cfg.nu).values)
    assert used == [0.005, 0.01, 0.01, 0.005]


def test_vscan_requires_both_methods(tmp_path):
    cfg = load_scenario(write_cfg(tmp_path, VSCAN_CFG), method_override="zofe")
    with pytest.raises(ConfigError, match="method = both"):
        run_vscan(cfg, tmp_path / "x")


def test_vscan_failed_points_recorded_as_nan(tmp_path, capsys):
    # undamped electronic dimer with eta = 0: every point trips the ringing
    # guard, is recorded as nan, and the scan exits with code 3
    text = """
[aggregate]
n_monomers = 2
epsilon = 0 0
dipoles = equal-parallel

[run]
method = both
dt = 0.01
t_max = 50
eta = 0
nu_min = -2
nu_max = 2
nu_step = 0.01
pm_caps = 0 0

[scan]
v_min = -0.5
v_max = 0.5
v_steps = 2
"""
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["vscan", "--config", str(path), "--out", str(out)]) == 3
    data = Path(out / "overlap.tsv").read_text().splitlines()[1:]
    assert len(data) == 2
    for line in data:
        v, value = line.split("\t")
        assert value == "nan"


def test_keep_spectra_writes_per_point_files(tmp_path):
    text = VSCAN_CFG + "keep_spectra = true\n"
    cfg = load_scenario(write_cfg(tmp_path, text))
    out = tmp_path / "out"
    run_vscan(cfg, out, threads=1)
    assert (out / "spectrum_zofe_V0.tsv").exists()
    assert (out / "spectrum_pm_V0.tsv").exists()


def test_converge_subcommand_writes_caps(tmp_path):
    text = MONOMER_CFG.replace("pm_caps = 10 10", "pm_caps = auto")
    cfg = load_scenario(write_cfg(tmp_path, text))
    out = tmp_path / "out"
    run_converge(cfg, out)
    caps = read_tsv(out / "converged_caps.tsv")
    assert caps.shape == (1, 2)
    assert caps[0, 0] >= 2
    assert (out / "spectrum_pm.tsv").exists()


def test_auto_caps_spectrum_propagates_each_rung_once(tmp_path, monkeypatch):
    # spectrum with auto caps writes the trace of the rung the ladder accepts
    # (caps 8 of 1, 2, 4, 8, 16 for this trimer) without propagating it again,
    # and the same files as converge
    text = """
[aggregate]
n_monomers = 3
epsilon = 0 0 0
coupling_v = 1.5

[bath]
huang_rhys = 0.64
omega = 1.0
gamma = 0.25

[run]
method = pm
dt = 0.01
t_max = 150
eta = 0.01
nu_min = -7
nu_max = 11
nu_step = 0.01
pm_caps = auto
pm_tolerance = 1e-3
"""
    cfg = load_scenario(write_cfg(tmp_path, text))
    dims = []
    original = pseudomode.propagate_pm

    def counted(generator, *args, **kwargs):
        dims.append(generator.dim)
        return original(generator, *args, **kwargs)

    monkeypatch.setattr(pseudomode, "propagate_pm", counted)
    for command, run in (("converge", run_converge), ("spectrum", run_spectrum)):
        dims.clear()
        run(cfg, tmp_path / command)
        assert dims == [12, 30, 105, 495, 2907], command
    for name in ("trace_pm.tsv", "spectrum_pm.tsv"):
        assert (tmp_path / "spectrum" / name).read_bytes() == \
            (tmp_path / "converge" / name).read_bytes()


def test_main_exit_codes(tmp_path):
    bad = write_cfg(tmp_path, MONOMER_CFG.replace("eta =", "etaa ="), "bad.cfg")
    assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path)]) == 1
    # ringing guard: undamped electronic line with eta = 0 cannot be transformed
    ring = write_cfg(
        tmp_path,
        STICK_CFG.replace("eta = 0.1", "eta = 0"),
        "ring.cfg",
    )
    assert main(["spectrum", "--config", str(ring), "--out", str(tmp_path / "r")]) == 2
    good = write_cfg(tmp_path, MONOMER_CFG, "good.cfg")
    # a config error found by the run itself: vscan without a [scan] block
    assert main(["vscan", "--config", str(good), "--out", str(tmp_path / "v")]) == 1
    assert main(["spectrum", "--config", str(good), "--out", str(tmp_path / "g"),
                 "--method", "zofe"]) == 0
    assert (tmp_path / "g" / "spectrum_zofe.tsv").exists()
    assert not (tmp_path / "g" / "spectrum_pm.tsv").exists()


def test_unstable_pseudomode_step_exits_2_without_nan_rows(tmp_path):
    # dimer at caps 12 with dt = 0.6: the pseudomode RK4 overflows
    text = VSCAN_CFG.replace("dt = 0.01", "dt = 0.6").replace(
        "dipoles = equal-parallel", "coupling_v = 0.44\ndipoles = equal-parallel")
    path = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out), "--method", "pm"]) == 2
    for tsv in out.glob("*.tsv"):
        assert "nan" not in tsv.read_text()


def test_multi_coupling_values_write_suffixed_files(tmp_path):
    text = STICK_CFG.replace("[run]", "[run]\nv_values = -0.5 0.5")
    cfg = load_scenario(write_cfg(tmp_path, text))
    out = tmp_path / "out"
    run_spectrum(cfg, out)
    for v in ("-0.5", "0.5"):
        assert (out / f"spectrum_zofe_V{v}.tsv").exists()
        assert (out / f"spectrum_pm_V{v}.tsv").exists()


def test_shipped_figure_configs_parse():
    configs = sorted(Path(__file__).resolve().parents[1].glob("configs/*.cfg"))
    assert len(configs) >= 10
    for path in configs:
        cfg = load_scenario(path)
        assert cfg.method == "both"

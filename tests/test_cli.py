import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from aggspec import pseudomode
from aggspec.cli import (
    _TSV_CHUNK,
    ConfigError,
    _write_tsv,
    _zofe_scan_spectra,
    load_scenario,
    main,
    run_converge,
    run_spectrum,
    run_vscan,
)
from aggspec.model import AggregateSpec, LorentzianBath
from aggspec.propagation import PropagationConfig, PropagationError
from aggspec.spectra import CorrelationTrace, absorption_from_trace, overlap
from aggspec.zofe import _run_lanes

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
pm_caps = 10
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
pm_caps = 0
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
pm_caps = 12

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
    assert cfg.pm_caps == 10
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
    # five lanes split 3 + 2 or 2 + 2 + 1 over the workers; both end lanes
    # trip the norm guard at dt and restart with a refined prefix, each in a
    # different chunk
    five = VSCAN_CFG.replace("t_max = 150\neta = 0.01", "t_max = 30\neta = 0.4") \
                    .replace("v_min = 0\nv_max = 0\nv_steps = 1",
                             "v_min = -0.425\nv_max = 0.425\nv_steps = 5\nkeep_spectra = true")
    for name, text, threads in (("three", three, (1, 2)), ("five", five, (1, 2, 3))):
        cfg = load_scenario(write_cfg(tmp_path, text, f"{name}.cfg"))
        outputs = []
        for n in threads:
            out = tmp_path / name / str(n)
            assert run_vscan(cfg, out, threads=n)[1] == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert all(files == outputs[0] for files in outputs)
    assert sorted(outputs[0]) == ["overlap.tsv"] + sorted(
        f"spectrum_{method}_V{v:g}.tsv" for method in ("pm", "zofe")
        for v in (-0.425, -0.2125, 0.0, 0.2125, 0.425))


def test_scan_step_ladder_matches_per_lane_ladder():
    # A lane the norm guard stops reruns only the prefix up to its trip (plus
    # a margin) at dt/2 and the rest at dt.  Its trace and spectrum stay
    # within a stated tolerance of the whole lane at dt/2.
    bath = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)
    cfg = load_scenario(Path(__file__).resolve().parents[1] / "configs" / "fig1a_scan.cfg")
    cfg = dataclasses.replace(cfg, propagation=PropagationConfig(dt=0.01, t_max=20.0), eta=0.5)
    aggs = [AggregateSpec.equal_parallel(2, coupling_v=v) for v in (-0.425, 0.425, 0.429)]
    samples, mu_sq, levels, _, _, _ = _run_lanes(aggs, bath, cfg.propagation)
    spectra = _zofe_scan_spectra(aggs, cfg)
    assert list(levels) == [1, 1, 1]
    whole = PropagationConfig(dt=0.005, t_max=20.0)
    for b, agg in enumerate(aggs):
        ref, _, ref_levels, _, _, _ = _run_lanes([agg], bath, whole)
        assert list(ref_levels) == [0]
        assert np.max(np.abs(samples[b] - ref[0, ::2])) <= 1e-4 * mu_sq[b]
        ref_trace = CorrelationTrace(dt=0.01, samples=ref[0, ::2], mu_tot_sq=mu_sq[b])
        ref_spectrum = absorption_from_trace(ref_trace, cfg.eta, cfg.nu)
        assert overlap(spectra[b], ref_spectrum) >= 100.0 - 1e-3


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
pm_caps = 0

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
    text = MONOMER_CFG.replace("pm_caps = 10", "pm_caps = auto")
    cfg = load_scenario(write_cfg(tmp_path, text))
    out = tmp_path / "out"
    run_converge(cfg, out)
    assert (out / "converged_caps.tsv").read_text().splitlines()[0] == "# caps"
    caps = read_tsv(out / "converged_caps.tsv")
    assert caps.shape == (1, 1)
    assert caps[0, 0] >= 2
    assert (out / "spectrum_pm.tsv").exists()


def test_auto_caps_spectrum_propagates_each_rung_once(tmp_path, monkeypatch):
    # spectrum with auto caps writes the trace of the rung the ladder accepts
    # (caps 8 of 1, 2, 4, 8, 16 for this trimer) without building it again,
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
    original = pseudomode._generator_and_state

    def counted(agg, bath, caps):
        # basis size at this rung: three monomers, one mode slot each
        dims.append(agg.n_monomers * pseudomode.count_occupation_vectors(3, caps))
        return original(agg, bath, caps)

    monkeypatch.setattr(pseudomode, "_generator_and_state", counted)
    for command, run in (("converge", run_converge), ("spectrum", run_spectrum)):
        dims.clear()
        run(cfg, tmp_path / command)
        assert dims == [12, 30, 105, 495, 2907], command
    for name in ("trace_pm.tsv", "spectrum_pm.tsv"):
        assert (tmp_path / "spectrum" / name).read_bytes() == \
            (tmp_path / "converge" / name).read_bytes()


def test_vscan_auto_caps_reuses_the_ladder_trace(tmp_path, monkeypatch):
    # the ladder certifies caps 8 at V = -0.4 (rungs 1, 2, 4, 8, 16); that
    # point takes the accepted rung's trace, shipped to whichever chunk holds
    # it, so only V = 0 and 0.4 compute a trace of their own
    text = """
[aggregate]
n_monomers = 3
epsilon = 0 0 0

[bath]
huang_rhys = 0.64
omega = 1.0
gamma = 0.25

[run]
method = both
dt = 0.01
t_max = 40
eta = 0.25
pm_caps = auto

[scan]
v_min = -0.4
v_max = 0.4
v_steps = 3
"""
    cfg = load_scenario(write_cfg(tmp_path, text))
    assert run_vscan(cfg, tmp_path / "2", threads=2)[1] == 0
    calls = []
    original = pseudomode._generator_and_state

    def counted(agg, bath, caps):
        calls.append((agg.coupling_v, caps))
        return original(agg, bath, caps)

    monkeypatch.setattr(pseudomode, "_generator_and_state", counted)
    assert run_vscan(cfg, tmp_path / "1", threads=1)[1] == 0
    assert calls == [(-0.4, cap) for cap in (1, 2, 4, 8, 16)] + [(0.0, 8), (0.4, 8)]
    assert (tmp_path / "1" / "overlap.tsv").read_bytes() == \
        (tmp_path / "2" / "overlap.tsv").read_bytes()


def test_write_tsv_formats_each_value_to_17_digits(tmp_path):
    # rows are converted a chunk at a time; the bytes are those of formatting
    # every value on its own, across chunk boundaries and for non-finite values
    x = np.linspace(-3.0, 7.0, 2 * _TSV_CHUNK + 5)
    y = np.exp(x) * np.sin(7 * x)
    y[[0, _TSV_CHUNK - 1, _TSV_CHUNK, -1]] = [np.nan, np.inf, -0.0, -np.inf]
    path = _write_tsv(tmp_path / "out.tsv", ("x", "y"), (x, y))
    expected = "# x y\n" + "".join(f"{a:.17g}\t{b:.17g}\n" for a, b in zip(x, y))
    assert path.read_text() == expected
    assert _write_tsv(tmp_path / "caps.tsv", ("b_tot", "b_mode"), ([8], [4])).read_text() \
        == "# b_tot b_mode\n8\t4\n"


def test_write_tsv_pins_the_bytes_of_edge_values(tmp_path):
    # non-finite values, signed zero, the smallest subnormal, the largest
    # float and values that 17 digits do not round to a short form
    values = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1 / 3, 1e22,
              1.7976931348623157e308, -2.5e-7, 8.0]
    path = _write_tsv(tmp_path / "edge.tsv", ("v", "w"), (values, values[::-1]))
    column = ["nan", "inf", "-inf", "-0", "4.9406564584124654e-324", "0.10000000000000001",
              "0.33333333333333331", "1e+22", "1.7976931348623157e+308",
              "-2.4999999999999999e-07", "8"]
    assert path.read_bytes() == ("# v w\n" + "".join(
        f"{a}\t{b}\n" for a, b in zip(column, column[::-1]))).encode()


def test_main_exit_codes(tmp_path):
    # config errors, found before anything is written: a typo, non-finite
    # numbers, a Huang-Rhys bath with X < 0 or omega <= 0, and a ladder
    # tolerance of 1, whose overlap target of 0% would certify cap 1
    for i, (old, new) in enumerate((
        ("eta =", "etaa ="), ("eta = 0.02", "eta = nan"), ("dt = 0.01", "dt = nan"),
        ("t_max = 120", "t_max = inf"), ("huang_rhys = 0.64", "huang_rhys = -0.64"),
        ("omega = 1.0", "omega = 0"), ("pm_caps = 10", "pm_caps = auto\npm_tolerance = 1"),
    )):
        bad = write_cfg(tmp_path, MONOMER_CFG.replace(old, new), "bad.cfg")
        out = tmp_path / f"bad{i}"
        assert main(["spectrum", "--config", str(bad), "--out", str(out)]) == 1, new
        assert not out.exists(), new
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


def test_over_budget_explicit_caps_are_a_config_error(tmp_path, capsys):
    # 2 x 2,003,001 states at caps 2000: rejected while loading, before the
    # ZOFE side runs, for every command that would build the basis
    path = write_cfg(tmp_path, VSCAN_CFG.replace("pm_caps = 12", "pm_caps = 2000"))
    for command in ("spectrum", "vscan"):
        assert main([command, "--config", str(path), "--out", str(tmp_path / command)]) == 1
        assert "4006002 states, exceeding the budget" in capsys.readouterr().err
        assert not (tmp_path / command).exists()


def test_pm_caps_is_one_cap_counted_without_tables(tmp_path, monkeypatch, capsys):
    text = (Path(__file__).resolve().parents[1] / "configs" / "fig1b_monomer.cfg").read_text()
    # a repeated cap reads as that cap; two different ones (the retired
    # per-mode form) are a config error
    path = write_cfg(tmp_path, text.replace("pm_caps = 12", "pm_caps = 12 12"))
    assert load_scenario(path).pm_caps == 12
    path = write_cfg(tmp_path, text.replace("pm_caps = 12", "pm_caps = 8 4"))
    assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    assert "pm_caps: expected 'auto' or one cap" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # cap 10^6 gives 1,000,001 states, over a budget of 10^6: counted as a
    # binomial and rejected without a table of cap entries
    monkeypatch.setattr(pseudomode, "DEFAULT_MAX_STATES", 10**6)
    path = write_cfg(tmp_path, text.replace("pm_caps = 12", "pm_caps = 1000000"))
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="1000001 states, exceeding the budget"):
            load_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_unstable_pseudomode_step_exits_2_without_nan_rows(tmp_path):
    # dimer at caps 12 with dt = 0.6: the pseudomode RK4 overflows, and the
    # Lanczos trace's spacing 2 dt = 1.2 aliases its spectrum
    text = VSCAN_CFG.replace("dt = 0.01", "dt = 0.6").replace(
        "dipoles = equal-parallel", "coupling_v = 0.44\ndipoles = equal-parallel")
    path = write_cfg(tmp_path, text)
    cfg = load_scenario(path)
    for solver in (pseudomode.pm_correlation, pseudomode.krylov_correlation):
        with pytest.raises(PropagationError, match="dt too large"):
            solver(cfg.aggregate, cfg.bath, cfg.propagation, caps=cfg.pm_caps)
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(path), "--out", str(out), "--method", "pm"]) == 2
    for tsv in out.glob("*.tsv"):
        assert "nan" not in tsv.read_text()


def test_spectrum_on_a_tripping_heptamer_lane_exits_0(tmp_path):
    # the 7-site chain at V = 0.42 trips the ZOFE norm guard at dt; the lane
    # restarts with a refined prefix instead of failing the command
    text = """
[aggregate]
n_monomers = 7
epsilon = 0
dipoles = equal-parallel

[bath]
huang_rhys = 0.64
omega = 1.0
gamma = 0.25

[run]
method = zofe
dt = 0.01
t_max = 20
eta = 0.5
nu_min = -5
nu_max = 9
nu_step = 0.01
v_values = 0.42
"""
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)]) == 0
    for name in ("trace_zofe_V0.42.tsv", "spectrum_zofe_V0.42.tsv"):
        data = read_tsv(out / name)
        assert data.shape[0] > 1 and np.all(np.isfinite(data))


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


def test_cli_import_does_not_load_scipy_linalg():
    # only the Markov oracle needs scipy.linalg, and importing it costs every
    # run about 8 MB of resident memory
    code = "import sys, aggspec.cli; print('scipy.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"


def test_zofe_only_run_does_not_load_scipy_sparse(tmp_path):
    # only the pseudomode side needs scipy.sparse, whose import costs a run
    # about 0.2 s and 20 MB; the default nu grid comes from spectra
    text = "\n".join(line for line in MONOMER_CFG.splitlines() if not line.startswith("nu_"))
    path = write_cfg(tmp_path, text)
    code = (
        "import sys; from aggspec.cli import load_scenario, run_spectrum; "
        f"run_spectrum(load_scenario({str(path)!r}, 'zofe'), {str(tmp_path / 'out')!r}); "
        "print('scipy.sparse' in sys.modules, 'aggspec.pseudomode' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False False"
    assert (tmp_path / "out" / "spectrum_zofe.tsv").exists()

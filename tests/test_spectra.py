import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from aggspec.model import AggregateSpec, LorentzianBath
from aggspec.propagation import PropagationConfig
from aggspec.pseudomode import pm_correlation
from aggspec.spectra import (
    CorrelationTrace,
    Spectrum,
    TraceTailError,
    absorption_from_trace,
    cumulant_oracle,
    markov_oracle,
    mean_shift,
    overlap,
)


def damped_line_trace(epsilon, decay, dt, t_max, mu_sq=1.0):
    t = np.arange(round(t_max / dt) + 1) * dt
    samples = mu_sq * np.exp(-1j * epsilon * t - decay * t)
    return CorrelationTrace(dt=dt, samples=samples, mu_tot_sq=mu_sq)


def local_maxima(values, rel_floor=0.01):
    """Indices of interior maxima taller than rel_floor * global max."""
    inner = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    idx = np.flatnonzero(inner) + 1
    return idx[values[idx] >= rel_floor * values.max()]


def test_trace_validation():
    with pytest.raises(ValueError, match="mu_tot_sq"):
        CorrelationTrace(dt=0.1, samples=np.array([2.0 + 0j, 1.0]), mu_tot_sq=1.0)
    with pytest.raises(ValueError):
        CorrelationTrace(dt=-0.1, samples=np.array([1.0 + 0j, 1.0]), mu_tot_sq=1.0)
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="finite"):
            CorrelationTrace(dt=0.1, samples=np.array([1.0, 0.5, bad]), mu_tot_sq=1.0)


def test_spectrum_validation():
    with pytest.raises(ValueError, match="uniform"):
        Spectrum(nu=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))
    with pytest.raises(ValueError, match="increasing"):
        Spectrum(nu=np.array([0.0, -1.0, -2.0]), values=np.zeros(3))


def test_pure_phase_trace_gives_lorentzian_of_width_eta():
    eps, eta = 0.4, 0.1
    trace = damped_line_trace(eps, 0.0, 0.01, 100.0, mu_sq=2.0)
    nu = eps + np.arange(-400, 401) * 0.0025
    spec = absorption_from_trace(trace, eta, nu)
    peak = spec.values[400]
    assert peak == pytest.approx(2.0 / eta, rel=1e-3)
    # half maximum one eta away from the centre
    assert spec.values[400 + 40] == pytest.approx(peak / 2, rel=1e-3)
    assert spec.values[400 - 40] == pytest.approx(peak / 2, rel=1e-3)


def test_decaying_trace_gives_lorentzian_of_width_gamma():
    eps, gamma = -0.25, 0.2
    trace = damped_line_trace(eps, gamma, 0.01, 60.0)
    nu = eps + np.arange(-1200, 1201) * 0.0025
    spec = absorption_from_trace(trace, 0.0, nu)
    peak = spec.values[1200]
    assert peak == pytest.approx(1.0 / gamma, rel=1e-3)
    assert spec.values[1200 + 80] == pytest.approx(peak / 2, rel=1e-3)


def test_ringing_guard():
    trace = damped_line_trace(1.0, 0.0, 0.01, 20.0)
    with pytest.raises(TraceTailError, match="increase t_max or eta"):
        absorption_from_trace(trace, 0.0, np.linspace(-2, 2, 101))


def direct_transform(trace, eta, nu):
    """The trapezoid sum with a dense exp(1j nu t) table."""
    t = trace.times
    weights = np.full(t.size, trace.dt)
    weights[[0, -1]] *= 0.5
    return (np.exp(1j * np.outer(nu, t)) @ (trace.samples * np.exp(-eta * t) * weights)).real


@pytest.mark.parametrize("case", ["long trace", "n_t < n_nu", "two nu points", "doubled pm"])
def test_chirp_z_transform_matches_direct_sum(case):
    if case == "doubled pm":
        # spacing 2*dt from the doubling trick, nu_0 far from zero
        trace = pm_correlation(
            AggregateSpec.equal_parallel(1, epsilon=0.3),
            LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25),
            PropagationConfig(dt=0.01, t_max=60.0), caps=8,
        )
        nu = -3.7 + 0.004 * np.arange(1700)
    else:
        dt, t_max, nu = {
            "long trace": (0.01, 150.0, -6.0 + 0.01 * np.arange(1601)),
            "n_t < n_nu": (0.1, 30.0, 2.5 + 0.002 * np.arange(2000)),
            "two nu points": (0.01, 40.0, np.array([-1.25, 0.75])),
        }[case]
        t = np.arange(round(t_max / dt) + 1) * dt
        samples = 2.0 * np.exp(-1j * 0.4 * t - 0.2 * t - 0.01 * t**2) * (1 + 0.3 * np.cos(1.1 * t))
        trace = CorrelationTrace(dt=dt, samples=samples / samples[0] * 2.0, mu_tot_sq=2.0)
    values = absorption_from_trace(trace, 0.02, nu).values
    ref = direct_transform(trace, 0.02, nu)
    assert np.max(np.abs(values - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_negative_eta_rejected():
    trace = damped_line_trace(0.0, 0.5, 0.01, 30.0)
    with pytest.raises(ValueError):
        absorption_from_trace(trace, -0.1, np.linspace(-2, 2, 11))


def test_transform_is_linear_in_the_trace():
    dt, t_max = 0.02, 80.0
    t1 = damped_line_trace(0.5, 0.3, dt, t_max, mu_sq=1.0)
    t2 = damped_line_trace(-0.8, 0.4, dt, t_max, mu_sq=2.0)
    combined = CorrelationTrace(
        dt=dt, samples=0.25 * t1.samples + 1.5 * t2.samples,
        mu_tot_sq=0.25 * 1.0 + 1.5 * 2.0,
    )
    nu = np.linspace(-3, 3, 301)
    a1 = absorption_from_trace(t1, 0.01, nu).values
    a2 = absorption_from_trace(t2, 0.01, nu).values
    ac = absorption_from_trace(combined, 0.01, nu).values
    assert_allclose(ac, 0.25 * a1 + 1.5 * a2, atol=1e-12)


def test_monomer_progression_peaks_spaced_by_mode_frequency():
    # Narrow lines sit exactly one mode quantum apart; at width 0.25 the
    # overlapping broadened lines pull the maxima together by about 10%.
    narrow = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.05)
    trace = cumulant_oracle(narrow.terms[0], 0.0, PropagationConfig(dt=0.01, t_max=600.0))
    nu = -6.0 + 0.005 * np.arange(3201)
    spec = absorption_from_trace(trace, 0.01, nu)
    peaks = nu[local_maxima(spec.values)]
    assert len(peaks) >= 3
    assert np.all(np.abs(np.diff(peaks) - 1.0) < 0.031)

    broad = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)
    trace = cumulant_oracle(broad.terms[0], 0.0, PropagationConfig(dt=0.01, t_max=150.0))
    spec = absorption_from_trace(trace, 0.01, nu)
    peaks = nu[local_maxima(spec.values)]
    assert len(peaks) >= 2
    assert np.all(np.abs(np.diff(peaks) - 1.0) < 0.15)


def test_mean_shift_symmetric_spectrum():
    nu = np.linspace(-3, 3, 601)
    values = np.exp(-((nu - 1) ** 2) / 0.02) + np.exp(-((nu + 1) ** 2) / 0.02)
    spec = Spectrum(nu=nu, values=values)
    shifted, mean = mean_shift(spec)
    assert abs(mean) < 1e-12
    assert_allclose(shifted.nu, nu, atol=1e-12)


def test_mean_shift_lorentzian_mean_is_centre():
    eps = 0.7
    trace = damped_line_trace(eps, 0.25, 0.01, 60.0)
    nu = eps + np.arange(-1600, 1601) * 0.0025
    spec = absorption_from_trace(trace, 0.01, nu)
    _, mean = mean_shift(spec)
    assert mean == pytest.approx(eps, abs=2e-3)


def test_mean_shift_rejects_zero_area():
    spec = Spectrum(nu=np.linspace(0, 1, 11), values=np.zeros(11))
    with pytest.raises(ValueError):
        mean_shift(spec)


def test_monomer_first_peak_negative_after_mean_shift():
    bath = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)
    trace = cumulant_oracle(bath.terms[0], 0.0, PropagationConfig(dt=0.01, t_max=150.0))
    nu = -6.0 + 0.005 * np.arange(3201)
    shifted, _ = mean_shift(absorption_from_trace(trace, 0.01, nu))
    peaks = shifted.nu[local_maxima(shifted.values)]
    assert peaks[0] < 0.0


def test_overlap_identical_is_100():
    nu = np.linspace(-2, 2, 401)
    values = np.exp(-(nu**2))
    spec = Spectrum(nu=nu, values=values)
    assert overlap(spec, spec) == pytest.approx(100.0, abs=1e-9)
    bumped = Spectrum(nu=nu, values=values + 0.05 * np.exp(-((nu - 1) ** 2) / 0.01))
    assert overlap(spec, bumped) < 100.0 - 1e-3


def test_overlap_ignores_overall_scale():
    # area normalization: a spectrum and any positive multiple coincide
    nu = np.linspace(-2, 2, 401)
    values = np.exp(-(nu**2)) + 0.3 * np.exp(-((nu - 0.7) ** 2) / 0.1)
    a = Spectrum(nu=nu, values=values)
    b = Spectrum(nu=nu, values=37.5 * values)
    assert overlap(a, b) == pytest.approx(100.0, abs=1e-9)


def test_overlap_disjoint_is_0():
    nu = np.linspace(-2, 2, 401)
    left = np.where(nu < -0.5, 1.0, 0.0)
    right = np.where(nu > 0.5, 1.0, 0.0)
    assert overlap(Spectrum(nu=nu, values=left), Spectrum(nu=nu, values=right)) == 0.0


def test_overlap_symmetric_and_bounded():
    rng = np.random.default_rng(17)
    nu = np.linspace(-3, 3, 241)
    for _ in range(10):
        a = Spectrum(nu=nu, values=rng.uniform(-0.2, 1.0, nu.size))
        b = Spectrum(nu=nu, values=rng.uniform(-0.2, 1.0, nu.size))
        ab = overlap(a, b)
        assert ab == pytest.approx(overlap(b, a), abs=1e-12)
        assert 0.0 <= ab <= 100.0


@st.composite
def spectrum_pairs(draw):
    """Two spectra with positive clipped area; the second on the first's grid
    or on its own uniform grid (so that overlap resamples)."""
    def spectrum(nu):
        values = draw(st.lists(st.floats(-1.0, 10.0), min_size=nu.size, max_size=nu.size))
        values[draw(st.integers(0, nu.size - 1))] = draw(st.floats(0.01, 10.0))
        return Spectrum(nu=nu, values=values)

    def grid():
        lo = draw(st.floats(-5.0, 5.0))
        return lo + draw(st.floats(0.01, 0.5)) * np.arange(draw(st.integers(2, 60)))

    first = spectrum(grid())
    return first, spectrum(first.nu if draw(st.booleans()) else grid())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spectrum_pairs())
# a lone positive sample at a grid end, and one between the other's points:
# a uniform common grid used to drop both and leave no positive area
@example((Spectrum(nu=[1.1e-267, 0.5], values=[1.0, 0.0]),
          Spectrum(nu=[0.0, 0.5], values=[1.0, 1.0])))
@example((Spectrum(nu=[0.3, 1.0, 1.7], values=[-1.0, 0.01, -1.0]),
          Spectrum(nu=[0.0, 0.6, 1.2, 1.8], values=[1.0, 1.0, 1.0, 1.0])))
def test_overlap_property_symmetric_bounded_and_100_on_itself(pair):
    a, b = pair
    for spec in pair:
        assert overlap(spec, spec) == pytest.approx(100.0, abs=1e-9)
    ab = overlap(a, b)
    assert ab == overlap(b, a)
    assert 0.0 <= ab <= 100.0


def test_overlap_resamples_distinct_grids():
    def gaussian_spec(lo, hi, n):
        nu = np.linspace(lo, hi, n)
        return Spectrum(nu=nu, values=np.exp(-(nu**2) / 0.5))

    assert overlap(gaussian_spec(-4, 4, 801), gaussian_spec(-5, 5, 2001)) > 99.9


def test_overlap_rejects_zero_area():
    nu = np.linspace(0, 1, 11)
    good = Spectrum(nu=nu, values=np.ones(11))
    bad = Spectrum(nu=nu, values=np.zeros(11))
    with pytest.raises(ValueError):
        overlap(good, bad)


def test_eta_increase_is_lorentzian_convolution():
    bath = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)
    trace = cumulant_oracle(bath.terms[0], 0.0, PropagationConfig(dt=0.01, t_max=150.0))
    step = 0.0025
    nu = -4.0 + step * np.arange(4001)
    eta = 0.01
    narrow = absorption_from_trace(trace, eta, nu).values
    broad = absorption_from_trace(trace, 2 * eta, nu).values
    offsets = step * np.arange(-nu.size + 1, nu.size)
    kernel = (eta / np.pi) / (offsets**2 + eta**2)
    convolved = np.convolve(narrow, kernel, mode="valid") * step
    l1 = np.trapezoid(np.abs(broad - convolved), nu)
    assert l1 <= 0.01 * np.trapezoid(np.abs(broad), nu)


def test_sum_rule_area_is_pi_m0():
    bath = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)
    mu_sq = 1.7
    trace = cumulant_oracle(
        bath.terms[0], 0.0, PropagationConfig(dt=0.01, t_max=150.0), mu_sq=mu_sq
    )
    nu = -20.0 + 0.02 * np.arange(2301)
    spec = absorption_from_trace(trace, 0.01, nu)
    assert spec.area() == pytest.approx(math.pi * mu_sq, rel=0.02)


def test_cumulant_oracle_zero_coupling_is_pure_phase():
    trace = cumulant_oracle([], 0.8, PropagationConfig(dt=0.05, t_max=10.0), mu_sq=2.0)
    t = trace.times
    assert_allclose(trace.samples, 2.0 * np.exp(-1j * 0.8 * t), atol=1e-14)


def test_cumulant_oracle_short_time_expansion():
    # M(t) = mu^2 (1 - i eps t - (eps^2 + alpha(0)) t^2 / 2 + O(t^3))
    eps = 0.3
    terms = [(0.64, 1.0, 0.25)]
    alpha0 = 0.64
    residuals = []
    for t_small in (2e-2, 1e-2, 5e-3):
        trace = cumulant_oracle(terms, eps, PropagationConfig(dt=t_small, t_max=t_small))
        quadratic = 1.0 - 1j * eps * t_small - (eps**2 + alpha0) * t_small**2 / 2
        residuals.append(abs(trace.samples[1] - quadratic))
    # cubic scaling: each halving of t shrinks the residual by about 8
    assert residuals[0] / residuals[1] == pytest.approx(8.0, rel=0.2)
    assert residuals[1] / residuals[2] == pytest.approx(8.0, rel=0.2)


def test_cumulant_oracle_degenerate_term_uses_quadratic_limit():
    trace = cumulant_oracle([(0.5, 0.0, 0.0)], 0.0, PropagationConfig(dt=0.1, t_max=5.0))
    t = trace.times
    assert_allclose(trace.samples, np.exp(-0.25 * t**2), atol=1e-14)


def test_cumulant_franck_condon_poisson_weights():
    # gamma -> 0: line areas follow the Poisson progression e^-X X^k / k!
    x = 0.64
    terms = [(x, 1.0, 1e-3)]
    trace = cumulant_oracle(terms, 0.0, PropagationConfig(dt=0.05, t_max=2000.0))
    step = 0.002
    nu = -1.5 + step * np.arange(2001)
    spec = absorption_from_trace(trace, 0.005, nu)
    for k in (0, 1, 2):
        centre = -x + k
        mask = np.abs(nu - centre) <= 0.5
        area = np.trapezoid(spec.values[mask], nu[mask])
        expected = math.pi * math.exp(-x) * x**k / math.factorial(k)
        assert area == pytest.approx(expected, rel=0.03)


def test_markov_oracle_monomer_closed_form():
    agg = AggregateSpec.equal_parallel(1, epsilon=0.6)
    cfg = PropagationConfig(dt=0.02, t_max=20.0)
    trace = markov_oracle(agg, 0.35, cfg)
    t = trace.times
    assert_allclose(trace.samples, np.exp(-1j * 0.6 * t - 0.35 * t), atol=1e-12)


def test_markov_oracle_equal_rates_factor_out():
    agg = AggregateSpec.equal_parallel(2, epsilon=[0.1, -0.2], coupling_v=0.7)
    cfg = PropagationConfig(dt=0.02, t_max=20.0)
    damped = markov_oracle(agg, 0.3, cfg)
    free = markov_oracle(agg, 0.0, cfg)
    t = damped.times
    assert_allclose(damped.samples, np.exp(-0.3 * t) * free.samples, atol=1e-10)

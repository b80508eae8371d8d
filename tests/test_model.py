import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from aggspec.model import (
    AggregateSpec,
    LorentzianBath,
    bath_correlation,
    build_system_hamiltonian,
    huang_rhys_to_gamma,
    initial_bright_state,
    spectral_density,
)

# six-Lorentzian bath of the fig4 scenarios (widths 0.25 * center)
SIX_X = [0.4, 0.07, 0.18, 0.24, 0.12, 0.24]
SIX_OMEGA = [0.23, 0.42, 0.57, 1.29, 1.41, 1.61]
SIX_GAMMA = [0.25 * om for om in SIX_OMEGA]


def test_hamiltonian_single_monomer():
    agg = AggregateSpec.equal_parallel(1, epsilon=0.3)
    assert_allclose(build_system_hamiltonian(agg), [[0.3]])


def test_hamiltonian_dimer():
    agg = AggregateSpec.equal_parallel(2, epsilon=0.0, coupling_v=-1.5)
    assert_allclose(build_system_hamiltonian(agg), [[0.0, -1.5], [-1.5, 0.0]])


def test_hamiltonian_trimer_nearest_neighbour_only():
    agg = AggregateSpec.equal_parallel(3, epsilon=0.0, coupling_v=0.44)
    h = build_system_hamiltonian(agg)
    assert_allclose(h, [[0, 0.44, 0], [0.44, 0, 0.44], [0, 0.44, 0]])
    assert h[0, 2] == 0.0


def test_hamiltonian_exactly_hermitian():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3, 5, 8):
        agg = AggregateSpec.equal_parallel(
            n, epsilon=rng.normal(size=n), coupling_v=rng.normal()
        )
        h = build_system_hamiltonian(agg)
        assert np.array_equal(h, h.conj().T)


def test_epsilon_scalar_broadcast_and_shape_checks():
    agg = AggregateSpec.equal_parallel(3, epsilon=0.5)
    assert_allclose(agg.epsilon, [0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        AggregateSpec.equal_parallel(2, epsilon=[1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        AggregateSpec(2, 0.0, 0.0, np.ones((2, 2)), [1, 0, 0])
    with pytest.raises(ValueError):
        AggregateSpec(0, 0.0, 0.0, np.ones((0, 3)), [1, 0, 0])
    with pytest.raises(ValueError):
        AggregateSpec(1, 0.0, 0.0, np.ones((1, 3)), [0, 0, 0])


def test_bright_state_dimer_equal_parallel():
    agg = AggregateSpec.equal_parallel(2)
    psi0, mu_tot = initial_bright_state(agg)
    assert_allclose(psi0, [1 / math.sqrt(2), 1 / math.sqrt(2)])
    assert_allclose(mu_tot, math.sqrt(2))


def test_bright_state_single_monomer():
    agg = AggregateSpec(1, 0.0, 0.0, [[0.0, 2.0, 0.0]], [0.0, 1.0, 0.0])
    psi0, mu_tot = initial_bright_state(agg)
    assert_allclose(psi0, [1.0])
    assert_allclose(mu_tot, 2.0)


def test_bright_state_trimer_symmetric():
    agg = AggregateSpec.equal_parallel(3)
    psi0, _ = initial_bright_state(agg)
    assert_allclose(psi0, np.full(3, 1 / math.sqrt(3)))


def test_bright_state_normalized_for_random_dipoles():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        agg = AggregateSpec(
            n, 0.0, 0.0, rng.normal(size=(n, 3)), rng.normal(size=3)
        )
        psi0, mu_tot = initial_bright_state(agg)
        assert_allclose(np.linalg.norm(psi0), 1.0, rtol=1e-13)
        assert mu_tot > 0


def test_bright_state_scales_with_polarization_magnitude():
    # rescaling the polarization leaves psi0 unchanged and scales mu_tot
    rng = np.random.default_rng(19)
    dipoles = rng.normal(size=(3, 3))
    pol = rng.normal(size=3)
    base = AggregateSpec(3, 0.0, 0.0, dipoles, pol)
    scaled = AggregateSpec(3, 0.0, 0.0, dipoles, 2.5 * pol)
    psi_a, mu_a = initial_bright_state(base)
    psi_b, mu_b = initial_bright_state(scaled)
    assert_allclose(psi_b, psi_a, atol=1e-14)
    assert mu_b == pytest.approx(2.5 * mu_a)


def test_dark_initial_state_rejected():
    with pytest.raises(ValueError, match="dark initial state"):
        AggregateSpec(2, 0.0, 0.0, [[0, 1, 0], [0, 0, 1]], [1.0, 0.0, 0.0])


def test_bath_correlation_at_zero_is_total_weight():
    bath = LorentzianBath.uniform(1, [(0.5, 1.0, 0.1), (0.25, 2.0, 0.3)])
    value = bath_correlation(bath, 0, 0.0)
    assert value == pytest.approx(0.75)
    assert value.imag == 0.0
    assert bath.alpha0(0) == pytest.approx(0.75)


def test_bath_correlation_single_term_closed_form():
    # 0.64 * exp(-0.25*pi) * (cos(pi) - 1j*sin(pi)), evaluated independently
    bath = LorentzianBath.uniform(1, [(0.64, 1.0, 0.25)])
    value = bath_correlation(bath, 0, math.pi)
    assert value.real == pytest.approx(-0.2918004017702376, abs=1e-15)
    assert value.imag == pytest.approx(0.0, abs=1e-15)


def test_bath_correlation_conjugate_pair_is_real():
    bath = LorentzianBath.uniform(1, [(0.3, 0.8, 0.2), (0.3, -0.8, 0.2)])
    tau = np.linspace(0.0, 20.0, 200)
    values = bath_correlation(bath, 0, tau)
    assert np.max(np.abs(values.imag)) < 1e-15


def test_bath_correlation_rejects_negative_tau():
    bath = LorentzianBath.uniform(1, [(0.64, 1.0, 0.25)])
    with pytest.raises(ValueError):
        bath_correlation(bath, 0, -0.1)
    with pytest.raises(ValueError):
        bath_correlation(bath, 0, np.array([0.5, -0.5]))


def test_bath_correlation_bounded_by_initial_value():
    rng = np.random.default_rng(3)
    tau = np.linspace(0.0, 30.0, 301)
    for _ in range(10):
        k = int(rng.integers(1, 5))
        terms = [
            (float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.1, 3.0)),
             float(rng.uniform(0.0, 1.0)))
            for _ in range(k)
        ]
        bath = LorentzianBath.uniform(1, terms)
        values = np.abs(bath_correlation(bath, 0, tau))
        assert values[0] == pytest.approx(bath.alpha0(0))
        assert np.all(values <= bath.alpha0(0) * (1 + 1e-12))


def test_bath_term_validation():
    with pytest.raises(ValueError, match="gamma_amp"):
        LorentzianBath.uniform(1, [(0.0, 1.0, 0.1)])
    with pytest.raises(ValueError, match="width"):
        LorentzianBath.uniform(1, [(0.5, 1.0, -0.1)])
    empty = LorentzianBath.uniform(2, [])
    assert empty.alpha0(0) == 0.0


@st.composite
def random_baths(draw):
    """Up to four monomers with up to three terms each; some may have none."""
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)
    term = st.tuples(real(1e-3, 2.0), real(-2.0, 2.0), real(0.0, 1.0))
    terms = draw(st.lists(st.lists(term, max_size=3), min_size=1, max_size=4))
    return LorentzianBath(tuple(tuple(t) for t in terms))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(random_baths())
def test_flat_terms_follow_the_per_monomer_order(bath):
    # the (monomer, term) flattening both solvers read, written out here
    owners, zs, amps = [], [], []
    for n, monomer_terms in enumerate(bath.terms):
        for gamma_amp, center, width in monomer_terms:
            owners.append(n)
            zs.append(1j * center + width)
            amps.append(gamma_amp)
    assert bath.count == len(owners)
    for name, expected, dtype in (("monomer", owners, int), ("z", zs, complex),
                                  ("gamma_amp", amps, float)):
        array = getattr(bath, name)
        assert array.dtype == np.dtype(dtype) and array.shape == (bath.count,)
        assert np.array_equal(array, np.asarray(expected, dtype=dtype))
        assert not array.flags.writeable


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(random_baths())
def test_bath_identity_reads_the_terms_alone(bath):
    # worker processes receive a pickled bath; a copy built from the same
    # terms, or unpickled, equals it, hashes alike and keeps read-only arrays
    assert repr(bath) == f"LorentzianBath(terms={bath.terms!r})"
    twin = LorentzianBath(bath.terms)
    copy = pickle.loads(pickle.dumps(bath))
    for other in (twin, copy):
        assert other == bath and hash(other) == hash(bath) and repr(other) == repr(bath)
        for name in ("monomer", "z", "gamma_amp"):
            assert np.array_equal(getattr(other, name), getattr(bath, name))
            assert not getattr(other, name).flags.writeable


def test_spectral_density_peak_and_half_width():
    bath = LorentzianBath.uniform(1, [(0.64, 1.0, 0.25)])
    peak = spectral_density(bath, 0, 1.0)
    assert peak == pytest.approx(0.64 / (math.pi * 0.25))
    assert spectral_density(bath, 0, 1.25) == pytest.approx(peak / 2)
    assert spectral_density(bath, 0, 0.75) == pytest.approx(peak / 2)


def test_spectral_density_six_term_sum():
    # value of the closed-form sum at omega = 0.23, dominated by the first term
    bath = LorentzianBath.from_huang_rhys(1, SIX_X, SIX_OMEGA, SIX_GAMMA)
    total = spectral_density(bath, 0, 0.23)
    assert total == pytest.approx(0.23503257966817762, rel=1e-12)
    single = [
        spectral_density(
            LorentzianBath.from_huang_rhys(1, [x], [om], [gm]), 0, 0.23
        )
        for x, om, gm in zip(SIX_X, SIX_OMEGA, SIX_GAMMA)
    ]
    assert np.argmax(single) == 0  # the first Lorentzian dominates at its centre
    assert single[0] > 2 * max(single[1:])


def test_huang_rhys_conversion_examples():
    assert huang_rhys_to_gamma(0.64, 1.0) == pytest.approx(0.64)
    assert huang_rhys_to_gamma(1.2, 1.0) == pytest.approx(1.2)
    assert huang_rhys_to_gamma(0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        huang_rhys_to_gamma(-0.1, 1.0)
    with pytest.raises(ValueError):
        huang_rhys_to_gamma(0.5, 0.0)


def test_spectral_density_fourier_transform_gives_correlation():
    # Numerical check that J and alpha are a Fourier pair.  The Lorentzian
    # tails fall off slowly, so the window must be wide: +-150 widths leaves
    # a truncation error of about 0.4% at tau = 0 and satisfies the 1% bound
    # for all tau * gamma <= 3 (a +-40-width window would already truncate
    # 1.6% of the area and cannot meet 1%).
    bath = LorentzianBath.uniform(1, [(0.8, 1.3, 0.2)])
    width = 0.2
    omega = np.linspace(1.3 - 150 * width, 1.3 + 150 * width, 600001)
    j_vals = spectral_density(bath, 0, omega)
    for tau_gamma in (0.0, 0.5, 1.0, 2.0, 3.0):
        tau = tau_gamma / width
        integral = np.trapezoid(np.exp(-1j * omega * tau) * j_vals, omega)
        exact = bath_correlation(bath, 0, tau)
        assert abs(integral - exact) / abs(exact) <= 0.01


def test_inputs_are_immutable():
    agg = AggregateSpec.equal_parallel(2)
    with pytest.raises(ValueError):
        agg.epsilon[0] = 1.0
    with pytest.raises(ValueError):
        agg.dipoles[0, 0] = 2.0

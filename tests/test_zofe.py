import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose

from aggspec.model import (
    AggregateSpec,
    LorentzianBath,
    build_system_hamiltonian,
    initial_bright_state,
)
from aggspec.propagation import PropagationConfig, PropagationError
from aggspec.spectra import cumulant_oracle
from aggspec import zofe
from aggspec.zofe import (
    _MAX_LEVEL,
    _REFINE_MARGIN,
    _LaneRhs,
    _mirror_layout,
    _run_lanes,
    coupling_operators,
    propagate_zofe,
    propagate_zofe_lanes,
    zofe_rhs,
)

MONOMER_BATH = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)
DIMER_BATH = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)
SIX_X = [0.4, 0.07, 0.18, 0.24, 0.12, 0.24]
SIX_OMEGA = [0.23, 0.42, 0.57, 1.29, 1.41, 1.61]
SIX_TERM_BATH = LorentzianBath.from_huang_rhys(2, SIX_X, SIX_OMEGA, [0.25 * o for o in SIX_OMEGA])


def reference_run(agg, bath, config, level=0, prefix=0):
    """Single-lane RK4 on the general zofe_rhs, sampled with vdot: grid steps
    k < prefix take 2^level substeps of dt / 2^level, the others one of dt.

    Returns the samples, or k if the norm guard trips in grid step k.
    """
    h_sys = build_system_hamiltonian(agg)
    l_ops = coupling_operators(agg.n_monomers)
    psi0, mu_tot = initial_bright_state(agg)
    mu_sq = mu_tot**2

    def rhs(psi, aux):
        return zofe_rhs(psi, aux, h_sys, bath, l_ops)

    psi = psi0.copy()
    aux = np.zeros((bath.count, agg.n_monomers, agg.n_monomers), dtype=complex)
    samples = [mu_sq * np.vdot(psi0, psi)]
    for k in range(config.n_steps):
        nsub = 2**level if k < prefix else 1
        h = config.dt / nsub
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(nsub):
            d1p, d1a = rhs(psi, aux)
            d2p, d2a = rhs(psi + half * d1p, aux + half * d1a)
            d3p, d3a = rhs(psi + half * d2p, aux + half * d2a)
            d4p, d4a = rhs(psi + h * d3p, aux + h * d3a)
            psi = psi + sixth * (d1p + 2.0 * (d2p + d3p) + d4p)
            aux = aux + sixth * (d1a + 2.0 * (d2a + d3a) + d4a)
            if not np.vdot(psi, psi).real <= (1 + 1e-6) ** 2:
                return k
        samples.append(mu_sq * np.vdot(psi0, psi))
    return np.asarray(samples)


def reference_trace(agg, bath, config):
    """The step refinement of the lane kernel with one whole run per attempt;
    returns (samples, finest level)."""
    level, prefix = 0, 0
    while True:
        step = reference_run(agg, bath, config, level, prefix)
        if not isinstance(step, int):
            return step, level
        if step < prefix:
            assert level < _MAX_LEVEL, "lane fails at every level"
            level += 1
        else:
            level, prefix = max(level, 1), step + _REFINE_MARGIN


def test_coupling_operators_are_negative_projectors():
    l_ops = coupling_operators(3)
    for n in range(3):
        expected = np.zeros((3, 3))
        expected[n, n] = -1.0
        assert_allclose(l_ops[n], expected)


def test_rhs_monomer_hand_check():
    # For N = 1 the commutators vanish: dpsi = (-1j*eps + Q) psi and
    # dQ = -Gamma - z Q  (operators are 1x1, L = -1).
    eps, gamma_amp, z = 0.3, 0.64, 1j * 1.0 + 0.25
    h = np.array([[eps]], dtype=complex)
    l_ops = coupling_operators(1)
    psi = np.array([0.8 - 0.1j])
    q = np.array([[[0.05 + 0.2j]]])
    dpsi, daux = zofe_rhs(psi, q, h, MONOMER_BATH, l_ops)
    assert_allclose(dpsi, (-1j * eps + q[0, 0, 0]) * psi, atol=1e-15)
    assert_allclose(daux, [[[-gamma_amp - z * q[0, 0, 0]]]], atol=1e-15)


def test_rhs_dimension_mismatch():
    l_ops = coupling_operators(1)
    with pytest.raises(ValueError):
        zofe_rhs(np.zeros(2, complex), np.zeros((1, 2, 2), complex), np.zeros((1, 1), complex),
                 MONOMER_BATH, l_ops)


def test_rhs_sign_convention_flip_is_noop():
    # Flipping the sign of every coupling operator flips the auxiliaries but
    # leaves the state evolution unchanged.
    rng = np.random.default_rng(23)
    agg = AggregateSpec.equal_parallel(2, epsilon=[0.1, -0.3], coupling_v=0.5)
    bath = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)
    h = build_system_hamiltonian(agg)
    l_ops = coupling_operators(2)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    aux = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    dpsi, daux = zofe_rhs(psi, aux, h, bath, l_ops)
    dpsi_f, daux_f = zofe_rhs(psi, -aux, h, bath, -l_ops)
    assert_allclose(dpsi_f, dpsi, atol=1e-14)
    assert_allclose(daux_f, -daux, atol=1e-14)


def test_auxiliary_closed_form_for_monomer():
    # dQ/dt = Gamma L - z Q integrates to Q(t) = Gamma L (1 - e^{-z t}) / z
    agg = AggregateSpec.equal_parallel(1, epsilon=0.0)
    cfg = PropagationConfig(dt=0.002, t_max=4.0)
    aux = _run_lanes([agg], MONOMER_BATH, cfg)[5][0]
    z = 1j * 1.0 + 0.25
    expected = 0.64 * (-1.0) * (1.0 - np.exp(-z * cfg.n_steps * cfg.dt)) / z
    assert_allclose(aux[0, 0, 0], expected, atol=1e-10)


def test_monomer_matches_cumulant_oracle():
    agg = AggregateSpec.equal_parallel(1, epsilon=0.0)
    cfg = PropagationConfig(dt=0.01, t_max=50.0)
    trace = propagate_zofe(agg, MONOMER_BATH, cfg)
    oracle = cumulant_oracle(MONOMER_BATH.terms[0], 0.0, cfg)
    assert np.max(np.abs(trace.samples - oracle.samples)) <= 1e-6


def test_m0_is_mu_tot_sq():
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.4)
    bath = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)
    trace = propagate_zofe(agg, bath, PropagationConfig(dt=0.01, t_max=1.0))
    assert trace.samples[0] == pytest.approx(trace.mu_tot_sq, rel=1e-14)
    assert trace.mu_tot_sq == pytest.approx(2.0)


def test_uncoupled_dimer_trace_is_scaled_monomer_trace():
    cfg = PropagationConfig(dt=0.01, t_max=30.0)
    mono = propagate_zofe(AggregateSpec.equal_parallel(1), MONOMER_BATH, cfg)
    dimer = propagate_zofe(
        AggregateSpec.equal_parallel(2, coupling_v=0.0),
        LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25),
        cfg,
    )
    assert_allclose(
        dimer.samples / dimer.mu_tot_sq, mono.samples / mono.mu_tot_sq, atol=1e-12
    )


@st.composite
def uncoupled_problems(draw):
    """One to three uncoupled monomers at their own energies, each with its
    own bath of one to three Lorentzians."""
    n = draw(st.integers(1, 3))
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)
    term = st.tuples(real(0.01, 1.0), real(0.2, 2.0), real(0.05, 1.0))
    terms = draw(st.lists(st.lists(term, min_size=1, max_size=3), min_size=n, max_size=n))
    epsilon = draw(st.lists(real(-1.0, 1.0), min_size=n, max_size=n))
    return AggregateSpec.equal_parallel(n, epsilon, 0.0), LorentzianBath(tuple(map(tuple, terms)))


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(uncoupled_problems())
def test_zero_coupling_is_exact_property(problem):
    # at V = 0 the monomers evolve independently and ZOFE is exact: the trace
    # is the sum of the monomers' cumulant traces, up to the RK4 error
    # (below 1e-9 mu^2 on 30 random such baths at dt = 0.01 up to t = 20)
    agg, bath = problem
    cfg = PropagationConfig(dt=0.01, t_max=10.0)
    trace = propagate_zofe(agg, bath, cfg)
    oracle = sum(cumulant_oracle(terms, eps, cfg).samples
                 for terms, eps in zip(bath.terms, agg.epsilon))
    assert np.max(np.abs(trace.samples - oracle)) <= 1e-7 * trace.mu_tot_sq


def test_markov_surrogate_auxiliary_approaches_theta_l():
    # Broad overdamped bath: Qbar(t) settles near theta * L with a
    # correction of order (system rate / gamma).
    theta, gamma = 0.25, 64.0
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.5)
    bath = LorentzianBath.uniform(2, [(theta * gamma, 0.0, gamma)])
    aux = _run_lanes([agg], bath, PropagationConfig(dt=0.0005, t_max=2.0))[5][0]
    l_ops = coupling_operators(2)
    for k, monomer in enumerate((0, 1)):
        assert np.max(np.abs(aux[k] - theta * l_ops[monomer])) < 0.05 * theta


def test_norm_guard_reports_dt_too_large():
    # Strong bath (X = 1.2) near a resonance-like coupling window: the
    # auxiliary transient trips the norm guard at dt and in every refined
    # prefix down to dt/8, so the lane fails loudly, without numpy overflow
    # warnings (the suite turns warnings into errors).
    agg = AggregateSpec.equal_parallel(2, coupling_v=-0.35)
    bath = LorentzianBath.from_huang_rhys(2, 1.2, 1.0, 0.25)
    # t = 14.95 is where a whole run at dt/8 from t = 0 trips, in grid step
    # 1494; the norm is the one of the first tripped substep
    with pytest.raises(PropagationError, match=r"^state norm grew to 7\.58762 at t = 14\.95 "
                       r"with step 0\.00125; dt too large$"):
        propagate_zofe(agg, bath, PropagationConfig(dt=0.01, t_max=20.0))


def test_propagation_is_deterministic():
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    bath = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)
    cfg = PropagationConfig(dt=0.01, t_max=10.0)
    first = propagate_zofe(agg, bath, cfg)
    second = propagate_zofe(agg, bath, cfg)
    assert np.array_equal(first.samples, second.samples)


def test_rk4_order_via_step_halving():
    agg = AggregateSpec.equal_parallel(1)
    errors = []
    for dt in (0.08, 0.04):
        cfg = PropagationConfig(dt=dt, t_max=40.0)
        trace = propagate_zofe(agg, MONOMER_BATH, cfg)
        oracle = cumulant_oracle(MONOMER_BATH.terms[0], 0.0, cfg)
        errors.append(np.max(np.abs(trace.samples - oracle.samples)))
    assert errors[0] / errors[1] >= 8.0


def test_mismatched_bath_length_rejected():
    agg = AggregateSpec.equal_parallel(2)
    with pytest.raises(ValueError):
        propagate_zofe(agg, MONOMER_BATH, PropagationConfig(dt=0.01, t_max=1.0))


def test_empty_bath_is_free_electronic_evolution():
    agg = AggregateSpec.equal_parallel(2, epsilon=[0.2, -0.2], coupling_v=0.3)
    bath = LorentzianBath.uniform(2, [])
    cfg = PropagationConfig(dt=0.01, t_max=20.0)
    trace = propagate_zofe(agg, bath, cfg)
    h = build_system_hamiltonian(agg)
    evals, vecs = np.linalg.eigh(h)
    psi0 = np.full(2, 1 / np.sqrt(2), dtype=complex)
    weights = np.abs(vecs.conj().T @ psi0) ** 2
    t = trace.times
    expected = trace.mu_tot_sq * (weights @ np.exp(-1j * np.outer(evals, t)))
    assert_allclose(trace.samples, expected, atol=1e-9)


MIXED_DIMER_BATHS = [
    LorentzianBath((((0.3, 0.5, 0.4),), ((0.9, 1.3, 0.2),))),
    DIMER_BATH,
    LorentzianBath((((0.2, -0.4, 0.6), (0.5, 1.1, 0.3)), ())),  # ragged, same count
]
TRIMER_BATH = LorentzianBath.from_huang_rhys(3, 0.64, 1.0, 0.25)


@pytest.mark.parametrize("n, bath", [
    (1, MONOMER_BATH),
    (2, DIMER_BATH),
    (7, LorentzianBath.from_huang_rhys(7, 0.64, 1.0, 0.25)),
    (2, SIX_TERM_BATH),
    (2, MIXED_DIMER_BATHS),
    (2, LorentzianBath.uniform(2, [])),
    (3, TRIMER_BATH),
])
def test_lane_rhs_matches_general_rhs(n, bath):
    # one evaluation of the packed product against the general operator form,
    # lane by lane, with a different H per lane and one bath for all lanes
    # or one per lane; lanes 1 and 2 have palindromic energies, so on a
    # palindromic bath they carry only the mirror-distinct terms
    rng = np.random.default_rng(n)
    baths = bath if isinstance(bath, list) else [bath] * 3
    count = baths[0].count
    energies = rng.normal(size=(3, n))
    energies[1:] += energies[1:, ::-1]
    aggs = [AggregateSpec.equal_parallel(n, epsilon=e, coupling_v=v)
            for e, v in zip(energies, (-0.7, 0.2, 1.1))]
    sources, flips = (np.stack(a) for a in zip(*map(_mirror_layout, aggs, baths)))
    mirrored = [b > 0 and n > 1 and count > 0 and baths[b].terms == baths[b].terms[::-1]
                for b in range(3)]
    assert list(flips.any(axis=1)) == mirrored
    psi = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
    aux = rng.normal(size=(3, count, n, n)) + 1j * rng.normal(size=(3, count, n, n))
    # in a mirrored lane the terms it does not carry are the images R Q R,
    # and those of a middle monomer are their own images
    for b in np.flatnonzero(mirrored):
        middle = 2 * baths[b].monomer == n - 1
        aux[b, middle] += aux[b, middle][:, ::-1, ::-1]
    images = aux[np.arange(3)[:, None], sources][..., ::-1, ::-1]
    aux = np.where(flips[..., None, None], images, aux)
    carried = count - flips.sum(axis=1)
    # K = 0 keeps one inert slot to carry psi
    state = np.zeros((3, max(*carried, 1), n, n + 1), dtype=complex)
    for b, c in enumerate(carried):
        state[b, :c, :, :n] = aux[b, :c]
    state[:, 0, :, n] = psi
    minus_ih = np.stack([-1j * build_system_hamiltonian(agg) for agg in aggs])
    deriv = _LaneRhs(minus_ih, baths, sources, flips)(state, np.empty_like(state))
    for b, (agg, c) in enumerate(zip(aggs, carried)):
        ref_p, ref_a = zofe_rhs(psi[b], aux[b], build_system_hamiltonian(agg), baths[b],
                                coupling_operators(n))
        assert_allclose(deriv[b, 0, :, n], ref_p, rtol=0, atol=1e-14)
        assert_allclose(deriv[b, :c, :, :n], ref_a[:c], rtol=0, atol=1e-14)
        # the mirror symmetry that lets the carried terms stand for all
        assert_allclose(ref_a[flips[b]], ref_a[sources[b, flips[b]]][:, ::-1, ::-1],
                        rtol=0, atol=1e-14)
        # the inert slots stay at rest
        assert not deriv[b, c:, :, :n].any()
    # only slot 0 carries psi
    assert not deriv[:, 1:, :, n].any()


def test_mirror_layout_needs_palindromic_energies_and_bath():
    # two terms per monomer on a 5-site chain: monomers 3 and 4 are the
    # images of 1 and 0, whatever the dipoles; monomer 2 is its own image
    bath = LorentzianBath.uniform(5, [(0.4, 1.0, 0.25), (0.2, 0.5, 0.1)])
    dipoles = [[1, 0, 0], [0.5, 0.5, 0], [0.2, 0, 0], [1, 1, 0], [0, 0, 1]]
    chain = AggregateSpec(5, [0.1, -0.2, 0.3, -0.2, 0.1], 0.44, dipoles, [1, 0, 1])
    source, flip = _mirror_layout(chain, bath)
    assert list(flip) == [False] * 6 + [True] * 4
    assert list(source) == [0, 1, 2, 3, 4, 5, 2, 3, 0, 1]
    # a disordered chain, or a bath that differs at one end, runs every term
    disordered = AggregateSpec(5, [0.1, -0.2, 0.3, -0.2, 0.0], 0.44, dipoles, [1, 0, 1])
    uneven = LorentzianBath(bath.terms[:4] + (((0.4, 1.0, 0.25), (0.2, 0.5, 0.11)),))
    for agg, b in ((disordered, bath), (chain, uneven)):
        source, flip = _mirror_layout(agg, b)
        assert not flip.any() and list(source) == list(range(10))


def test_lanes_must_share_n_and_term_count():
    aggs = [AggregateSpec.equal_parallel(2)] * 2
    cfg = PropagationConfig(dt=0.01, t_max=1.0)
    for baths in ([DIMER_BATH, SIX_TERM_BATH], [DIMER_BATH], [DIMER_BATH, MONOMER_BATH]):
        with pytest.raises(ValueError, match="one bath per lane"):
            propagate_zofe_lanes(aggs, baths, cfg)


@st.composite
def lane_batches(draw):
    """Two to four lanes of N = 1-3 monomers, each with its own random
    energies, coupling and bath of 0-3 Lorentzians per monomer (ragged or
    empty); the baths of a batch share the term count."""
    n = draw(st.integers(1, 3))
    count = draw(st.integers(0, 3 * n))
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)
    term = st.tuples(real(0.01, 0.5), real(-1.0, 2.0), real(0.1, 1.0))
    lanes = []
    for _ in range(draw(st.integers(2, 4))):
        owners = draw(st.permutations(sorted(list(range(n)) * 3)))[:count]
        drawn = draw(st.lists(term, min_size=count, max_size=count))
        bath = LorentzianBath(tuple(
            tuple(t for t, owner in zip(drawn, owners) if owner == m) for m in range(n)))
        epsilon = draw(st.lists(real(-1.0, 1.0), min_size=n, max_size=n))
        lanes.append((AggregateSpec.equal_parallel(n, epsilon, draw(real(-1.0, 1.0))), bath))
    return lanes


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(lane_batches())
def test_lanes_with_their_own_baths_property(lanes):
    # every lane gives the same bits alone and in the batch, and a lane that
    # never trips follows RK4 on the general right-hand side
    aggs, baths = zip(*lanes)
    cfg = PropagationConfig(dt=0.01, t_max=3.0)
    samples, mu_sq, levels, errors, _, _ = _run_lanes(aggs, baths, cfg)
    for b, (agg, bath) in enumerate(lanes):
        alone, _, alone_levels, alone_errors, _, _ = _run_lanes([agg], [bath], cfg)
        assert alone_levels[0] == levels[b]
        if b in errors:
            assert str(alone_errors[0]) == str(errors[b])
            continue
        assert np.array_equal(alone[0], samples[b])
        if levels[b] == 0:
            ref = reference_run(agg, bath, cfg)
            assert np.max(np.abs(samples[b] - ref)) <= 1e-12 * mu_sq[b]


@pytest.mark.parametrize("n, couplings, tripping", [
    (2, (-0.425, 0.1, 0.44), -0.425),
    (7, (-1.0, 0.42, 0.44, 1.0), 0.42),
    # -0.424 trips one grid step before -0.425, so it is between two grid
    # points, on its refined prefix, when the other lane trips
    (2, (-0.425, -0.424, 0.1), (-0.425, -0.424)),
])
def test_lane_trace_is_bit_identical_alone_and_in_batch(n, couplings, tripping):
    # the tripping lanes restart with a refined prefix inside the batch while
    # the others go on; every lane, refined or not, gives the same bits alone
    # and in any batch
    bath = LorentzianBath.from_huang_rhys(n, 0.64, 1.0, 0.25)
    cfg = PropagationConfig(dt=0.01, t_max=6.0)
    aggs = [AggregateSpec.equal_parallel(n, coupling_v=v) for v in couplings]
    samples, _, levels, errors, _, _ = _run_lanes(aggs, bath, cfg)
    assert not errors
    assert [level > 0 for level in levels] == list(np.isin(couplings, tripping))
    pair = propagate_zofe_lanes(aggs[:2], bath, cfg)
    backwards = propagate_zofe_lanes(aggs[::-1], bath, cfg)[::-1]
    for b, agg in enumerate(aggs):
        alone = propagate_zofe(agg, bath, cfg).samples
        assert np.array_equal(samples[b], alone)
        assert np.array_equal(backwards[b].samples, alone)
        if b < 2:
            assert np.array_equal(pair[b].samples, alone)


@pytest.mark.parametrize("n, couplings", [(2, (-0.425, -0.2, 0.44)), (7, (0.42, 1.0))])
def test_batched_kernel_matches_reference_rk4(n, couplings):
    # the skewed lane clocks against one whole single-lane run per attempt
    bath = LorentzianBath.from_huang_rhys(n, 0.64, 1.0, 0.25)
    cfg = PropagationConfig(dt=0.01, t_max=6.0)
    aggs = [AggregateSpec.equal_parallel(n, coupling_v=v) for v in couplings]
    samples, _, levels, errors, _, _ = _run_lanes(aggs, bath, cfg)
    assert not errors and max(levels) == 1
    for b, agg in enumerate(aggs):
        ref, level = reference_trace(agg, bath, cfg)
        assert levels[b] == level
        # a trip amplifies the rounding of the packed product: 1.26e-12 at
        # N = 2, V = -0.425 and 5.5e-13 at N = 7, V = 0.42
        assert np.max(np.abs(samples[b] - ref)) <= (2e-12 if level else 1e-13)


def traced_peak(build):
    """(result of ``build()``, peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lane_run_peak_memory_stays_near_the_samples():
    # the 11-lane dimer scan, both end lanes refined: the (B, n_steps + 1)
    # sample block is the only array that grows with the run
    aggs = [AggregateSpec.equal_parallel(2, coupling_v=v) for v in np.linspace(-0.425, 0.425, 11)]
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    (samples, _, levels, errors, _, _), peak = traced_peak(lambda: _run_lanes(aggs, DIMER_BATH, cfg))
    assert not errors and list(levels) == [1] + [0] * 9 + [1]
    assert peak <= 1.25 * samples.nbytes


def test_prefix_extension_matches_a_rerun_from_zero():
    # V = 0.433 trips at t = 20.85, and again at t = 26.68, after its dt/2
    # prefix: the lane resumes from the state saved where the prefix ended,
    # which must match a whole rerun from t = 0 with the extended prefix
    bath = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)
    cfg = PropagationConfig(dt=0.01, t_max=30.0)
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.433)
    samples, _, levels, errors, _, _ = _run_lanes([agg], bath, cfg)
    ref, level = reference_trace(agg, bath, cfg)
    assert not errors and levels[0] == level == 1
    assert np.max(np.abs(samples[0] - ref)) <= 1e-13


@pytest.mark.parametrize("t_max", [3.42, 3.45, 3.73])
def test_trip_in_the_last_calls_before_an_event_is_caught(t_max):
    # V = -0.425 trips in grid step 341: with t_max = 3.42 in the last call
    # of the run, inside a partial sampling block, which must still be
    # guarded before the lane's run ends
    agg = AggregateSpec.equal_parallel(2, coupling_v=-0.425)
    cfg = PropagationConfig(dt=0.01, t_max=t_max)
    samples, _, levels, errors, _, _ = _run_lanes([agg], DIMER_BATH, cfg)
    ref, level = reference_trace(agg, DIMER_BATH, cfg)
    assert not errors and levels[0] == level == 1
    assert np.max(np.abs(samples[0] - ref)) <= 2e-12


def test_tripped_lane_keeps_its_prefix():
    # V = 0.433 trips in grid step 2084 and runs [0, 2184) at dt/2; by
    # t = 26 it trips no more, by t = 30 once more after its prefix.  The
    # samples of the prefix it resumes after are those of the shorter run,
    # although the second trip is seen only when its block is checked
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.433)
    runs = [_run_lanes([agg], DIMER_BATH, PropagationConfig(dt=0.01, t_max=t))
            for t in (26.0, 30.0)]
    assert [list(run[2]) for run in runs] == [[1], [1]]
    once, twice = (run[0][0] for run in runs)
    assert np.array_equal(once[:2185], twice[:2185])
    assert not np.array_equal(once[2185:2601], twice[2185:2601])


MIXED_TRIMER_LANES = [
    (AggregateSpec.equal_parallel(3, coupling_v=0.44), TRIMER_BATH),
    # the dipoles play no part in the mirror symmetry
    (AggregateSpec(3, 0.0, -0.7, [[1, 0, 0], [0.3, 0.8, 0], [0.1, 0, 0.2]], [1, 1, 0]),
     TRIMER_BATH),
    (AggregateSpec.equal_parallel(3, [0.1, 0.0, -0.1], 0.44), TRIMER_BATH),
    (AggregateSpec.equal_parallel(3, coupling_v=0.44),
     LorentzianBath(TRIMER_BATH.terms[:2] + (((0.5, 1.1, 0.3),),))),
]


def test_mixed_mirrored_and_full_lanes_are_bit_identical_alone_and_in_batch():
    # two lanes carry 2 of their 3 terms, a disordered chain and one with an
    # uneven bath carry all 3; every lane gives the same bits alone and in
    # the batch, and follows RK4 on the general right-hand side
    aggs, baths = zip(*MIXED_TRIMER_LANES)
    flips = [_mirror_layout(agg, bath)[1] for agg, bath in MIXED_TRIMER_LANES]
    assert [int(flip.sum()) for flip in flips] == [1, 1, 0, 0]
    cfg = PropagationConfig(dt=0.01, t_max=6.0)
    samples, mu_sq, levels, errors, psi, aux = _run_lanes(aggs, baths, cfg)
    assert not errors and not levels.any()
    for b, (agg, bath) in enumerate(MIXED_TRIMER_LANES):
        alone = _run_lanes([agg], [bath], cfg)
        for batched, single in zip((samples, psi, aux), (alone[0], alone[4], alone[5])):
            assert np.array_equal(batched[b], single[0])
        assert np.max(np.abs(samples[b] - reference_run(agg, bath, cfg))) <= 1e-13 * mu_sq[b]


def test_lanes_keep_the_batch_slots_when_the_widest_lane_ends_first():
    # a disordered dimer carries both terms and never trips; the mirrored
    # dimer at V = -0.425 carries one, refines and runs on after the other
    # has ended, in a state with the batch's two slots; each lane gives the
    # same bits alone and in the batch
    lanes = [(AggregateSpec.equal_parallel(2, [0.1, 0.0], 0.3), DIMER_BATH),
             (AggregateSpec.equal_parallel(2, coupling_v=-0.425), DIMER_BATH)]
    assert [int(_mirror_layout(agg, bath)[1].sum()) for agg, bath in lanes] == [0, 1]
    cfg = PropagationConfig(dt=0.01, t_max=20.0)
    samples, mu_sq, levels, errors, psi, aux = _run_lanes(*zip(*lanes), cfg)
    assert not errors and list(levels) == [0, 1]
    for b, (agg, bath) in enumerate(lanes):
        alone = _run_lanes([agg], [bath], cfg)
        for batched, single in zip((samples, mu_sq, levels, psi, aux), alone[:3] + alone[4:]):
            assert np.array_equal(batched[b], single[0])


@pytest.mark.parametrize("n", [2, 3, 7])
def test_mirrored_lane_matches_the_full_term_set(n, monkeypatch):
    # a mirrored lane returns R Q[n] R as the aux of monomer N - 1 - n, and
    # its trace and aux agree with a run on every term up to rounding
    bath = LorentzianBath.from_huang_rhys(n, [0.4, 0.24], [0.23, 1.29], [0.06, 0.32])
    aggs = [AggregateSpec.equal_parallel(n, coupling_v=v) for v in (-0.7, 0.44)]
    cfg = PropagationConfig(dt=0.01, t_max=6.0)
    samples, mu_sq, levels, errors, _, aux = _run_lanes(aggs, bath, cfg)
    assert not errors and not levels.any()
    per_monomer = aux.reshape(len(aggs), n, 2, n, n)
    for m in range(n // 2):
        assert np.array_equal(per_monomer[:, n - 1 - m], per_monomer[:, m, :, ::-1, ::-1])
    monkeypatch.setattr(zofe, "_mirror_layout", lambda agg, bath: (
        np.arange(bath.count), np.zeros(bath.count, dtype=bool)))
    full_samples, _, _, _, _, full_aux = _run_lanes(aggs, bath, cfg)
    assert np.max(np.abs(samples - full_samples)) <= 1e-13
    assert np.max(np.abs(aux - full_aux)) <= 1e-13

import itertools
import math
import tracemalloc

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from numpy.testing import assert_allclose
import scipy.sparse

from aggspec import pseudomode
from aggspec.model import (
    AggregateSpec, BathTerms, LorentzianBath, initial_bright_state, mirror_slots,
)
from aggspec.propagation import PropagationConfig, PropagationError
from aggspec.pseudomode import (
    BasisSizeError,
    CapConvergenceError,
    _KRYLOV_TOL,
    _Lanczos,
    _rk4_step,
    assemble_generator,
    converge_caps,
    count_occupation_vectors,
    embed_initial_state,
    enumerate_basis,
    krylov_correlation,
    pm_correlation,
    propagate_pm,
)
from aggspec.spectra import (
    TraceTailError, absorption_from_trace, cumulant_oracle, default_nu_grid, overlap,
)

DIMER_BATH = LorentzianBath.from_huang_rhys(2, 0.64, 1.0, 0.25)


def brute_force_occupations(n_slots, cap):
    return {
        beta
        for beta in itertools.product(range(cap + 1), repeat=n_slots)
        if sum(beta) <= cap
    }


SIX_X = [0.4, 0.07, 0.18, 0.24, 0.12, 0.24]
SIX_OMEGA = [0.23, 0.42, 0.57, 1.29, 1.41, 1.61]


def six_term_bath(n_monomers):
    return LorentzianBath.from_huang_rhys(
        n_monomers, SIX_X, SIX_OMEGA, [0.25 * om for om in SIX_OMEGA]
    )


def rows(block):
    return [tuple(row) for row in block.tolist()]


def build(agg, bath, cap):
    """(occupation block, G) at ``cap``."""
    occupations = enumerate_basis(agg.n_monomers, [len(t) for t in bath.terms], cap)
    return occupations, assemble_generator(agg, bath, occupations, cap)


@pytest.mark.parametrize(
    "n_monomers, modes, cap, expected",
    [
        (2, [1, 1], 2, 12),   # 2 x 6 occupation vectors
        (1, [1], 0, 1),
        (3, [1, 1, 1], 1, 12),  # 3 x 4 occupation vectors
    ],
)
def test_enumeration_counts(n_monomers, modes, cap, expected):
    block = enumerate_basis(n_monomers, modes, cap)
    assert n_monomers * len(block) == expected and block.shape[1] == sum(modes)
    brute = brute_force_occupations(sum(modes), cap)
    assert set(rows(block)) == brute
    assert len(set(rows(block))) == len(block)
    assert count_occupation_vectors(sum(modes), cap) == len(brute)


def test_enumeration_order_is_lexicographic():
    for n_monomers, modes, cap in ((2, [1, 1], 1), (3, [2, 0, 1], 4)):
        block = enumerate_basis(n_monomers, modes, cap)
        assert rows(block) == sorted(brute_force_occupations(sum(modes), cap))


def test_budget_error_reports_dimension(monkeypatch):
    monkeypatch.setattr(pseudomode, "DEFAULT_MAX_STATES", 1000)
    with pytest.raises(BasisSizeError) as err:
        enumerate_basis(2, [6, 6], 8)
    assert err.value.dim == 2 * count_occupation_vectors(12, 8)
    assert err.value.max_states == 1000


def test_generator_two_level_hand_assembly():
    eps, gamma_amp, center, width = 0.3, 0.64, 1.0, 0.25
    agg = AggregateSpec.equal_parallel(1, epsilon=eps)
    bath = LorentzianBath.uniform(1, [(gamma_amp, center, width)])
    _, matrix = build(agg, bath, 1)
    g = np.sqrt(gamma_amp)
    expected = np.array(
        [
            [-1j * eps, 1j * g],
            [1j * g, -1j * (eps + center) - width],
        ]
    )
    assert_allclose(matrix.toarray(), expected, atol=1e-15)


def test_hamiltonian_part_symmetric_and_damping_diagonal():
    agg = AggregateSpec.equal_parallel(2, epsilon=[0.1, -0.1], coupling_v=0.44)
    occupations, matrix = build(agg, DIMER_BATH, 3)
    a = matrix.toarray()
    hamiltonian = -a.imag
    assert np.array_equal(hamiltonian, hamiltonian.T)
    off_diag = a.real - np.diag(np.diag(a.real))
    assert np.all(off_diag == 0.0)
    assert_allclose(np.diag(a).real, -0.25 * np.tile(occupations.sum(axis=1), 2), atol=1e-15)


def test_sparsity_bound_per_row():
    agg = AggregateSpec.equal_parallel(3, coupling_v=0.44)
    bath = LorentzianBath.from_huang_rhys(3, [0.4, 0.2], [1.0, 1.5], [0.25, 0.3])
    _, csr = build(agg, bath, 3)
    modes_per_monomer = 2
    bound = 2 * modes_per_monomer + 2 + 1
    row_counts = np.diff(csr.indptr)
    assert np.all(row_counts <= bound)


def test_gamma_zero_generator_is_anti_hermitian_and_conserves_norm():
    agg = AggregateSpec.equal_parallel(1)
    bath = LorentzianBath.uniform(1, [(0.64, 1.0, 0.0)])
    occupations, matrix = build(agg, bath, 10)
    a = matrix.toarray()
    assert_allclose(a, -a.conj().T, atol=1e-15)
    psi0, _ = initial_bright_state(agg)
    psi = embed_initial_state(psi0, len(occupations))
    dt = 0.002
    for _ in range(round(50.0 / dt)):
        psi = _rk4_step(matrix, psi, dt)
    assert abs(np.linalg.norm(psi) - 1.0) <= 1e-8


def test_norm_monotone_with_damping():
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    occupations, matrix = build(agg, DIMER_BATH, 8)
    # log-norm condition: the Hermitian part of the generator is <= 0
    a = matrix.toarray()
    herm = (a + a.conj().T) / 2
    assert np.max(np.linalg.eigvalsh(herm)) <= 1e-12
    psi0, _ = initial_bright_state(agg)
    psi = embed_initial_state(psi0, len(occupations))
    norms = [np.linalg.norm(psi)]
    for _ in range(2000):
        psi = _rk4_step(matrix, psi, 0.01)
        norms.append(np.linalg.norm(psi))
    assert np.all(np.diff(norms) <= 1e-12)


def test_doubling_matches_direct_propagation():
    cfg = PropagationConfig(dt=0.01, t_max=40.0)
    for agg, bath in (
        (AggregateSpec.equal_parallel(1), LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)),
        (AggregateSpec.equal_parallel(2, coupling_v=0.44), DIMER_BATH),
    ):
        doubled = pm_correlation(agg, bath, cfg, caps=8, doubling=True)
        direct = pm_correlation(agg, bath, cfg, caps=8, doubling=False)
        shared = direct.samples[::2][: doubled.samples.size]
        assert np.max(np.abs(doubled.samples - shared)) <= 1e-10 * doubled.mu_tot_sq


def test_doubling_requires_real_initial_state():
    agg = AggregateSpec.equal_parallel(1)
    bath = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)
    occupations, matrix = build(agg, bath, 4)
    psi0 = embed_initial_state(np.array([1j]), len(occupations))
    with pytest.raises(PropagationError, match="doubling requires real"):
        propagate_pm(matrix, psi0, PropagationConfig(dt=0.01, t_max=1.0), doubling=True)


def test_monomer_matches_cumulant_oracle():
    agg = AggregateSpec.equal_parallel(1)
    bath = LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)
    cfg = PropagationConfig(dt=0.01, t_max=50.0)
    trace = pm_correlation(agg, bath, cfg, caps=12)
    oracle = cumulant_oracle(
        bath.terms[0], 0.0, PropagationConfig(dt=trace.dt, t_max=50.0)
    )
    n = trace.samples.size
    assert np.max(np.abs(trace.samples - oracle.samples[:n])) <= 1e-4


def reference_entries(agg, bath, occupations):
    """(rows, cols, values) of G entry by entry over a dict index of the
    states (n, beta) in index order, following the module docstring; every
    diagonal entry is present, even a zero."""
    slots = [(n, term) for n, terms in enumerate(bath.terms) for term in terms]
    states = list(itertools.product(range(agg.n_monomers), rows(occupations)))
    index = {state: i for i, state in enumerate(states)}
    entries = []
    for i, (n, beta) in enumerate(states):
        energy, damping = agg.epsilon[n], 0.0
        for (_, (_, center, width)), b in zip(slots, beta):
            energy += center * b
            damping += width * b
        entries.append((i, i, -1j * energy - damping))
        for s, (owner, (gamma_amp, _, _)) in enumerate(slots):
            if owner != n:
                continue
            for b in (beta[s] - 1, beta[s] + 1):
                j = index.get((n, beta[:s] + (b,) + beta[s + 1:]))
                if j is not None:
                    entries.append((i, j, 1j * math.sqrt(gamma_amp) * math.sqrt(max(b, beta[s]))))
        for m in (n - 1, n + 1):
            j = index.get((m, beta))
            if j is not None and agg.coupling_v != 0.0:
                entries.append((i, j, -1j * agg.coupling_v))
    i, j, values = zip(*entries)
    return np.array(i), np.array(j), np.array(values)


def dense_reference(agg, bath, occupations):
    """Dense G from ``reference_entries``."""
    i, j, values = reference_entries(agg, bath, occupations)
    dim = agg.n_monomers * len(occupations)
    g = np.zeros((dim, dim), dtype=complex)
    g[i, j] = values
    return g


# centres and widths not dyadic, so the sums pin the order of the diagonal terms
TWO_MODE_BATH = LorentzianBath.from_huang_rhys(3, [0.4, 0.2], [0.93, 1.37], [0.23, 0.31])
TWO_MODE_BATH_2, TWO_MODE_BATH_4 = (
    LorentzianBath.from_huang_rhys(n, [0.4, 0.2], [0.93, 1.37], [0.23, 0.31]) for n in (2, 4)
)
FIG1A_CHAIN5_BATH = LorentzianBath.from_huang_rhys(5, 0.64, 1.0, 0.25)


@pytest.mark.parametrize(
    "agg, bath, caps",
    [
        (AggregateSpec.equal_parallel(3, [0.1, -0.2, 0.3], 0.44), TWO_MODE_BATH, 3),
        (AggregateSpec.equal_parallel(3, [0.1, -0.2, 0.3], 0.0), TWO_MODE_BATH, 3),
        (AggregateSpec.equal_parallel(1, 0.3), LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25), 300),
        # 42 slots: a mixed-radix key over all slots would not fit in int64
        (AggregateSpec.equal_parallel(7, coupling_v=0.44), six_term_bath(7), 1),
    ],
    ids=["trimer-two-modes", "trimer-v0", "monomer-caps300", "chain7-sixterm"],
)
def test_generator_matches_dense_reference(agg, bath, caps):
    occupations, matrix = build(agg, bath, caps)
    assert np.array_equal(matrix.toarray(), dense_reference(agg, bath, occupations))


@st.composite
def small_bases(draw, max_terms=3, max_caps=4):
    """A small aggregate (V = 0 or not) and bath (up to ``max_terms`` per
    monomer) with a cap up to ``max_caps``."""
    n = draw(st.integers(1, 3))
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)
    term = st.tuples(real(0.01, 2.0), real(-2.0, 2.0), real(0.0, 1.0))
    terms = draw(st.lists(st.lists(term, max_size=max_terms), min_size=n, max_size=n))
    agg = AggregateSpec.equal_parallel(
        n, draw(st.lists(real(-1.0, 1.0), min_size=n, max_size=n)),
        draw(st.one_of(st.just(0.0), real(-1.0, 1.0))),
    )
    return agg, LorentzianBath(tuple(tuple(t) for t in terms)), draw(st.integers(0, max_caps))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_bases())
def test_in_place_csr_equals_coo_reference(problem):
    # the CSR written in place holds the arrays scipy's COO -> CSR conversion
    # gives for the same entries, in canonical format
    agg, bath, caps = problem
    occupations, matrix = build(agg, bath, caps)
    i, j, values = reference_entries(agg, bath, occupations)
    reference = scipy.sparse.coo_matrix((values, (i, j)), shape=matrix.shape).tocsr()
    assert matrix.has_canonical_format
    for name in ("indptr", "indices", "data"):
        ours, theirs = getattr(matrix, name), getattr(reference, name)
        assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), name


def traced_peak(build):
    """(result of ``build()``, peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return build(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_enumeration_peak_memory_stays_near_the_basis():
    # six-term dimer at caps 6: 18,564 occupation vectors, written into one
    # array, without fanned-out copies of it
    block, peak = traced_peak(lambda: enumerate_basis(2, [6, 6], 6))
    assert block.shape == (18564, 12)
    assert peak <= 1.75 * block.nbytes


def test_assembly_peak_memory_stays_near_the_csr():
    # the CSR arrays are written once, without COO copies of the entries
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    block = enumerate_basis(2, [6, 6], 6)
    csr, peak = traced_peak(lambda: assemble_generator(agg, six_term_bath(2), block, 6))
    assert peak <= 2.0 * (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


def test_basis_without_mode_slots_does_not_allocate_by_cap():
    # without bath terms every cap spans the electronic states alone, so a
    # huge one (past int32, too) costs no table of cap entries
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.3)
    bath = LorentzianBath.uniform(2, [])
    (block, matrix), peak = traced_peak(lambda: build(agg, bath, 2**40))
    assert block.shape == (1, 0) and matrix.shape == (2, 2)
    assert peak < 2**20


def mirror_orbit_basis(agg, bath, occupations):
    """One column per orbit of the mirror P, in the order of its first state
    r: (e_r + e_P(r)) / sqrt(2) for a pair, e_r for a fixed point.  P(n, beta)
    is (N-1-n, beta with the slots of monomers m and N-1-m swapped)."""
    slots = mirror_slots(agg, bath, BathTerms.from_bath(bath))
    index = {beta: k for k, beta in enumerate(rows(occupations))}
    n, n_vectors = agg.n_monomers, len(occupations)
    columns = []
    for r, (m, beta) in enumerate(itertools.product(range(n), rows(occupations))):
        image = (n - 1 - m) * n_vectors + index[tuple(beta[t] for t in slots)]
        if r <= image:
            column = np.zeros(n * n_vectors)
            column[[r, image]] = 1.0
            columns.append(column / np.linalg.norm(column))
    return np.array(columns).T


@pytest.mark.parametrize(
    "agg, bath, caps",
    [
        (AggregateSpec.equal_parallel(2, 0.1, 0.44), TWO_MODE_BATH_2, 3),
        (AggregateSpec.equal_parallel(3, [0.1, -0.2, 0.1], 0.44), TWO_MODE_BATH, 3),
        (AggregateSpec.equal_parallel(4, [0.3, 0.0, 0.0, 0.3], -0.7), TWO_MODE_BATH_4, 2),
        (AggregateSpec.equal_parallel(5, coupling_v=1.5), FIG1A_CHAIN5_BATH, 3),
    ],
    ids=["dimer", "trimer", "chain4", "chain5"],
)
def test_folded_generator_is_the_full_one_on_mirror_orbits(agg, bath, caps):
    # G_e = U^T G U, U the real orthonormal orbit basis: a hop between a
    # state and its own mirror partner (even N, the two middle monomers)
    # lands on the diagonal, and a fixed point of the middle monomer (odd N)
    # takes sqrt(2) -1j*V from each neighbour
    occupations, matrix = build(agg, bath, caps)
    folded = assemble_generator(agg, bath, occupations, caps, fold=True)
    basis = mirror_orbit_basis(agg, bath, occupations)
    assert folded.shape[0] == basis.shape[1]
    assert_allclose(folded.toarray(), basis.T @ matrix.toarray() @ basis, rtol=0, atol=1e-15)
    assert (folded != folded.T).nnz == 0  # complex symmetric, bit for bit


def test_folding_needs_a_mirror_symmetric_chain():
    agg = AggregateSpec.equal_parallel(3, [0.1, -0.2, 0.3], 0.44)
    occupations = enumerate_basis(3, [2, 2, 2], 2)
    with pytest.raises(ValueError, match="palindromic"):
        assemble_generator(agg, TWO_MODE_BATH, occupations, 2, fold=True)


def full_basis(monkeypatch):
    monkeypatch.setattr(pseudomode, "_folds", lambda agg, bath: False)


@pytest.mark.parametrize(
    "n_monomers, v, bath, caps",
    [
        (2, 0.44, six_term_bath(2), 6),  # 37,128 states
        (3, 1.5, LorentzianBath.from_huang_rhys(3, 0.64, 1.0, 0.25), 8),
        (4, 0.44, LorentzianBath.from_huang_rhys(4, 0.64, 1.0, 0.25), 8),
        (7, -1.0, LorentzianBath.from_huang_rhys(7, 0.64, 1.0, 0.25), 8),  # 45,045 states
    ],
    ids=["sixterm-caps6", "trimer-caps8", "chain4-caps8", "chain7-caps8"],
)
def test_folded_trace_matches_the_full_basis(n_monomers, v, bath, caps, monkeypatch):
    # the bright state of a chain of identical monomers is mirror-even, so the
    # Lanczos recursion runs on the orbit basis: half the states for even N,
    # (full + fixed points) / 2 for odd N
    agg = AggregateSpec.equal_parallel(n_monomers, coupling_v=v)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    occupations = enumerate_basis(n_monomers, [len(t) for t in bath.terms], caps)
    slots = mirror_slots(agg, bath, BathTerms.from_bath(bath))
    fixed = n_monomers % 2 * int(np.all(occupations[:, slots] == occupations, axis=1).sum())
    assert pseudomode._generator_and_state(agg, bath, caps)[0].shape[0] == \
        (n_monomers * len(occupations) + fixed) // 2
    folded = krylov_correlation(agg, bath, cfg, caps)
    full_basis(monkeypatch)
    full = krylov_correlation(agg, bath, cfg, caps)
    assert np.max(np.abs(folded.samples - full.samples)) <= 1e-12 * full.mu_tot_sq


@pytest.mark.parametrize(
    "agg, bath",
    [
        (AggregateSpec.equal_parallel(2, coupling_v=0.44), DIMER_BATH),
        (AggregateSpec.equal_parallel(3, [0.1, -0.2, 0.1], -0.6), TWO_MODE_BATH),
    ],
    ids=["dimer", "trimer"],
)
def test_folded_rk4_matches_the_full_basis(agg, bath, monkeypatch):
    cfg = PropagationConfig(dt=0.01, t_max=20.0)
    folded = pm_correlation(agg, bath, cfg, caps=4)
    full_basis(monkeypatch)
    full = pm_correlation(agg, bath, cfg, caps=4)
    assert folded.dt == full.dt == 0.02
    assert np.max(np.abs(folded.samples - full.samples)) <= 1e-12 * full.mu_tot_sq


@pytest.mark.parametrize(
    "agg, bath",
    [
        (AggregateSpec.equal_parallel(3, [0.1, -0.2, 0.3], 0.44), TWO_MODE_BATH),
        (AggregateSpec.equal_parallel(3, 0.0, 0.44),
         LorentzianBath(TWO_MODE_BATH.terms[:2] + (((0.4, 0.93, 0.23), (0.2, 1.37, 0.3)),))),
        (AggregateSpec(3, 0.0, 0.44, [[1, 0, 0], [1, 0, 0], [0.5, 0.5, 0]], [1, 0, 0]),
         TWO_MODE_BATH),
        (AggregateSpec.equal_parallel(1, 0.3), LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25)),
    ],
    ids=["disordered", "uneven-bath", "asymmetric-dipoles", "monomer"],
)
def test_lanes_that_cannot_fold_keep_the_full_basis(agg, bath):
    # the generator and state of the full basis, bit for bit
    occupations, matrix = build(agg, bath, 3)
    folded, psi0, mu_tot_sq = pseudomode._generator_and_state(agg, bath, 3)
    for name in ("data", "indices", "indptr"):
        assert getattr(folded, name).tobytes() == getattr(matrix, name).tobytes()
    bright, mu_tot = initial_bright_state(agg)
    expected = embed_initial_state(bright, len(occupations))
    assert psi0.tobytes() == expected.tobytes() and mu_tot_sq == mu_tot**2


def test_folded_assembly_peak_memory_stays_near_its_csr():
    # folded while it is assembled: the full CSR is never built
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    block = enumerate_basis(2, [6, 6], 6)
    csr, peak = traced_peak(lambda: assemble_generator(agg, six_term_bath(2), block, 6, fold=True))
    assert csr.shape == (18564, 18564)
    assert peak <= 2.0 * (csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes)


def test_converge_caps_trivial_for_empty_bath():
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.3)
    bath = LorentzianBath.uniform(2, [])
    cfg = PropagationConfig(dt=0.01, t_max=120.0)
    caps, trace = converge_caps(agg, bath, cfg, 1e-3, eta=0.1, nu=default_nu_grid(agg, bath))
    assert caps == 0
    assert trace.samples[0] == pytest.approx(trace.mu_tot_sq)


def test_converge_caps_dimer_and_stability_under_cap_increase():
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    nu = default_nu_grid(agg, DIMER_BATH)
    caps, trace = converge_caps(agg, DIMER_BATH, cfg, 1e-3, eta=0.01, nu=nu)
    assert caps >= 2
    spec = absorption_from_trace(trace, 0.01, nu)
    bigger = pm_correlation(agg, DIMER_BATH, cfg, caps=caps + 2)
    spec_bigger = absorption_from_trace(bigger, 0.01, nu)
    assert overlap(spec, spec_bigger) >= 99.8


def test_converge_caps_grow_with_coupling_strength():
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    strong = LorentzianBath.from_huang_rhys(2, 1.2, 1.0, 0.25)
    caps_small, caps_large = (
        converge_caps(agg, bath, cfg, 1e-3, 0.01, default_nu_grid(agg, bath))[0]
        for bath in (DIMER_BATH, strong))
    assert caps_large >= caps_small


def test_converge_caps_budget_failure_reports_overlaps(monkeypatch):
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    monkeypatch.setattr(pseudomode, "DEFAULT_MAX_STATES", 40)
    with pytest.raises(CapConvergenceError, match="budget of 40; last overlaps: [0-9.]+%"):
        converge_caps(agg, DIMER_BATH, cfg, 1e-9, 0.01, default_nu_grid(agg, DIMER_BATH))


def test_converge_caps_rejects_a_tolerance_that_certifies_anything():
    # at tolerance >= 1 the overlap target 100 * (1 - tolerance) is <= 0%
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    nu = default_nu_grid(agg, DIMER_BATH)
    for tolerance in (1.0, 2.0, 0.0):
        with pytest.raises(ValueError, match="tolerance must lie in"):
            converge_caps(agg, DIMER_BATH, cfg, tolerance, 0.01, nu)


FIG3A_TRIMER = AggregateSpec.equal_parallel(3, coupling_v=1.5)
# the check tolerance of the ladder's rungs at its default tolerance 1e-3
CHECK_TOL = 1e-6


@pytest.mark.parametrize(
    "agg, bath, caps, check_tol",
    [
        (FIG3A_TRIMER, LorentzianBath.from_huang_rhys(3, 0.64, 1.0, 0.25), 8, CHECK_TOL),
        (AggregateSpec.equal_parallel(2, coupling_v=0.44), six_term_bath(2), 4, CHECK_TOL),
        # stops at depth 48, which agrees with depth 40 within 1e-5 mu^2 but
        # drops a ghost holding 1.1e-9 of M(0): more than rounding, less than
        # the check tolerance, so not an error
        (AggregateSpec.equal_parallel(2, coupling_v=-1.5), six_term_bath(2), 2, 1e-5),
    ],
    ids=["trimer-caps8", "sixterm-caps4", "sixterm-caps2-ghost"],
)
def test_lanczos_resumed_from_the_check_tolerance_gives_the_full_trace(agg, bath, caps,
                                                                       check_tol):
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    rung = _Lanczos(*pseudomode._generator_and_state(agg, bath, caps), cfg)
    rung.trace(check_tol)
    check_depth = len(rung.alpha)
    resumed = rung.trace(_KRYLOV_TOL)
    assert len(rung.alpha) > check_depth
    full = krylov_correlation(agg, bath, cfg, caps=caps)
    assert resumed.dt == full.dt and resumed.mu_tot_sq == full.mu_tot_sq
    assert resumed.samples.tobytes() == full.samples.tobytes()


@pytest.mark.parametrize(
    "agg, bath, eta",
    [
        # at eta = 0.01 the caps-1 rung of this dimer has not decayed by t_max
        (AggregateSpec.equal_parallel(2, coupling_v=-0.425), DIMER_BATH, 0.02),
        (FIG3A_TRIMER, LorentzianBath.from_huang_rhys(3, 0.64, 1.0, 0.25), 0.01),
    ],
    ids=["dimer-0.425", "trimer+1.5"],
)
def test_converge_caps_returns_the_full_precision_trace(agg, bath, eta):
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    caps, trace = converge_caps(agg, bath, cfg, 1e-3, eta, default_nu_grid(agg, bath))
    full = krylov_correlation(agg, bath, cfg, caps=caps)
    assert trace.dt == full.dt and trace.mu_tot_sq == full.mu_tot_sq
    assert trace.samples.tobytes() == full.samples.tobytes()


@pytest.mark.parametrize("v", [-0.425, -1.5])
def test_converge_caps_skips_a_rung_whose_trace_has_not_decayed(v):
    # at eta = 0.01 the caps-1 trace of the fig1a dimer still rings at t_max
    # (3.2e-4 and 7.5e-4 mu^2 against the 1e-4 tail bound), which used to
    # stop the whole ladder; the rung is skipped, and the accepted rung
    # passes its own tail check
    agg = AggregateSpec.equal_parallel(2, coupling_v=v)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    nu = default_nu_grid(agg, DIMER_BATH)
    with pytest.raises(TraceTailError):
        absorption_from_trace(krylov_correlation(agg, DIMER_BATH, cfg, caps=1), 0.01, nu)
    caps, trace = converge_caps(agg, DIMER_BATH, cfg, 1e-3, 0.01, nu)
    assert caps >= 2
    absorption_from_trace(trace, 0.01, nu)


def test_converge_caps_check_rungs_are_cheap_and_keep_the_overlaps(monkeypatch):
    # the fig3a trimer at V = 1.5 runs rungs 1 to 16 and accepts caps 8; with
    # every rung converged to 1e-10 mu^2 that took 351 matvecs
    bath = LorentzianBath.from_huang_rhys(3, 0.64, 1.0, 0.25)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    nu = default_nu_grid(FIG3A_TRIMER, bath)
    original = pseudomode._generator_and_state
    matvecs = []

    class Counted:
        def __init__(self, matrix):
            self.matrix = matrix

        def __matmul__(self, v):
            matvecs.append(1)
            return self.matrix @ v

    def counted(agg, bath, caps):
        matrix, psi0, mu_tot_sq = original(agg, bath, caps)
        return Counted(matrix), psi0, mu_tot_sq

    monkeypatch.setattr(pseudomode, "_generator_and_state", counted)
    assert converge_caps(FIG3A_TRIMER, bath, cfg, 1e-3, 0.01, nu)[0] == 8
    assert len(matvecs) <= 270
    # each rung-pair overlap moves by at most 1e-5 points against full precision
    spectra = {tol: [] for tol in (CHECK_TOL, _KRYLOV_TOL)}
    for caps in (1, 2, 4, 8, 16):
        rung = _Lanczos(*original(FIG3A_TRIMER, bath, caps), cfg)
        for tol, found in spectra.items():
            found.append(absorption_from_trace(rung.trace(tol), 0.01, nu))
    loose, full = ([overlap(a, b) for a, b in itertools.pairwise(found)]
                   for found in spectra.values())
    assert np.max(np.abs(np.subtract(loose, full))) <= 1e-5


def test_pm_state_and_index_types():
    # one read-only int32 occupation row per vector; state (n, row k) is
    # index n * n_vectors + k
    block = enumerate_basis(2, [1, 1], 1)
    assert block.dtype == np.int32 and not block.flags.writeable
    assert rows(block) == [(0, 0), (0, 1), (1, 0)]
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    matrix = assemble_generator(agg, DIMER_BATH, block, 1)
    assert isinstance(matrix, scipy.sparse.csr_matrix) and matrix.shape == (6, 6)
    with pytest.raises(ValueError, match="does not match the bath"):
        assemble_generator(agg, DIMER_BATH, block[:, :1], 1)
    psi = embed_initial_state(np.array([0.6, 0.8]), len(block))
    # exactly the vacuum row of each block carries the electronic amplitude
    assert np.flatnonzero(psi).tolist() == [0, 3]
    assert psi[[0, 3]].tolist() == [0.6, 0.8]


def test_assembly_rejects_a_block_that_does_not_match_its_caps():
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    block = enumerate_basis(2, [1, 1], 2)
    for cap in (1, 3):
        with pytest.raises(ValueError, match="does not match the bath and cap"):
            assemble_generator(agg, DIMER_BATH, block, cap)
    with pytest.raises(ValueError, match="does not match the bath and cap"):
        assemble_generator(agg, DIMER_BATH, block[:-1], 2)


def assert_krylov_matches_rk4(agg, bath, cfg, caps, min_overlap=None):
    """The Lanczos trace equals the RK4 reference within 1e-7 mu^2 on the
    same grid, and (optionally) their spectra overlap by ``min_overlap``."""
    fast = krylov_correlation(agg, bath, cfg, caps=caps)
    reference = pm_correlation(agg, bath, cfg, caps=caps)
    assert fast.dt == reference.dt
    assert fast.samples.size == reference.samples.size
    assert fast.mu_tot_sq == reference.mu_tot_sq
    assert np.max(np.abs(fast.samples - reference.samples)) <= 1e-7 * fast.mu_tot_sq
    if min_overlap is not None:
        nu = default_nu_grid(agg, bath)
        spectra = [absorption_from_trace(t, 0.01, nu) for t in (fast, reference)]
        assert overlap(*spectra) >= min_overlap


def undamped(n_monomers, terms):
    """An aggregate whose G has eigenvalues on Re = 0: eig returns them with
    Re of either sign at rounding level, and only Re above that is a ghost
    (else M(0) would lose weight)."""
    agg = AggregateSpec.equal_parallel(n_monomers, list(np.linspace(-0.2, 0.3, n_monomers)), 0.3)
    return agg, LorentzianBath.uniform(n_monomers, terms)


@pytest.mark.parametrize(
    "agg, bath, caps, t_max, min_overlap",
    [
        (AggregateSpec.equal_parallel(1), LorentzianBath.from_huang_rhys(1, 0.64, 1.0, 0.25), 12,
         150.0, 99.9999),
        (AggregateSpec.equal_parallel(2, coupling_v=0.44), DIMER_BATH, 12, 150.0, 99.9999),
        (AggregateSpec.equal_parallel(2, coupling_v=-0.41), DIMER_BATH, 12, 150.0, 99.9999),
        (AggregateSpec.equal_parallel(3, coupling_v=1.5),
         LorentzianBath.from_huang_rhys(3, 0.64, 1.0, 0.25), 8, 150.0, 99.9999),
        (AggregateSpec.equal_parallel(2, coupling_v=0.44), six_term_bath(2), 4,  # dim 3640
         150.0, 99.9999),
        # undamped traces do not decay by t_max, so no spectrum
        (*undamped(3, []), 0, 50.0, None),
        (*undamped(1, [(0.5, 1.0, 0.0)]), 4, 50.0, None),
    ],
    ids=["monomer", "dimer+0.44", "dimer-0.41", "trimer", "sixterm", "electronic-trimer",
         "undamped-mode"],
)
def test_krylov_matches_rk4_reference(agg, bath, caps, t_max, min_overlap):
    assert_krylov_matches_rk4(agg, bath, PropagationConfig(dt=0.01, t_max=t_max), caps,
                              min_overlap=min_overlap)


@st.composite
def small_problems(draw):
    """Up to three monomers with one or two Lorentzians each, caps <= 4."""
    n = draw(st.integers(1, 3))
    real = lambda lo, hi: st.floats(lo, hi, allow_nan=False)
    term = st.tuples(real(0.01, 1.0), real(0.2, 2.0), real(0.05, 1.0))
    terms = draw(st.lists(term, min_size=1, max_size=2))
    agg = AggregateSpec.equal_parallel(
        n, draw(st.lists(real(-1.0, 1.0), min_size=n, max_size=n)), draw(real(-1.0, 1.0))
    )
    return agg, LorentzianBath.uniform(n, terms), draw(st.integers(0, 4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_problems())
def test_krylov_matches_rk4_property(problem):
    agg, bath, caps = problem
    assert_krylov_matches_rk4(agg, bath, PropagationConfig(dt=0.01, t_max=20.0), caps)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_problems())
def test_doubling_identity_property(problem):
    # psi(t)^T psi(t) = psi0^T R^(2k) psi0 for the (symmetric) RK4 propagator
    # R, so the doubled trace is the direct one at t = 2k dt up to rounding
    agg, bath, caps = problem
    cfg = PropagationConfig(dt=0.01, t_max=5.0)
    matrix, psi0, mu_tot_sq = pseudomode._generator_and_state(agg, bath, caps)
    doubled = propagate_pm(matrix, psi0, cfg, mu_tot_sq, doubling=True)
    direct = propagate_pm(matrix, psi0, cfg, mu_tot_sq, doubling=False)
    assert doubled.dt == 2 * direct.dt
    assert np.max(np.abs(doubled.samples - direct.samples[::2])) <= 1e-12 * mu_tot_sq


FIG1A_TRIMER_BATH = LorentzianBath.from_huang_rhys(3, 0.64, 1.0, 0.25)


@pytest.mark.parametrize(
    "n_monomers, v, bath, caps",
    [
        (2, -0.425, DIMER_BATH, 12),
        (3, 1.5, FIG1A_TRIMER_BATH, 8),
        (3, 1.5, FIG1A_TRIMER_BATH, 16),
        (2, 1.5, six_term_bath(2), 6),  # dim 37,128
    ],
    ids=["dimer-0.425", "trimer-caps8", "trimer-caps16", "sixterm-caps6"],
)
def test_krylov_depth_ladder_matches_a_deeper_recursion(n_monomers, v, bath, caps,
                                                        monkeypatch):
    # the ladder accepts a depth once it agrees with the one before (48 to
    # 160 here); the accepted trace stays within the 1e-10 tolerance of a
    # depth-384 one
    agg = AggregateSpec.equal_parallel(n_monomers, coupling_v=v)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    accepted = krylov_correlation(agg, bath, cfg, caps=caps)
    monkeypatch.setattr(pseudomode, "_KRYLOV_DEPTHS", (320, 384))
    deep = krylov_correlation(agg, bath, cfg, caps=caps)
    assert np.max(np.abs(accepted.samples - deep.samples)) <= 1e-10 * accepted.mu_tot_sq


def test_krylov_depth_ladder_stops_near_the_converged_depth():
    # the fig3a trimer at caps 8 and V = 1.5 is accepted at depth 96, which
    # agrees with 80; a doubling ladder confirms 128 at depth 256
    agg = AggregateSpec.equal_parallel(3, coupling_v=1.5)
    matrix, psi0, mu_tot_sq = pseudomode._generator_and_state(agg, FIG1A_TRIMER_BATH, 8)

    class Counted:
        matvecs = 0

        def __matmul__(self, v):
            Counted.matvecs += 1
            return matrix @ v

    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    _Lanczos(Counted(), psi0, mu_tot_sq, cfg).trace(_KRYLOV_TOL)
    assert Counted.matvecs <= 128


def test_lanczos_rejects_amplifying_generator():
    # G + 0.1 I is not dissipative: |M(t)| would rise above M(0) = mu^2
    agg = AggregateSpec.equal_parallel(2, coupling_v=0.44)
    occupations, matrix = build(agg, DIMER_BATH, 12)
    psi0 = embed_initial_state(initial_bright_state(agg)[0], len(occupations))
    amplifying = matrix + 0.1 * scipy.sparse.identity(matrix.shape[0], format="csr")
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    with pytest.raises(PropagationError, match="not dissipative"):
        _Lanczos(amplifying, psi0, 1.0, cfg).trace(_KRYLOV_TOL)
    with pytest.raises(PropagationError, match="real initial state"):
        _Lanczos(matrix, 1j * psi0, 1.0, cfg)


def test_lanczos_single_state_stops_at_lucky_breakdown():
    g = -0.3 - 2.0j

    class Counted:
        matvecs = 0

        def __matmul__(self, v):
            Counted.matvecs += 1
            return g * v

    cfg = PropagationConfig(dt=0.01, t_max=10.0)
    trace = _Lanczos(Counted(), np.array([1.0]), 2.0, cfg).trace(_KRYLOV_TOL)
    assert Counted.matvecs == 1
    assert trace.dt == 0.02 and trace.samples.size == 501
    assert_allclose(trace.samples, 2.0 * np.exp(g * trace.times), rtol=1e-13, atol=0)


def test_krylov_trace_does_not_depend_on_the_blas_pool():
    # OpenBLAS's eig, solve and long dot products round differently with the
    # size of its thread pool; the Lanczos trace runs on one thread, so its
    # bytes do not
    controls = pseudomode._openblas_thread_controls()
    if not controls:
        pytest.skip("numpy's BLAS here is not a loadable OpenBLAS")
    get, set_ = controls[0]
    agg = AggregateSpec.equal_parallel(2, coupling_v=1.5)
    cfg = PropagationConfig(dt=0.01, t_max=150.0)
    saved, traces = get(), []
    try:
        for n in (1, 2):
            set_(n)
            with pseudomode._one_blas_thread():
                assert get() == 1
            assert get() == n
            traces.append(krylov_correlation(agg, six_term_bath(2), cfg, caps=4).samples)
    finally:
        set_(saved)
    assert traces[0].tobytes() == traces[1].tobytes()

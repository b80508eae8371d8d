"""Numerically exact propagation in a truncated electronic x occupation basis.

One damped auxiliary mode per Lorentzian of the spectral density is pulled
into the propagated space.  Basis states pair an excited-monomer index n with
an occupation vector beta over all (monomer, mode) slots; in that basis the
non-Hermitian generator G of  d c/dt = G c  has per component c[n, beta]:

  * diagonal  -1j*(eps_n + sum_mj (Omega_mj - 1j*gamma_mj) beta_mj),
  * ladder    +1j*sqrt(Gamma_nj)*sqrt(beta_nj)   to beta_nj - 1   and
              +1j*sqrt(Gamma_nj)*sqrt(beta_nj+1) to beta_nj + 1,
    on the modes of the excited monomer n only,
  * hopping   -1j*V to (m, beta) for |m - n| = 1.

G = -1j*H - D with a real symmetric H and a diagonal damping D >= 0, and it
is very sparse; matrix-vector products are the only operation needed.
Truncation is hard: ladder transitions leaving the enumerated set are
dropped, and cap convergence is certified on a doubling ladder.

The basis is one integer array of rows (n, beta), slots ordered as in
``BathTerms``, enumerated in lexicographic order.  Assembly takes the rows
in any order: it finds ladder and hopping targets by their lexicographic
rank (from the count table, so below the number of states within the caps).

Because the initial bright state is real for real dipoles and G is complex
symmetric, exp(G t) is symmetric too, so the correlation value at 2t follows
from the state at t alone:  M(2t) = mu_tot^2 * psi(t)^T psi(t)  (plain
transpose, no conjugation).  This doubling trick halves the propagation time
and holds exactly, step-for-step, for the RK4 scheme as well.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np
import scipy.sparse

from .model import (
    AggregateSpec,
    BathTerms,
    LorentzianBath,
    gamma_to_huang_rhys,
    initial_bright_state,
)
from .propagation import PropagationConfig, PropagationError
from .spectra import CorrelationTrace, absorption_from_trace, overlap

__all__ = [
    "PmGenerator",
    "BasisSizeError",
    "CapConvergenceError",
    "count_occupation_vectors",
    "enumerate_basis",
    "assemble_generator",
    "embed_initial_state",
    "propagate_pm",
    "pm_correlation",
    "default_caps",
    "converge_caps",
    "default_nu_grid",
]

DEFAULT_MAX_STATES = 2_000_000


class BasisSizeError(PropagationError):
    """The requested basis would exceed the configured memory budget."""

    def __init__(self, dim, max_states):
        self.dim = dim
        self.max_states = max_states
        super().__init__(
            f"basis would hold {dim} states, exceeding the budget of {max_states}"
        )


class CapConvergenceError(PropagationError):
    """The cap ladder hit the memory budget before the spectra converged."""

    def __init__(self, message, overlaps):
        self.overlaps = tuple(overlaps)
        super().__init__(message)


@dataclass(frozen=True)
class PmGenerator:
    """Sparse generator G (CSR; matvec only) over its (dim, 1 + n_slots) basis."""

    matrix: scipy.sparse.csr_matrix
    basis: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[0]


def _count_table(n_slots, b_tot, b_mode):
    """Row k: exact running sums [0, c(0), c(0) + c(1), ...] of c(r), the
    number of vectors over k slots with sum <= r and entries <= b_mode."""
    # zero slots: only the empty vector, whose sum 0 is <= every r
    sums = list(itertools.accumulate([1] * (b_tot + 1), initial=0))
    table = [sums]
    for _ in range(n_slots):
        # the first of the slots holds v <= min(b_mode, r); the rest sum to <= r - v
        counts = [sums[r + 1] - sums[max(0, r - b_mode)] for r in range(b_tot + 1)]
        sums = list(itertools.accumulate(counts, initial=0))
        table.append(sums)
    return table


def count_occupation_vectors(n_slots: int, b_tot: int, b_mode: int) -> int:
    """Number of occupation vectors with entry cap b_mode and sum cap b_tot."""
    if b_tot < 0 or b_mode < 0:
        raise ValueError("caps must be >= 0")
    last = _count_table(n_slots, b_tot, b_mode)[-1]
    return last[-1] - last[-2]


def _ranks(occupations, table, b_tot):
    """Lexicographic rank of each occupation row among all vectors within the
    caps of ``table`` (an int64 array of ``_count_table``)."""
    n_slots = occupations.shape[1]
    ranks = np.zeros(len(occupations), dtype=np.int64)
    left = np.full(len(occupations), b_tot + 1)  # sum budget still open, + 1
    for s in range(n_slots):
        # vectors that agree before slot s and hold less in it come first
        sums = table[n_slots - 1 - s]
        b = occupations[:, s]
        ranks += sums[left] - sums[left - b]
        left -= b
    return ranks


def enumerate_basis(
    n_monomers: int,
    modes_per_monomer,
    b_tot: int,
    b_mode: int,
    max_states: int = DEFAULT_MAX_STATES,
) -> np.ndarray:
    """Ordered basis: every (n, beta) within the caps, exactly once.

    Returns a read-only int32 array of shape (dim, 1 + n_slots), one row
    (n, beta) per state, in lexicographic order.  ``beta`` runs over all
    modes of all monomers (n_slots = sum(modes_per_monomer)); sum(beta) <=
    b_tot and each entry <= b_mode.  Raises BasisSizeError with the
    projected dimension if it would exceed ``max_states``.
    """
    n_slots = int(sum(modes_per_monomer))
    n_vectors = count_occupation_vectors(n_slots, b_tot, b_mode)
    dim = n_monomers * n_vectors
    if dim > max_states:
        raise BasisSizeError(dim, max_states)
    # Grow the rows slot by slot: each fans out into one row per value of the
    # next slot, in increasing order, so the rows stay lexicographic.
    occupations = np.zeros((1, 0), dtype=np.int32)
    for _ in range(n_slots):
        fan = np.minimum(b_tot - occupations.sum(axis=1), b_mode) + 1
        parent = np.repeat(np.arange(len(occupations)), fan)
        value = np.arange(parent.size) - np.repeat(np.cumsum(fan) - fan, fan)
        occupations = np.column_stack((occupations[parent], value.astype(np.int32)))
    monomers = np.repeat(np.arange(n_monomers, dtype=np.int32), n_vectors)
    basis = np.column_stack((monomers, np.tile(occupations, (n_monomers, 1))))
    basis.flags.writeable = False
    return basis


def assemble_generator(agg: AggregateSpec, bath: LorentzianBath, basis) -> PmGenerator:
    """Sparse generator over ``basis`` (rows (n, beta) in any order).

    Ladder transitions whose target state is not in the basis are dropped
    (hard truncation).
    """
    if bath.n_monomers != agg.n_monomers:
        raise ValueError("bath must provide a term list per monomer")
    terms = BathTerms.from_bath(bath)
    basis = np.asarray(basis)
    if basis.ndim != 2 or basis.shape[1] != 1 + terms.count:
        raise ValueError("basis occupation length does not match the bath")
    dim = len(basis)
    monomer, occupations = basis[:, 0], basis[:, 1:]

    # key = n * n_vectors + rank(beta) within the caps the rows reach
    b_tot = int(occupations.sum(axis=1).max(initial=0))
    b_mode = int(occupations.max(initial=0))
    table = np.array(_count_table(terms.count, b_tot, b_mode), dtype=np.int64)
    n_vectors = table[-1, -1] - table[-1, -2]
    keys = monomer * n_vectors + _ranks(occupations, table, b_tot)
    order = np.argsort(keys)
    sorted_keys = keys[order]

    def find(target_keys):
        pos = np.minimum(np.searchsorted(sorted_keys, target_keys), dim - 1)
        return order[pos], sorted_keys[pos] == target_keys

    energy = agg.epsilon[monomer]
    damping = np.zeros(dim)
    # each link (i, j, value) enters G at (i, j) and at (j, i)
    link_i, link_j, link_value = [], [], []
    for s, (owner, z, coupling) in enumerate(
        zip(terms.monomer, terms.z, np.sqrt(terms.gamma_amp))
    ):
        b = occupations[:, s]
        energy += z.imag * b
        damping += z.real * b
        # ladder: a row with beta_s > 0 on its own monomer's mode and the row
        # one quantum lower, linked by 1j*sqrt(Gamma)*sqrt(beta_s)
        upper = np.flatnonzero((monomer == owner) & (b > 0))
        lowered = occupations[upper]
        lowered[:, s] -= 1
        lower, found = find(monomer[upper] * n_vectors + _ranks(lowered, table, b_tot))
        link_i.append(upper[found])
        link_j.append(lower[found])
        link_value.append(1j * coupling * np.sqrt(b[upper[found]]))
    if agg.coupling_v != 0.0:
        # (n, beta) to (n + 1, beta); no row has monomer N, so the end drops out
        right, found = find(keys + n_vectors)
        link_i.append(np.flatnonzero(found))
        link_j.append(right[found])
        link_value.append(np.full(found.sum(), -1j * agg.coupling_v))
    diagonal = [np.arange(dim)]
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate([-1j * energy - damping, *link_value, *link_value]),
         (np.concatenate(diagonal + link_i + link_j), np.concatenate(diagonal + link_j + link_i))),
        shape=(dim, dim),
    ).tocsr()
    return PmGenerator(matrix=matrix, basis=basis)


def embed_initial_state(basis, psi0) -> np.ndarray:
    """Bright electronic state tensored with all-modes-in-vacuum."""
    basis = np.asarray(basis)
    out = np.zeros(len(basis), dtype=complex)
    vacuum = ~basis[:, 1:].any(axis=1)
    out[vacuum] = np.asarray(psi0)[basis[vacuum, 0]]
    return out


def _rk4_step(matrix, psi, dt):
    k1 = matrix @ psi
    k2 = matrix @ (psi + (0.5 * dt) * k1)
    k3 = matrix @ (psi + (0.5 * dt) * k2)
    k4 = matrix @ (psi + dt * k3)
    return psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def propagate_pm(
    generator: PmGenerator,
    psi0_embedded: np.ndarray,
    config: PropagationConfig,
    mu_tot_sq: float = 1.0,
    doubling: bool = True,
) -> CorrelationTrace:
    """Correlation trace from the sparse generator.

    With ``doubling`` (default), the state is propagated to t_max/2 with step
    dt and M(2*t_k) = mu_tot^2 * psi(t_k)^T psi(t_k) is recorded, so the
    returned trace has spacing 2*dt and the number of integration steps is
    halved.  Requires a real initial vector (guaranteed for real dipoles);
    complex input raises PropagationError.  Without doubling the trace is
    M(t_k) = mu_tot^2 <psi0|psi(t_k)> on spacing dt.
    """
    psi0_embedded = np.asarray(psi0_embedded, dtype=complex)
    if psi0_embedded.shape != (generator.dim,):
        raise ValueError("initial state does not match the generator dimension")
    matrix = generator.matrix
    dt = config.dt
    n_steps = config.n_steps
    if doubling:
        if np.any(psi0_embedded.imag != 0.0):
            raise PropagationError("doubling requires real initial state")
        half_steps = (n_steps + 1) // 2
        samples = np.empty(half_steps + 1, dtype=complex)
        psi = psi0_embedded.copy()
        samples[0] = mu_tot_sq * np.dot(psi, psi)
        for k in range(half_steps):
            psi = _rk4_step(matrix, psi, dt)
            samples[k + 1] = mu_tot_sq * np.dot(psi, psi)
        return _checked_trace(2.0 * dt, samples, mu_tot_sq)
    samples = np.empty(n_steps + 1, dtype=complex)
    psi = psi0_embedded.copy()
    samples[0] = mu_tot_sq * np.vdot(psi0_embedded, psi)
    for k in range(n_steps):
        psi = _rk4_step(matrix, psi, dt)
        samples[k + 1] = mu_tot_sq * np.vdot(psi0_embedded, psi)
    return _checked_trace(dt, samples, mu_tot_sq)


def _checked_trace(dt, samples, mu_tot_sq):
    # The generator -1j H - D (D >= 0) never increases the norm, so a
    # non-finite sample can only come from an unstable step.  One check after
    # the loop costs nothing per step.
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise PropagationError(
            f"pseudomode trace is not finite from t = {bad[0] * dt:.4g}; dt too large"
        )
    return CorrelationTrace(dt=dt, samples=samples, mu_tot_sq=mu_tot_sq)


def default_caps(bath: LorentzianBath) -> int:
    """Occupation cap heuristic, ceil(4 + 6 * max Huang-Rhys factor).

    A Poisson-tail estimate; converge_caps certifies or replaces it.  Baths
    with a zero-frequency mode have no Huang-Rhys factor and need explicit
    caps.
    """
    max_x = 0.0
    for monomer_terms in bath.terms:
        for gamma_amp, center, width in monomer_terms:
            if center <= 0.0:
                raise ValueError(
                    "no cap heuristic for modes at non-positive frequency; "
                    "pass caps explicitly"
                )
            max_x = max(max_x, gamma_to_huang_rhys(gamma_amp, center))
    return math.ceil(4.0 + 6.0 * max_x)


def pm_correlation(
    agg: AggregateSpec,
    bath: LorentzianBath,
    config: PropagationConfig,
    caps=None,
    doubling: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
) -> CorrelationTrace:
    """Convenience wrapper: enumerate, assemble, embed and propagate.

    ``caps`` is (b_tot, b_mode), a single int for both, or None for the
    default heuristic.  Doubling is dropped automatically if the bright
    state is not real (it always is for the real dipoles of AggregateSpec).
    """
    if caps is None:
        caps = default_caps(bath)
    b_tot, b_mode = (caps, caps) if isinstance(caps, (int, np.integer)) else caps
    modes = [len(t) for t in bath.terms]
    basis = enumerate_basis(agg.n_monomers, modes, b_tot, b_mode, max_states)
    generator = assemble_generator(agg, bath, basis)
    psi0, mu_tot = initial_bright_state(agg)
    psi0_embedded = embed_initial_state(basis, psi0)
    doubling = doubling and not np.any(psi0_embedded.imag != 0.0)
    return propagate_pm(
        generator, psi0_embedded, config, mu_tot_sq=mu_tot**2, doubling=doubling
    )


def converge_caps(
    agg: AggregateSpec,
    bath: LorentzianBath,
    config: PropagationConfig,
    tolerance: float,
    eta: float = 0.01,
    nu=None,
    doubling: bool = True,
    max_states: int = DEFAULT_MAX_STATES,
):
    """Smallest cap on the doubling ladder whose spectrum overlaps the next
    ladder step by at least 100 * (1 - tolerance) percent.

    The ladder is 1, 2, 4, 8, ...; a bath without coupling terms converges
    trivially at cap 0.  Returns (b_tot, b_mode, trace) for the accepted
    (smaller) cap, with b_mode = b_tot.  Raises CapConvergenceError,
    reporting the last two overlap values, if the memory budget is hit first.
    """
    if not tolerance > 0:
        raise ValueError("tolerance must be positive")
    if nu is None:
        nu = default_nu_grid(agg, bath)
    target = 100.0 * (1.0 - tolerance)
    if not any(bath.terms):
        # no electron-vibration coupling: every cap spans the same basis, so
        # the ladder is trivially converged at zero occupation
        trace = pm_correlation(
            agg, bath, config, caps=0, doubling=doubling, max_states=max_states
        )
        return 0, 0, trace
    overlaps = []
    prev = None  # (cap, trace, spectrum)
    for cap in (2**k for k in itertools.count()):
        try:
            trace = pm_correlation(
                agg, bath, config, caps=cap, doubling=doubling, max_states=max_states
            )
        except BasisSizeError as exc:
            raise CapConvergenceError(
                f"cap ladder needs {exc.dim} states at cap {cap}, over the budget "
                f"of {max_states}; last overlaps: "
                + (", ".join(f"{o:.4f}%" for o in overlaps[-2:]) or "none"),
                overlaps,
            ) from exc
        spectrum = absorption_from_trace(trace, eta, nu)
        if prev is not None:
            value = overlap(prev[2], spectrum)
            overlaps.append(value)
            if value >= target:
                return prev[0], prev[0], prev[1]
        prev = (cap, trace, spectrum)


def default_nu_grid(agg: AggregateSpec, bath: LorentzianBath, step: float = 0.01):
    """Frequency grid generously covering the aggregate absorption support."""
    eps_lo = float(np.min(agg.epsilon))
    eps_hi = float(np.max(agg.epsilon))
    v = abs(agg.coupling_v)
    reorg = 0.0
    max_center = 0.0
    for monomer_terms in bath.terms:
        r = sum(g / c if c > 0 else g for g, c, _ in monomer_terms)
        reorg = max(reorg, r)
        for _, center, _ in monomer_terms:
            max_center = max(max_center, center)
    lo = eps_lo - 2.0 * v - reorg - 2.0
    hi = eps_hi + 2.0 * v + 3.0 * reorg + 3.0 * max_center + 2.0
    n = int(np.floor((hi - lo) / step)) + 1
    return lo + step * np.arange(n)

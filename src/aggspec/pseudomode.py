"""Numerically exact propagation in a truncated electronic x occupation basis.

One damped auxiliary mode per Lorentzian of the spectral density is pulled
into the propagated space.  Basis states pair an excited-monomer index n with
an occupation vector beta over all (monomer, mode) slots whose total
occupation sum(beta) is at most one cap (the truncation of the
zero-temperature HOPS hierarchy); in that basis the non-Hermitian generator
G of  d c/dt = G c  has per component c[n, beta]:

  * diagonal  -1j*(eps_n + sum_mj (Omega_mj - 1j*gamma_mj) beta_mj),
  * ladder    +1j*sqrt(Gamma_nj)*sqrt(beta_nj)   to beta_nj - 1   and
              +1j*sqrt(Gamma_nj)*sqrt(beta_nj+1) to beta_nj + 1,
    on the modes of the excited monomer n only,
  * hopping   -1j*V to (m, beta) for |m - n| = 1.

G = -1j*H - D with a real symmetric H and a diagonal damping D >= 0, and it
is very sparse; matrix-vector products are the only operation needed.
Truncation is hard: ladder transitions leaving the enumerated set are
dropped; ``converge_caps`` certifies the cap on a doubling ladder.

The basis is one block of occupation vectors beta, slots ordered as in
``BathTerms``, in lexicographic order; state (n, beta) is index
n * n_vectors + rank(beta), so every electronic state n owns one copy of the
block.  Assembly finds its targets by index: a hop is i -> i + n_vectors,
and a ladder step of slot s lowers beta_s within the block of the slot's own
monomer, to the row given by the lexicographic rank of beta - e_s (from the
closed-form count C(r + k, k) of the vectors over k slots with sum <= r).
The CSR arrays of G are written in place: the diagonal and each link once
in each direction, then a sort within each row.

A chain whose site energies and per-monomer bath term lists are palindromic
(``model.mirror_slots``; every shipped config) has G commute with the mirror
P(n, beta) = (N-1-n, beta with the slots of monomers m and N-1-m swapped).
If its dipole projections are palindromic too, psi0 is P-even, and so is
its whole Krylov space.  ``_generator_and_state`` then assembles G folded
onto the real orthonormal orbit basis, e_r for a fixed point r = P(r) and
(e_r + e_P(r)) / sqrt(2) for a pair, r the first state of its orbit:

  G_e[a, b] = (c_a / c_b) sum_{j in orbit b} G[r_a, j],   psi0_e[a] = c_a psi0[r_a],

with c = sqrt(2) for a pair and 1 for a fixed point.  Only the rows r are
written: the blocks n < N // 2 whole and, for odd N, the middle monomer's
rows k <= P(k); a hop between a state and its own mirror partner (the two
middle monomers of an even chain, at P(k) = k) lands on the diagonal.
G_e = U^T G U is complex symmetric, so everything below runs on it
unchanged and gives the same M(t) up to rounding, on half the states for
even N and (states + fixed points) / 2 for odd N.  A disordered chain, an
uneven bath, asymmetric dipoles or a monomer keep the full basis.

Because the initial bright state is real for real dipoles and G is complex
symmetric, exp(G t) is symmetric too, so the correlation value at 2t follows
from the state at t alone:  M(2t) = mu_tot^2 * psi(t)^T psi(t)  (plain
transpose, no conjugation).  This doubling trick halves the propagation time
and holds exactly, step-for-step, for the RK4 scheme as well.

The same symmetry gives the trace without time stepping.  A complex-symmetric
Lanczos recursion (Freund, SIAM J. Sci. Stat. Comput. 13, 425 (1992)) in the
bilinear form x^T y, started from the real psi0, keeps three vectors and
builds an m x m complex-symmetric tridiagonal T with
M(t) ~= mu_tot^2 e1^T exp(T t) e1 (Saad, SIAM J. Numer. Anal. 29, 209
(1992)).  ``krylov_correlation`` evaluates it from the eigen-decomposition of
T on the doubling grid of ``propagate_pm`` and deepens the recursion 32, 40,
48, 64, 80, ... (4, 5 and 6 times each power of two) until two consecutive
depths agree.  It can stop at a loose tolerance and resume to a tighter
one, so a rung of the cap ladder is converged only as far as its overlap
test needs, and the accepted rung resumes to full precision.  G = -1j*H - D
has its numerical range in Re <= 0, so a Ritz value with Re > 0 is a
Lanczos ghost, not an eigenvalue of G, and is dropped.  A Ritz value that
carries weight past the Nyquist frequency pi / (2 dt) of the grid is an
error: the spectrum would show that weight at a wrong frequency.  RK4
(``pm_correlation``) stays the reference.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import itertools
import math

import numpy as np
import scipy.sparse

from .model import (
    AggregateSpec,
    BathTerms,
    LorentzianBath,
    initial_bright_state,
    mirror_slots,
)
from .propagation import PropagationConfig, PropagationError
from .spectra import CorrelationTrace, TraceTailError, absorption_from_trace, overlap

__all__ = [
    "BasisSizeError",
    "CapConvergenceError",
    "count_occupation_vectors",
    "enumerate_basis",
    "assemble_generator",
    "embed_initial_state",
    "propagate_pm",
    "pm_correlation",
    "krylov_correlation",
    "converge_caps",
]

DEFAULT_MAX_STATES = 2_000_000

# Lanczos depths tried in turn: 4, 5 and 6 times each power of two, so the
# recursion stops one step of at most 4/3 past the depth it converges at (a
# doubling ladder overshot by 2x, and eig(T) costs the cube of the depth).  A
# depth is accepted when its trace agrees with the previous depth's within
# _KRYLOV_TOL * mu_tot^2 at every sample.
_KRYLOV_DEPTHS = (32, 40, 48, 64, 80, 96, 128, 160, 192, 256, 320, 384, 512, 640, 768, 1024)
_KRYLOV_TOL = 1e-10
# |M(t)| may exceed M(0) = mu_tot^2 by this relative amount (rounding) only
_GROWTH_TOL = 1e-9
# a residual below this fraction of |G v| ends the recursion exactly
_LUCKY_TOL = 1e-14
# Ritz values with Re above this fraction of max |lambda| are ghosts
_GHOST_RE = 1e-12
# a Ritz component past the Nyquist frequency of the sample grid with a
# weight above this fraction of M(0) is an error
_ALIAS_WEIGHT = 1e-6
# samples evaluated per block of exp(t lambda)
_BLOCK = 256


class BasisSizeError(PropagationError):
    """The requested basis would exceed the budget of DEFAULT_MAX_STATES."""

    def __init__(self, dim):
        self.dim = dim
        self.max_states = DEFAULT_MAX_STATES
        super().__init__(
            f"basis would hold {dim} states, exceeding the budget of {self.max_states}"
        )


class CapConvergenceError(PropagationError):
    """The cap ladder hit the memory budget before the spectra converged."""

    def __init__(self, message, overlaps):
        self.overlaps = tuple(overlaps)
        super().__init__(message)


def _count_table(n_slots, cap):
    """Row k < n_slots, entry i: C(i + k, k + 1), the number of vectors over
    k + 1 slots with sum < i, for i up to cap + 1."""
    return np.array([[math.comb(i + k, k + 1) for i in range(cap + 2)]
                     for k in range(n_slots)], dtype=np.int64)


def count_occupation_vectors(n_slots: int, cap: int) -> int:
    """Number of occupation vectors over n_slots slots with sum <= cap."""
    if cap < 0:
        raise ValueError("caps must be >= 0")
    return math.comb(cap + n_slots, n_slots)


def _ranks(occupations, table, cap, slots=None):
    """Lexicographic rank of each occupation row among all vectors with sum
    <= cap (``table`` from ``_count_table``), its columns read in the order
    ``slots`` (default: as stored)."""
    slots = range(occupations.shape[1]) if slots is None else slots
    n_slots = len(slots)
    ranks = np.zeros(len(occupations), dtype=np.int64)
    left = np.full(len(occupations), cap + 1)  # sum budget still open, + 1
    after = np.empty_like(left)  # the budget left after slot s
    for s, column in enumerate(slots):
        # vectors that agree before slot s and hold less in it come first
        sums = table[n_slots - 1 - s]
        np.subtract(left, occupations[:, column], out=after)
        ranks += sums.take(left)
        ranks -= sums.take(after)
        left, after = after, left
    return ranks


def enumerate_basis(n_monomers: int, modes_per_monomer, cap: int) -> np.ndarray:
    """The occupation block: every beta with sum(beta) <= cap, exactly once.

    Returns a read-only int32 array of shape (n_vectors, n_slots), one
    occupation vector per row in lexicographic order; basis state (n, row k)
    has index n * n_vectors + k.  ``beta`` runs over all modes of all
    monomers (n_slots = sum(modes_per_monomer)).  Raises BasisSizeError with
    the projected dimension n_monomers * n_vectors if it would exceed
    ``DEFAULT_MAX_STATES``.
    """
    n_slots = int(sum(modes_per_monomer))
    n_vectors = count_occupation_vectors(n_slots, cap)
    dim = n_monomers * n_vectors
    if dim > DEFAULT_MAX_STATES:
        raise BasisSizeError(dim)
    if not n_slots:
        cap = 0  # every cap gives just the empty vector, and cap may not fit int32
    occupations = np.empty((n_vectors, n_slots), dtype=np.int32)
    # Fan the prefixes out slot by slot into one per value of the next slot,
    # in increasing order.  In lexicographic order a prefix heads one row per
    # completion within the budget it leaves, so its value repeats that often.
    # [k, r]: vectors over k slots within budget r
    completions = np.diff(_count_table(n_slots, cap))
    left = np.array([cap], dtype=np.int32)  # sum budget each prefix leaves open
    for s in range(n_slots):
        fan = left + 1
        value = np.arange(fan.sum(), dtype=np.int32)
        value -= np.repeat(np.cumsum(fan, dtype=np.int32) - fan, fan)
        left = np.repeat(left, fan)
        left -= value
        occupations[:, s] = np.repeat(value, completions[n_slots - 1 - s, left])
    occupations.flags.writeable = False
    return occupations


def assemble_generator(
    agg: AggregateSpec, bath: LorentzianBath, occupations, cap: int, *, fold: bool = False
) -> scipy.sparse.csr_matrix:
    """Sparse generator G (CSR; matvec only) over the basis of
    ``occupations``, the block ``enumerate_basis`` returns at ``cap``: state
    (n, row k) is index n * n_vectors + k.

    Ladder transitions that leave the cap are dropped (hard truncation).
    The CSR arrays are written in place: the diagonal and each link once in
    each direction, then sorted within each row.

    With ``fold``, G is folded onto the mirror-even half of the basis
    (module docstring), which needs a mirror-symmetric chain
    (``mirror_slots``): row n * n_vectors + k for n < N // 2, and for odd N
    then the middle monomer's rows k <= P(k) in increasing k.
    """
    if bath.n_monomers != agg.n_monomers:
        raise ValueError("bath must provide a term list per monomer")
    terms = BathTerms.from_bath(bath)
    occupations = np.asarray(occupations)
    n_vectors = count_occupation_vectors(terms.count, cap)
    if occupations.shape != (n_vectors, terms.count):
        raise ValueError(
            f"occupation block of shape {occupations.shape} does not match the "
            f"bath and cap {cap}: expected ({n_vectors}, {terms.count})"
        )
    table = _count_table(terms.count, cap)
    hop_value = -1j * agg.coupling_v
    # whole electronic blocks, and the rows of the middle monomer's block of
    # an odd folded chain
    blocks, middle = agg.n_monomers, np.empty(0, dtype=np.int64)
    if fold:
        mirror = mirror_slots(agg, bath, terms)
        if mirror is None:
            raise ValueError("folding needs palindromic site energies and bath term lists")
        image = _ranks(occupations, table, cap, mirror)  # the row of each vector's mirror image
        k = np.arange(n_vectors)
        blocks = agg.n_monomers // 2
        if agg.n_monomers % 2:
            # orbit {k, P(k)} of the middle block is row min(k, P(k)) there
            middle = np.flatnonzero(k <= image)
            to_middle = np.cumsum(k <= image) - 1
            to_middle = to_middle[np.minimum(k, image)] + blocks * n_vectors
    dim = blocks * n_vectors + middle.size
    written = blocks + bool(middle.size)  # the electronic blocks that hold rows

    # The off-diagonal links (i, j, s, value), each entering G at (i, j) and
    # (j, i).  A ladder step of slot s joins row k with beta_s > 0, in the
    # block of the slot's own monomer, to the row of beta - e_s in that
    # block; a hop, s = None, joins (n, k) to (n + 1, k) with value -1j*V.
    links = []
    for s, owner in enumerate(terms.monomer):
        if owner >= written:
            continue  # the mirror image of a folded row's block
        upper = np.flatnonzero(occupations[:, s] > 0)
        if owner == blocks:
            upper = upper[upper <= image[upper]]  # one link per pair of mirror links
        lowered = occupations[upper]
        lowered[:, s] -= 1
        lower = _ranks(lowered, table, cap)
        if owner == blocks:
            upper, lower = to_middle[upper], to_middle[lower]
        else:
            offset = owner * n_vectors
            upper, lower = upper + offset, lower + offset
        links.append((upper.astype(np.int32), lower.astype(np.int32), s, None))
    if agg.coupling_v != 0.0:
        hop = np.arange(max(blocks - 1, 0) * n_vectors, dtype=np.int32)
        links.append((hop, hop + n_vectors, None, hop_value))
        last = (blocks - 1) * n_vectors  # the last whole block of a folded chain
        if fold and blocks and middle.size:
            # (N // 2 - 1, k) to the middle orbit of k: sqrt(2) -1j*V to a
            # fixed point, -1j*V from each member of a pair (one group per
            # member, so that no group writes a row twice)
            for side, value in ((k < image, hop_value), (k > image, hop_value),
                                (k == image, hop_value * np.sqrt(2.0))):
                at = np.flatnonzero(side)
                links.append(((at + last).astype(np.int32), to_middle[at].astype(np.int32),
                              None, value))
        elif fold and blocks:
            # (N/2 - 1, k) to (N/2, k), the mirror image of (N/2 - 1, P(k)):
            # a link within the block, on the diagonal where k = P(k)
            at = np.flatnonzero(k < image)
            links.append(((at + last).astype(np.int32), (image[at] + last).astype(np.int32),
                          None, hop_value))

    # a ladder link changes the total occupation and a hop, folded or not,
    # keeps it; no two links of a kind join the same pair, so no (i, j)
    # occurs twice and each row holds its diagonal plus one entry per link end
    counts = np.ones(dim, dtype=np.int32)
    for i, j, _, _ in links:
        counts[i] += 1
        counts[j] += 1
    nnz = int(counts.sum(dtype=np.int64))
    index = np.int32 if nnz <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz, dtype=complex)
    fill = indptr[:-1].copy()  # next free position in each row

    # the diagonal, one block at a time: eps_n plus the occupation sums
    damping = np.zeros(n_vectors)
    for z, b in zip(terms.z, occupations.T):
        damping += z.real * b
    for n, eps in enumerate(agg.epsilon[:written]):
        rows = middle if n == blocks else slice(None)
        first = n * n_vectors
        at = fill[first:first + (middle.size if n == blocks else n_vectors)]
        indices[at] = np.arange(first, first + at.size, dtype=index)
        energy = np.full(n_vectors, eps)
        for z, b in zip(terms.z, occupations.T):
            energy += z.imag * b
        diagonal = -1j * energy
        diagonal -= damping
        if fold and not middle.size and n == blocks - 1 and agg.coupling_v != 0.0:
            diagonal[k == image] += hop_value
        data[at] = diagonal[rows]
    del damping, energy, diagonal
    fill += 1
    couplings = np.sqrt(terms.gamma_amp)
    for i, j, s, value in links:
        if s is not None:
            # a ladder step of slot s carries 1j*sqrt(Gamma)*sqrt(beta_s) of
            # its upper row i
            owner = terms.monomer[s]
            rows = i - owner * n_vectors if owner < blocks else middle[i - blocks * n_vectors]
            value = 1j * couplings[s] * np.sqrt(occupations[rows, s])
        for row, col in ((i, j), (j, i)):
            at = fill[row]
            indices[at] = col
            data[at] = value
            fill[row] += 1
    matrix = scipy.sparse.csr_matrix((data, indices, indptr), shape=(dim, dim))
    matrix.sort_indices()
    return matrix


def embed_initial_state(psi0, n_vectors: int) -> np.ndarray:
    """Bright electronic state tensored with all-modes-in-vacuum: psi0[n] at
    index n * n_vectors, the vacuum being row 0 of the occupation block."""
    psi0 = np.asarray(psi0)
    out = np.zeros(len(psi0) * n_vectors, dtype=complex)
    out[::n_vectors] = psi0
    return out


def _rk4_step(matrix, psi, dt):
    k1 = matrix @ psi
    k2 = matrix @ (psi + (0.5 * dt) * k1)
    k3 = matrix @ (psi + (0.5 * dt) * k2)
    k4 = matrix @ (psi + dt * k3)
    return psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def propagate_pm(
    matrix: scipy.sparse.csr_matrix,
    psi0_embedded: np.ndarray,
    config: PropagationConfig,
    mu_tot_sq: float = 1.0,
    doubling: bool = True,
) -> CorrelationTrace:
    """Correlation trace from the sparse generator ``matrix``.

    With ``doubling`` (default), the state is propagated to t_max/2 with step
    dt and M(2*t_k) = mu_tot^2 * psi(t_k)^T psi(t_k) is recorded, so the
    returned trace has spacing 2*dt and the number of integration steps is
    halved.  Requires a real initial vector (guaranteed for real dipoles);
    complex input raises PropagationError.  Without doubling the trace is
    M(t_k) = mu_tot^2 <psi0|psi(t_k)> on spacing dt.
    """
    psi0_embedded = np.asarray(psi0_embedded, dtype=complex)
    if psi0_embedded.shape != (matrix.shape[0],):
        raise ValueError("initial state does not match the generator dimension")
    dt = config.dt
    if doubling:
        if np.any(psi0_embedded.imag != 0.0):
            raise PropagationError("doubling requires real initial state")
        n_steps, spacing = (config.n_steps + 1) // 2, 2.0 * dt
    else:
        n_steps, spacing = config.n_steps, dt

    def sample(psi):
        return np.dot(psi, psi) if doubling else np.vdot(psi0_embedded, psi)

    samples = np.empty(n_steps + 1, dtype=complex)
    psi = psi0_embedded.copy()
    samples[0] = mu_tot_sq * sample(psi)
    # An unstable step overflows to inf and nan; _checked_trace reports that
    # as an error, so numpy's overflow warnings would only repeat it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            psi = _rk4_step(matrix, psi, dt)
            samples[k + 1] = mu_tot_sq * sample(psi)
    return _checked_trace(spacing, samples, mu_tot_sq)


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


def _folds(agg, bath):
    """Whether the bright state of ``agg`` lies in the mirror-even half of
    the basis: a chain of two or more monomers with mirror symmetry
    (``mirror_slots``) and palindromic dipole projections."""
    mu = agg.mu_projections
    return (agg.n_monomers > 1 and (mu == mu[::-1]).all()
            and mirror_slots(agg, bath, BathTerms.from_bath(bath)) is not None)


def _generator_and_state(agg, bath, caps):
    """(G as CSR, embedded bright state, mu_tot^2) at the occupation cap,
    folded onto the mirror-even half of the basis where ``_folds``."""
    occupations = enumerate_basis(agg.n_monomers, [len(t) for t in bath.terms], caps)
    fold = _folds(agg, bath)
    matrix = assemble_generator(agg, bath, occupations, caps, fold=fold)
    psi0, mu_tot = initial_bright_state(agg)
    if fold:
        # sqrt(2) psi0[n] on the pair orbit of (n, vacuum), n < N // 2, and
        # psi0 of the middle monomer on its fixed point
        half = agg.n_monomers // 2
        psi0 = np.concatenate([np.sqrt(2.0) * psi0[:half], psi0[half:agg.n_monomers - half]])
    return matrix, embed_initial_state(psi0, len(occupations))[:matrix.shape[0]], mu_tot**2


def pm_correlation(
    agg: AggregateSpec,
    bath: LorentzianBath,
    config: PropagationConfig,
    caps: int,
    doubling: bool = True,
) -> CorrelationTrace:
    """Convenience wrapper: enumerate, assemble, embed and propagate (RK4).

    ``caps`` caps the total occupation of all mode slots.  The bright state
    is real (AggregateSpec stores real dipoles), so the default ``doubling``
    always applies.
    """
    matrix, psi0_embedded, mu_tot_sq = _generator_and_state(agg, bath, caps)
    return propagate_pm(
        matrix, psi0_embedded, config, mu_tot_sq=mu_tot_sq, doubling=doubling
    )


@functools.cache
def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS library loaded in
    this process (numpy's among them); empty where none can be found.  The
    numpy 2 wheels name them scipy_openblas_*64_, older wheels openblas_*64_,
    a system OpenBLAS openblas_*."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
    except OSError:
        return ()
    controls = []
    for path in sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1]):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for stem, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{stem}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{stem}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                controls.append((get, set_))
                break
    return tuple(controls)


@contextlib.contextmanager
def _one_blas_thread():
    """Run OpenBLAS on one thread inside the block.  Its eigen-solve, solve
    and long dot products round differently with the size of its thread
    pool; on one thread the Lanczos trace, which is written to files, does
    not depend on the pool size, and worker processes do not oversubscribe
    the cores."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(controls, saved):
            set_(n)


def krylov_correlation(
    agg: AggregateSpec,
    bath: LorentzianBath,
    config: PropagationConfig,
    caps: int,
) -> CorrelationTrace:
    """The trace of ``pm_correlation`` from a complex-symmetric Lanczos
    recursion instead of RK4 steps.

    The samples lie on the same grid (spacing 2*dt, (n_steps + 1)//2 + 1
    samples); dt sets only that grid, as the exponential of T is exact.
    Raises PropagationError on a serious breakdown, if no depth up to 1024
    converges, if the trace grows above M(0) = mu_tot^2, or if 2*dt aliases
    a Ritz value with weight.
    """
    return _Lanczos(*_generator_and_state(agg, bath, caps), config).trace(_KRYLOV_TOL)


class _Lanczos:
    """mu_tot^2 psi0^T exp(matrix t) psi0 on the doubling grid of
    ``propagate_pm``, from the Lanczos tridiagonal of a complex-symmetric
    ``matrix`` and a real ``psi0``.

    ``trace(tol)`` deepens along _KRYLOV_DEPTHS until two consecutive depths
    agree within tol * mu_tot^2 at every sample.  Called again with a
    smaller tol it resumes from there, and returns the bytes that one call
    at that tol returns.
    """

    def __init__(self, matrix, psi0, mu_tot_sq, config: PropagationConfig):
        psi0 = np.asarray(psi0, dtype=complex)
        if np.any(psi0.imag != 0.0):
            raise PropagationError("the Lanczos recursion requires a real initial state")
        self.matrix, self.mu_tot_sq = matrix, mu_tot_sq
        self.spacing, self.n_samples = 2.0 * config.dt, (config.n_steps + 1) // 2 + 1
        norm_sq = float(psi0.real @ psi0.real)
        self.scale = mu_tot_sq * norm_sq
        self.alpha, self.beta = [], []  # diagonal and off-diagonal of T
        self.v_prev, self.v = None, psi0 / np.sqrt(norm_sq)
        self.exact, self.depths = False, iter(_KRYLOV_DEPTHS)
        # the trace at the depth reached, and its largest change from the one before
        self.samples, self.change = None, np.inf

    @_one_blas_thread()
    def trace(self, tol):
        alpha, beta = self.alpha, self.beta
        while not (self.exact or self.change <= tol * self.mu_tot_sq):
            depth = next(self.depths, None)
            if depth is None:
                raise PropagationError(
                    f"Lanczos trace did not converge by depth {_KRYLOV_DEPTHS[-1]}"
                )
            scaled = np.empty_like(self.v)  # the buffer of every scalar multiple of a vector
            while len(alpha) < depth:
                w = self.matrix @ self.v
                size = np.linalg.norm(w)
                if beta:
                    w -= np.multiply(beta[-1], self.v_prev, out=scaled)
                alpha.append(self.v @ w)
                w -= np.multiply(alpha[-1], self.v, out=scaled)
                residual = np.linalg.norm(w)
                if residual <= _LUCKY_TOL * size:
                    self.exact = True  # the vectors so far span an invariant subspace
                    break
                ww = w @ w
                if abs(ww) <= np.finfo(float).eps * residual**2:
                    raise PropagationError(
                        f"serious breakdown of the Lanczos recursion at depth {len(alpha)}"
                    )
                beta.append(np.sqrt(ww))
                w /= beta[-1]
                self.v_prev, self.v = self.v, w
            samples = _ritz_trace(alpha, beta, self.spacing, self.n_samples, self.scale)
            if self.samples is not None:
                self.change = np.abs(samples - self.samples).max()
            self.samples = samples
        # exp(G t) never increases the norm, so a trace above M(0), or an M(0)
        # that lost weight to dropped Ritz values, by more than rounding or tol
        # means the generator is not dissipative.  Also catches non-finite samples.
        samples, scale = self.samples.copy(), self.scale  # a later call compares with these
        slack = max(_GROWTH_TOL, tol)
        if not (np.all(np.abs(samples) <= (1.0 + slack) * scale)
                and abs(samples[0] - scale) <= slack * scale):
            raise PropagationError(
                "Lanczos trace grows above M(0) = mu_tot^2; the generator is not dissipative"
            )
        samples[0] = scale  # exp(T 0) = 1 exactly
        return CorrelationTrace(dt=self.spacing, samples=samples, mu_tot_sq=self.mu_tot_sq)


def _ritz_trace(alpha, beta, spacing, n_samples, scale):
    """scale * e1^T exp(T t) e1 at t = 0, spacing, ..., T the complex-symmetric
    tridiagonal with diagonal ``alpha`` and off-diagonal ``beta``."""
    m = len(alpha)
    i = np.arange(m)
    tri = np.zeros((m, m), dtype=complex)
    tri[i, i] = alpha
    tri[i[1:], i[:-1]] = tri[i[:-1], i[1:]] = beta[: m - 1]
    lam, vectors = np.linalg.eig(tri)
    del tri
    e1 = np.zeros(m)
    e1[0] = 1.0
    weights = vectors[0] * np.linalg.solve(vectors, e1)
    del vectors
    # a Ritz value with Re > 0 lies outside the numerical range of G: a ghost
    kept = lam.real <= _GHOST_RE * np.abs(lam).max()
    lam, weights = lam[kept], scale * weights[kept]
    # the grid cannot tell a frequency past pi / spacing from its alias, so
    # the spectrum would show its weight at the wrong frequency
    aliased = np.abs(lam.imag) * spacing >= np.pi
    if np.any(np.abs(weights[aliased]) > _ALIAS_WEIGHT * scale):
        raise PropagationError(
            f"dt too large: the sample spacing 2*dt = {spacing:g} aliases the spectrum"
        )
    # exp(lam (k B + b) spacing) = exp(lam b spacing) exp(lam B spacing)^k:
    # one table for b < B, and the weights advance by one factor per block
    table = np.outer(spacing * np.arange(min(_BLOCK, n_samples)), lam)
    np.exp(table, out=table)
    advance = np.exp((_BLOCK * spacing) * lam)
    samples = np.empty(n_samples, dtype=complex)
    for start in range(0, n_samples, _BLOCK):
        block = samples[start:start + _BLOCK]
        block[:] = table[: block.size] @ weights
        weights = weights * advance
    return samples


def converge_caps(
    agg: AggregateSpec,
    bath: LorentzianBath,
    config: PropagationConfig,
    tolerance: float,
    eta: float,
    nu,
):
    """Smallest cap on the doubling ladder 1, 2, 4, 8, ... whose spectrum
    (damping ``eta``, grid ``nu``) overlaps the next rung's by at least
    100 * (1 - tolerance) percent, 0 < tolerance < 1; a bath without
    coupling terms converges trivially at cap 0.

    A rung whose trace has not decayed at t_max (TraceTailError, as a
    low cap can at small eta) is skipped, so the accepted rung and the one
    it is compared with both pass the tail check.

    A rung's Lanczos trace is converged only to max(_KRYLOV_TOL, 1e-3 *
    tolerance) * mu_tot^2, for the overlap test; the accepted rung then
    resumes to _KRYLOV_TOL, so the returned (caps, trace) holds the trace of
    ``krylov_correlation``.  Raises CapConvergenceError, reporting the last
    two overlap values, if the budget ``DEFAULT_MAX_STATES`` is hit first.
    """
    if not 0 < tolerance < 1:
        raise ValueError("tolerance must lie in (0, 1)")
    target = 100.0 * (1.0 - tolerance)
    check = max(_KRYLOV_TOL, 1e-3 * tolerance)
    if not any(bath.terms):
        # no electron-vibration coupling: every cap spans the same basis, so
        # the ladder is trivially converged at zero occupation
        return 0, krylov_correlation(agg, bath, config, caps=0)
    overlaps = []
    prev = None  # (cap, recursion, spectrum)
    for cap in (2**k for k in itertools.count()):
        try:
            rung = _Lanczos(*_generator_and_state(agg, bath, cap), config)
        except BasisSizeError as exc:
            raise CapConvergenceError(
                f"cap ladder needs {exc.dim} states at cap {cap}, over the budget "
                f"of {exc.max_states}; last overlaps: "
                + (", ".join(f"{o:.4f}%" for o in overlaps[-2:]) or "none"),
                overlaps,
            ) from exc
        try:
            spectrum = absorption_from_trace(rung.trace(check), eta, nu)
        except TraceTailError:
            continue  # a trace that has not decayed at t_max is no candidate
        if prev is not None:
            value = overlap(prev[2], spectrum)
            overlaps.append(value)
            if value >= target:
                return prev[0], prev[1].trace(_KRYLOV_TOL)
        prev = (cap, rung, spectrum)

"""Reduced-space propagation of the dipole correlation function.

For zero-temperature absorption, no stochastic driving enters and the
electronic state psi(t) obeys a deterministic equation in the N-dimensional
one-excitation space, coupled to memory operators.  Closing the functional
expansion of the memory kernel at zeroth order (the ZOFE approximation) and
splitting the sum-of-exponentials bath correlation per term, one auxiliary
N x N operator

    Q[n,j](t) = integral_0^t ds Gamma_nj e^{-(1j*Omega_nj + gamma_nj)(t-s)}
                              O0[n](t, s)

is propagated per (monomer n, bath term j).  Differentiating under the
integral (the integrand obeys a pure commutator equation with initial value
O0[n](s, s) = L[n]) gives the closed local system

    dpsi/dt    = K(t) psi,
    dQ[n,j]/dt = Gamma_nj L[n] - (1j*Omega_nj + gamma_nj) Q[n,j] + [K(t), Q[n,j]],

with K(t) = -1j H - sum_n L[n]^dag Qbar[n], Qbar[n] = sum_j Q[n,j] and the
coupling operators L[n] = -|pi_n><pi_n|.  This avoids any history
convolution: the cost per step is independent of t.  The scheme is exact for
non-interacting monomers (V = 0) and in the Markov limit of broad baths.

Since L[n] = -|pi_n><pi_n|, the memory term -sum_n L[n]^dag Qbar[n] is the
matrix whose row n is row n of Qbar[n]; the propagator builds it with one
gather and one product, without the general operator algebra of
``zofe_rhs`` (kept as the reference that tests compare against).

One RK4 kernel propagates a batch of lanes at once: a lane is one aggregate
(typically one coupling value of a scan) under the shared bath, with its own
-1j H and initial state; psi has shape (B, N) and the auxiliaries
(B, K, N, N).  Every operation acts lane by lane (stacked products and
elementwise reductions), so a lane's trace is bit-identical whether it runs
alone or in any batch.  ``propagate_zofe`` is the batch of one.

The auxiliary feedback is quadratic; in narrow resonance-like windows of the
electronic coupling it develops sharp transients that the step must resolve.
Each lane keeps its own clock and step dt / 2^level.  A lane whose norm guard
trips in grid step k restarts from t = 0 inside the running batch and runs
the grid steps [0, k + _REFINE_MARGIN) one level finer, then dt.  A later
trip inside that prefix raises the level; one after it extends the prefix
from the state saved at its end, the state a rerun from t = 0 reaches bit for
bit.  At dt/8 a trip inside the prefix is the lane's PropagationError.
"""

from __future__ import annotations

import numpy as np

from .model import (
    AggregateSpec,
    BathTerms,
    LorentzianBath,
    build_system_hamiltonian,
    initial_bright_state,
)
from .propagation import PropagationConfig, PropagationError
from .spectra import CorrelationTrace

__all__ = [
    "coupling_operators",
    "zofe_rhs",
    "propagate_zofe",
    "propagate_zofe_lanes",
]

# ||psi|| may transiently revive under non-Markovian damping but must never
# exceed 1 beyond integration noise; a larger norm signals an unstable step.
_NORM_GUARD = 1.0 + 1e-6

# refined prefix past a trip, in grid steps, and the finest step dt / 2^_MAX_LEVEL
_REFINE_MARGIN = 100
_MAX_LEVEL = 3


def coupling_operators(n_monomers: int) -> np.ndarray:
    """Stack of the N coupling operators L[n] = -|pi_n><pi_n|, shape (N, N, N)."""
    ops = np.zeros((n_monomers, n_monomers, n_monomers), dtype=complex)
    for n in range(n_monomers):
        ops[n, n, n] = -1.0
    return ops


def zofe_rhs(psi, aux, h_sys: np.ndarray, terms: BathTerms, l_ops: np.ndarray):
    """Time derivative of (psi, aux) for the closed ZOFE system.

    ``aux[k]`` is the N x N operator Q[n,j] of the k-th flattened bath term.
    General form for arbitrary coupling operators ``l_ops`` (one N x N
    operator per monomer); the propagator uses the specialised batched form
    for L[n] = -|pi_n><pi_n|.  Returns the pair (dpsi, daux) with the shapes
    of ``psi`` and ``aux``.  Raises ValueError on dimension mismatch.
    """
    n = psi.shape[0]
    if h_sys.shape != (n, n):
        raise ValueError("h_sys dimension does not match the state vector")
    if aux.shape != (terms.count, n, n):
        raise ValueError("aux stack does not match the bath term list")
    if l_ops.shape != (n, n, n):
        raise ValueError("need one N x N coupling operator per monomer")
    qbar = np.zeros((n, n, n), dtype=complex)
    for k in range(terms.count):
        qbar[terms.monomer[k]] += aux[k]
    k_op = -1j * h_sys - np.einsum("mji,mjk->ik", l_ops.conj(), qbar)
    daux = k_op @ aux - aux @ k_op - terms.z[:, None, None] * aux
    daux += terms.gamma_amp[:, None, None] * l_ops[terms.monomer]
    return k_op @ psi, daux


class _LaneRhs:
    """Right-hand side of a batch of lanes under one bath, with L[n] = -|n><n|.

    ``minus_ih`` is the (B, N, N) stack of -1j H, one per lane; psi is kept
    as (B, N, 1) columns and aux as (B, K, N, N).  Each lane's derivative
    comes out multiplied by its rate (``select``).  At rate 2^-l an RK4
    step dt is bit for bit the RK4 step dt / 2^l at rate 1: scaling by a
    power of two is exact, so every lane can share the scalar step dt.
    """

    def __init__(self, minus_ih, terms: BathTerms):
        b, n, _ = minus_ih.shape
        self.term_index = np.arange(terms.count)
        self.monomer = terms.monomer
        # owner[n, k] = 1 where term k belongs to monomer n
        owner = (self.monomer == np.arange(n)[:, None]).astype(complex)
        # source term Gamma_k L[n_k] of each auxiliary operator
        source = terms.gamma_amp[:, None, None] * coupling_operators(n)[self.monomer]
        # the coefficients of the derivative per lane, at rate 1
        self.unit = [minus_ih] + [
            np.broadcast_to(a, (b, *a.shape)) for a in (owner, terms.z[:, None, None], source)]
        self.select(slice(None), np.ones(b))

    def select(self, lanes, rates):
        """Restrict the batch to the given lane positions, with these rates."""
        self.unit = [a[lanes] for a in self.unit]
        self.minus_ih, self.owner, self.z, self.source = (
            rates.reshape((-1,) + (1,) * (a.ndim - 1)) * a for a in self.unit)

    def __call__(self, psi, aux):
        # -sum_n L[n]^dag Qbar[n]: row n of each Q[k] owned by monomer n
        rows = aux[:, self.term_index, self.monomer, :]
        k_op = self.minus_ih + self.owner @ rows
        b, terms, n, _ = aux.shape
        daux = k_op[:, None] @ aux
        # Q[k] @ K for all k as one product per lane on the stacked rows
        daux -= (aux.reshape(b, terms * n, n) @ k_op).reshape(aux.shape)
        daux -= self.z * aux
        daux += self.source
        return k_op @ psi, daux


def _run_lanes(aggs, bath: LorentzianBath, config: PropagationConfig):
    """RK4 over a batch of lanes, each on its own clock (module docstring).

    Returns (samples, mu_sq, levels, errors, psi, aux): M(t_k = k dt) per
    lane as a (B, n_steps + 1) block, mu_tot^2 and the final level per lane,
    a dict lane -> PropagationError for the failed lanes (their rows are not
    valid), and the final psi (B, N, 1) and aux (B, K, N, N).
    """
    n = aggs[0].n_monomers
    if any(agg.n_monomers != n for agg in aggs):
        raise ValueError("all lanes of a batch need the same number of monomers")
    if bath.n_monomers != n:
        raise ValueError("bath must provide a term list per monomer")
    terms = BathTerms.from_bath(bath)
    rhs = _LaneRhs(np.stack([-1j * build_system_hamiltonian(agg) for agg in aggs]), terms)
    bright = [initial_bright_state(agg) for agg in aggs]
    psi0 = np.stack([p for p, _ in bright])[:, :, None]
    mu_sq = np.array([mu_tot**2 for _, mu_tot in bright])

    dt, n_steps, lanes = config.dt, config.n_steps, len(aggs)
    half, sixth = 0.5 * dt, dt / 6.0
    samples = np.empty((lanes, n_steps + 1), dtype=complex)
    # elementwise reductions, not gemv across lanes: a lane's sums must not
    # depend on which batch it runs in
    samples[:, 0] = mu_sq * np.einsum("bij,bij->b", psi0.conj(), psi0)
    levels = np.zeros(lanes, dtype=int)
    prefix = np.zeros(lanes, dtype=int)  # grid steps [0, prefix) run at the level
    # the state at grid step saved_grid where a lane last started or ended its
    # prefix or ended its run; a trip after the prefix resumes there
    saved_grid, saved_psi = np.zeros(lanes, dtype=int), psi0.copy()
    saved_aux = np.zeros((lanes, terms.count, n, n), dtype=complex)
    errors = {}
    # per running lane; rows are dropped when a lane ends or fails
    live, psi0_conj, live_mu_sq = np.arange(lanes), psi0.conj(), mu_sq
    psi, aux = saved_psi.copy(), saved_aux.copy()
    # grid steps done, substeps done inside the current one, and the grid
    # step where the lane ends its prefix or its run (all as of the last event)
    grid, sub, stop = (np.zeros(lanes, dtype=int) for _ in range(3))
    nsub, ok = np.ones(lanes, dtype=int), np.ones(lanes, dtype=bool)
    calls = countdown = 0  # RK4 calls since the last event, and up to the next

    # an overflowing lane is reported by its guard, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if calls == countdown:
                # an event: a lane reached its stop or tripped
                grid, sub = grid + (sub + calls) // nsub, (sub + calls) % nsub
                for pos in np.flatnonzero(~ok):
                    lane = live[pos]
                    reached = grid[pos] * nsub[pos] + sub[pos]  # substeps since t = 0
                    step = (reached - 1) // nsub[pos]  # the grid step the trip fell in
                    if step >= prefix[lane]:
                        levels[lane], prefix[lane] = max(levels[lane], 1), step + _REFINE_MARGIN
                    elif levels[lane] < _MAX_LEVEL:
                        levels[lane] += 1
                        saved_grid[lane], saved_psi[lane], saved_aux[lane] = 0, psi0[lane], 0.0
                    else:
                        h = dt / nsub[pos]
                        errors[int(lane)] = PropagationError(
                            f"state norm grew to {np.sqrt(norm_sq[pos]):.6g} at "
                            f"t = {reached * h:.4g} with step {h:.4g}; dt too large"
                        )
                        continue
                    psi[pos], aux[pos] = saved_psi[lane], saved_aux[lane]
                    grid[pos], sub[pos] = saved_grid[lane], 0
                save = grid == stop
                saved_grid[live[save]], saved_psi[live[save]], saved_aux[live[save]] = (
                    grid[save], psi[save], aux[save])
                keep = (grid < n_steps) & np.array([lane not in errors for lane in live])
                live, psi0_conj, live_mu_sq, psi, aux, grid, sub = (
                    a[keep] for a in (live, psi0_conj, live_mu_sq, psi, aux, grid, sub))
                if live.size == 0:
                    break
                in_prefix = grid < prefix[live]
                nsub = 1 << np.where(in_prefix, levels[live], 0)
                stop = np.where(in_prefix, np.minimum(prefix[live], n_steps), n_steps)
                rhs.select(keep, 1.0 / nsub)
                # no lane reaches its stop before this many calls
                calls, countdown = 0, int(((stop - grid) * nsub - sub).min())
                ahead = sub + nsub - 1

            d1p, d1a = rhs(psi, aux)
            d2p, d2a = rhs(psi + half * d1p, aux + half * d1a)
            d3p, d3a = rhs(psi + half * d2p, aux + half * d2a)
            d4p, d4a = rhs(psi + dt * d3p, aux + dt * d3a)
            psi = psi + sixth * (d1p + 2.0 * (d2p + d3p) + d4p)
            aux = aux + sixth * (d1a + 2.0 * (d2a + d3a) + d4a)
            calls += 1
            # each substep writes M at the grid point it steps toward, so the
            # last substep of a grid step leaves the sample there; a lane that
            # trips writes over its slots again when it reruns them
            samples[live, grid + (ahead + calls) // nsub] = (
                live_mu_sq * np.einsum("bij,bij->b", psi0_conj, psi))
            norm_sq = np.einsum("bij,bij->b", psi.conj(), psi).real
            ok = norm_sq <= _NORM_GUARD**2
            if not ok.all():
                countdown = calls
    return samples, mu_sq, levels, errors, saved_psi, saved_aux


def propagate_zofe_lanes(aggs, bath: LorentzianBath, config: PropagationConfig) -> list:
    """Correlation traces of several aggregates under one bath, as one batch.

    Returns one entry per aggregate, in order: its CorrelationTrace on the
    grid k*dt, or a PropagationError if the norm guard stopped that lane even
    at dt/8.  Each trace is bit-identical to ``propagate_zofe`` of the same
    aggregate; the traces share one (B, n_steps + 1) block that lives as long
    as any of them.
    """
    samples, mu_sq, _, errors, _, _ = _run_lanes(aggs, bath, config)
    return [
        errors[lane] if lane in errors
        else CorrelationTrace(dt=config.dt, samples=samples[lane], mu_tot_sq=mu_sq[lane])
        for lane in range(len(aggs))
    ]


def propagate_zofe(
    agg: AggregateSpec, bath: LorentzianBath, config: PropagationConfig
) -> CorrelationTrace:
    """Correlation trace M(t_k) = mu_tot^2 <psi0|psi(t_k)> on t_k = k*dt.

    The batch of one; raises PropagationError if the norm guard stops the
    lane even at dt/8.
    """
    (result,) = propagate_zofe_lanes([agg], bath, config)
    if isinstance(result, PropagationError):
        raise result
    return result

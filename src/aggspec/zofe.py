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

One fixed-step RK4 kernel propagates a batch of lanes at once: a lane is one
aggregate (typically one coupling value of a scan) under the shared bath,
with its own -1j H and initial state; psi has shape (B, N) and the
auxiliaries (B, K, N, N).  Every operation acts lane by lane (stacked
products and elementwise reductions), so a lane's trace is bit-identical
whether it runs alone or in any batch.  ``propagate_zofe`` is the batch of
one.

The auxiliary feedback is quadratic; in narrow resonance-like windows of the
electronic coupling it develops sharp transients that the fixed step must
resolve.  The norm guard runs per lane: a lane whose norm grows leaves the
batch with a PropagationError ("dt too large") and the others go on.  The
coupling scan of ``aggspec.cli`` reruns such lanes together at dt/2, up to
three halvings.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "ZofeState",
    "coupling_operators",
    "zofe_rhs",
    "propagate_zofe",
    "propagate_zofe_lanes",
]

# ||psi|| may transiently revive under non-Markovian damping but must never
# exceed 1 beyond integration noise; a larger norm signals an unstable step.
_NORM_GUARD = 1.0 + 1e-6


@dataclass
class ZofeState:
    """Propagation state: electronic vector, stacked auxiliary operators, time.

    ``aux[k]`` is the N x N operator Q[n,j] of the k-th flattened bath term.
    """

    psi: np.ndarray
    aux: np.ndarray
    t: float = 0.0


def coupling_operators(n_monomers: int) -> np.ndarray:
    """Stack of the N coupling operators L[n] = -|pi_n><pi_n|, shape (N, N, N)."""
    ops = np.zeros((n_monomers, n_monomers, n_monomers), dtype=complex)
    for n in range(n_monomers):
        ops[n, n, n] = -1.0
    return ops


def zofe_rhs(state: ZofeState, h_sys: np.ndarray, terms: BathTerms, l_ops: np.ndarray):
    """Time derivative of (psi, aux) for the closed ZOFE system.

    General form for arbitrary coupling operators ``l_ops`` (one N x N
    operator per monomer); the propagator uses the specialised batched form
    for L[n] = -|pi_n><pi_n|.  Returns the pair (dpsi, daux) with the same
    shapes as ``state.psi`` and ``state.aux``.  Raises ValueError on
    dimension mismatch.
    """
    psi, aux = state.psi, state.aux
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
    as (B, N, 1) columns and aux as (B, K, N, N).
    """

    def __init__(self, minus_ih, terms: BathTerms):
        n = minus_ih.shape[-1]
        self.minus_ih = minus_ih
        self.term_index = np.arange(terms.count)
        self.monomer = terms.monomer
        # owner[n, k] = 1 where term k belongs to monomer n
        self.owner = (self.monomer == np.arange(n)[:, None]).astype(complex)
        self.z = terms.z[:, None, None]
        # source term Gamma_k L[n_k] of each auxiliary operator
        self.source = terms.gamma_amp[:, None, None] * coupling_operators(n)[self.monomer]

    def keep(self, lanes):
        """Restrict the batch to the given lane positions."""
        self.minus_ih = self.minus_ih[lanes]

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
    """Fixed-step RK4 over a batch of lanes.

    Returns (samples, mu_sq, errors, psi, aux): the (B, n_steps + 1) block
    of M(t_k) per lane, mu_tot^2 per lane, a dict lane -> PropagationError
    for lanes the norm guard stopped (their rows end at the trip), and the
    final psi (B', N, 1) and aux (B', K, N, N) of the lanes still running.
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
    # per running lane; rows are dropped when a lane leaves the batch
    live_mu_sq, psi0_conj = mu_sq, psi0.conj()

    dt = config.dt
    half = 0.5 * dt
    sixth = dt / 6.0
    n_steps = config.n_steps
    lanes = len(aggs)
    live = np.arange(lanes)
    psi = psi0.copy()
    aux = np.zeros((lanes, terms.count, n, n), dtype=complex)
    samples = np.empty((lanes, n_steps + 1), dtype=complex)
    # elementwise reductions, not gemv across lanes: a lane's sums must not
    # depend on which batch it runs in
    samples[:, 0] = mu_sq * np.einsum("bij,bij->b", psi0_conj, psi)
    guard_sq = _NORM_GUARD**2
    errors = {}

    for k in range(n_steps):
        d1p, d1a = rhs(psi, aux)
        d2p, d2a = rhs(psi + half * d1p, aux + half * d1a)
        d3p, d3a = rhs(psi + half * d2p, aux + half * d2a)
        d4p, d4a = rhs(psi + dt * d3p, aux + dt * d3a)
        psi = psi + sixth * (d1p + 2.0 * (d2p + d3p) + d4p)
        aux = aux + sixth * (d1a + 2.0 * (d2a + d3a) + d4a)
        norm_sq = np.einsum("bij,bij->b", psi.conj(), psi).real
        ok = norm_sq <= guard_sq
        if not ok.all():
            for pos in np.flatnonzero(~ok):
                errors[int(live[pos])] = PropagationError(
                    f"state norm grew to {np.sqrt(norm_sq[pos]):.6g} at "
                    f"t = {(k + 1) * dt:.4g}; dt too large"
                )
            live, psi, aux, psi0_conj, live_mu_sq = (
                a[ok] for a in (live, psi, aux, psi0_conj, live_mu_sq)
            )
            rhs.keep(ok)
            if live.size == 0:
                break
        samples[live, k + 1] = live_mu_sq * np.einsum("bij,bij->b", psi0_conj, psi)
    return samples, mu_sq, errors, psi, aux


def propagate_zofe_lanes(aggs, bath: LorentzianBath, config: PropagationConfig) -> list:
    """Correlation traces of several aggregates under one bath, as one batch.

    Returns one entry per aggregate, in order: its CorrelationTrace, or the
    PropagationError of the norm guard if that lane's step was too large.
    Each trace is bit-identical to ``propagate_zofe`` of the same aggregate;
    the traces share one (B, n_steps + 1) block that lives as long as any of
    them.
    """
    samples, mu_sq, errors, _, _ = _run_lanes(aggs, bath, config)
    return [
        errors[lane] if lane in errors
        else CorrelationTrace(dt=config.dt, samples=samples[lane], mu_tot_sq=mu_sq[lane])
        for lane in range(len(aggs))
    ]


def _propagate(agg: AggregateSpec, bath: LorentzianBath, config: PropagationConfig):
    """Batch of one; returns (trace, final ZofeState) or raises PropagationError."""
    samples, mu_sq, errors, psi, aux = _run_lanes([agg], bath, config)
    if errors:
        raise errors[0]
    trace = CorrelationTrace(dt=config.dt, samples=samples[0], mu_tot_sq=mu_sq[0])
    return trace, ZofeState(psi[0, :, 0], aux[0], config.n_steps * config.dt)


def propagate_zofe(
    agg: AggregateSpec, bath: LorentzianBath, config: PropagationConfig
) -> CorrelationTrace:
    """Correlation trace M(t_k) = mu_tot^2 <psi0|psi(t_k)> on t_k = k*dt.

    The batch of one; raises PropagationError if the norm guard trips.
    """
    trace, _ = _propagate(agg, bath, config)
    return trace

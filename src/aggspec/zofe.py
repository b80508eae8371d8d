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

One RK4 kernel propagates a batch of lanes at once: a lane is one aggregate
(typically one coupling value of a scan) under its own bath, and the lanes
share N and the number K of bath terms.  A lane whose site energies and
per-monomer bath term lists are both palindromic is mirror-symmetric: with R
the site reversal, Q[N-1-n, j] = R Q[n, j] R at all t, because R H R = H,
R L[n] R = L[N-1-n] and the Q system never reads psi (so the dipoles do not
matter).  Such a lane carries the terms of monomers n <= (N - 1) / 2 only
and rebuilds K = -1j H + G + R G_m R, with G the bath part of K from the
carried terms and G_m the same without the self-mirrored middle monomer.
Every other lane, a disordered chain for instance, carries all K terms.  A
lane's state is one packed (K', N, N + 1) block, so an RK4 stage is one
matrix product per (lane, carried term) (``_LaneRhs``, specialised to
L[n] = -|pi_n><pi_n|; ``zofe_rhs`` is the general form that tests compare
against).  Every operation acts lane by lane (stacked products and
elementwise reductions), and whether a lane mirrors depends on its own
energies and bath alone, so a lane's trace is bit-identical whether it runs
alone or in any batch.  ``propagate_zofe`` is the batch of one.

The auxiliary feedback is quadratic; in narrow resonance-like windows of the
electronic coupling it develops sharp transients that the step must resolve.
Each lane keeps its own clock and step dt / 2^level.  A lane whose norm guard
trips in grid step k restarts from t = 0 inside the running batch and runs
the grid steps [0, k + _REFINE_MARGIN) one level finer, then dt.  A later
trip inside that prefix raises the level; one after it extends the prefix
from the state saved at its end, the state a rerun from t = 0 reaches bit for
bit.  At dt/8 a trip inside the prefix is the lane's PropagationError.  Each
RK4 call only copies psi into a short block; the samples M(t) and the norm
guard are reduced once per block and at every event, and a lane that tripped
inside a block is rewound to its first tripped call, so the refinement runs
as if the guard were checked every call.
"""

from __future__ import annotations

import numpy as np

from .model import (
    AggregateSpec,
    BathTerms,
    LorentzianBath,
    build_system_hamiltonian,
    initial_bright_state,
    mirror_slots,
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

# RK4 calls whose psi is sampled and guarded at once (fewer at an event)
_BLOCK = 32


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


def _mirror_layout(agg: AggregateSpec, bath: LorentzianBath, terms: BathTerms):
    """Which carried auxiliary each flattened bath term of a lane reads.

    A mirror-symmetric lane (module docstring) carries the terms of monomers
    n <= (N - 1) / 2, which come first in the flattened list.  Returns
    (source, flip): term k is R Q R of carried term source[k] where flip[k],
    else carried term source[k] = k.  In any other lane no term flips.
    """
    source, mirror = np.arange(terms.count), mirror_slots(agg, bath, terms)
    if mirror is None:
        return source, np.zeros(terms.count, dtype=bool)
    return np.minimum(mirror, source), mirror < source


class _LaneRhs:
    """Right-hand side of a batch of lanes, with L[n] = -|n><n|, as one product.

    A lane's packed state has shape (K', N, N + 1), K' the most terms any
    lane carries (``_mirror_layout``): slot k holds the carried Q[k] in its
    first N columns, and slot 0 also psi in column N (zero in the others);
    slots past a lane's carried terms are inert (Q = z = S = 0).  For every
    (lane, slot) one N x 2N by 2N x (N + 1) product

        [K | Q[k]] @ [[Q[k], psi]; [-(K + z_k I), 0]]

    gives K Q[k] - Q[k] K - z_k Q[k], to which the source S_k = Gamma_k
    L[n_k] is added, and in slot 0's last column K psi.  The bath part of K
    is gathered from the state elementwise, by indices fixed per batch.  The
    constant blocks are written once per batch; ``select`` only drops lanes.
    """

    def __init__(self, minus_ih, terms, sources, flips):
        b, n, _ = minus_ih.shape
        carried = [int((~flip).sum()) for flip in flips]
        # an empty bath keeps one inert slot (Q = z = S = 0) to carry psi
        monomer, z, amp = (np.zeros((b, max(*carried, 1)), dtype=d) for d in (int, complex, float))
        for lane, (t, c) in enumerate(zip(terms, carried)):
            monomer[lane, :c], z[lane, :c], amp[lane, :c] = t.monomer[:c], t.z[:c], t.gamma_amp[:c]
        # Row n of -sum_n L[n]^dag Qbar[n] is the sum of row n of Q[k] over
        # the terms k of monomer n.  A term that is not carried is R Q[s] R,
        # s = source[k], whose row n is row N-1-n of Q[s] reversed.
        # pick[b, n, m, j] is where element (n, m) of the j-th term of
        # monomer n lies in lane b's right operand, which holds the state; a
        # missing term points at a zero there (slot 0, row N, column N)
        self.right = np.zeros((*monomer.shape, 2 * n, n + 1), dtype=complex)
        lane_size = self.right[0].size
        index = np.arange(lane_size).reshape(self.right.shape[1:])
        width = max((np.bincount(t.monomer, minlength=n).max() for t in terms if t.count), default=1)
        pick = np.full((b, n, n, width), index[0, n, n])
        for lane, (t, source, flip) in enumerate(zip(terms, sources, flips)):
            for k, (row, s, f) in enumerate(zip(t.monomer, source, flip)):
                j = np.count_nonzero(t.monomer[:k] == row)
                pick[lane, row, :, j] = index[s, n - 1 - row, n - 1::-1] if f else index[k, row, :n]
        self.lane_pick, self.minus_ih = pick, minus_ih
        # the operators below carry a zero last column, the shape of a slot
        self.minus_z, self.source = np.zeros((2, *monomer.shape, n, n + 1), dtype=complex)
        self.minus_z[..., :n] = -z[..., None, None] * np.eye(n)
        self.source[..., :n] = amp[..., None, None] * coupling_operators(n)[monomer]
        self.left = np.zeros((*monomer.shape, n, 2 * n), dtype=complex)
        self.select(slice(None))

    def select(self, lanes):
        """Restrict the batch to the given lane positions."""
        for name in ("minus_ih", "lane_pick", "minus_z", "source", "left", "right"):
            setattr(self, name, getattr(self, name)[lanes])
        b, n, _ = self.minus_ih.shape
        # the picks in the flattened right operands of the remaining lanes
        self.pick = self.lane_pick + self.right[0].size * np.arange(b)[:, None, None, None]
        self.picked = np.empty(self.pick.shape, dtype=complex)
        self.k_op = np.zeros((b, n, n + 1), dtype=complex)
        self.k_bath = np.empty_like(self.minus_ih)
        self.k_cols, self.k_block = self.k_op[..., :n], self.k_op[:, None]
        self.left_k, self.left_q = self.left[..., :n], self.left[..., n:]
        self.right_state, self.right_k = self.right[..., :n, :], self.right[..., n:, :]
        self.flat_right = self.right.reshape(-1)

    def __call__(self, state, out):
        """The derivative of the packed ``state``, written into ``out``."""
        self.right_state[...] = state
        np.take(self.flat_right, self.pick, out=self.picked, mode="wrap")
        np.add.reduce(self.picked, axis=-1, out=self.k_bath)
        np.add(self.k_bath, self.minus_ih, self.k_cols)
        self.left_k[...] = self.k_block[..., :-1]
        self.left_q[...] = state[..., :-1]
        np.subtract(self.minus_z, self.k_block, self.right_k)
        np.matmul(self.left, self.right, out)
        out += self.source
        return out


def _run_lanes(aggs, baths, config: PropagationConfig):
    """RK4 over a batch of lanes, each on its own clock (module docstring).

    ``baths`` holds one LorentzianBath per lane, or is one for all.  Returns
    (samples, mu_sq, levels, errors, psi, aux): M(t_k = k dt) per lane as a
    (B, n_steps + 1) block, mu_tot^2 and the final level per lane, a dict
    lane -> PropagationError for the failed lanes (their rows are not
    valid), and the final psi (B, N, 1) and aux (B, K, N, N) of every term.
    """
    baths = [baths] * len(aggs) if isinstance(baths, LorentzianBath) else baths
    n, terms = aggs[0].n_monomers, [BathTerms.from_bath(bath) for bath in baths]
    shapes = {(agg.n_monomers, bath.n_monomers, t.count) for agg, bath, t in zip(aggs, baths, terms)}
    if len(baths) != len(aggs) or shapes != {(n, n, terms[0].count)}:
        raise ValueError("a batch needs one bath per lane, and the lanes need the same "
                         "number of monomers and of bath terms")
    sources, flips = (np.stack(a) for a in zip(*map(_mirror_layout, aggs, baths, terms)))
    rhs = _LaneRhs(np.stack([-1j * build_system_hamiltonian(agg) for agg in aggs]),
                   terms, sources, flips)
    bright = [initial_bright_state(agg) for agg in aggs]
    psi0 = np.stack([p for p, _ in bright])
    mu_sq = np.array([mu_tot**2 for _, mu_tot in bright])
    state0 = np.zeros(rhs.right_state.shape, dtype=complex)
    state0[:, 0, :, n] = psi0
    bra = mu_sq[:, None] * psi0.conj()  # per lane mu_tot^2 <psi0|

    dt, n_steps, lanes = config.dt, config.n_steps, len(aggs)
    samples = np.empty((lanes, n_steps + 1), dtype=complex)
    samples[:, 0] = mu_sq * np.einsum("bi,bi->b", psi0.conj(), psi0)
    levels = np.zeros(lanes, dtype=int)
    prefix = np.zeros(lanes, dtype=int)  # grid steps [0, prefix) run at the level
    # the state at grid step saved_grid where a lane last started or ended its
    # prefix or ended its run; a trip after the prefix resumes there
    saved_grid, saved = np.zeros(lanes, dtype=int), state0.copy()
    errors = {}
    # per running lane; rows are dropped when a lane ends or fails
    live, state = np.arange(lanes), saved.copy()
    # grid steps done, substeps done inside the current one, and the grid
    # step where the lane ends its prefix or its run (all as of the last event)
    grid, sub, stop = (np.zeros(lanes, dtype=int) for _ in range(3))
    nsub = np.ones(lanes, dtype=int)
    # RK4 calls since the last event, and up to the next; per lane whether it
    # tripped in the last block, and the substeps since t = 0 and the norm at
    # its first trip there
    calls = countdown = 0
    tripped, trip_at, trip_norm_sq = np.zeros(lanes, dtype=bool), None, None

    # a lane that overflows after its trip, before its block is checked, is
    # reported by its guard, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if calls == countdown:
                # an event: a lane reached its stop or tripped
                grid, sub = grid + (sub + calls) // nsub, (sub + calls) % nsub
                for pos in np.flatnonzero(tripped):
                    lane, reached = live[pos], trip_at[pos]
                    step = (reached - 1) // nsub[pos]  # the grid step the trip fell in
                    if step >= prefix[lane]:
                        levels[lane], prefix[lane] = max(levels[lane], 1), step + _REFINE_MARGIN
                    elif levels[lane] < _MAX_LEVEL:
                        levels[lane] += 1
                        saved_grid[lane], saved[lane] = 0, state0[lane]
                    else:
                        substep = dt / nsub[pos]
                        errors[int(lane)] = PropagationError(
                            f"state norm grew to {np.sqrt(trip_norm_sq[pos]):.6g} at "
                            f"t = {reached * substep:.4g} with step {substep:.4g}; dt too large"
                        )
                        continue
                    state[pos], grid[pos], sub[pos] = saved[lane], saved_grid[lane], 0
                save = grid == stop
                saved_grid[live[save]], saved[live[save]] = grid[save], state[save]
                keep = (grid < n_steps) & np.array([lane not in errors for lane in live])
                live, bra, state, grid, sub = (a[keep] for a in (live, bra, state, grid, sub))
                if live.size == 0:
                    break
                in_prefix = grid < prefix[live]
                nsub = 1 << np.where(in_prefix, levels[live], 0)
                stop = np.where(in_prefix, np.minimum(prefix[live], n_steps), n_steps)
                rhs.select(keep)
                # each lane steps dt / nsub, and psi lies in slot 0's last column
                h = np.broadcast_to((dt / nsub)[:, None, None, None], state.shape).astype(complex)
                half, sixth = 0.5 * h, h / 6.0
                stage, k1, k2, k3, k4 = (np.empty_like(state) for _ in range(5))
                stages = ((k1, k2, half), (k2, k3, half), (k3, k4, h))
                psi = state[:, 0, :, n]
                block = np.empty((_BLOCK, *psi.shape), dtype=complex)
                # no lane reaches its stop before this many calls
                calls, countdown = 0, int(((stop - grid) * nsub - sub).min())
                checked = 0  # calls whose psi has been sampled and guarded

            rhs(state, k1)
            for k_in, k_out, step in stages:
                np.multiply(k_in, step, out=stage)
                stage += state
                rhs(stage, k_out)
            # state += sixth * (k1 + 2 (k2 + k3) + k4), in place
            k2 += k3
            k2 += k2
            k2 += k1
            k2 += k4
            k2 *= sixth
            state += k2
            block[calls - checked] = psi
            calls += 1
            if calls - checked < _BLOCK and calls < countdown:
                continue
            # sample and guard the block: <psi0|psi> and <psi|psi> by
            # elementwise reductions per lane, not gemv across lanes, so that
            # a lane's sums do not depend on its batch
            psis = block[:calls - checked]
            overlaps = np.einsum("bi,cbi->bc", bra, psis)
            norm_sq = np.einsum("cbi,cbi->bc", psis.conj(), psis).real
            # substeps after each call of the block since the lane's grid
            # point at the last event; only a call that ends a grid step
            # writes its sample, and a lane that trips writes over its slots
            # again when it reruns them
            reached = sub[:, None] + np.arange(checked + 1, calls + 1)
            ends = reached % nsub[:, None] == 0
            at = (grid[:, None] + reached // nsub[:, None])[ends]
            samples[np.broadcast_to(live[:, None], ends.shape)[ends], at] = overlaps[ends]
            bad = ~(norm_sq <= _NORM_GUARD**2)
            tripped = bad.any(axis=1)
            if tripped.any():
                # the lane restarts from its first trip, as if the guard had
                # stopped it there
                first = bad.argmax(axis=1)
                trip_at = grid * nsub + sub + checked + 1 + first
                trip_norm_sq = norm_sq[np.arange(live.size), first]
                countdown = calls
            checked = calls
    aux = saved[np.arange(lanes)[:, None], sources, :, :n]
    aux[flips] = aux[flips][:, ::-1, ::-1]
    return samples, mu_sq, levels, errors, saved[:, 0, :, n:], aux


def propagate_zofe_lanes(aggs, baths, config: PropagationConfig) -> list:
    """Correlation traces of several aggregates, as one batch.

    ``baths`` is one LorentzianBath per aggregate, or one for all of them;
    the lanes must share N and the number of bath terms (ValueError).
    Returns one entry per aggregate, in order: its CorrelationTrace on the
    grid k*dt, or a PropagationError if the norm guard stopped that lane even
    at dt/8.  Each trace is bit-identical to ``propagate_zofe`` of the same
    aggregate and bath; the traces share one (B, n_steps + 1) block that
    lives as long as any of them.
    """
    samples, mu_sq, _, errors, _, _ = _run_lanes(aggs, baths, config)
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

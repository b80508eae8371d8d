"""Absorption spectra from dipole correlation traces, and analytic oracles.

The absorption spectrum is the one-sided transform

    A(nu) = Re sum_k w_k exp(1j*nu*t_k) exp(-eta*t_k) M(t_k) dt

with trapezoid weights w_k and an artificial damping rate eta that sets the
minimum line width.  On the uniform nu grid the sum is a chirp-z transform,
evaluated with Bluestein's algorithm on numpy.fft.  Spectra of different
methods are compared with the area-overlap metric: clip negative values,
normalize each spectrum to unit area, integrate the pointwise minimum.  100%
means identical spectra, 0% means disjoint support.

Two closed-form reference traces live here as independent oracles:
``cumulant_oracle`` (single monomer, exact for any sum-of-exponentials bath)
and ``markov_oracle`` (aggregate with delta-correlated baths, evaluated by a
dense matrix exponential on the N x N electronic space).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .model import AggregateSpec, LorentzianBath, build_system_hamiltonian, initial_bright_state
from .propagation import PropagationConfig

__all__ = [
    "CorrelationTrace",
    "TraceTailError",
    "Spectrum",
    "absorption_from_trace",
    "mean_shift",
    "overlap",
    "cumulant_oracle",
    "markov_oracle",
    "default_nu_grid",
]

# step of default_nu_grid
_NU_STEP = 0.01


@dataclass(frozen=True)
class CorrelationTrace:
    """Uniformly sampled complex dipole correlation function M(t_k).

    ``samples[k]`` is M(k*dt); ``mu_tot_sq`` is the squared dipole prefactor,
    equal to M(0) up to rounding.
    """

    dt: float
    samples: np.ndarray
    mu_tot_sq: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("samples must be a 1-d array with at least two entries")
        if not self.mu_tot_sq > 0:
            raise ValueError("mu_tot_sq must be positive")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if abs(samples[0] - self.mu_tot_sq) > 1e-12 * self.mu_tot_sq:
            raise ValueError("samples[0] must equal mu_tot_sq (M(0) = mu_tot^2)")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def times(self):
        return np.arange(self.samples.size) * self.dt

    @property
    def t_final(self):
        return (self.samples.size - 1) * self.dt


@dataclass(frozen=True)
class Spectrum:
    """Real absorption values on a uniform, strictly increasing nu grid."""

    nu: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nu = np.asarray(self.nu, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if nu.ndim != 1 or nu.size < 2:
            raise ValueError("nu must be a 1-d grid with at least two points")
        steps = np.diff(nu)
        if not np.all(steps > 0):
            raise ValueError("nu grid must be strictly increasing")
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
            raise ValueError("nu grid must be uniform")
        if values.shape != nu.shape:
            raise ValueError("values must match the nu grid")
        nu.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "values", values)

    def area(self):
        return float(np.trapezoid(self.values, self.nu))


class TraceTailError(ValueError):
    """The trace has not decayed at t_max, so its spectrum would ring."""


def _fast_length(n):
    """Smallest 2^a 3^b 5^c that is >= n (a length numpy.fft handles fast)."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _chirp_sum(a, dx, n_out):
    """sum_k a[k] exp(1j*dx*m*k) for m = 0 .. n_out - 1.

    Bluestein's chirp-z transform, m*k = (m^2 + k^2 - (m - k)^2) / 2, turns
    the sum into a convolution done with FFTs.  The input is cut into
    segments of max(n_out, 1024) samples: the FFT length stays near twice
    that, and the chirp phases dx*k^2/2 stay small, which keeps them
    accurate.
    """
    seg = min(a.size, max(n_out, 1024))
    size = _fast_length(seg + n_out - 1)
    m = np.arange(n_out)
    j = np.arange(seg)
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_out] = np.exp(-0.5j * dx * m**2)
    kernel[size - seg + 1:] = np.exp(-0.5j * dx * j[:0:-1] ** 2)  # lags -(seg-1) .. -1
    kernel = np.fft.fft(kernel)
    chirp = np.exp(0.5j * dx * j**2)
    total = np.zeros(n_out, dtype=complex)
    for start in range(0, a.size, seg):
        block = a[start:start + seg] * chirp[: min(seg, a.size - start)]
        conv = np.fft.ifft(np.fft.fft(block, size) * kernel)[:n_out]
        total += np.exp(1j * dx * (start * m)) * conv
    return np.exp(0.5j * dx * m**2) * total


def absorption_from_trace(trace: CorrelationTrace, eta: float, nu) -> Spectrum:
    """One-sided transform of the correlation trace on the given nu grid.

    Parameters
    ----------
    trace : CorrelationTrace
    eta : float
        Artificial damping rate (>= 0) applied as exp(-eta*t) before the
        transform; identical post-processing for every method keeps spectrum
        comparisons meaningful.
    nu : array_like
        Uniform frequency grid.

    Raises
    ------
    TraceTailError
        If |M(t_max)| exp(-eta*t_max) > 1e-4 * mu_tot^2: the trace has not
        decayed enough and the spectrum would ring; increase t_max or eta.
    """
    if eta < 0:
        raise ValueError("eta must be >= 0")
    nu = np.asarray(nu, dtype=float)
    tail = abs(trace.samples[-1]) * np.exp(-eta * trace.t_final)
    if tail > 1e-4 * trace.mu_tot_sq:
        raise TraceTailError(
            f"trace has not decayed at t_max (|M| e^-eta t = {tail:.3e} "
            f"> 1e-4 * mu_tot^2); increase t_max or eta"
        )
    t = trace.times
    weights = np.full(t.size, trace.dt)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    coeff = trace.samples * np.exp(-eta * t) * weights
    # e^{i nu_m t_k} = e^{i nu_0 k dt} e^{i m d_nu k dt} on the uniform grid
    coeff *= np.exp(1j * (nu[0] * trace.dt) * np.arange(t.size))
    d_nu = (nu[-1] - nu[0]) / max(nu.size - 1, 1)
    values = _chirp_sum(coeff, d_nu * trace.dt, nu.size).real
    return Spectrum(nu=nu, values=values)


def mean_shift(spec: Spectrum):
    """Translate the grid so the area-weighted mean frequency sits at zero.

    Returns the shifted spectrum and the mean that was removed.
    """
    total = spec.area()
    if not total > 0:
        raise ValueError("mean_shift requires a spectrum with positive total area")
    mean = float(np.trapezoid(spec.nu * spec.values, spec.nu)) / total
    shifted = replace(spec, nu=spec.nu - mean)
    return shifted, mean


def _resampled_pair(spec_a: Spectrum, spec_b: Spectrum):
    """Both value arrays on the union of the two grids, zero outside a
    spectrum's own grid.  Every sample of either spectrum stays a grid point,
    so resampling cannot drop a peak that falls between the other's points.
    On one shared grid the grid and both arrays come back unchanged."""
    grid = np.union1d(spec_a.nu, spec_b.nu)
    fa = np.interp(grid, spec_a.nu, spec_a.values, left=0.0, right=0.0)
    fb = np.interp(grid, spec_b.nu, spec_b.values, left=0.0, right=0.0)
    return grid, fa, fb


def overlap(spec_a: Spectrum, spec_b: Spectrum) -> float:
    """Percentage of common area of the two spectra.

    Negative values are clipped to zero, each spectrum is normalized to unit
    area, and 100 * integral(min(a, b)) is returned.  Symmetric, in [0, 100];
    100 exactly when the clipped normalized spectra coincide on the grid and
    0 when their supports are disjoint.  Spectra on different grids are
    resampled to a common grid first.
    """
    grid, fa, fb = _resampled_pair(spec_a, spec_b)
    fa = np.maximum(fa, 0.0)
    fb = np.maximum(fb, 0.0)
    area_a = np.trapezoid(fa, grid)
    area_b = np.trapezoid(fb, grid)
    if not (area_a > 0 and area_b > 0):
        raise ValueError("overlap requires spectra with positive area")
    common = np.trapezoid(np.minimum(fa / area_a, fb / area_b), grid)
    return 100.0 * float(common)


def _phi(u):
    """(exp(-u) - 1 + u) / u**2, series near u = 0 to avoid cancellation."""
    u = np.asarray(u, dtype=complex)
    out = np.empty_like(u)
    small = np.abs(u) < 1e-3
    us = u[small]
    out[small] = 0.5 - us / 6.0 + us**2 / 24.0 - us**3 / 120.0 + us**4 / 720.0
    ub = u[~small]
    out[~small] = (np.exp(-ub) - 1.0 + ub) / ub**2
    return out


def cumulant_oracle(terms, epsilon, config: PropagationConfig, mu_sq=1.0) -> CorrelationTrace:
    """Closed-form monomer correlation trace (independent-boson solution).

    For a single monomer with bath terms (Gamma_j, Omega_j, gamma_j) the
    second-order cumulant terminates, giving exactly

        M(t) = mu^2 exp(-1j*epsilon*t)
                    * exp(-sum_j Gamma_j (e^{-z_j t} - 1 + z_j t) / z_j^2),

    z_j = 1j*Omega_j + gamma_j.  The z_j -> 0 limit (t^2 / 2) is handled by a
    series expansion.  This is the reference both solvers are tested against
    where they are exact.
    """
    t = np.arange(config.n_steps + 1) * config.dt
    exponent = -1j * float(epsilon) * t
    for gamma_amp, center, width in terms:
        z = 1j * center + width
        exponent = exponent - gamma_amp * t**2 * _phi(z * t)
    samples = mu_sq * np.exp(exponent)
    return CorrelationTrace(dt=config.dt, samples=samples, mu_tot_sq=float(mu_sq))


def markov_oracle(agg: AggregateSpec, theta, config: PropagationConfig) -> CorrelationTrace:
    """Correlation trace for delta-correlated baths, alpha_n = 2*theta_n*delta.

    M(t) = mu_tot^2 <psi0| exp[(-1j H - sum_n theta_n |pi_n><pi_n|) t] |psi0>,
    evaluated with a dense matrix exponential of the one-step propagator on
    the N x N electronic space (exact for the fixed grid).
    """
    # only this oracle needs scipy.linalg; a module-level import would cost
    # every run about 8 MB of resident memory
    import scipy.linalg

    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size == 1:
        theta = np.full(agg.n_monomers, float(theta[0]))
    if theta.shape != (agg.n_monomers,):
        raise ValueError("theta must give one rate per monomer")
    h = build_system_hamiltonian(agg)
    gen = -1j * h - np.diag(theta).astype(complex)
    step = scipy.linalg.expm(gen * config.dt)
    psi0, mu_tot = initial_bright_state(agg)
    mu_sq = mu_tot**2
    samples = np.empty(config.n_steps + 1, dtype=complex)
    psi = psi0.copy()
    samples[0] = mu_sq * np.vdot(psi0, psi)
    for k in range(config.n_steps):
        psi = step @ psi
        samples[k + 1] = mu_sq * np.vdot(psi0, psi)
    return CorrelationTrace(dt=config.dt, samples=samples, mu_tot_sq=mu_sq)


def default_nu_grid(agg: AggregateSpec, bath: LorentzianBath):
    """Frequency grid of step 0.01 generously covering the aggregate
    absorption support."""
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
    n = int(np.floor((hi - lo) / _NU_STEP)) + 1
    return lo + _NU_STEP * np.arange(n)

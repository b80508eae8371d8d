"""Domain model: linear aggregates of two-level monomers with Lorentzian baths.

Units: all energies are measured in units of hbar*Omega_ref for a reference
frequency Omega_ref, times in 1/Omega_ref, and hbar = 1 throughout.

A monomer is an electronic two-level system.  The aggregate is an open chain
of ``N`` monomers restricted to the single-excitation manifold, with
nearest-neighbour electronic coupling ``V``.  The vibrational environment of
monomer ``n`` enters only through its zero-temperature bath correlation
function, a sum of damped complex exponentials

    alpha_n(tau) = sum_j Gamma_nj * exp(-1j*Omega_nj*tau - gamma_nj*tau),

which is the full-real-line Fourier transform of a spectral density that is a
sum of Lorentzians of weight Gamma_nj, centre Omega_nj and half-width
gamma_nj.  Both solvers in this package consume exactly this sum-of-
exponentials form; fitting other spectral densities to it is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

__all__ = [
    "AggregateSpec",
    "LorentzianBath",
    "mirror_slots",
    "build_system_hamiltonian",
    "initial_bright_state",
    "bath_correlation",
    "spectral_density",
    "huang_rhys_to_gamma",
]


def _as_readonly(a, dtype=float):
    a = np.array(a, dtype=dtype)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AggregateSpec:
    """Electronic description of an open-chain aggregate.

    Parameters
    ----------
    n_monomers : int
        Number of monomers N (>= 1).
    epsilon : array_like, shape (N,) or scalar
        Transition energies of the monomers.  A scalar is broadcast.
    coupling_v : float
        Nearest-neighbour interaction V.
    dipoles : array_like, shape (N, 3)
        Real transition dipole vectors of the monomers.
    polarization : array_like, shape (3,)
        Real light polarization vector (nonzero).
    """

    n_monomers: int
    epsilon: np.ndarray
    coupling_v: float
    dipoles: np.ndarray
    polarization: np.ndarray

    def __post_init__(self):
        n = self.n_monomers
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("n_monomers must be an integer >= 1")
        eps = np.atleast_1d(np.asarray(self.epsilon, dtype=float))
        if eps.size == 1:
            eps = np.full(n, float(eps[0]))
        if eps.shape != (n,):
            raise ValueError(f"epsilon must have length {n}, got shape {eps.shape}")
        dip = np.asarray(self.dipoles, dtype=float)
        if dip.shape != (n, 3):
            raise ValueError(f"dipoles must have shape ({n}, 3), got {dip.shape}")
        pol = np.asarray(self.polarization, dtype=float)
        if pol.shape != (3,):
            raise ValueError("polarization must be a real 3-vector")
        if not np.linalg.norm(pol) > 0:
            raise ValueError("polarization must have nonzero norm")
        object.__setattr__(self, "epsilon", _as_readonly(eps))
        object.__setattr__(self, "coupling_v", float(self.coupling_v))
        object.__setattr__(self, "dipoles", _as_readonly(dip))
        object.__setattr__(self, "polarization", _as_readonly(pol))
        if not self.mu_tot_sq > 0:
            raise ValueError(
                "dark initial state: all transition dipoles are orthogonal "
                "to the light polarization"
            )

    @classmethod
    def equal_parallel(cls, n_monomers, epsilon=0.0, coupling_v=0.0):
        """Aggregate with unit dipoles all parallel to the polarization axis."""
        dipoles = np.tile([1.0, 0.0, 0.0], (n_monomers, 1))
        return cls(n_monomers, epsilon, coupling_v, dipoles, [1.0, 0.0, 0.0])

    @property
    def mu_projections(self):
        """Per-monomer dipole projections mu_n . E, shape (N,)."""
        return self.dipoles @ self.polarization

    @property
    def mu_tot_sq(self):
        """Total squared projected dipole, sum_n |mu_n . E|^2."""
        p = self.mu_projections
        return float(p @ p)


@dataclass(frozen=True)
class LorentzianBath:
    """Per-monomer bath terms (Gamma_nj, Omega_nj, gamma_nj).

    ``terms[n]`` is the tuple of ``(gamma_amp, center, width)`` triples of
    monomer ``n``: coupling weight Gamma_nj (energy squared), Lorentzian
    centre Omega_nj (angular frequency) and half-width gamma_nj (rate).
    Every listed term must have Gamma_nj > 0 and gamma_nj >= 0; a monomer may
    have no terms at all (no electron-vibration coupling).  The model is
    defined by the correlation function alpha_n(tau), for which any real
    centre is meaningful: Omega = 0 gives the overdamped exponential used in
    the Markov limit, and +/-Omega pairs give a real alpha.

    Both solvers read the terms flattened in (monomer, term) order, as the
    read-only arrays ``monomer`` (owner index), ``z`` (decay
    1j*Omega + gamma) and ``gamma_amp`` (weight Gamma) of length ``count``:
    a ZOFE auxiliary operator and a pseudomode occupation slot belong to one
    flattened term each, with centre ``z.imag``, width ``z.real`` and
    coupling ``sqrt(gamma_amp)``.  They are not fields, so equality, hashing
    and the repr read ``terms`` alone.
    """

    terms: tuple

    def __post_init__(self):
        norm, owners, zs, amps = [], [], [], []
        for n, monomer_terms in enumerate(self.terms):
            checked = []
            for term in monomer_terms:
                if len(term) != 3:
                    raise ValueError("each bath term must be (gamma_amp, center, width)")
                gamma_amp, center, width = (float(x) for x in term)
                if not gamma_amp > 0:
                    raise ValueError(f"monomer {n}: gamma_amp must be positive")
                if width < 0:
                    raise ValueError(f"monomer {n}: width must be >= 0")
                checked.append((gamma_amp, center, width))
                owners.append(n)
                zs.append(1j * center + width)
                amps.append(gamma_amp)
            norm.append(tuple(checked))
        object.__setattr__(self, "terms", tuple(norm))
        object.__setattr__(self, "monomer", _as_readonly(owners, int))
        object.__setattr__(self, "z", _as_readonly(zs, complex))
        object.__setattr__(self, "gamma_amp", _as_readonly(amps))

    def __reduce__(self):
        # an unpickled bath rebuilds its read-only flat arrays from the terms
        return type(self), (self.terms,)

    @classmethod
    def uniform(cls, n_monomers, monomer_terms):
        """Identical term list ``monomer_terms`` replicated for every monomer."""
        return cls(tuple(tuple(monomer_terms) for _ in range(n_monomers)))

    @classmethod
    def from_huang_rhys(cls, n_monomers, factors, centers, widths):
        """Build a uniform bath from Huang-Rhys factors X_j = Gamma_j / Omega_j**2."""
        factors = np.atleast_1d(np.asarray(factors, dtype=float))
        centers = np.atleast_1d(np.asarray(centers, dtype=float))
        widths = np.atleast_1d(np.asarray(widths, dtype=float))
        if not factors.shape == centers.shape == widths.shape:
            raise ValueError("factors, centers and widths must have equal lengths")
        terms = [
            (huang_rhys_to_gamma(x, om), om, gm)
            for x, om, gm in zip(factors, centers, widths)
        ]
        return cls.uniform(n_monomers, terms)

    @property
    def n_monomers(self):
        return len(self.terms)

    @property
    def count(self):
        """Number of flattened terms, the length of ``monomer``, ``z`` and ``gamma_amp``."""
        return self.monomer.size

    def alpha0(self, monomer):
        """alpha_n(0) = sum_j Gamma_nj (real, >= 0)."""
        return float(sum(t[0] for t in self.terms[monomer]))


def mirror_slots(agg: AggregateSpec, bath: LorentzianBath):
    """The mirror image of each flattened bath term, or None where the chain
    has no mirror symmetry.

    With palindromic site energies and per-monomer bath term lists, the site
    reversal n -> N-1-n maps the Hamiltonian and the bath onto themselves
    (V is uniform); term j of monomer n then has term j of monomer N-1-n as
    its image, and the middle monomer's terms are their own.  The dipoles
    are not checked.
    """
    if not ((agg.epsilon == agg.epsilon[::-1]).all() and bath.terms == bath.terms[::-1]):
        return None
    first = np.searchsorted(bath.monomer, np.arange(agg.n_monomers))
    image = agg.n_monomers - 1 - bath.monomer
    return first[image] + np.arange(bath.count) - first[bath.monomer]


def build_system_hamiltonian(agg: AggregateSpec) -> np.ndarray:
    """Electronic Hamiltonian of the open chain in the one-excitation basis.

    Returns the complex N x N matrix with transition energies on the diagonal
    and the nearest-neighbour coupling V on the first off-diagonals (zero
    elsewhere).  Real symmetric, hence Hermitian.
    """
    n = agg.n_monomers
    h = np.zeros((n, n), dtype=complex)
    np.fill_diagonal(h, agg.epsilon)
    for k in range(n - 1):
        h[k, k + 1] = agg.coupling_v
        h[k + 1, k] = agg.coupling_v
    return h


def initial_bright_state(agg: AggregateSpec):
    """Normalized bright state reached by one photon absorption.

    Returns
    -------
    psi0 : np.ndarray, shape (N,), complex
        psi0[n] = (mu_n . E) / mu_tot.
    mu_tot : float
        sqrt(sum_n |mu_n . E|^2), the dipole prefactor of the correlation
        function (mu_tot**2 multiplies <psi0|psi(t)>).
    """
    mu_tot = math.sqrt(agg.mu_tot_sq)
    return agg.mu_projections.astype(complex) / mu_tot, mu_tot


def bath_correlation(bath: LorentzianBath, monomer: int, tau):
    """Zero-temperature bath correlation alpha_n(tau) for tau >= 0.

    alpha_n(tau) = sum_j Gamma_nj * exp(-1j*Omega_nj*tau - gamma_nj*tau).
    Only tau >= 0 is defined here; callers needing t < s must use the
    |t - s| symmetry themselves.
    """
    tau_arr = np.asarray(tau, dtype=float)
    if np.any(tau_arr < 0):
        raise ValueError("bath_correlation requires tau >= 0")
    out = np.zeros_like(tau_arr, dtype=complex)
    for gamma_amp, center, width in bath.terms[monomer]:
        out += gamma_amp * np.exp(-(1j * center + width) * tau_arr)
    return complex(out[()]) if out.ndim == 0 else out


def spectral_density(bath: LorentzianBath, monomer: int, omega):
    """Spectral density J_n(omega), a sum of Lorentzians.

    J_n(omega) = (1/pi) * sum_j Gamma_nj * gamma_nj
                 / ((omega - Omega_nj)**2 + gamma_nj**2)
    """
    om = np.asarray(omega, dtype=float)
    out = np.zeros_like(om)
    for gamma_amp, center, width in bath.terms[monomer]:
        out += gamma_amp * width / ((om - center) ** 2 + width**2)
    out /= np.pi
    return float(out[()]) if out.ndim == 0 else out


def huang_rhys_to_gamma(x, omega):
    """Coupling weight Gamma = X * Omega**2 from the Huang-Rhys factor X."""
    if x < 0:
        raise ValueError("Huang-Rhys factor must be >= 0")
    if not omega > 0:
        raise ValueError("omega must be positive")
    return float(x) * float(omega) ** 2

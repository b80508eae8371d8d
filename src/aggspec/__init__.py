"""Absorption spectra of linear molecular aggregates at zero temperature.

Two solvers produce the dipole correlation trace M(t) for the same model
(open chain of two-level monomers, Lorentzian-sum spectral densities):

* ``zofe``  -- reduced-space propagation in the N-dimensional electronic
  space with auxiliary memory operators (approximate; exact for
  non-interacting monomers and in the Markov limit),
* ``pseudomode`` -- numerically exact propagation with one damped auxiliary
  mode per Lorentzian, in a truncated occupation basis.

``spectra`` turns traces into spectra and quantifies the agreement of two
spectra with an area-overlap percentage; ``cli`` drives scenario files.

The pseudomode names are imported on first access: ``pseudomode`` imports
scipy.sparse, which a ZOFE-only run never needs.
"""

import importlib

from .model import (
    AggregateSpec,
    LorentzianBath,
    bath_correlation,
    build_system_hamiltonian,
    huang_rhys_to_gamma,
    initial_bright_state,
    mirror_slots,
    spectral_density,
)
from .propagation import PropagationConfig, PropagationError, default_time_step
from .spectra import (
    CorrelationTrace,
    Spectrum,
    TraceTailError,
    absorption_from_trace,
    cumulant_oracle,
    default_nu_grid,
    markov_oracle,
    mean_shift,
    overlap,
)
from .zofe import (
    coupling_operators,
    propagate_zofe,
    propagate_zofe_lanes,
    zofe_rhs,
)

__version__ = "0.1.0"

_PSEUDOMODE_NAMES = frozenset({
    "BasisSizeError", "CapConvergenceError", "assemble_generator", "converge_caps",
    "count_occupation_vectors", "count_states", "embed_initial_state", "enumerate_basis",
    "krylov_correlation", "pm_correlation", "propagate_pm",
})


def __getattr__(name):
    if name in _PSEUDOMODE_NAMES:
        return getattr(importlib.import_module(".pseudomode", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

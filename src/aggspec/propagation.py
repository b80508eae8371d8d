"""Shared time grid of both solvers.

ZOFE steps the grid with classical fourth-order Runge-Kutta, at a finer
step only over the start of a lane whose norm guard trips.  The pseudomode
solver samples its Lanczos trace on the grid (spacing 2*dt), with RK4
(``pm_correlation``) as its reference.  Traces on one grid are directly
comparable between methods and reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

from .model import AggregateSpec, LorentzianBath


class PropagationError(RuntimeError):
    """A propagation could not proceed or did not meet its guard conditions."""


@dataclass(frozen=True)
class PropagationConfig:
    """Fixed-step time grid: step ``dt`` up to ``t_max`` (rounded to a whole
    number of steps)."""

    dt: float
    t_max: float

    def __post_init__(self):
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if self.t_max < self.dt:
            raise ValueError("t_max must be at least one step")

    @property
    def n_steps(self):
        """Number of steps; the effective final time is n_steps * dt."""
        return max(1, round(self.t_max / self.dt))


def default_time_step(agg: AggregateSpec, bath: LorentzianBath) -> float:
    """Conservative default step, 0.002 over the fastest rate in the problem.

    The rate scale is the largest of all bath centre frequencies, all bath
    widths, |V| and sqrt(alpha_n(0)).  Falls back to 0.002 when everything
    is zero.  Figure-level runs normally pin dt explicitly; this default
    favours accuracy over speed.
    """
    scale = abs(agg.coupling_v)
    for n in range(bath.n_monomers):
        for _, center, width in bath.terms[n]:
            scale = max(scale, abs(center), width)
        scale = max(scale, math.sqrt(bath.alpha0(n)))
    if scale == 0.0:
        scale = 1.0
    return 0.002 / scale

"""Common result container for energy-bound checks.

Every bound study in the package (field pulses, collisions, heuristic
estimate) reports the same handful of numbers: the accumulated gate phase,
the fluctuation error it would incur, the energy actually invested and the
minimum energy the corresponding inequality demands.  ``BoundReport`` holds
them with the budget ``epsilon``, the route's ``error_budget`` and a
free-form ``meta`` dict for study-specific flags, and derives ``satisfied``
from ``energy`` and ``bound`` and ``error_within_epsilon`` from ``error``
and ``error_budget`` alone, so every route decides both by the same rule.
Each route is an evaluation built once from raw inputs, which runs all its
numerics, and a bound that reads it at any eps and runs none:

    PulseSpec(...)                    -> pulses.energy_bound_check        eps/p^2
    collision.free_chain(cfg)         -> collision.free_energy_bound      eps
    collision.error_variance_harmonic -> collision.harmonic_energy_bound  eps
    heuristic.HeuristicConfig(...)    -> heuristic.heuristic_energy_bound eps

The trapped evaluation also solves the classical return mismatch once, so
``collision.squeezing_consistency_probe`` reads it and runs no numerics.

The input checks and the calibration tolerance that every route shares
live here too, with one relative slack ``RATIO_SLACK`` in any units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from .errors import UncertaintyError

RATIO_SLACK = 1e-12  # |energy/bound - 1| below this counts as satisfied
PHASE_CALIBRATION_TOL = 1e-6  # |phase - pi| above this flags (or rejects) a calibration


def checked_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon`` is a finite error budget > 0.

    Every closed-form bound is defined for all eps > 0; which budgets a
    route calls unphysical is that route's flag, not a rejection.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite error budget > 0, got {epsilon!r}")


def checked_positive(**values: float) -> None:
    """Raise ValueError naming the first of ``values`` that is not finite and > 0."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def checked_uncertainty(dx: float, dp: float, hbar: float) -> None:
    """Check both widths with :func:`checked_positive`, then dx dp >= hbar/2 up to ``RATIO_SLACK``."""
    checked_positive(dx=dx, dp=dp)
    if dx * dp < hbar / 2.0 * (1.0 - RATIO_SLACK):
        raise UncertaintyError(f"dx*dp = {dx * dp!r} violates the uncertainty relation "
                               f"dx*dp >= hbar/2 = {hbar / 2.0!r}")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one energy-bound evaluation.

    ``photon_number`` and ``mean_omega`` are only meaningful for field-mode
    studies and are ``None`` otherwise.  ``energy`` and ``bound`` carry the
    same unit (multiples of hbar*rad/s in natural units, joules in SI).
    ``epsilon`` is the error budget the bound was read at and
    ``error_budget`` the most ``error`` the route's premise allows under it.
    """

    energy: float
    bound: float
    epsilon: float
    error_budget: float
    error: float
    phase: float | None = None
    photon_number: float | None = None
    mean_omega: float | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def ratio(self) -> float:
        """energy / bound; > 1 means the bound holds with slack."""
        return self.energy / self.bound

    @property
    def satisfied(self) -> bool:
        """True when energy >= bound up to a relative rounding slack of ``RATIO_SLACK``."""
        return self.energy >= self.bound * (1.0 - RATIO_SLACK)

    @property
    def error_within_epsilon(self) -> bool:
        """error <= error_budget up to the relative slack ``satisfied`` grants the energy."""
        return self.error <= self.error_budget * (1.0 + RATIO_SLACK)

    def to_dict(self) -> dict[str, Any]:
        return {
            "energy": self.energy,
            "bound": self.bound,
            "ratio": self.ratio,
            "satisfied": self.satisfied,
            "phase": self.phase,
            "error": self.error,
            "photon_number": self.photon_number,
            "mean_omega": self.mean_omega,
            "meta": {**self.meta, "epsilon": self.epsilon,
                     "error_within_epsilon": self.error_within_epsilon},
        }

"""Common result container for energy-bound checks.

Every bound study in the package (field pulses, collisions, heuristic
estimate) reports the same handful of numbers: the accumulated gate phase,
the fluctuation error it would incur, the energy actually invested and the
minimum energy the corresponding inequality demands.  ``BoundReport`` holds
them together with a free-form ``meta`` dict for study-specific flags, and
derives the verdict ``satisfied`` from ``energy`` and ``bound`` alone, so
every route decides it by the same rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

RATIO_SLACK = 1e-12  # |energy/bound - 1| below this counts as satisfied


def checked_epsilon(epsilon: float) -> None:
    """Raise ValueError unless ``epsilon`` is a finite error budget > 0.

    Every closed-form bound is defined for all eps > 0; which budgets a
    route calls unphysical is that route's flag, not a rejection.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be a finite error budget > 0, got {epsilon!r}")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one energy-bound evaluation.

    ``photon_number`` and ``mean_omega`` are only meaningful for field-mode
    studies and are ``None`` otherwise.  ``energy`` and ``bound`` carry the
    same unit (multiples of hbar*rad/s in natural units, joules in SI).
    """

    energy: float
    bound: float
    phase: float | None = None
    error: float | None = None
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
            "meta": dict(self.meta),
        }

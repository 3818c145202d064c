"""Back-of-envelope energy estimate for a material control particle.

A potential of size ~ pi hbar / T with gradient ~ pi hbar / (L T) nudges
the control wavepacket by (delta_x, delta_p) over the gate time; the gate
fails by roughly (delta_x/dx)^2 + (delta_p/dp)^2, the mis-overlap of the
nudged wavepacket with itself.  Optimising the wavepacket and demanding the
mis-overlap stay below eps reproduces the kinetic-energy requirement
(1/2) m v^2 >= pi^2 hbar / (eps T) at v = L/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import UncertaintyError
from .report import BoundReport, bound_satisfied

PI = math.pi


@dataclass(frozen=True)
class HeuristicConfig:
    """Mass, traversal length L, gate time T and error budget epsilon.

    ``dx``/``dp`` pin an explicit wavepacket; left unset, the
    uncertainty-optimal one is used.
    """

    m: float
    L: float
    T: float
    epsilon: float
    dx: float | None = None
    dp: float | None = None
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("m", "L", "T", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if (self.dx is None) != (self.dp is None):
            raise ValueError("dx and dp must be given together")
        if self.dx is not None:
            if self.dx <= 0 or self.dp <= 0:
                raise ValueError("dx and dp must be positive")
            if self.dx * self.dp < self.hbar / 2.0 - 1e-12:
                raise UncertaintyError(
                    f"dx*dp = {self.dx * self.dp!r} violates the uncertainty relation"
                )


class Displacements(NamedTuple):
    delta_x: float
    delta_p: float


def displacement_estimates(cfg: HeuristicConfig) -> Displacements:
    """Kicks from a force pi hbar/(L T) acting over T.

    delta_p = pi hbar / L (independent of T); delta_x = pi hbar T / (2 m L).
    """
    force = PI * cfg.hbar / (cfg.L * cfg.T)
    return Displacements(
        delta_x=force * cfg.T * cfg.T / (2.0 * cfg.m),
        delta_p=force * cfg.T,
    )


def optimal_heuristic_wavepacket(cfg: HeuristicConfig) -> tuple[float, float]:
    """(dx, dp) minimising the mis-overlap at dx*dp = hbar/2.

    The optimum equalises the two mis-overlap terms: dx^2 = T hbar / 4m.
    """
    dx = math.sqrt(cfg.T * cfg.hbar / (4.0 * cfg.m))
    return dx, cfg.hbar / (2.0 * dx)


def misoverlap(cfg: HeuristicConfig) -> float:
    """(delta_x/dx)^2 + (delta_p/dp)^2 for the configured or optimal wavepacket."""
    dx, dp = (cfg.dx, cfg.dp) if cfg.dx is not None else optimal_heuristic_wavepacket(cfg)
    amp = (PI * cfg.hbar / cfg.L) ** 2
    return amp * (cfg.T * cfg.T / (4.0 * cfg.m * cfg.m * dx * dx) + 1.0 / (dp * dp))


def misoverlap_optimal(cfg: HeuristicConfig) -> float:
    """Closed form of the optimised mis-overlap: 2 pi^2 hbar T / (m L^2)."""
    return 2.0 * PI * PI * cfg.hbar * cfg.T / (cfg.m * cfg.L * cfg.L)


def heuristic_energy_bound(cfg: HeuristicConfig) -> BoundReport:
    """Kinetic energy (1/2) m (L/T)^2 against pi^2 hbar / (eps T).

    The bound retains its epsilon: demanding misoverlap <= eps is exactly
    equivalent to energy >= pi^2 hbar/(eps T).  The epsilon-free variant
    pi^2 hbar / T is recorded in ``meta`` rather than silently substituted.
    """
    v = cfg.L / cfg.T
    energy = 0.5 * cfg.m * v * v
    bound = PI * PI * cfg.hbar / (cfg.epsilon * cfg.T)
    mis_opt = misoverlap_optimal(cfg)
    meta = {
        "epsilon": cfg.epsilon,
        "speed": v,
        "misoverlap_optimal": mis_opt,
        "misoverlap": misoverlap(cfg),
        "error_within_epsilon": mis_opt <= cfg.epsilon,
        "bound_epsilon_free": PI * PI * cfg.hbar / cfg.T,
    }
    return BoundReport(
        energy=energy,
        bound=bound,
        satisfied=bound_satisfied(energy, bound),
        phase=None,
        error=mis_opt,
        meta=meta,
    )


def collision_crosscheck(v: float, T: float, epsilon: float,
                         hbar: float = 1.0) -> dict[str, float]:
    """Compare the heuristic bound with the free-collision chain at n = 2.

    Both routes are reduced to the minimal per-particle kinetic energy they
    imply at matched (v, T), with the collision gap at its ceiling b = vT
    and the closed-form log-derivative -(n-1)/b in the collision error.
    The collision chain demands m >= pi^2 T hbar (n-1)^2/(2 eps b^2),
    i.e. (1/2) m v^2 >= (pi^2/4) hbar/(eps T) at n = 2; the heuristic
    demands (1/2) m v^2 >= pi^2 hbar/(eps T).  Their ratio is 4.
    """
    from .collision import powerlaw_log_derivative

    n = 2.0
    b = v * T
    log_deriv = powerlaw_log_derivative(n, b)
    m_min = PI * PI * T * hbar * (log_deriv * b) ** 2 / (2.0 * epsilon * b * b)
    collision_min = 0.5 * m_min * v * v
    heuristic_min = PI * PI * hbar / (epsilon * T)
    return {
        "collision_min_energy": collision_min,
        "heuristic_min_energy": heuristic_min,
        "ratio": heuristic_min / collision_min,
    }

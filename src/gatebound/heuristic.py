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

from .collision import optimal_wavepacket, powerlaw_log_derivative
from .report import BoundReport, checked_epsilon, checked_positive, checked_uncertainty

PI = math.pi


@dataclass(frozen=True)
class HeuristicConfig:
    """Mass, traversal length L and gate time T; the error budget is the bound's argument.

    ``dx``/``dp`` pin an explicit wavepacket; left unset, the
    uncertainty-optimal one is used.
    """

    m: float
    L: float
    T: float
    dx: float | None = None
    dp: float | None = None
    hbar: float = 1.0

    def __post_init__(self):
        checked_positive(m=self.m, L=self.L, T=self.T, hbar=self.hbar)
        if (self.dx is None) != (self.dp is None):
            raise ValueError("dx and dp must be given together")
        if self.dx is not None:
            checked_uncertainty(self.dx, self.dp, self.hbar)


class Displacements(NamedTuple):
    delta_x: float
    delta_p: float


def displacement_estimates(cfg: HeuristicConfig) -> Displacements:
    """Kicks from a force pi hbar/(L T) acting over T.

    delta_p = pi hbar / L (independent of T); delta_x = pi hbar T / (2 m L).
    """
    checked_positive(**{"L T": cfg.L * cfg.T})
    force = PI * cfg.hbar / (cfg.L * cfg.T)
    return Displacements(
        delta_x=force * cfg.T * cfg.T / (2.0 * cfg.m),
        delta_p=force * cfg.T,
    )


def misoverlap(cfg: HeuristicConfig) -> float:
    """(delta_x/dx)^2 + (delta_p/dp)^2 for the configured or optimal wavepacket.

    The optimal wavepacket (:func:`collision.optimal_wavepacket`) equalises
    the two terms at dx*dp = hbar/2: dx^2 = T hbar / 4m.
    """
    if cfg.dx is not None:
        dx, dp = cfg.dx, cfg.dp
    else:
        dx = math.sqrt(optimal_wavepacket(cfg.m, cfg.T, cfg.hbar).dx0_sq)
        dp = cfg.hbar / (2.0 * dx)
    kick, position = PI * cfg.hbar / cfg.L, 4.0 * cfg.m * cfg.m * dx * dx
    checked_positive(**{"(pi hbar / L)^2": kick * kick, "4 m^2 dx^2": position, "dp^2": dp * dp})
    return kick * kick * (cfg.T * cfg.T / position + 1.0 / (dp * dp))


def misoverlap_optimal(cfg: HeuristicConfig) -> float:
    """Closed form of the optimised mis-overlap: 2 pi^2 hbar T / (m L^2)."""
    checked_positive(**{"m L^2": cfg.m * cfg.L * cfg.L})
    return 2.0 * PI * PI * cfg.hbar * cfg.T / (cfg.m * cfg.L * cfg.L)


def heuristic_energy_bound(cfg: HeuristicConfig, epsilon: float) -> BoundReport:
    """Kinetic energy (1/2) m (L/T)^2 against pi^2 hbar / (eps T).

    The bound retains its epsilon: misoverlap <= eps is exactly energy >=
    pi^2 hbar/(eps T), one rounding slack deciding both.  The epsilon-free
    variant pi^2 hbar / T is recorded in ``meta``, not silently substituted.
    """
    checked_epsilon(epsilon)
    v = cfg.L / cfg.T
    mis_opt = misoverlap_optimal(cfg)
    meta = {
        "speed": v,
        "misoverlap_optimal": mis_opt,
        "misoverlap": misoverlap(cfg),
        "bound_epsilon_free": PI * PI * cfg.hbar / cfg.T,
    }
    return BoundReport(
        energy=0.5 * cfg.m * v * v,
        bound=PI * PI * cfg.hbar / (epsilon * cfg.T),
        epsilon=epsilon,
        error_budget=epsilon,
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
    checked_positive(v=v, T=T, hbar=hbar)
    checked_epsilon(epsilon)
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

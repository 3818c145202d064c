"""Multimode field-pulse energy bounds.

A pulse is a finite list of modes (omega_k, g_k, alpha_k) driving the gate
over a time window.  The accumulated phase and the quantum-fluctuation
error are window integrals with closed forms per mode; chaining them with
Cauchy-Schwarz yields the photon-number and energy lower bounds

    sum |alpha_k|^2 >= pi^2 / (4 eps),
    E >= (pi^2/4) hbar <omega> / eps,

which a nonlinear (power-p) coupling tightens by p^2 and which squeezing
relaxes only as far as E >= 2 hbar omega / sqrt(eps).  An adversarial
random search is included to hammer on the linear bound empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import SamplingError
from .report import RATIO_SLACK, BoundReport, bound_satisfied

PI = math.pi
PHASE_CALIBRATION_TOL = 1e-6


def mode_window_integral(omega: float, window: tuple[float, float]) -> complex:
    """int_{t0}^{t1} e^{-i omega t} dt in closed form."""
    t0, t1 = window
    return (np.exp(-1j * omega * t1) - np.exp(-1j * omega * t0)) / (-1j * omega)


def _coefficients(omegas: Sequence[float], weights: Sequence[complex],
                  window: tuple[float, float]) -> np.ndarray:
    """c_k = w_k * int e^{-i omega_k t} dt; the error is sum |c_k|^2."""
    return np.array([w * mode_window_integral(om, window) for om, w in zip(omegas, weights)])


@dataclass(frozen=True)
class PulseSpec:
    """Modes (omega, g, alpha) with a common time window.

    ``omegas``, ``couplings``, ``alphas`` and the window coefficients
    ``coefficients`` (c_k, see :func:`_coefficients`) are read-only arrays
    set once at construction.
    """

    modes: tuple[tuple[float, complex, complex], ...]
    window: tuple[float, float]
    omegas: np.ndarray = field(init=False, compare=False, repr=False)
    couplings: np.ndarray = field(init=False, compare=False, repr=False)
    alphas: np.ndarray = field(init=False, compare=False, repr=False)
    coefficients: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        modes = tuple((float(w), complex(g), complex(al)) for w, g, al in self.modes)
        if not modes:
            raise ValueError("pulse needs at least one mode")
        if any(w <= 0 for w, _, _ in modes):
            raise ValueError("all mode frequencies must be positive")
        t0, t1 = self.window
        if not t1 > t0:
            raise ValueError("window must satisfy t_end > t_start")
        window = (float(t0), float(t1))
        omegas, couplings, alphas = (np.array(column) for column in zip(*modes))
        arrays = {"omegas": omegas, "couplings": couplings, "alphas": alphas,
                  "coefficients": _coefficients(omegas, couplings, window)}
        for arr in arrays.values():
            arr.flags.writeable = False
        for name, value in {"modes": modes, "window": window, **arrays}.items():
            object.__setattr__(self, name, value)


def min_photon_number(epsilon: float) -> float:
    """pi^2/(4 eps): least total photon number compatible with phase pi, error < eps."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    return PI * PI / (4.0 * epsilon)


def _bound_report(omegas: np.ndarray, coeffs: np.ndarray, alphas: np.ndarray,
                  epsilon: float, p_power: int, hbar: float) -> BoundReport:
    """Compare the field energy against (pi^2/4) p^2 hbar <omega> / eps.

    The phase is 2 Re sum c_k alpha_k and the error sum |c_k|^2; <omega> is
    the photon-number-weighted mean frequency, undefined without photons.
    The bound only claims anything when the pulse is phase-calibrated and
    its error is within eps/p^2; both conditions are flagged in ``meta``
    rather than raised.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    weights = np.abs(alphas) ** 2
    n_photon = float(np.sum(weights))
    if n_photon == 0.0:
        raise ValueError("mean frequency undefined for a pulse with no photons")
    phase = float(2.0 * np.sum(coeffs * alphas).real)
    error = float(np.sum(np.abs(coeffs) ** 2))
    omega_bar = float(np.sum(omegas * weights) / n_photon)
    energy = float(hbar * np.sum(omegas * weights))
    p_sq = float(p_power) ** 2
    bound = (PI * PI / 4.0) * p_sq * hbar * omega_bar / epsilon
    meta = {
        "epsilon": epsilon,
        "p_power": p_power,
        "off_calibration": abs(phase - PI) > PHASE_CALIBRATION_TOL,
        # the same relative rounding slack bound_satisfied grants the energy
        "error_within_epsilon": error <= epsilon / p_sq * (1.0 + RATIO_SLACK),
    }
    return BoundReport(
        energy=energy,
        bound=bound,
        satisfied=bound_satisfied(energy, bound),
        phase=phase,
        error=error,
        photon_number=n_photon,
        mean_omega=omega_bar,
        meta=meta,
    )


def energy_bound_check(pulse: PulseSpec, epsilon: float, hbar: float = 1.0) -> BoundReport:
    """Bound report of a linearly coupled pulse (p = 1)."""
    return _bound_report(pulse.omegas, pulse.coefficients, pulse.alphas, epsilon, 1, hbar)


# ---------------------------------------------------------------------------
# nonlinear (power-p) coupling reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearReduction:
    """Effective linear coefficients of a power-p coupling.

    ``coefficients[k]`` is (omega_k, c_k) with
    c_k = w_k int E(t)^{p-1} e^{-i omega_k t} dt; the phase condition reads
    sum alpha_k c_k + c.c. = pi and the error condition sum |c_k|^2 < eps/p^2.
    """

    p_power: int
    coefficients: tuple[tuple[float, complex], ...]
    window: tuple[float, float]


def nonlinear_reduce(p_power: int, envelope: Callable[[float], float],
                     window: tuple[float, float],
                     modes: Sequence[tuple[float, complex]], *,
                     tol: float = 1e-8, max_doublings: int = 22) -> NonlinearReduction:
    """Reduce a power-p coupling with mean field E(t) to linear coefficients.

    p = 1 short-circuits to the exact window integrals (E^0 == 1), making
    the reduction identical to the linear path.  For p > 1 the coefficient
    integrals are evaluated by composite Simpson rule, doubling the sample
    density until step-halving moves every coefficient by less than ``tol``.
    """
    if p_power < 1:
        raise ValueError("p_power must be >= 1")
    modes = [(float(w), complex(wt)) for w, wt in modes]
    if any(w <= 0 for w, _ in modes):
        raise ValueError("all mode frequencies must be positive")
    t0, t1 = window
    if not t1 > t0:
        raise ValueError("window must satisfy t_end > t_start")
    omegas = [w for w, _ in modes]

    if p_power == 1:
        coeffs = _coefficients(omegas, [wt for _, wt in modes], (t0, t1))
        return NonlinearReduction(1, tuple(zip(omegas, coeffs)), (float(t0), float(t1)))

    def coefficients_at(n: int) -> np.ndarray:
        t = np.linspace(t0, t1, n + 1)
        env = np.array([float(envelope(ti)) for ti in t]) ** (p_power - 1)
        simpson_w = np.ones(n + 1)
        simpson_w[1:-1:2] = 4.0
        simpson_w[2:-1:2] = 2.0
        simpson_w *= (t1 - t0) / n / 3.0
        out = np.empty(len(modes), dtype=complex)
        for k, (w, wt) in enumerate(modes):
            out[k] = wt * np.sum(simpson_w * env * np.exp(-1j * w * t))
        return out

    n = 64
    prev = coefficients_at(n)
    for _ in range(max_doublings):
        n *= 2
        cur = coefficients_at(n)
        scale = np.maximum(1.0, np.abs(cur))
        if np.all(np.abs(cur - prev) < tol * scale):
            coeffs = tuple(zip(omegas, (complex(c) for c in cur)))
            return NonlinearReduction(p_power, coeffs, (float(t0), float(t1)))
        prev = cur
    raise SamplingError(
        f"coefficient integrals did not settle below {tol} after {max_doublings} refinements"
    )


def nonlinear_bound_check(reduction: NonlinearReduction,
                          alphas: Sequence[complex], epsilon: float,
                          hbar: float = 1.0) -> BoundReport:
    """Bound report for the reduced problem; bound gains the p^2 factor."""
    alphas = np.array([complex(a) for a in alphas])
    if alphas.shape[0] != len(reduction.coefficients):
        raise ValueError("one alpha per mode required")
    omegas = np.array([w for w, _ in reduction.coefficients])
    coeffs = np.array([c for _, c in reduction.coefficients])
    return _bound_report(omegas, coeffs, alphas, epsilon, reduction.p_power, hbar)


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def squeezed_energy(r: float, epsilon: float, omega: float, hbar: float = 1.0) -> float:
    """hbar omega (1/(e^{2r} eps) + e^{2r}).

    Squeezing one quadrature by e^{-2r} relaxes the error condition by
    e^{2r}, but the e^{2r} quanta carried by the squeezing itself are part
    of the field energy; this is the resulting requirement.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if omega <= 0:
        raise ValueError("omega must be positive")
    s = math.exp(2.0 * r)
    return hbar * omega * (1.0 / (s * epsilon) + s)


def optimize_squeezing(epsilon: float, omega: float = 1.0,
                       hbar: float = 1.0) -> tuple[float, float]:
    """(r*, E_min) minimising the squeezed-field energy requirement.

    By AM-GM the two terms of :func:`squeezed_energy` balance at
    e^{2r*} = 1/sqrt(eps), so r* = -ln(eps)/4 and E_min = 2 hbar omega / sqrt(eps).
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    if omega <= 0:
        raise ValueError("omega must be positive")
    return -math.log(epsilon) / 4.0, 2.0 * hbar * omega / math.sqrt(epsilon)


@dataclass(frozen=True)
class LinewidthBound:
    """Squeezed-field bound after imposing the carrier-linewidth condition.

    (omega T)^2 > 1/eps forces omega >= 1/(T sqrt(eps)); substituting into
    E >= 2 hbar omega / sqrt(eps) gives 2 hbar/(eps T).  The commonly quoted
    hbar/(eps T) form is surfaced alongside rather than silently adopted.
    """

    omega_min: float
    bound: float
    bound_quoted: float


def linewidth_combined_bound(duration: float, epsilon: float, hbar: float = 1.0) -> LinewidthBound:
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1]")
    omega_min = 1.0 / (duration * math.sqrt(epsilon))
    return LinewidthBound(
        omega_min=omega_min,
        bound=2.0 * hbar / (epsilon * duration),
        bound_quoted=hbar / (epsilon * duration),
    )


# ---------------------------------------------------------------------------
# constructions and adversarial search
# ---------------------------------------------------------------------------

def single_mode_equality_pulse(epsilon: float, omega: float = 1.0,
                               window: tuple[float, float] = (0.0, 1.0)) -> PulseSpec:
    """Single-mode pulse saturating the energy bound (ratio = 1).

    |g| is tuned so the error hits eps exactly and alpha is phase-matched
    with |alpha| = pi/(2 sqrt(eps)).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    integral = mode_window_integral(omega, window)
    if abs(integral) < 1e-12:
        raise ValueError("window integral vanishes; choose a different omega or window")
    g = math.sqrt(epsilon) / abs(integral)
    c = g * integral
    alpha = (np.conj(c) / abs(c)) * PI / (2.0 * math.sqrt(epsilon))
    return PulseSpec(((omega, complex(g), complex(alpha)),), window)


def random_feasible_pulse(rng: np.random.Generator, epsilon: float, n_modes: int,
                          window: tuple[float, float] = (0.0, 1.0)) -> PulseSpec:
    """Random pulse projected onto phase = pi with error <= eps."""
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    t0, t1 = window
    span = t1 - t0
    for _ in range(64):
        omegas = np.exp(rng.uniform(math.log(0.5 / span), math.log(20.0 / span), n_modes))
        gs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        error = float(np.sum(np.abs(_coefficients(omegas, gs, window)) ** 2))
        if error == 0.0:
            continue
        gs *= math.sqrt(epsilon * rng.uniform(0.2, 1.0) / error)
        coeffs = _coefficients(omegas, gs, window)
        alphas = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        phase = 2.0 * float(np.sum(coeffs * alphas).real)
        if abs(phase) < 1e-9:
            continue
        alphas *= PI / phase
        return PulseSpec(tuple(zip(omegas, gs, alphas)), window)
    raise RuntimeError("failed to draw a feasible pulse (degenerate random stream)")


def adversarial_pulse_search(epsilon: float, n_modes: int, budget: int, seed: int,
                             window: tuple[float, float] = (0.0, 1.0),
                             hbar: float = 1.0) -> BoundReport:
    """Randomised local search minimising energy/bound at phase pi, error <= eps.

    Feasibility is maintained at every iterate by projection: couplings are
    rescaled onto error <= eps and amplitudes rescaled (by a real factor)
    onto phase = pi.  Restart seeds derive deterministically from ``seed``,
    so the search result is reproducible and order-independent.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    evals_per_restart = 120
    n_restarts = max(1, math.ceil(budget / evals_per_restart))
    remaining = budget
    best: BoundReport | None = None

    for restart in range(n_restarts):
        if remaining <= 0:
            break
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        pulse = random_feasible_pulse(rng, epsilon, n_modes, window)
        report = energy_bound_check(pulse, epsilon, hbar)
        remaining -= 1
        if best is None or report.ratio < best.ratio:
            best = report
        step = 0.5
        use = min(remaining, evals_per_restart - 1)
        for k in range(use):
            candidate = _perturb_pulse(rng, pulse, epsilon, step)
            if candidate is None:
                continue
            cand_report = energy_bound_check(candidate, epsilon, hbar)
            if cand_report.ratio < report.ratio:
                pulse, report = candidate, cand_report
                step = min(0.5, step * 1.3)
            else:
                step = max(1e-4, step * 0.93)
            if report.ratio < best.ratio:
                best = report
        remaining -= use
    assert best is not None
    return best


def _perturb_pulse(rng: np.random.Generator, pulse: PulseSpec, epsilon: float,
                   step: float) -> PulseSpec | None:
    omegas, gs, alphas = pulse.omegas, pulse.couplings, pulse.alphas
    n = len(omegas)
    which = rng.integers(0, 3)
    if which == 0:
        omegas = omegas * np.exp(step * rng.normal(size=n) * 0.3)
    elif which == 1:
        gs = gs * (1.0 + step * (rng.normal(size=n) + 1j * rng.normal(size=n)) * 0.3)
    else:
        alphas = alphas + step * (rng.normal(size=n) + 1j * rng.normal(size=n)) * np.mean(np.abs(alphas))
    if np.any(omegas <= 0):
        return None
    coeffs = _coefficients(omegas, gs, pulse.window)
    error = float(np.sum(np.abs(coeffs) ** 2))
    if error == 0.0:
        return None
    if error > epsilon:
        gs = gs * math.sqrt(epsilon / error) * (1.0 - 1e-15)
        coeffs = _coefficients(omegas, gs, pulse.window)
    phase = 2.0 * float(np.sum(coeffs * alphas).real)
    if abs(phase) < 1e-9:
        return None
    alphas = alphas * (PI / phase)
    return PulseSpec(tuple(zip(omegas, gs, alphas)), pulse.window)

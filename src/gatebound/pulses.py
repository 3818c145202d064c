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

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError, SamplingError
from .numerics import PANEL_NODES, PANEL_RTOL, _panel_rule, converged_panels, panel_nodes
from .report import RATIO_SLACK, BoundReport, bound_satisfied

PI = math.pi
PHASE_CALIBRATION_TOL = 1e-6
NARROW_PHASE = 0.1  # |omega (t1 - t0)| below which mode_window_integral uses the sin form


def mode_window_integral(omega: float | np.ndarray, window: tuple[float, float]) -> complex | np.ndarray:
    """int_{t0}^{t1} e^{-i omega t} dt in closed form, elementwise over ``omega``.

    The difference form (e^{-i omega t1} - e^{-i omega t0}) / (-i omega)
    loses the imaginary part to cancellation at small x = omega (t1 - t0).
    Measured against 50-digit arithmetic, its worst relative error in a
    component is about 1.3e-16 / x^2 on the window (0, 1) and 5e-16 / x^2
    on (-0.7, 2.3): 1.3e-8 and 4e-8 at x = 1e-4, 1.4e-14 and 4e-14 at
    x = 0.1.  Below |x| = NARROW_PHASE the equal form
    2 sin(omega (t1 - t0)/2) / omega * e^{-i omega (t0 + t1)/2} is used,
    which stays within 5e-16 on both windows; at |x| = 0.1 the two forms
    agree to 1e-14 and 2e-14.  The threshold sits below every |x| that a
    fixed-seed run reaches: random pulses are drawn at |x| >= 0.5, and
    ``verify-all`` and ``pulse-bound`` reach no |x| below 0.47, so they keep
    the bits of the difference form.  ``np.where`` picks the form per
    element, so the value is the same bits whatever the array shape.
    """
    t0, t1 = window
    omega = np.asarray(omega, dtype=float)
    rate = -1j * omega
    wide = (np.exp(rate * t1) - np.exp(rate * t0)) / rate
    half = 0.5 * omega
    amplitude = np.sin(half * (t1 - t0)) / half
    mid = half * (t0 + t1)
    narrow = np.empty_like(wide)
    narrow.real = amplitude * np.cos(mid)
    narrow.imag = -amplitude * np.sin(mid)
    return np.where(np.abs(omega * (t1 - t0)) < NARROW_PHASE, narrow, wide)[()]


def _coefficients(omegas: Sequence[float] | np.ndarray, weights: Sequence[complex] | np.ndarray,
                  window: tuple[float, float]) -> np.ndarray:
    """c_k = w_k * int e^{-i omega_k t} dt elementwise; the error is sum_k |c_k|^2.

    ``omegas`` and ``weights`` may carry any leading shape, e.g. one row of
    modes per search restart.
    """
    return _weighted(weights, mode_window_integral(np.asarray(omegas, dtype=float), window))


def _weighted(weights: Sequence[complex] | np.ndarray, integral: np.ndarray) -> np.ndarray:
    """weights * integral elementwise, the complex product written out in real arithmetic.

    NumPy's vectorised complex multiply may fuse the multiply-adds and round
    differently from a scalar product: written out, c_k is the same bits
    whatever the shape of the array that holds it.
    """
    w = np.asarray(weights, dtype=complex)
    out = np.empty_like(integral)
    out.real = w.real * integral.real - w.imag * integral.imag
    out.imag = w.real * integral.imag + w.imag * integral.real
    return out


def _checked(omegas: Sequence[float], values: Sequence[complex],
             window: tuple[float, float]) -> tuple[float, float]:
    """``window`` as floats, after ValueError on any input no pulse can have.

    The mode frequencies must be finite and positive, the couplings,
    weights or amplitudes in ``values`` finite, and the window finite with
    t_end > t_start.
    """
    if not (all(map(math.isfinite, omegas)) and all(map(cmath.isfinite, values))):
        raise ValueError("mode frequencies, couplings, weights and amplitudes must be finite")
    if any(w <= 0 for w in omegas):
        raise ValueError("all mode frequencies must be positive")
    t0, t1 = (float(t) for t in window)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError("window bounds must be finite")
    if not t1 > t0:
        raise ValueError("window must satisfy t_end > t_start")
    return t0, t1


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
        window = _checked([w for w, _, _ in modes], [z for _, g, al in modes for z in (g, al)],
                          self.window)
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


def _phase(coeffs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Accumulated phase 2 Re sum_k c_k alpha_k over the last (mode) axis."""
    return 2.0 * np.sum(coeffs * alphas, axis=-1).real


def _error(coeffs: np.ndarray) -> np.ndarray:
    """Fluctuation error sum_k |c_k|^2 over the last (mode) axis."""
    return np.sum(np.abs(coeffs) ** 2, axis=-1)


def _energy_terms(omegas: np.ndarray, alphas: np.ndarray, epsilon: float, p_power: int,
                  hbar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(photon number, <omega>, energy, bound) over the last (mode) axis.

    <omega> is the photon-number-weighted mean frequency and the bound
    (pi^2/4) p^2 hbar <omega> / eps; both are nan where there are no photons.
    """
    weights = np.abs(alphas) ** 2
    n_photon = np.sum(weights, axis=-1)
    weighted = np.sum(omegas * weights, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_bar = weighted / n_photon
    bound = (PI * PI / 4.0) * float(p_power) ** 2 * hbar * omega_bar / epsilon
    return n_photon, omega_bar, hbar * weighted, bound


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
    n_photon, omega_bar, energy, bound = (
        float(x) for x in _energy_terms(omegas, alphas, epsilon, p_power, hbar))
    if n_photon == 0.0:
        raise ValueError("mean frequency undefined for a pulse with no photons")
    phase = float(_phase(coeffs, alphas))
    error = float(_error(coeffs))
    p_sq = float(p_power) ** 2
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


REDUCE_RADIANS_PER_PANEL = 32.0  # most radians of the fastest mode on a first-level panel
REDUCE_MAX_PANELS = 2 ** 16      # panels (2^20 envelope samples) before the reduction gives up


def nonlinear_reduce(p_power: int, envelope: Callable[[float], float],
                     window: tuple[float, float],
                     modes: Sequence[tuple[float, complex]]) -> NonlinearReduction:
    """Reduce a power-p coupling with mean field E(t) to linear coefficients.

    p = 1 short-circuits to the exact window integrals (E^0 == 1), making
    the reduction identical to the linear path.  For p > 1 the coefficient
    integrals run on Gauss-Legendre panels (:func:`converged_panels`).  The
    first level has the least power-of-two panel count that puts at most
    ``REDUCE_RADIANS_PER_PANEL`` radians of the fastest mode on a panel;
    the count doubles until two levels agree to ``PANEL_RTOL`` times
    |w_k| int |E|^{p-1} in every coefficient.  Levels that still disagree
    at ``REDUCE_MAX_PANELS`` panels raise :class:`IntegrationError`, and so
    does, before any envelope sample, a mode whose first doubling would
    pass that cap.
    """
    if p_power < 1:
        raise ValueError("p_power must be >= 1")
    modes = [(float(w), complex(wt)) for w, wt in modes]
    omegas, weights = [w for w, _ in modes], [wt for _, wt in modes]
    t0, t1 = _checked(omegas, weights, window)

    if p_power == 1:
        coeffs = _coefficients(omegas, weights, (t0, t1))
        return NonlinearReduction(1, tuple(zip(omegas, coeffs)), (t0, t1))

    radians = max(omegas, default=0.0) * (t1 - t0)
    if radians > REDUCE_RADIANS_PER_PANEL * REDUCE_MAX_PANELS / 2:
        raise IntegrationError(
            f"{REDUCE_MAX_PANELS * PANEL_NODES} samples cannot resolve the "
            f"{radians:.3g} rad a mode turns through on the window",
            {"radians": radians, "max_panels": REDUCE_MAX_PANELS})
    panels = 1
    while radians > REDUCE_RADIANS_PER_PANEL * panels:
        panels *= 2
    _, w, _ = _panel_rule()

    def level(panels):
        nodes, h = panel_nodes(t0, t1, panels)
        nodes = nodes.ravel()
        power = np.array([float(envelope(t)) for t in nodes.tolist()]) ** (p_power - 1)
        weighted = h * np.tile(w, panels) * power
        integrals = np.array([np.exp(-1j * omega * nodes) @ weighted for omega in omegas],
                             dtype=complex)
        return _weighted(weights, integrals), np.abs(weights) * np.sum(np.abs(weighted))

    def misfit(coarse, fine):
        error = np.abs(fine[0] - coarse[0])
        if not np.all(error <= PANEL_RTOL * fine[1]):
            return {"window": (t0, t1), "error": float(np.max(error)), "rtol": PANEL_RTOL,
                    "scale": float(np.max(fine[1]))}

    coeffs, _ = converged_panels(level, misfit, panels=panels, max_panels=REDUCE_MAX_PANELS,
                                 what="power-p coefficient integral")
    return NonlinearReduction(p_power, tuple(zip(omegas, (complex(c) for c in coeffs))), (t0, t1))


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


def _scaled(z: np.ndarray, factor) -> np.ndarray:
    """z times one real factor per row, written out in real arithmetic (see _weighted)."""
    factor = np.asarray(factor)[..., None]
    out = np.empty_like(z)
    out.real = z.real * factor
    out.imag = z.imag * factor
    return out


def _project(omegas: np.ndarray, gs: np.ndarray, error, u, alphas: np.ndarray,
             epsilon: float, window: tuple[float, float]):
    """Rescale each row's couplings onto error eps*u, then its amplitudes onto phase pi.

    ``error`` is the row's error before the rescale and ``u`` its draw in
    [0.2, 1).  Returns (couplings, amplitudes, phase before the amplitude
    rescale); a row with zero error or |phase| < 1e-9 is degenerate, and
    its division by zero is left to the caller to flag.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gs = _scaled(gs, np.sqrt(epsilon * u / error))
        phase = _phase(_coefficients(omegas, gs, window), alphas)
        return gs, _scaled(alphas, PI / phase), phase


def _log_omega_range(window: tuple[float, float]) -> tuple[float, float]:
    """ln of the drawn frequency range [0.5, 20] / (t1 - t0)."""
    span = window[1] - window[0]
    return math.log(0.5 / span), math.log(20.0 / span)


def random_feasible_pulse(rng: np.random.Generator, epsilon: float, n_modes: int,
                          window: tuple[float, float] = (0.0, 1.0)) -> PulseSpec:
    """Random pulse projected onto phase = pi with error <= eps.

    Draws, in this order: log-uniform frequencies, the real and imaginary
    parts of the couplings, the error fraction u in [0.2, 1) and the real
    and imaginary parts of the amplitudes (see :func:`_project`).  Raises
    :class:`SamplingError` when 64 draws in a row are degenerate (zero
    error or zero phase).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    lo, hi = _log_omega_range(window)
    for _ in range(64):
        omegas = np.exp(rng.uniform(lo, hi, n_modes))
        gs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        error = float(_error(_coefficients(omegas, gs, window)))
        if error == 0.0:
            continue
        u = rng.uniform(0.2, 1.0)
        alphas = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
        gs, alphas, phase = _project(omegas, gs, error, u, alphas, epsilon, window)
        if abs(phase) < 1e-9:
            continue
        return PulseSpec(tuple(zip(omegas, gs, alphas)), window)
    raise SamplingError("failed to draw a feasible pulse in 64 tries (degenerate random stream)")


SCREEN_MODES = 3  # random_feasible_ratios draws 1..SCREEN_MODES modes per pulse
SCREEN_WINDOW = (0.0, 1.0)


def _draws(rng: np.random.Generator, lo: float, hi: float, count: int
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mode counts, error fractions u and per-mode draws of ``count`` pulses.

    Each pulse draws its mode count n, then in :func:`random_feasible_pulse`
    order.  ``modes[:, j, :n]`` holds pulse j's ln omega, Re g, Im g,
    Re alpha and Im alpha; the entries past n are unset.
    """
    ns = np.empty(count, dtype=int)
    us = np.empty(count)
    modes = np.empty((5, count, SCREEN_MODES))
    for j in range(count):
        n = ns[j] = rng.integers(1, SCREEN_MODES + 1)
        modes[0, j, :n] = rng.uniform(lo, hi, n)
        modes[1, j, :n] = rng.normal(size=n)
        modes[2, j, :n] = rng.normal(size=n)
        us[j] = rng.uniform(0.2, 1.0)
        modes[3, j, :n] = rng.normal(size=n)
        modes[4, j, :n] = rng.normal(size=n)
    return ns, us, modes


def _screen(ns: np.ndarray, us: np.ndarray, modes: np.ndarray,
            epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """(energy/bound ratio, degenerate flag) of each drawn pulse (see :func:`_draws`).

    The pulses are grouped by mode count and each group is projected and
    scored in one array pass; a degenerate pulse's ratio is meaningless.
    """
    ratios = np.empty(ns.size)
    degenerate = np.empty(ns.size, dtype=bool)
    for n in range(1, SCREEN_MODES + 1):
        rows = np.flatnonzero(ns == n)
        log_om, g_re, g_im, a_re, a_im = modes[:, rows, :n]
        om, gs, alphas = np.exp(log_om), g_re + 1j * g_im, a_re + 1j * a_im
        error = _error(_coefficients(om, gs, SCREEN_WINDOW))
        _, alphas, phase = _project(om, gs, error, us[rows], alphas, epsilon, SCREEN_WINDOW)
        _, _, energy, bound = _energy_terms(om, alphas, epsilon, 1, 1.0)
        ratios[rows] = energy / bound
        degenerate[rows] = (error == 0.0) | (np.abs(phase) < 1e-9)
    return ratios, degenerate


def random_feasible_ratios(rng: np.random.Generator, epsilon: float, count: int) -> np.ndarray:
    """Energy/bound ratios of ``count`` random feasible pulses, screened as arrays.

    Pulse j has ``rng.integers(1, SCREEN_MODES + 1)`` modes on
    ``SCREEN_WINDOW`` and is the pulse :func:`random_feasible_pulse` would
    draw next: the ratios are the same bits as ``energy_bound_check(
    random_feasible_pulse(rng, epsilon, n), epsilon).ratio`` drawn one pulse
    at a time, and ``rng`` ends in the same state.  A Python loop makes the
    draws; the projection and the ratio then run as one array pass per mode
    count, with no :class:`PulseSpec` or report per pulse.

    A degenerate draw (zero error or zero phase) makes
    :func:`random_feasible_pulse` redraw, which shifts the stream of every
    later pulse.  So when pulse j is degenerate, the generator goes back to
    its state at entry, the draws of pulses 0..j-1 are replayed, pulse j is
    drawn by :func:`random_feasible_pulse` itself, and the array pass
    resumes on the pulses after it.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if count < 0:
        raise ValueError("count must be >= 0")
    lo, hi = _log_omega_range(SCREEN_WINDOW)
    ratios = np.empty(count)
    done = 0
    while done < count:
        entry = rng.bit_generator.state
        screened, degenerate = _screen(*_draws(rng, lo, hi, count - done), epsilon)
        bad = np.flatnonzero(degenerate)
        if bad.size == 0:
            ratios[done:] = screened
            break
        j = int(bad[0])
        ratios[done:done + j] = screened[:j]
        rng.bit_generator.state = entry
        _draws(rng, lo, hi, j)
        n_modes = int(rng.integers(1, SCREEN_MODES + 1))
        pulse = random_feasible_pulse(rng, epsilon, n_modes, SCREEN_WINDOW)
        ratios[done + j] = energy_bound_check(pulse, epsilon).ratio
        done += j + 1
    return ratios


def adversarial_pulse_search(epsilon: float, n_modes: int, budget: int, seed: int,
                             window: tuple[float, float] = (0.0, 1.0),
                             hbar: float = 1.0) -> BoundReport:
    """Randomised local search minimising energy/bound at phase pi, error <= eps.

    The budget is split into restarts of at most 120 evaluations: one
    random feasible pulse (:func:`random_feasible_pulse`) and then up to 119
    perturbations of one of frequencies, couplings or amplitudes.  A
    perturbation that lowers energy/bound is kept and widens the step,
    otherwise the step narrows.  Feasibility is kept at every iterate by
    projection: couplings are rescaled onto error <= eps and amplitudes
    rescaled (by a real factor) onto phase = pi.

    All restarts advance in lockstep on (restarts x modes) arrays of
    frequencies, couplings and amplitudes, with one step size and one
    energy/bound ratio per restart.  Each restart draws from its own
    ``SeedSequence([seed, restart])`` generator, so its iterates do not
    depend on how many restarts run beside it.  Kept moves strictly lower a
    restart's ratio, so its last iterate is its best; the winner is the
    first restart with the least ratio, and only it becomes a
    :class:`PulseSpec` and a report.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    evals_per_restart = 120
    n_restarts = math.ceil(budget / evals_per_restart)
    # perturbations per restart; only the last restart may get fewer
    moves = np.minimum(evals_per_restart - 1,
                       budget - 1 - evals_per_restart * np.arange(n_restarts))
    rngs = [np.random.default_rng(np.random.SeedSequence([seed, restart]))
            for restart in range(n_restarts)]
    starts = [random_feasible_pulse(rng, epsilon, n_modes, window) for rng in rngs]
    omegas = np.array([pulse.omegas for pulse in starts])
    gs = np.array([pulse.couplings for pulse in starts])
    alphas = np.array([pulse.alphas for pulse in starts])
    _, _, energy, bound = _energy_terms(omegas, alphas, epsilon, 1, hbar)
    ratio = energy / bound
    step = np.full(n_restarts, 0.5)
    which = np.empty(n_restarts, dtype=int)
    z_re = np.zeros((n_restarts, n_modes))
    z_im = np.zeros((n_restarts, n_modes))

    for k in range(int(moves[0])):
        live = int(np.count_nonzero(moves > k))  # the restarts still moving: a prefix
        for r in range(live):
            which[r] = rngs[r].integers(0, 3)
            z_re[r] = rngs[r].normal(size=n_modes)
            if which[r]:
                z_im[r] = rngs[r].normal(size=n_modes)
        om, g, al = omegas[:live].copy(), gs[:live].copy(), alphas[:live].copy()
        s, move, zr = step[:live, None], which[:live], z_re[:live]
        z = zr + 1j * z_im[:live]
        m = move == 0
        om[m] = om[m] * np.exp(s[m] * zr[m] * 0.3)
        m = move == 1
        g[m] = g[m] * (1.0 + s[m] * z[m] * 0.3)
        m = move == 2
        al[m] = al[m] + s[m] * z[m] * np.mean(np.abs(al[m]), axis=-1, keepdims=True)

        # rejected rows are masked out by `ok`; their inf/nan stays there
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = np.all(om > 0, axis=-1)
            integral = mode_window_integral(om, window)
            coeffs = _weighted(g, integral)
            error = _error(coeffs)
            ok &= error != 0.0
            over = ok & (error > epsilon)
            g[over] = g[over] * np.sqrt(epsilon / error[over])[:, None] * (1.0 - 1e-15)
            coeffs[over] = _weighted(g[over], integral[over])
            phase = _phase(coeffs, al)
            ok &= ~(np.abs(phase) < 1e-9)
            al = al * (PI / phase)[:, None]
            _, _, energy, bound = _energy_terms(om, al, epsilon, 1, hbar)
            candidate = energy / bound

        kept = ok & (candidate < ratio[:live])
        step[:live] = np.where(kept, np.minimum(0.5, step[:live] * 1.3),
                               np.where(ok, np.maximum(1e-4, step[:live] * 0.93), step[:live]))
        ratio[:live][kept] = candidate[kept]
        omegas[:live][kept] = om[kept]
        gs[:live][kept] = g[kept]
        alphas[:live][kept] = al[kept]

    best = int(np.argmin(ratio))
    winner = PulseSpec(tuple(zip(omegas[best], gs[best], alphas[best])), window)
    return energy_bound_check(winner, epsilon, hbar)

"""Multimode field-pulse energy bounds.

A pulse is a finite list of modes (omega_k, g_k, alpha_k) driving the gate
over a time window.  The accumulated phase and the quantum-fluctuation
error are window integrals with closed forms per mode; chaining them with
Cauchy-Schwarz yields the photon-number and energy lower bounds

    sum |alpha_k|^2 >= pi^2 / (4 eps),
    E >= (pi^2/4) hbar <omega> / eps,

which a nonlinear (power-p) coupling tightens by p^2 and which squeezing
relaxes only as far as E >= 2 hbar omega / sqrt(eps).  Random pulses on
one ``WINDOW`` hammer on the linear bound through two entry points: the
screen :func:`random_feasible_ratios` and :func:`adversarial_pulse_search`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrationError, SamplingError
from .numerics import PANEL_NODES, PANEL_RTOL, _panel_rule, converged_panels, panel_nodes
from .report import PHASE_CALIBRATION_TOL, BoundReport, checked_epsilon, checked_positive

PI = math.pi
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
    element, so the value is the same bits whatever the array shape; the
    sin form is only built when some element needs it.
    """
    t0, t1 = window
    omega = np.asarray(omega, dtype=float)
    rate = -1j * omega
    wide = (np.exp(rate * t1) - np.exp(rate * t0)) / rate
    use_narrow = np.abs(omega * (t1 - t0)) < NARROW_PHASE
    if not use_narrow.any():
        return wide[()]
    half = 0.5 * omega
    amplitude = np.sin(half * (t1 - t0)) / half
    mid = half * (t0 + t1)
    narrow = np.empty_like(wide)
    narrow.real = amplitude * np.cos(mid)
    narrow.imag = -amplitude * np.sin(mid)
    return np.where(use_narrow, narrow, wide)[()]


def _weighted(weights: Sequence[complex] | np.ndarray, integral: np.ndarray) -> np.ndarray:
    """weights * integral elementwise, the complex product written out in real arithmetic.

    With ``integral`` the window integrals of the mode frequencies this is
    c_k = w_k int e^{-i omega_k t} dt, whose error is sum_k |c_k|^2; the
    arrays may carry any leading shape, e.g. one row of modes per search
    restart.  NumPy's vectorised complex multiply may fuse the multiply-adds
    and round differently from a scalar product: written out, c_k is the
    same bits whatever the shape of the array that holds it.
    """
    w = np.asarray(weights, dtype=complex)
    out = np.empty_like(integral)
    out.real = w.real * integral.real - w.imag * integral.imag
    out.imag = w.real * integral.imag + w.imag * integral.real
    return out


@dataclass(frozen=True)
class PulseSpec:
    """Modes (omega, g, alpha) with a common time window, coupled at power p.

    ``omegas``, ``couplings``, ``alphas`` and the effective linear
    coefficients ``coefficients`` are read-only arrays set once at
    construction.  At p = 1 the coefficients are c_k = g_k int e^{-i omega_k
    t} dt (:func:`_weighted`) and ``envelope`` is not read, since E^0 = 1; at
    p > 1 a power-p coupling with mean field E(t) = ``envelope`` reduces to
    c_k = g_k int E(t)^{p-1} e^{-i omega_k t} dt (:func:`_power_coefficients`).
    The phase condition reads sum c_k alpha_k + c.c. = pi and the error
    condition sum |c_k|^2 < eps/p^2.  Construction raises ValueError unless
    every coupling and amplitude is finite, every frequency finite and
    positive, and the window finite with t_end > t_start.
    """

    modes: tuple[tuple[float, complex, complex], ...]
    window: tuple[float, float]
    p_power: int = 1
    envelope: Callable[[float], float] | None = None
    omegas: np.ndarray = field(init=False, compare=False, repr=False)
    couplings: np.ndarray = field(init=False, compare=False, repr=False)
    alphas: np.ndarray = field(init=False, compare=False, repr=False)
    coefficients: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.p_power < 1:
            raise ValueError("p_power must be >= 1")
        if self.p_power > 1 and self.envelope is None:
            raise ValueError("a power-p coupling with p > 1 needs an envelope")
        modes = tuple((float(w), complex(g), complex(al)) for w, g, al in self.modes)
        if not modes:
            raise ValueError("pulse needs at least one mode")
        if not all(cmath.isfinite(z) for _, g, al in modes for z in (g, al)):
            raise ValueError("couplings, weights and amplitudes must be finite")
        checked_positive(**{f"omegas[{k}]": w for k, (w, _, _) in enumerate(modes)})
        t0, t1 = window = tuple(float(t) for t in self.window)
        if not (math.isfinite(t0) and math.isfinite(t1)):
            raise ValueError("window bounds must be finite")
        if not t1 > t0:
            raise ValueError("window must satisfy t_end > t_start")
        omegas, couplings, alphas = (np.array(column) for column in zip(*modes))
        if self.p_power == 1:
            coefficients = _weighted(couplings, mode_window_integral(omegas, window))
        else:
            coefficients = _power_coefficients(self.p_power, self.envelope, window,
                                               omegas.tolist(), couplings.tolist())
        arrays = {"omegas": omegas, "couplings": couplings, "alphas": alphas,
                  "coefficients": coefficients}
        for arr in arrays.values():
            arr.flags.writeable = False
        for name, value in {"modes": modes, "window": window, **arrays}.items():
            object.__setattr__(self, name, value)


REDUCE_RADIANS_PER_PANEL = 32.0  # most radians of the fastest mode on a first-level panel
REDUCE_MAX_PANELS = 2 ** 16      # panels (2^20 envelope samples) before the reduction gives up


def _power_coefficients(p_power: int, envelope: Callable[[float], float],
                        window: tuple[float, float], omegas: list[float],
                        weights: list[complex]) -> np.ndarray:
    """c_k = w_k int E(t)^{p-1} e^{-i omega_k t} dt of a power-p coupling, p >= 1.

    The integrals run on Gauss-Legendre panels (:func:`converged_panels`).
    The first level has the least power-of-two panel count that puts at
    most ``REDUCE_RADIANS_PER_PANEL`` radians of the fastest mode on a
    panel; the count doubles until two levels agree to ``PANEL_RTOL`` times
    |w_k| int |E|^{p-1} in every coefficient.  Levels that still disagree
    at ``REDUCE_MAX_PANELS`` panels raise :class:`IntegrationError`, and so
    does, before any envelope sample, a mode whose first doubling would
    pass that cap.  An :class:`~gatebound.envelopes.Envelope` splits the
    window at its ``breakpoints``, and each segment runs its own doubling;
    a bare callable declares none.
    """
    t0, t1 = window
    edges = [t0, *sorted(t for t in getattr(envelope, "breakpoints", ()) if t0 < t < t1), t1]
    fastest = max(omegas, default=0.0)
    radians = fastest * max(hi - lo for lo, hi in zip(edges, edges[1:]))
    if radians > REDUCE_RADIANS_PER_PANEL * REDUCE_MAX_PANELS / 2:
        raise IntegrationError(
            f"{REDUCE_MAX_PANELS * PANEL_NODES} samples cannot resolve the "
            f"{radians:.3g} rad a mode turns through on the window",
            {"radians": radians, "max_panels": REDUCE_MAX_PANELS})
    _, w, _ = _panel_rule()

    def segment(lo, hi):
        def level(panels):
            nodes, h = panel_nodes(lo, hi, panels)
            nodes = nodes.ravel()
            power = np.array([float(envelope(t)) for t in nodes.tolist()]) ** (p_power - 1)
            weighted = h * np.tile(w, panels) * power
            integrals = np.array([np.exp(-1j * omega * nodes) @ weighted for omega in omegas],
                                 dtype=complex)
            return _weighted(weights, integrals), np.abs(weights) * np.sum(np.abs(weighted))

        def misfit(coarse, fine):
            error = np.abs(fine[0] - coarse[0])
            if not np.all(error <= PANEL_RTOL * fine[1]):
                return {"window": (lo, hi), "error": float(np.max(error)), "rtol": PANEL_RTOL,
                        "scale": float(np.max(fine[1]))}

        panels = 1
        while fastest * (hi - lo) > REDUCE_RADIANS_PER_PANEL * panels:
            panels *= 2
        return converged_panels(level, misfit, panels=panels, max_panels=REDUCE_MAX_PANELS,
                                what="power-p coefficient integral")[0]

    return np.sum([segment(lo, hi) for lo, hi in zip(edges, edges[1:])], axis=0)


def min_photon_number(epsilon: float) -> float:
    """pi^2/(4 eps): least total photon number compatible with phase pi, error < eps."""
    checked_epsilon(epsilon)
    return PI * PI / (4.0 * epsilon)


def _phase(coeffs: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Accumulated phase 2 Re sum_k c_k alpha_k over the last (mode) axis."""
    return 2.0 * (coeffs * alphas).sum(axis=-1).real


def _error(coeffs: np.ndarray) -> np.ndarray:
    """Fluctuation error sum_k |c_k|^2 over the last (mode) axis."""
    return (np.abs(coeffs) ** 2).sum(axis=-1)


def _energy_terms(omegas: np.ndarray, alphas: np.ndarray, epsilon: float, p_power: int,
                  hbar: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(photon number, <omega>, energy, bound) over the last (mode) axis.

    <omega> is the photon-number-weighted mean frequency and the bound
    (pi^2/4) p^2 hbar <omega> / eps; the caller guards rows with no photons.
    """
    weights = np.abs(alphas) ** 2
    n_photon = weights.sum(axis=-1)
    weighted = (omegas * weights).sum(axis=-1)
    omega_bar = weighted / n_photon
    bound = (PI * PI / 4.0) * float(p_power) ** 2 * hbar * omega_bar / epsilon
    return n_photon, omega_bar, hbar * weighted, bound


def energy_bound_check(pulse: PulseSpec, epsilon: float, hbar: float = 1.0) -> BoundReport:
    """Compare the field energy against (pi^2/4) p^2 hbar <omega> / eps.

    The phase is 2 Re sum c_k alpha_k and the error sum |c_k|^2; <omega> is
    the photon-number-weighted mean frequency, undefined without photons.
    A photon number, mean frequency, energy or bound that overflows (or
    underflows to 0), and then a phase or error that overflows, raises
    ValueError naming it.  The bound only claims anything when the pulse is
    phase-calibrated (``meta["off_calibration"]``) and its error is within
    ``error_budget`` = eps/p^2; both are flagged rather than raised.
    """
    checked_epsilon(epsilon)
    checked_positive(hbar=hbar)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        n_photon, omega_bar, energy, bound = (float(x) for x in _energy_terms(
            pulse.omegas, pulse.alphas, epsilon, pulse.p_power, hbar))
        phase = float(_phase(pulse.coefficients, pulse.alphas))
        error = float(_error(pulse.coefficients))
    if n_photon == 0.0:
        raise ValueError("mean frequency undefined for a pulse with no photons")
    checked_positive(photon_number=n_photon, mean_omega=omega_bar, energy=energy, bound=bound)
    for name, value in (("phase", phase), ("error", error)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    return BoundReport(
        energy=energy,
        bound=bound,
        epsilon=epsilon,
        error_budget=epsilon / float(pulse.p_power) ** 2,
        error=error,
        phase=phase,
        photon_number=n_photon,
        mean_omega=omega_bar,
        meta={"p_power": pulse.p_power, "off_calibration": abs(phase - PI) > PHASE_CALIBRATION_TOL},
    )


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def squeezed_energy(r: float, epsilon: float, omega: float, hbar: float = 1.0) -> float:
    """hbar omega (1/(e^{2r} eps) + e^{2r}).

    Squeezing one quadrature by e^{-2r} relaxes the error condition by
    e^{2r}, but the e^{2r} quanta carried by the squeezing itself are part
    of the field energy; this is the resulting requirement.
    """
    checked_epsilon(epsilon)
    checked_positive(omega=omega, hbar=hbar)
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    s = math.exp(2.0 * r)
    return hbar * omega * (1.0 / (s * epsilon) + s)


def optimize_squeezing(epsilon: float, omega: float = 1.0,
                       hbar: float = 1.0) -> tuple[float, float]:
    """(r*, E_min) minimising the squeezed-field energy requirement.

    By AM-GM the two terms of :func:`squeezed_energy` balance at
    e^{2r*} = 1/sqrt(eps), so r* = -ln(eps)/4 and E_min = 2 hbar omega / sqrt(eps);
    r* < 0 for eps > 1, where the optimum widens the quadrature instead.
    """
    checked_epsilon(epsilon)
    checked_positive(omega=omega, hbar=hbar)
    e_min = 2.0 * hbar * omega / math.sqrt(epsilon)
    checked_positive(**{"hbar omega": hbar * omega, "E_min = 2 hbar omega / sqrt(eps)": e_min})
    return -math.log(epsilon) / 4.0, e_min


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
    checked_positive(duration=duration, hbar=hbar)
    checked_epsilon(epsilon)
    checked_positive(**{"eps T": epsilon * duration})
    lw = LinewidthBound(
        omega_min=1.0 / (duration * math.sqrt(epsilon)),
        bound=2.0 * hbar / (epsilon * duration),
        bound_quoted=hbar / (epsilon * duration),
    )
    checked_positive(**{"omega_min = 1 / (T sqrt(eps))": lw.omega_min,
                        "the bound 2 hbar / (eps T)": lw.bound,
                        "the quoted bound hbar / (eps T)": lw.bound_quoted})
    return lw


# ---------------------------------------------------------------------------
# constructions and random pulses
# ---------------------------------------------------------------------------

WINDOW = (0.0, 1.0)  # the window of the equality pulse and of every random pulse


def single_mode_equality_pulse(epsilon: float, omega: float = 1.0) -> PulseSpec:
    """Single-mode pulse on ``WINDOW`` saturating the energy bound (ratio = 1).

    |g| is tuned so the error hits eps exactly and alpha is phase-matched
    with |alpha| = pi/(2 sqrt(eps)).
    """
    checked_epsilon(epsilon)
    integral = mode_window_integral(omega, WINDOW)
    if abs(integral) < 1e-12:
        raise ValueError("window integral vanishes; choose a different omega")
    g = math.sqrt(epsilon) / abs(integral)
    c = g * integral
    alpha = (np.conj(c) / abs(c)) * PI / (2.0 * math.sqrt(epsilon))
    return PulseSpec(((omega, complex(g), complex(alpha)),), WINDOW)


def _draw(rng: np.random.Generator, rows: int, n_modes: int) -> tuple:
    """Draws of ``rows`` random pulses: (ln omega, couplings, u, amplitudes).

    Four generator calls, in stream order: ``uniform`` for the (rows x
    n_modes) ln omega, so omega is log-uniform on [0.5, 20]; ``normal`` of
    (rows x 2 n_modes), Re g | Im g; ``uniform`` on [0.2, 1) for the error
    fraction u of each row; ``normal`` of (rows x 2 n_modes), Re alpha |
    Im alpha.  One ``normal`` call of 2n values gives the values that two
    calls of n give, so at rows = 1 this is the one-pulse stream ln omega,
    Re g, Im g, u, Re alpha, Im alpha.  The draws are projected by
    :func:`_feasible`.
    """
    log_omegas = rng.uniform(math.log(0.5), math.log(20.0), (rows, n_modes))
    g = rng.normal(size=(rows, 2 * n_modes))
    u = rng.uniform(0.2, 1.0, rows)
    a = rng.normal(size=(rows, 2 * n_modes))
    return (log_omegas, g[:, :n_modes] + 1j * g[:, n_modes:], u,
            a[:, :n_modes] + 1j * a[:, n_modes:])


def _feasible(log_omegas, gs, u, alphas, epsilon: float
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(omegas, couplings, amplitudes, degenerate) of drawn pulses (see :func:`_draw`).

    The draws are a (rows x modes) stack of pulses on ``WINDOW`` with one u
    per row.  Each row's couplings are rescaled onto error eps*u, then its
    amplitudes onto phase pi, each by a real factor, whose zero imaginary
    part makes the complex product round as the real one; one window
    integral per mode serves both.  A row with zero error or |phase| < 1e-9
    before the amplitude rescale is flagged degenerate; its division by
    zero is left in the arrays.
    """
    omegas = np.exp(log_omegas)
    integral = mode_window_integral(omegas, WINDOW)
    error = _error(_weighted(gs, integral))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        gs = gs * np.sqrt(epsilon * u / error)[:, None]
        phase = _phase(_weighted(gs, integral), alphas)
        alphas = alphas * (PI / phase)[:, None]
    return omegas, gs, alphas, (error == 0.0) | (np.abs(phase) < 1e-9)


SCREEN_MODES = 3  # random_feasible_ratios draws 1..SCREEN_MODES modes per pulse


def random_feasible_ratios(rng: np.random.Generator, epsilon: float, count: int) -> np.ndarray:
    """Energy/bound ratios of ``count`` random feasible pulses, screened as arrays.

    Five generator calls draw the whole screen: ``integers(1, SCREEN_MODES
    + 1, size=count)`` gives pulse j its mode count n_j, and one
    :func:`_draw` of (count x SCREEN_MODES) its modes.  The couplings and
    amplitudes of row j's modes past n_j are zeroed; such a mode adds exact
    zeros to the error, the phase, the photon number and the <omega>
    weights, so ratio j is the same bits as ``energy_bound_check(
    PulseSpec(first n_j modes of row j, WINDOW), epsilon).ratio``.  One
    projection and one ratio pass run over all rows, with no
    :class:`PulseSpec` or report per pulse.  A degenerate row (zero error or
    zero phase) raises :class:`SamplingError` naming the first such pulse.
    """
    checked_epsilon(epsilon)
    if count < 0:
        raise ValueError("count must be >= 0")
    ns = rng.integers(1, SCREEN_MODES + 1, size=count)
    log_omegas, gs, u, alphas = _draw(rng, count, SCREEN_MODES)
    unused = np.arange(SCREEN_MODES) >= ns[:, None]
    gs[unused] = 0.0
    alphas[unused] = 0.0
    omegas, _, alphas, degenerate = _feasible(log_omegas, gs, u, alphas, epsilon)
    if degenerate.any():
        raise SamplingError(f"degenerate random draw at pulse {np.argmax(degenerate)}: "
                            "no feasible pulse (zero error or phase)")
    _, _, energy, bound = _energy_terms(omegas, alphas, epsilon, 1, 1.0)
    return energy / bound


def adversarial_pulse_search(epsilon: float, n_modes: int, budget: int, seed: int) -> PulseSpec:
    """Randomised local search minimising energy/bound at phase pi, error <= eps.

    The budget is split into restarts of at most 120 evaluations: one
    random feasible pulse on ``WINDOW`` (one :func:`_draw` row projected by
    :func:`_feasible`; at budget 1 that pulse is the result) and then up to
    119 perturbations of one of frequencies, couplings or amplitudes.  A
    perturbation that lowers energy/bound is kept and widens the step,
    otherwise the step narrows.  Feasibility is kept at every iterate by
    projection: couplings are rescaled onto error <= eps and amplitudes
    rescaled (by a real factor) onto phase = pi.

    All restarts advance in lockstep on (restarts x modes) arrays of
    frequencies, couplings and amplitudes, with one step size and one
    energy/bound ratio per restart.  Each restart draws from its own
    ``SeedSequence([seed, restart])`` generator, so its iterates do not
    depend on how many restarts run beside it.  After its start a restart
    draws all its moves in two calls, each filling its row of a
    preallocated array: ``integers(0, 3, size=M)`` for the kind of each
    move and ``standard_normal`` of (M x 2 n_modes) for its values, Re z |
    Im z, with M the first restart's move count; a frequency move reads
    Re z only.  A restart with fewer moves (the last) keeps none past its
    own count.  Every row is perturbed and projected, and ``np.where``
    selects the rows the move changes, the rows whose couplings are
    rescaled and the rows kept.  A degenerate start raises
    :class:`SamplingError`.  Kept moves strictly lower a restart's ratio,
    so its last iterate is its best.  The ratios are compared at hbar = 1,
    as in :func:`random_feasible_ratios`; the winner is the first restart
    with the least ratio, and only it becomes a :class:`PulseSpec`, which
    is returned.
    """
    checked_epsilon(epsilon)
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
    draws = (np.concatenate(column) for column in zip(*(_draw(rng, 1, n_modes) for rng in rngs)))
    omegas, gs, alphas, degenerate = _feasible(*draws, epsilon)
    if degenerate.any():
        raise SamplingError(f"degenerate random draw at restart {np.argmax(degenerate)}: "
                            "no feasible pulse (zero error or phase)")
    _, _, energy, bound = _energy_terms(omegas, alphas, epsilon, 1, 1.0)
    ratio = energy / bound
    step = np.full(n_restarts, 0.5)
    # each restart's moves, one row per restart and one column per move: the
    # kind of move, and Re z | Im z
    which = np.empty((n_restarts, moves[0]), dtype=np.int64)
    z = np.empty((n_restarts, moves[0], 2 * n_modes))
    for r, rng in enumerate(rngs):
        which[r] = rng.integers(0, 3, size=moves[0])
        rng.standard_normal(out=z[r])

    # rows a move does not select, and rejected rows, may hold inf/nan that
    # np.where discards
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(int(moves[0])):
            s = step[:, None]
            z_re = z[:, k, :n_modes]
            dz = s * (z_re + 1j * z[:, k, n_modes:])
            om = np.where((which[:, k] == 0)[:, None], omegas * np.exp(s * z_re * 0.3), omegas)
            g = np.where((which[:, k] == 1)[:, None], gs * (1.0 + dz * 0.3), gs)
            scale = np.abs(alphas).sum(axis=-1, keepdims=True) / n_modes
            al = np.where((which[:, k] == 2)[:, None], alphas + dz * scale, alphas)

            ok = (moves > k) & (om > 0).all(axis=-1)
            integral = mode_window_integral(om, WINDOW)
            coeffs = _weighted(g, integral)
            error = _error(coeffs)
            ok &= error != 0.0
            over = ok & (error > epsilon)
            if over.any():
                over = over[:, None]
                g = np.where(over, g * np.sqrt(epsilon / error)[:, None] * (1.0 - 1e-15), g)
                coeffs = np.where(over, _weighted(g, integral), coeffs)
            phase = _phase(coeffs, al)
            ok &= ~(np.abs(phase) < 1e-9)
            al = al * (PI / phase)[:, None]
            _, _, energy, bound = _energy_terms(om, al, epsilon, 1, 1.0)
            candidate = energy / bound

            kept = ok & (candidate < ratio)
            step = np.where(kept, np.minimum(0.5, step * 1.3),
                            np.where(ok, np.maximum(1e-4, step * 0.93), step))
            if kept.any():
                ratio = np.where(kept, candidate, ratio)
                kept = kept[:, None]
                omegas = np.where(kept, om, omegas)
                gs = np.where(kept, g, gs)
                alphas = np.where(kept, al, alphas)

    best = int(np.argmin(ratio))
    return PulseSpec(tuple(zip(omegas[best], gs[best], alphas[best])), WINDOW)

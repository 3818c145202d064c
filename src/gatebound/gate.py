"""Exact and perturbative failure probabilities for the controlled sign flip.

The two-qubit gate itself is never represented: the |11> branch of the gate
evolves the control under H0 + V while the other branches see H0 alone, so
the failure probability reduces to a single control-space amplitude

    inner = <psi0| Texp(-i/hbar int_0^T V_I(t) dt) |psi0>,
    p     = 1 - |1 - inner|^2 / 4,

with V_I the interaction-picture coupling.  For a linear drive
V_I(t) = f(t) a† + conj(f(t)) a this module computes ``inner`` exactly by
propagation, perturbatively from the fluctuation autocorrelation of V_I,
and (on coherent states) in closed form through the displacement
decomposition of the time-ordered exponential.  The always-on
counterexample V = g a†a on |n>, stated in closed form, shows why the
switch-off premise on V is essential: it reaches p = 0 with arbitrarily
little control energy.

Natural units (hbar = 1) throughout.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .envelopes import LinearDrive, envelope_drive
from .errors import CutoffError, NumericalInconsistencyError
from .fock import (
    COHERENT_TAIL,
    ControlState,
    coherent_required_cutoff,
    coherent_state,
    drive_action,
    evolve,
    overlap,
)
from .numerics import MAX_PANELS, PANEL_RTOL, _panel_rule, converged_panels, panel_nodes
from .report import checked_positive

PHASE_TARGET = math.pi  # accumulated conditional phase for a perfect sign flip
EDGE_LEVELS = 10        # top levels whose population the truncation check bounds


def __getattr__(name: str):
    # Not called here: perfbench/tracing.py wraps gate.dblquad and
    # gate.solve_ivp, and its tracer smoke run fails with AttributeError
    # without these names.  They resolve on first access, so importing gate
    # does not load scipy.integrate.
    if name in ("dblquad", "solve_ivp"):
        import scipy.integrate
        return getattr(scipy.integrate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GateScenario:
    """A control state under a linear drive.

    The drive gives the interaction-picture coupling
    V_I(t) = f(t) a† + conj(f(t)) a directly, so the control's own
    Hamiltonian never enters; the gate duration is the drive's window.
    """

    control: ControlState
    drive: LinearDrive

    @property
    def duration(self) -> float:
        return self.drive.duration


@dataclass(frozen=True)
class GateOutcome:
    """Interaction-picture amplitude and derived failure quantities."""

    inner: complex
    failure_probability: float
    phase_residual: float
    switch_residual_start: float
    switch_residual_end: float

    @staticmethod
    def from_inner(inner: complex, phase_integral: float,
                   switch_start: float, switch_end: float) -> "GateOutcome":
        if not cmath.isfinite(inner):  # the clamp below would read NaN as p = 0
            raise NumericalInconsistencyError(f"gate amplitude inner = {inner!r} is not finite")
        p = 1.0 - abs(1.0 - inner) ** 2 / 4.0
        p = min(1.0, max(0.0, p))
        return GateOutcome(
            inner=complex(inner),
            failure_probability=float(p),
            phase_residual=float(abs(phase_integral - PHASE_TARGET)),
            switch_residual_start=float(switch_start),
            switch_residual_end=float(switch_end),
        )


def pi_phase_drive(envelope, alpha: complex) -> LinearDrive:
    """Scale an envelope so a coherent control |alpha> accumulates phase pi.

    The mean coupling on |alpha> is <V_I(t)> = 2 Re(f(t) conj(alpha)); the
    envelope has unit area, so a coefficient pi e^{i arg alpha} / (2 |alpha|)
    makes its time integral exactly pi.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero to accumulate phase")
    coeff = PHASE_TARGET * np.exp(1j * np.angle(alpha)) / (2.0 * abs(alpha))
    return envelope_drive(envelope, coeff)


def coherent_drive_scenario(alpha: complex, drive: LinearDrive) -> GateScenario:
    """Scenario with coherent control; cutoff covers alpha plus the drive excursion."""
    cutoff = coherent_required_cutoff(abs(alpha) + drive_excursion(drive) + 0.5)
    return GateScenario(coherent_state(alpha, cutoff), drive)


# ---------------------------------------------------------------------------
# drive integrals (displacement decomposition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveIntegrals:
    """F = int f dt, the displacement beta = -i F, and the commutator phase."""

    integral: complex
    displacement: complex
    magnus_phase: float


def _panel_sums(drive: LinearDrive, a: float, b: float, panels: int
                ) -> tuple[complex, float, float, np.ndarray]:
    """(int f, int Im(f conj G), int |f|, G at the nodes and panel ends) over [a, b].

    G(t) = int_a^t f.  Composite Gauss-Legendre rule on ``panels`` equal
    panels, each sampling the drive at its ``PANEL_NODES`` nodes.
    """
    _, w, S = _panel_rule()
    nodes, h = panel_nodes(a, b, panels)
    f = np.array([drive(t) for t in nodes.ravel().tolist()]).reshape(panels, -1)
    sums = h * (f @ w)                                 # int f on each panel
    ends = np.cumsum(sums)
    starts = np.concatenate(([0.0], ends[:-1]))
    G = starts[:, None] + h * (f @ S.T)                # int_a^t f at every node
    phase = h * float(np.sum(w * (f * G.conj()).imag))
    return (complex(np.sum(sums)), phase, float(np.sum(h * (np.abs(f) @ w))),
            np.concatenate((G.ravel(), ends)))


def _segment_integrals(drive: LinearDrive, a: float, b: float
                       ) -> tuple[complex, float, np.ndarray]:
    """(int f, int Im(f conj G), G at the nodes and panel ends) over one smooth segment.

    The panels double from 1 (:func:`converged_panels`, up to ``MAX_PANELS``)
    until two levels agree to ``PANEL_RTOL * int|f|`` in the integral and
    ``PANEL_RTOL * (int|f|)^2`` in the phase.  G comes from the converged level.
    """
    def misfit(coarse, fine):
        scale, dF, dphi = fine[2], abs(fine[0] - coarse[0]), abs(fine[1] - coarse[1])
        if not (dF <= PANEL_RTOL * scale and dphi <= PANEL_RTOL * scale ** 2):
            return {"segment": (a, b), "integral_error": dF, "phase_error": dphi,
                    "abs_integral": scale, "rtol": PANEL_RTOL}

    F, phase, _, G = converged_panels(lambda panels: _panel_sums(drive, a, b, panels), misfit,
                                      panels=1, max_panels=MAX_PANELS, what="drive integral")
    return F, phase, G


@lru_cache(maxsize=16)  # the cutoff, the exact phase, the estimate and the oracle share one drive
def _drive_panels(drive: LinearDrive) -> tuple:
    """:func:`_segment_integrals` of each drive segment, cached per (frozen) drive."""
    return tuple(_segment_integrals(drive, a, b) for a, b in drive.segments())


def drive_integrals(drive: LinearDrive) -> DriveIntegrals:
    """F = int f and phi = int Im[f(t) conj F(t)] over the window.

    The second-order term terminates the Magnus series for linear drives:
    the time-ordered exponential is exactly e^{i phi} D(-i F).  Each drive
    segment is integrated by :func:`_segment_integrals`: F at the panel
    nodes from the spectral integration matrix, phi as the weighted sum of
    Im(f conj F).  These panels sample f and no propagation reads them:
    :func:`evolve` integrates a declared drive's real shape s by its own
    adaptive Gauss-Kronrod rule and samples any other drive at its steps,
    so the oracle stays independent of the propagation.  The panel sums
    are cached per (frozen) drive.
    """
    F, phi = 0j, 0.0
    for dF, dphi, _ in _drive_panels(drive):
        # the segment's own phase plus the cross term with the F it starts from
        phi += dphi + (dF * np.conj(F)).imag
        F += dF
    return DriveIntegrals(integral=F, displacement=-1j * F, magnus_phase=float(phi))


def drive_excursion(drive: LinearDrive) -> float:
    """Largest |beta(t)| = |int_0^t f| on the panels of :func:`drive_integrals`.

    The maximum of |F(t)| over the nodes and panel ends of every segment's
    converged panels, read off the cached panel sums with no drive sample
    of its own.  It never exceeds sup |beta| <= int |f|, so it sizes no
    basis larger than int |f| did, and a drive that changes sign gets a
    smaller one.  It falls short of sup |beta| only by the gap between
    nodes: 0.18% on 1.3 sin(2 pi t + 0.3), at most 0.7% on 500 random
    two-envelope drives c1 s1 - c2 s2, which the ``+ 0.5`` of the cutoff
    rule covers.  The edge check in :func:`failure_probability_exact`
    stays the a-posteriori guard against a basis that is still too small.
    """
    peak, F = 0.0, 0j
    for dF, _, G in _drive_panels(drive):
        peak = max(peak, float(np.max(np.abs(F + G))))
        F += dF
    return peak


def _integrated_action(scenario: GateScenario) -> np.ndarray:
    """A|psi0> with A = int_0^T V_I(t) dt = F a† + conj(F) a, F = int f.

    <psi0|A|psi0> is the accumulated mean phase.
    """
    F = drive_integrals(scenario.drive).integral
    return drive_action(F, scenario.control.amplitudes)


def failure_probability_exact(scenario: GateScenario, tol: float = 1e-9) -> GateOutcome:
    """Propagate the scenario and evaluate p = 1 - |1 - inner|^2 / 4.

    The drive specifies V_I(t) in the interaction picture, so ``inner`` is
    the overlap of psi0 with psi0 propagated under V_I alone (the free
    factors cancel identically in the overlap).  Each drive segment is
    propagated by :func:`evolve` with its share of ``tol``.  The propagated
    state must leave at most ``COHERENT_TAIL`` population on its top
    ``EDGE_LEVELS`` levels, else the cutoff was too small for the drive and
    :class:`CutoffError` is raised.
    """
    checked_positive(tol=tol)
    psi0 = scenario.control
    drive = scenario.drive
    T = scenario.duration
    state = psi0
    for a, b in drive.segments():
        state = evolve(state, drive, a, b, tol * (b - a) / T)
    edge = float(np.sum(np.abs(state.amplitudes[-EDGE_LEVELS:]) ** 2))
    if edge > COHERENT_TAIL:
        raise CutoffError(
            f"propagated population {edge:.3e} on the top {EDGE_LEVELS} of "
            f"{state.cutoff} levels exceeds {COHERENT_TAIL}; raise the cutoff"
        )
    inner = overlap(psi0, state)
    phase = float(np.vdot(psi0.amplitudes, _integrated_action(scenario)).real)
    return GateOutcome.from_inner(inner, phase, *switch_off_check(scenario))


def switch_off_check(scenario: GateScenario) -> tuple[float, float]:
    """(<V_I^2> at t=0, <V_I^2> at t=T) on psi0 for the premise check.

    V_I(t) is given in the interaction picture, where the control stays psi0.
    """
    psi0 = scenario.control.amplitudes
    vpsi = [drive_action(scenario.drive(t), psi0) for t in (0.0, scenario.duration)]
    start, end = (float(np.vdot(x, x).real) for x in vpsi)
    return start, end


def counterexample_always_on(n: int, g: float) -> GateOutcome:
    """Closed-form outcome of the always-on interaction V = g a†a on |n>.

    V commutes with H0 = omega a†a and |n> is an eigenstate of both, so over
    T = pi/(g n) the control only picks up inner = e^{-i g n T} = -1: p = 0
    with the mean phase g n T = pi.  V is never switched off, so <V^2> is
    (g n)^2 at both ends of the window.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    checked_positive(g=g)
    gn = g * n
    T = math.pi / gn
    return GateOutcome.from_inner(np.exp(-1j * gn * T), gn * T, gn * gn, gn * gn)


def displacement_oracle(control_alpha: complex, drive: LinearDrive) -> GateOutcome:
    """Closed-form outcome for a linear drive on a coherent control state.

    The time-ordered exponential of f(t) a† + conj(f) a collapses to
    e^{i phi} D(beta); the overlap with |alpha> is then
    exp(-|beta|^2/2 + 2i Im(conj(alpha) beta)).
    """
    integrals = drive_integrals(drive)
    beta = integrals.displacement
    alpha = complex(control_alpha)
    inner = np.exp(1j * integrals.magnus_phase) * np.exp(
        -abs(beta) ** 2 / 2.0 + 2j * (np.conj(alpha) * beta).imag
    )
    phase = 2.0 * (integrals.integral * np.conj(alpha)).real
    f0 = drive(0.0)
    fT = drive(drive.duration)
    sw = lambda f: (2.0 * (f * np.conj(alpha)).real) ** 2 + abs(f) ** 2
    return GateOutcome.from_inner(complex(inner), phase, sw(f0), sw(fT))


# ---------------------------------------------------------------------------
# perturbative estimator
# ---------------------------------------------------------------------------

PHASE_ADVISORY_FRACTION = 0.1  # Eq.-style phase condition enforced only as advisory


def failure_probability_perturbative(scenario: GateScenario) -> float:
    """Fluctuation estimate p ~ (1/2) Re double-int <dV_I(t) dV_I(t')> dt dt'.

    Time ordering is dropped and the real part taken, which makes the double
    integral the variance of A = int V_I dt on psi0, evaluated in closed form
    as ||A psi0 - <A> psi0||^2.  The estimate
    is meaningful when the accumulated mean phase <A> is close to pi,
    otherwise a warning marks the result advisory-only.
    """
    psi0 = scenario.control.amplitudes
    a_psi = _integrated_action(scenario)
    phase = float(np.vdot(psi0, a_psi).real)
    if abs(phase - PHASE_TARGET) > PHASE_ADVISORY_FRACTION * PHASE_TARGET:
        warnings.warn(
            "mean-coupling phase deviates from pi by "
            f"{abs(phase - PHASE_TARGET):.3g}; perturbative estimate is advisory only",
            stacklevel=2,
        )
    spread = a_psi - phase * psi0
    return 0.5 * float(np.vdot(spread, spread).real)

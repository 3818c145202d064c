"""Exact and perturbative failure probabilities for the controlled sign flip.

The two-qubit gate itself is never represented: the |11> branch of the gate
evolves the control under H0 + V while the other branches see H0 alone, so
the failure probability reduces to a single control-space amplitude

    inner = <psi0| Texp(-i/hbar int_0^T V_I(t) dt) |psi0>,
    p     = 1 - |1 - inner|^2 / 4,

with V_I the interaction-picture coupling.  This module computes ``inner``
exactly by propagation, perturbatively from the fluctuation autocorrelation
of V_I, and (for linear drives on coherent states) in closed form through
the displacement decomposition of the time-ordered exponential.  A family
of always-on counterexample scenarios shows why the switch-off premise on
V is essential: they reach p = 0 with arbitrarily little control energy.

Natural units (hbar = 1) throughout.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np
from scipy.integrate import quad, solve_ivp
# Not called here: perfbench/tracing.py wraps this name, as it wraps fock.expm.
from scipy.integrate import dblquad  # noqa: F401

from .envelopes import LinearDrive, envelope_drive
from .errors import CutoffError, DimensionMismatchError, IntegrationError
from .fock import (
    COHERENT_TAIL,
    ControlState,
    OperatorMatrix,
    coherent_required_cutoff,
    coherent_state,
    drive_action,
    evolve,
    number_operator,
    number_state,
    overlap,
)

PHASE_TARGET = math.pi  # accumulated conditional phase for a perfect sign flip
EDGE_LEVELS = 10        # top levels whose population the truncation check bounds


@dataclass(frozen=True)
class GateScenario:
    """Control state, self-Hamiltonian, interaction and gate duration.

    ``v`` is either a constant Hermitian matrix (Schroedinger picture), which
    needs the self-Hamiltonian ``h0``, or a :class:`LinearDrive` giving the
    interaction-picture coupling V_I(t) = f(t) a† + conj(f(t)) a directly,
    which has already absorbed H0 and so takes ``h0=None``.
    """

    control: ControlState
    h0: OperatorMatrix | None
    v: Union[OperatorMatrix, LinearDrive]
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if isinstance(self.v, LinearDrive):
            if self.h0 is not None:
                raise ValueError("h0 must be None: a linear drive is in the interaction picture")
            if abs(self.v.duration - self.duration) > 1e-12 * max(1.0, self.duration):
                raise ValueError("drive window must match the gate duration")
            return
        if not isinstance(self.v, OperatorMatrix):
            raise TypeError("v must be an OperatorMatrix or a LinearDrive")
        if self.h0 is None:
            raise ValueError("a constant-matrix interaction needs h0")
        for name in ("h0", "v"):
            op = getattr(self, name)
            if not op.hermitian:
                op = OperatorMatrix(op.cutoff, op.entries, hermitian=True)
                object.__setattr__(self, name, op)
            if op.cutoff != self.control.cutoff:
                raise DimensionMismatchError(f"{name} cutoff differs from control state cutoff")

    @property
    def is_linear_drive(self) -> bool:
        return isinstance(self.v, LinearDrive)


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
        p = 1.0 - abs(1.0 - inner) ** 2 / 4.0
        p = min(1.0, max(0.0, p))
        return GateOutcome(
            inner=complex(inner),
            failure_probability=float(p),
            phase_residual=float(abs(phase_integral - PHASE_TARGET)),
            switch_residual_start=float(switch_start),
            switch_residual_end=float(switch_end),
        )


def oscillator_hamiltonian(omega: float, cutoff: int) -> OperatorMatrix:
    """H0 = omega * a†a (hbar = 1)."""
    return OperatorMatrix(cutoff, omega * number_operator(cutoff).entries, hermitian=True)


def pi_phase_drive(envelope, alpha: complex) -> LinearDrive:
    """Scale an envelope so a coherent control |alpha> accumulates phase pi.

    The mean coupling on |alpha> is <V_I(t)> = 2 Re(f(t) conj(alpha)); a
    coefficient pi e^{i arg alpha} / (2 |alpha| * integral) makes its time
    integral exactly pi.
    """
    if alpha == 0:
        raise ValueError("alpha must be nonzero to accumulate phase")
    coeff = PHASE_TARGET * np.exp(1j * np.angle(alpha)) / (2.0 * abs(alpha) * envelope.integral)
    return envelope_drive(envelope, coeff)


def drive_bound_integral(drive: LinearDrive, rel_tol: float = 1e-10) -> float:
    """int_0^T |f(t)| dt; bounds the phase-space excursion of the drive."""
    total = 0.0
    for a, b in drive.segments():
        val, err = quad(lambda t: abs(drive(t)), a, b, epsabs=0.0, epsrel=rel_tol, limit=200)
        if err > rel_tol * abs(val):
            raise IntegrationError(
                "drive bound integral did not converge",
                {"segment": (a, b), "value": val, "error_estimate": err, "rel_tol": rel_tol},
            )
        total += val
    return total


def coherent_drive_scenario(alpha: complex, drive: LinearDrive, *,
                            cutoff: int | None = None) -> GateScenario:
    """Scenario with coherent control; cutoff covers alpha plus the drive excursion."""
    if cutoff is None:
        excursion = drive_bound_integral(drive)
        cutoff = coherent_required_cutoff(abs(alpha) + excursion + 0.5)
    return GateScenario(coherent_state(alpha, cutoff), None, drive, drive.duration)


# ---------------------------------------------------------------------------
# drive integrals (displacement decomposition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveIntegrals:
    """F = int f dt, the displacement beta = -i F, and the commutator phase."""

    integral: complex
    displacement: complex
    magnus_phase: float


@lru_cache(maxsize=16)  # the exact phase, the estimate and the oracle share one drive
def drive_integrals(drive: LinearDrive, rtol: float = 1e-12) -> DriveIntegrals:
    """Integrate dF = f and dphi = Im[f(t) * int_0^t conj(f)] over the window.

    The second-order term terminates the Magnus series for linear drives:
    the time-ordered exponential is exactly e^{i phi} D(-i F).  Results are
    cached per (frozen) drive and ``rtol``.
    """

    def rhs(t, y):
        ft = drive(t)
        # y = (Re F, Im F, phi) with F(t) = int_0^t f
        return [ft.real, ft.imag, (ft * complex(y[0], -y[1])).imag]

    y = np.zeros(3)
    for a, b in drive.segments():
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol, atol=1e-14)
        if not sol.success:
            raise IntegrationError("drive integral failed", {"segment": (a, b), "message": sol.message})
        y = sol.y[:, -1]
    F = complex(y[0], y[1])
    return DriveIntegrals(integral=F, displacement=-1j * F, magnus_phase=float(y[2]))


def _propagate_constant(h: np.ndarray, psi: np.ndarray, t: float) -> np.ndarray:
    """exp(-i h t) psi for a constant Hermitian h, through its eigenbasis."""
    lam, vecs = np.linalg.eigh(h)
    return vecs @ (np.exp(-1j * lam * t) * (vecs.conj().T @ psi))


def _integrated_action(scenario: GateScenario) -> np.ndarray:
    """A|psi0> with A = int_0^T V_I(t) dt.

    A linear drive integrates to A = F a† + conj(F) a with F = int f.  A
    constant matrix is integrated in the H0 eigenbasis, each Bohr frequency
    in closed form.  <psi0|A|psi0> is the accumulated mean phase.
    """
    psi0 = scenario.control.amplitudes
    if scenario.is_linear_drive:
        return drive_action(drive_integrals(scenario.v).integral, psi0)
    lam, vecs = np.linalg.eigh(scenario.h0.entries)
    v_tilde = vecs.conj().T @ scenario.v.entries @ vecs
    T = scenario.duration
    x = (lam[:, None] - lam[None, :]) * T / 2.0
    window = T * np.exp(1j * x) * np.sinc(x / math.pi)
    return vecs @ ((v_tilde * window) @ (vecs.conj().T @ psi0))


def failure_probability_exact(scenario: GateScenario, tol: float = 1e-9) -> GateOutcome:
    """Propagate the scenario and evaluate p = 1 - |1 - inner|^2 / 4.

    Constant-matrix interactions are handled exactly as written: the control
    is evolved once under H0 and once under H0 + V, each through the
    eigenbasis of that constant Hamiltonian, and the two results are
    overlapped.  Linear drives specify V_I(t) in the interaction picture, so
    the same amplitude is obtained by propagating under V_I directly (the
    free factors cancel identically in the overlap); ``tol`` bounds that
    adaptive propagation.  The propagated state must leave at most
    ``COHERENT_TAIL`` population on its top ``EDGE_LEVELS`` levels, else the
    cutoff was too small for the drive and :class:`CutoffError` is raised.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    psi0 = scenario.control
    T = scenario.duration
    if scenario.is_linear_drive:
        drive = scenario.v
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
    else:
        h0 = scenario.h0.entries
        free = _propagate_constant(h0, psi0.amplitudes, T)
        driven = _propagate_constant(h0 + scenario.v.entries, psi0.amplitudes, T)
        inner = complex(np.vdot(free, driven))
    phase = float(np.vdot(psi0.amplitudes, _integrated_action(scenario)).real)
    return GateOutcome.from_inner(inner, phase, *switch_off_check(scenario))


def switch_off_check(scenario: GateScenario) -> tuple[float, float]:
    """(<V^2> at t=0, <V^2> at t=T after free evolution) for the premise check."""
    psi0 = scenario.control.amplitudes
    T = scenario.duration
    if scenario.is_linear_drive:
        # V_I(t) is given in the interaction picture, where the control stays psi0
        vpsi = [drive_action(scenario.v(t), psi0) for t in (0.0, T)]
    else:
        v = scenario.v.entries
        vpsi = [v @ psi0, v @ _propagate_constant(scenario.h0.entries, psi0, T)]
    start, end = (float(np.vdot(x, x).real) for x in vpsi)
    return start, end


def counterexample_scenario(n: int, g: float, cutoff: int | None = None,
                            omega: float = 1.0) -> GateScenario:
    """Always-on interaction V = g a†a on |n> with T = pi/(g n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if g <= 0:
        raise ValueError("g must be positive")
    if cutoff is None:
        cutoff = n + 2
    if cutoff <= n:
        raise ValueError(f"cutoff={cutoff} must exceed n={n}")
    control = number_state(n, cutoff)
    h0 = oscillator_hamiltonian(omega, cutoff)
    v = OperatorMatrix(cutoff, g * number_operator(cutoff).entries, hermitian=True)
    return GateScenario(control, h0, v, math.pi / (g * n))


def counterexample_always_on(n: int, g: float, cutoff: int | None = None,
                             omega: float = 1.0) -> GateOutcome:
    """Exact outcome of the always-on scenario; p vanishes identically."""
    return failure_probability_exact(counterexample_scenario(n, g, cutoff, omega))


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
    as ||A psi0 - <A> psi0||^2 for both kinds of interaction.  The estimate
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

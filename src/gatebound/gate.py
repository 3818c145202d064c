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
from scipy.integrate import dblquad, solve_ivp

from .envelopes import LinearDrive
from .errors import DimensionMismatchError, IntegrationError
from .fock import (
    ControlState,
    OperatorMatrix,
    coherent_required_cutoff,
    coherent_state,
    evolve,
    ladder_operators,
    number_operator,
    number_state,
    overlap,
)

PHASE_TARGET = math.pi  # accumulated conditional phase for a perfect sign flip


@dataclass(frozen=True)
class GateScenario:
    """Control state, self-Hamiltonian, interaction and gate duration.

    ``v`` is either a constant Hermitian matrix (Schroedinger picture) or a
    :class:`LinearDrive` giving the interaction-picture coupling
    V_I(t) = f(t) a† + conj(f(t)) a directly.
    """

    control: ControlState
    h0: OperatorMatrix
    v: Union[OperatorMatrix, LinearDrive]
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.h0.hermitian:
            object.__setattr__(self, "h0", OperatorMatrix(self.h0.cutoff, self.h0.entries, hermitian=True))
        if self.h0.cutoff != self.control.cutoff:
            raise DimensionMismatchError("h0 cutoff differs from control state cutoff")
        if isinstance(self.v, OperatorMatrix):
            if not self.v.hermitian:
                object.__setattr__(self, "v", OperatorMatrix(self.v.cutoff, self.v.entries, hermitian=True))
            if self.v.cutoff != self.control.cutoff:
                raise DimensionMismatchError("v cutoff differs from control state cutoff")
        elif isinstance(self.v, LinearDrive):
            if abs(self.v.duration - self.duration) > 1e-12 * max(1.0, self.duration):
                raise ValueError("drive window must match the gate duration")
        else:
            raise TypeError("v must be an OperatorMatrix or a LinearDrive")

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
    from .envelopes import envelope_drive

    coeff = PHASE_TARGET * np.exp(1j * np.angle(alpha)) / (2.0 * abs(alpha) * envelope.integral)
    return envelope_drive(envelope, coeff)


def drive_bound_integral(drive: LinearDrive, rel_tol: float = 1e-10) -> float:
    """int_0^T |f(t)| dt; bounds the phase-space excursion of the drive."""
    from scipy.integrate import quad

    total = 0.0
    for a, b in drive.segments():
        val, _ = quad(lambda t: abs(drive(t)), a, b, epsabs=0.0, epsrel=rel_tol, limit=200)
        total += val
    return total


def coherent_drive_scenario(alpha: complex, drive: LinearDrive, *,
                            omega: float = 1.0, cutoff: int | None = None) -> GateScenario:
    """Scenario with coherent control; cutoff covers alpha plus the drive excursion."""
    if cutoff is None:
        excursion = drive_bound_integral(drive)
        cutoff = coherent_required_cutoff(abs(alpha) + excursion + 0.5)
    control = coherent_state(alpha, cutoff)
    return GateScenario(control, oscillator_hamiltonian(omega, cutoff), drive, drive.duration)


# ---------------------------------------------------------------------------
# drive integrals (displacement decomposition)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriveIntegrals:
    """F = int f dt, the displacement beta = -i F, and the commutator phase."""

    integral: complex
    displacement: complex
    magnus_phase: float


def drive_integrals(drive: LinearDrive, rtol: float = 1e-12) -> DriveIntegrals:
    """Integrate dF = f and dphi = Im[f(t) * int_0^t conj(f)] over the window.

    The second-order term terminates the Magnus series for linear drives:
    the time-ordered exponential is exactly e^{i phi} D(-i F).
    """

    def rhs(t, y):
        ft = drive(t)
        conj_integral = y[0] + 1j * y[1]
        return [
            ft.real, -ft.imag,                 # d/dt int conj(f)
            (ft * conj_integral).imag,         # d/dt phi
            ft.real, ft.imag,                  # d/dt F  (same values, kept for clarity)
        ]

    y = np.zeros(5)
    for a, b in drive.segments():
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol, atol=1e-14)
        if not sol.success:
            raise IntegrationError("drive integral failed", {"segment": (a, b), "message": sol.message})
        y = sol.y[:, -1]
    F = complex(y[3], y[4])
    return DriveIntegrals(integral=F, displacement=-1j * F, magnus_phase=float(y[2]))


def _drive_matrix_fn(drive: LinearDrive, cutoff: int):
    a, adag = ladder_operators(cutoff)
    a_m, adag_m = a.entries, adag.entries

    def hof(t):
        ft = drive(t)
        return ft * adag_m + np.conj(ft) * a_m

    return hof


def _drive_switch_residual(drive: LinearDrive, state: ControlState, t: float) -> float:
    # <V_I(t)^2> on |psi0| with V_I = f a† + conj(f) a
    a, adag = ladder_operators(state.cutoff)
    ft = drive(t)
    m = ft * adag.entries + np.conj(ft) * a.entries
    vpsi = m @ state.amplitudes
    return float(np.vdot(vpsi, vpsi).real)


def _matrix_switch_residuals(scenario: GateScenario) -> tuple[float, float]:
    lam, vecs = np.linalg.eigh(scenario.h0.entries)
    psi_t = vecs.conj().T @ scenario.control.amplitudes
    v = scenario.v.entries
    vpsi0 = v @ scenario.control.amplitudes
    start = float(np.vdot(vpsi0, vpsi0).real)
    psi_T = vecs @ (np.exp(-1j * lam * scenario.duration) * psi_t)
    vpsiT = v @ psi_T
    end = float(np.vdot(vpsiT, vpsiT).real)
    return start, end


def _matrix_phase_integral(scenario: GateScenario) -> float:
    # int_0^T <psi0(t)|V|psi0(t)> dt in the H0 eigenbasis, each Bohr
    # frequency integrated in closed form.
    lam, vecs = np.linalg.eigh(scenario.h0.entries)
    psi = vecs.conj().T @ scenario.control.amplitudes
    v_tilde = vecs.conj().T @ scenario.v.entries @ vecs
    T = scenario.duration
    delta = lam[:, None] - lam[None, :]
    x = delta * T / 2.0
    window = T * np.exp(1j * x) * np.sinc(x / math.pi)
    weights = np.conj(psi)[:, None] * v_tilde * psi[None, :]
    return float(np.sum(weights * window).real)


def failure_probability_exact(scenario: GateScenario, tol: float = 1e-9) -> GateOutcome:
    """Propagate the scenario and evaluate p = 1 - |1 - inner|^2 / 4.

    Constant-matrix interactions are handled exactly as written: the control
    is evolved once under H0 and once under H0 + V and the two results are
    overlapped.  Linear drives specify V_I(t) in the interaction picture, so
    the same amplitude is obtained by propagating under V_I directly (the
    free factors cancel identically in the overlap).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    psi0 = scenario.control
    T = scenario.duration
    if scenario.is_linear_drive:
        drive: LinearDrive = scenario.v
        hof = _drive_matrix_fn(drive, psi0.cutoff)
        state = psi0
        segs = [s for s in drive.segments() if s[1] <= T + 1e-12]
        for a, b in segs:
            state = evolve(state, hof, a, min(b, T), tol * (min(b, T) - a) / T)
        inner = overlap(psi0, state)
        integrals = drive_integrals(drive)
        phase = 2.0 * (integrals.integral * np.conj(_mean_a(psi0))).real
        sw0 = _drive_switch_residual(drive, psi0, 0.0)
        swT = _drive_switch_residual(drive, psi0, T)
        return GateOutcome.from_inner(inner, phase, sw0, swT)

    free = evolve(psi0, scenario.h0.entries, 0.0, T, tol / 2.0)
    h_full = scenario.h0.entries + scenario.v.entries
    driven = evolve(psi0, h_full, 0.0, T, tol / 2.0)
    inner = overlap(free, driven)
    phase = _matrix_phase_integral(scenario)
    sw0, swT = _matrix_switch_residuals(scenario)
    return GateOutcome.from_inner(inner, phase, sw0, swT)


def switch_off_check(scenario: GateScenario) -> tuple[float, float]:
    """(<V^2> at t=0, <V^2> at t=T after free evolution) for the premise check."""
    if scenario.is_linear_drive:
        drive: LinearDrive = scenario.v
        return (
            _drive_switch_residual(drive, scenario.control, 0.0),
            _drive_switch_residual(drive, scenario.control, scenario.duration),
        )
    return _matrix_switch_residuals(scenario)


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
                             omega: float = 1.0, tol: float = 1e-12) -> GateOutcome:
    """Exact outcome of the always-on scenario; p vanishes identically."""
    return failure_probability_exact(counterexample_scenario(n, g, cutoff, omega), tol)


def displacement_oracle(control_alpha: complex, drive: LinearDrive,
                        duration: float | None = None) -> GateOutcome:
    """Closed-form outcome for a linear drive on a coherent control state.

    The time-ordered exponential of f(t) a† + conj(f) a collapses to
    e^{i phi} D(beta); the overlap with |alpha> is then
    exp(-|beta|^2/2 + 2i Im(conj(alpha) beta)).
    """
    if duration is not None and abs(duration - drive.duration) > 1e-12 * max(1.0, drive.duration):
        raise ValueError("duration disagrees with the drive window")
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

def _mean_a(state: ControlState) -> complex:
    a, _ = ladder_operators(state.cutoff)
    return complex(np.vdot(state.amplitudes, a.entries @ state.amplitudes))


def _drive_fluctuation_moments(state: ControlState):
    """Second moments of delta_a = a - <a> needed for the drive correlation."""
    a, adag = ladder_operators(state.cutoff)
    psi = state.amplitudes
    mean = np.vdot(psi, a.entries @ psi)
    da = a.entries - mean * np.eye(state.cutoff)
    dad = da.conj().T
    da_psi = da @ psi
    dad_psi = dad @ psi
    return {
        "dagdag": complex(np.vdot(psi, dad @ dad_psi)),
        "daga": complex(np.vdot(da_psi, da_psi)),
        "adag": complex(np.vdot(dad_psi, dad_psi)),
        "aa": complex(np.vdot(psi, da @ da_psi)),
    }


def interaction_correlation(scenario: GateScenario):
    """Callable C(t, t') = <psi0| dV_I(t) dV_I(t') |psi0> for the scenario."""
    if scenario.is_linear_drive:
        drive: LinearDrive = scenario.v
        m = _drive_fluctuation_moments(scenario.control)

        def corr(t: float, tp: float) -> complex:
            ft, fp = drive(t), drive(tp)
            return (
                ft * fp * m["dagdag"]
                + ft * np.conj(fp) * m["daga"]
                + np.conj(ft) * fp * m["adag"]
                + np.conj(ft) * np.conj(fp) * m["aa"]
            )

        return corr

    lam, vecs = np.linalg.eigh(scenario.h0.entries)
    psi = vecs.conj().T @ scenario.control.amplitudes
    v_tilde = vecs.conj().T @ scenario.v.entries @ vecs

    @lru_cache(maxsize=4096)
    def w(t: float) -> tuple:
        return tuple(v_tilde @ (np.exp(-1j * lam * t) * psi))

    @lru_cache(maxsize=4096)
    def mean_v(t: float) -> complex:
        phases = np.exp(-1j * lam * t) * psi
        return complex(np.vdot(phases, np.asarray(w(t))))

    def corr(t: float, tp: float) -> complex:
        wt = np.asarray(w(t))
        wp = np.asarray(w(tp))
        two_time = np.sum(np.conj(wt) * np.exp(-1j * lam * (t - tp)) * wp)
        return complex(two_time - np.conj(mean_v(t)) * mean_v(tp))

    return corr


PHASE_ADVISORY_FRACTION = 0.1  # Eq.-style phase condition enforced only as advisory


def failure_probability_perturbative(scenario: GateScenario, quad_tol: float = 1e-10) -> float:
    """Fluctuation estimate p ~ (1/2) Re double-int <dV_I(t) dV_I(t')> dt dt'.

    Time ordering is dropped and the real part taken; the estimate is
    meaningful when the accumulated mean phase is close to pi, otherwise a
    warning marks the result advisory-only.
    """
    if quad_tol <= 0:
        raise ValueError("quad_tol must be positive")
    outcome_phase = _scenario_phase_integral(scenario)
    if abs(outcome_phase - PHASE_TARGET) > PHASE_ADVISORY_FRACTION * PHASE_TARGET:
        warnings.warn(
            "mean-coupling phase deviates from pi by "
            f"{abs(outcome_phase - PHASE_TARGET):.3g}; perturbative estimate is advisory only",
            stacklevel=2,
        )
    corr = interaction_correlation(scenario)
    T = scenario.duration
    value, err = dblquad(
        lambda tp, t: corr(t, tp).real,
        0.0, T, 0.0, T,
        epsabs=quad_tol, epsrel=math.sqrt(quad_tol),
    )
    if err > 10.0 * max(quad_tol, abs(value) * 1e-6):
        raise IntegrationError(
            "fluctuation double integral did not converge",
            {"value": value, "error_estimate": err, "quad_tol": quad_tol},
        )
    return 0.5 * value


def _scenario_phase_integral(scenario: GateScenario) -> float:
    if scenario.is_linear_drive:
        integrals = drive_integrals(scenario.v)
        return 2.0 * (integrals.integral * np.conj(_mean_a(scenario.control))).real
    return _matrix_phase_integral(scenario)

"""Collision-mediated gates: free wavepackets and trapped oscillators.

Free case: two identical particles pass each other at impact parameter b
with transverse speed v; the accumulated action of their mutual potential
supplies the conditional phase, and wavepacket spreading turns the phase
into a fluctuating quantity.  Minimising the fluctuation over physical
wavepackets and eliminating the potential through the phase condition gives
the kinetic-energy requirement m v^2 > hbar/(eps T).

Trapped case: the particles oscillate in harmonic wells, approaching to a
gap b once per period; only the position noise enters at leading order
(the momentum term cancels by symmetry of the unperturbed trajectory), and
for a rho^-3 interaction the constraint ratio approaches 5/(2b).  A
classical two-body integration quantifies how the perturbed trajectory
misses its return point, which is what ultimately limits position
squeezing.

All integrals carry explicit hbar (default 1.0: natural units).  The
integrands run on :mod:`gatebound.numerics`' adaptive Gauss-Kronrod
quadrature, whose error estimate ``_quad`` checks, and the trajectory on
its DOP853, so the module needs no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .errors import DegenerateConfigError, IntegrationError, NumericalInconsistencyError
from .numerics import _dop853, quad
from .report import (PHASE_CALIBRATION_TOL, BoundReport, checked_epsilon, checked_positive,
                     checked_uncertainty)

PI = math.pi
QUAD_REL_TOL = 1e-10
RETURN_RTOL = 1e-10  # DOP853 relative tolerance of the return-mismatch trajectory
SIN_SYMMETRY_TOL = 1e-9


def __getattr__(name: str):
    # Not called here: perfbench/tracing.py wraps collision.solve_ivp, and its
    # tracer smoke run fails with AttributeError without this name.  It
    # resolves on first access, so importing collision does not load
    # scipy.integrate.
    if name == "solve_ivp":
        import scipy.integrate
        return scipy.integrate.solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _quad(fn: Callable[[float], float], a: float, b: float, *,
          epsabs: float, epsrel: float, **kwargs) -> float:
    """quad(fn, a, b) whose error estimate must meet the requested tolerance.

    ``quad`` is looked up as this module's name, which perfbench/tracing.py
    wraps to count the collision quadratures.
    """
    val, err = quad(fn, a, b, epsabs=epsabs, epsrel=epsrel, **kwargs)
    tol = max(epsabs, epsrel * abs(val))
    if not err <= tol:
        raise IntegrationError(
            "collision quadrature did not converge",
            {"function": fn.__qualname__, "bounds": (a, b), "value": val,
             "error_estimate": err, "tolerance": tol},
        )
    return val


@dataclass(frozen=True)
class PotentialLaw:
    """Power-law interaction potential V(rho) = C * rho^-n with finite n > 1."""

    n: float
    coupling: float = 1.0

    def __post_init__(self):
        if not 1 < self.n < math.inf:
            raise ValueError("power-law exponent must be finite and satisfy n > 1")

    def value(self, rho: float) -> float:
        return self.coupling * rho ** (-self.n)

    def derivative(self, rho: float) -> float:
        return -self.n * self.coupling * rho ** (-self.n - 1.0)

    def scaled(self, factor: float) -> "PotentialLaw":
        return replace(self, coupling=self.coupling * factor)


@dataclass(frozen=True)
class FreeCollisionConfig:
    """Straight-line collision: masses m, transverse speeds +-v, gap b, window T."""

    m: float
    v: float
    b: float
    T: float
    potential: PotentialLaw
    hbar: float = 1.0

    def __post_init__(self):
        checked_positive(m=self.m, v=self.v, b=self.b, T=self.T, hbar=self.hbar)
        if not self.b < self.v * self.T:
            raise ValueError("impact parameter must satisfy b < v T")

    def rho(self, t: float) -> float:
        return math.sqrt(4.0 * self.v * self.v * t * t + self.b * self.b)


def phase_integral_free(cfg: FreeCollisionConfig) -> float:
    """(1/hbar) int_{-T/2}^{T/2} V(rho(t)) dt, via the even symmetry of rho."""
    # V(rho(t)) = C (4 v^2 t^2 + b^2)^(-n/2) in one closure: a node costs one call
    c, e = cfg.potential.coupling, -0.5 * cfg.potential.n
    vv, bb = 4.0 * cfg.v * cfg.v, cfg.b * cfg.b
    val = _quad(lambda t: c * (vv * t * t + bb) ** e,
                0.0, cfg.T / 2.0, epsabs=0.0, epsrel=QUAD_REL_TOL, limit=400)
    return 2.0 * val / cfg.hbar


def _rescaled_to_pi(cfg: FreeCollisionConfig | HarmonicCollisionConfig, phase: float):
    """Copy of ``cfg`` with its coupling C rescaled to C* = C pi / phase.

    The phase is linear in the overall coupling, so calibration is a single
    rescaling; the new coupling is computed as C (C*/C).
    """
    if not math.isfinite(phase) or phase <= 0.0:
        raise DegenerateConfigError(f"phase at current coupling is {phase!r}; cannot calibrate")
    cstar = cfg.potential.coupling * PI / phase
    return replace(cfg, potential=cfg.potential.scaled(cstar / cfg.potential.coupling))


def error_variance_free(cfg: FreeCollisionConfig, dx0: float, dp0: float) -> float:
    """Phase variance (b^2/hbar^2) (int V'(rho)/rho dt)^2 (dx0^2 + T^2 dp0^2/4m^2)."""
    checked_uncertainty(dx0, dp0, cfg.hbar)
    integrand = lambda t: cfg.potential.derivative(cfg.rho(t)) / cfg.rho(t)
    val = _quad(integrand, 0.0, cfg.T / 2.0, epsabs=0.0, epsrel=QUAD_REL_TOL, limit=400)
    j = 2.0 * val
    spread = dx0 * dx0 + cfg.T * cfg.T * dp0 * dp0 / (4.0 * cfg.m * cfg.m)
    return (cfg.b * cfg.b / (cfg.hbar * cfg.hbar)) * j * j * spread


class OptimalWavepacket(NamedTuple):
    dx0_sq: float
    dp0_sq: float


def optimal_wavepacket(m: float, T: float, hbar: float = 1.0) -> OptimalWavepacket:
    """Minimiser of dx0^2 + T^2 dp0^2 / 4m^2 subject to dx0 dp0 = hbar/2.

    The optimum equalises the two terms: dx0^2 = T hbar / 4m and
    dp0^2 = m hbar / T, with objective T hbar / 2m.
    """
    checked_positive(m=m, T=T, hbar=hbar)
    return OptimalWavepacket(dx0_sq=T * hbar / (4.0 * m), dp0_sq=m * hbar / T)


def wavepacket_objective(m: float, T: float, dx0_sq: float, dp0_sq: float) -> float:
    return dx0_sq + T * T * dp0_sq / (4.0 * m * m)


def _line_integral_power_law(n: float, b: float) -> float:
    """int_{-inf}^{inf} (y^2 + b^2)^{-n/2} dy via the unit-scale y = cot(phi).

    The substitution (y = tan(theta) with phi = pi/2 - theta) maps the half
    line onto (0, pi/2), where the integrand is
    sin^{n-2}(phi) (cos^2(phi) + b^2 sin^2(phi))^{-n/2}.  b stays inside the
    integrand, so the quadrature sees every change of b.  For n < 2 the
    integrable singularity sin^{n-2} sits at phi = 0, where sin(phi) is exact
    to rounding, and phi = u^p with p = 1/(n-1) turns it into a bounded
    integrand; p = 1 leaves n >= 2 as it is.
    """
    p = max(1.0, 1.0 / (n - 1.0))

    def integrand(u):
        phi = u ** p
        s = math.sin(phi)
        c = math.cos(phi)
        return p * u ** (p - 1.0) * s ** (n - 2.0) * (c * c + b * b * s * s) ** (-0.5 * n)

    return 2.0 * _quad(integrand, 0.0, (PI / 2.0) ** (1.0 / p),
                       epsabs=0.0, epsrel=QUAD_REL_TOL, limit=400)


def powerlaw_log_derivative(n: float, b: float) -> float:
    """d/db ln(int (y^2+b^2)^{-n/2} dy) = -(n-1)/b, since the integral scales as b^{1-n}."""
    if not 1 < n < math.inf:
        raise ValueError("power-law exponent must be finite and satisfy n > 1")
    checked_positive(b=b)
    return -(n - 1.0) / b


def powerlaw_log_derivative_pair(n: float, b: float) -> tuple[float, float]:
    """(analytic, quadrature finite-difference) values of d/db ln(line integral).

    The central difference of the quadrature, whose integrand depends on b,
    is the independent check on :func:`powerlaw_log_derivative`.
    """
    analytic = powerlaw_log_derivative(n, b)
    h = 1e-4 * b
    numeric = (
        math.log(_line_integral_power_law(n, b + h))
        - math.log(_line_integral_power_law(n, b - h))
    ) / (2.0 * h)
    return analytic, numeric


@dataclass(frozen=True)
class FreeChain:
    """One evaluation of a free chain at its calibrated ``cfg``; no error budget enters it."""

    cfg: FreeCollisionConfig
    phase: float
    delta_sq: float
    wavepacket: OptimalWavepacket
    effective_duration_rms: float


def free_chain(cfg: FreeCollisionConfig) -> FreeChain:
    """Calibrate the raw ``cfg``, then integrate the phase and the RMS width of V.

    The optimal-wavepacket error delta^2 = (pi^2 T hbar / 2m) ((n-1)/b)^2 is
    the vT >> b limit, an unchecked premise: :func:`error_variance_free`,
    which keeps the finite window, reads 1.39x it at vT/b = 4, n = 2.
    """
    cfg = _rescaled_to_pi(cfg, phase_integral_free(cfg))
    phase = phase_integral_free(cfg)
    log_deriv = powerlaw_log_derivative(cfg.potential.n, cfg.b)
    delta_sq = (PI * PI * cfg.T * cfg.hbar / (2.0 * cfg.m)) * log_deriv * log_deriv
    # effective_duration_rms, a diagnostic: twice the RMS width of V over the
    # window, which hbar phase / 2 normalises over its half
    c, e = cfg.potential.coupling, -0.5 * cfg.potential.n
    vv, bb = 4.0 * cfg.v * cfg.v, cfg.b * cfg.b
    second = _quad(lambda t: t * t * c * (vv * t * t + bb) ** e,
                   0.0, cfg.T / 2.0, epsabs=0.0, epsrel=1e-8, limit=400)
    return FreeChain(cfg, phase, delta_sq, optimal_wavepacket(cfg.m, cfg.T, cfg.hbar),
                     2.0 * math.sqrt(2.0 * second / (phase * cfg.hbar)))


def free_energy_bound(chain: FreeChain, epsilon: float) -> BoundReport:
    """Pair kinetic energy m v^2 against hbar/(eps T) at the optimal wavepacket.

    Whenever delta^2 <= eps and b < v T hold, m v^2 must exceed
    hbar/(eps T); delta^2 is the vT >> b closed form (:func:`free_chain`).
    """
    checked_epsilon(epsilon)
    cfg, wp = chain.cfg, chain.wavepacket
    meta = {
        "epsilon_unphysical": epsilon >= 1.0,
        "off_calibration": abs(chain.phase - PI) > PHASE_CALIBRATION_TOL,
        "dx0_sq": wp.dx0_sq,
        "dp0_sq": wp.dp0_sq,
        # 2 m hbar / T: the momentum variance obtained if the uncertainty
        # product were taken at hbar/sqrt(2) instead of hbar/2; kept for
        # comparison, not used in the chain.
        "dp0_sq_alt": 2.0 * cfg.m * cfg.hbar / cfg.T,
        "b_over_vT": cfg.b / (cfg.v * cfg.T),
        "effective_duration_rms": chain.effective_duration_rms,
    }
    return BoundReport(
        energy=cfg.m * cfg.v * cfg.v,
        bound=cfg.hbar / (epsilon * cfg.T),
        epsilon=epsilon,
        error_budget=epsilon,
        error=chain.delta_sq,
        phase=chain.phase,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# harmonic trap
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicCollisionConfig:
    """Two oscillators swinging toward each other once per period.

    Equilibria sit at -(A + b/2) and +(A + b/2); starting from the outer
    turning points the separation is rho(t) = 2A + b + 2A cos(omega t),
    closest (= b) at half period.  ``squeeze_r`` optionally narrows the
    position variance of each wavepacket by e^{-2r}.
    """

    m: float
    omega: float
    A: float
    b: float
    potential: PotentialLaw
    squeeze_r: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        checked_positive(m=self.m, omega=self.omega, A=self.A, b=self.b, hbar=self.hbar)
        if not math.isfinite(self.squeeze_r):
            raise ValueError(f"squeeze_r must be finite, got {self.squeeze_r!r}")
        try:
            math.exp(2.0 * abs(self.squeeze_r))
        except OverflowError:
            raise ValueError(
                f"e^(2|squeeze_r|) overflows at squeeze_r = {self.squeeze_r!r}") from None

    @property
    def period(self) -> float:
        return 2.0 * PI / self.omega

    @property
    def amplitude_exceeds_gap(self) -> bool:
        return self.A > self.b

    def rho(self, t: float) -> float:
        # grouped as 2A(1 + cos) + b so the closest approach returns b exactly
        return 2.0 * self.A * (1.0 + math.cos(self.omega * t)) + self.b


def _harmonic_quad_points(cfg: HarmonicCollisionConfig) -> list[float]:
    t_close = PI / cfg.omega
    width = 30.0 * math.sqrt(cfg.b / cfg.A) / cfg.omega
    pts = [t_close - width, t_close, t_close + width]
    return [p for p in pts if 0.0 < p < cfg.period]


def _period_integral(cfg: HarmonicCollisionConfig, fn: Callable[[float], float],
                     epsabs: float = 0.0) -> float:
    """int fn dt over one period, split around the closest approach."""
    return _quad(fn, 0.0, cfg.period, epsabs=epsabs, epsrel=1e-11, limit=800,
                 points=_harmonic_quad_points(cfg))


def _harmonic_action(cfg: HarmonicCollisionConfig) -> float:
    """int V(rho(t)) dt over one period."""
    # C rho^-n with rho = 2A(1 + cos wt) + b in one closure: a node costs one call
    c, e = cfg.potential.coupling, -cfg.potential.n
    a2, b, w = 2.0 * cfg.A, cfg.b, cfg.omega
    return _period_integral(cfg, lambda t: c * (a2 * (1.0 + math.cos(w * t)) + b) ** e)


def _harmonic_force_integral(cfg: HarmonicCollisionConfig, weight: Callable[[float], float],
                             epsabs: float = 0.0) -> float:
    """int V'(rho(t)) weight(wt) dt over one period."""
    # -n C rho^(-n-1) weight(wt) in one closure, as in _harmonic_action
    k, e1 = -cfg.potential.n * cfg.potential.coupling, -cfg.potential.n - 1.0
    a2, b, w = 2.0 * cfg.A, cfg.b, cfg.omega
    return _period_integral(
        cfg, lambda t: k * (a2 * (1.0 + math.cos(w * t)) + b) ** e1 * weight(w * t), epsabs)


@dataclass(frozen=True)
class HarmonicVariance:
    """One evaluation of a calibrated trapped chain; no error budget enters it.

    ``action``, ``cos_integral`` and ``sin_integral`` integrate V, V' cos(wt)
    and V' sin(wt) over one period; ``delta_sq`` is the variance at ``dx0_sq``
    and ``mismatch`` the classical return mismatch at the calibrated coupling.
    """

    cfg: HarmonicCollisionConfig
    action: float
    cos_integral: float
    sin_integral: float
    dx0_sq: float
    delta_sq: float
    mismatch: ReturnMismatch

    @property
    def constraint_ratio(self) -> float:
        """R = |int V' cos(wt) dt| / |int V dt|; the coupling cancels."""
        return abs(self.cos_integral) / abs(self.action)


def error_variance_harmonic(cfg: HarmonicCollisionConfig) -> HarmonicVariance:
    """delta^2 = (2/hbar^2)(int V' cos wt dt)^2 dx0^2 with dx0^2 = e^{-2r} hbar/2 m w.

    The raw ``cfg`` is calibrated to phase pi first, and the action is
    integrated again at the calibrated coupling, where a phase off pi
    raises.  The sin-weighted integral must vanish (relative to the
    cos-weighted one) by the symmetry of the unperturbed trajectory; its
    failure to do so signals a broken trajectory and raises.  The classical
    return mismatch is integrated last, once, at the calibrated coupling.
    """
    cfg = _rescaled_to_pi(cfg, _harmonic_action(cfg) / cfg.hbar)
    action = _harmonic_action(cfg)
    if abs(action / cfg.hbar - PI) > PHASE_CALIBRATION_TOL:
        raise NumericalInconsistencyError(
            f"calibrated phase {action / cfg.hbar!r} is off pi by more than "
            f"{PHASE_CALIBRATION_TOL!r}")
    cos_int = _harmonic_force_integral(cfg, math.cos)
    sin_int = _harmonic_force_integral(cfg, math.sin, max(1e-13 * abs(cos_int), 1e-300))
    if abs(sin_int) > SIN_SYMMETRY_TOL * abs(cos_int):
        raise NumericalInconsistencyError(
            f"sin-weighted integral {sin_int!r} fails the symmetry contract "
            f"against cos-weighted {cos_int!r}"
        )
    dx0_sq = math.exp(-2.0 * cfg.squeeze_r) * cfg.hbar / (2.0 * cfg.m * cfg.omega)
    delta_sq = (2.0 / (cfg.hbar * cfg.hbar)) * cos_int * cos_int * dx0_sq
    if not math.isfinite(delta_sq):
        raise NumericalInconsistencyError(
            f"error variance delta_sq = {delta_sq!r} is not finite "
            f"(dx0_sq = {dx0_sq!r}, squeeze_r = {cfg.squeeze_r!r})")
    return HarmonicVariance(cfg, action, cos_int, sin_int, dx0_sq, delta_sq,
                            classical_return_mismatch(cfg))


DIPOLE_RATIO_OFFSETS = (1e-2, 1e-3, 1e-4)


def dipole_leading_ratio(cfg: HarmonicCollisionConfig) -> float:
    """Limit of b * R(b) as b/A -> 0 for the rho^-3 interaction.

    Evaluated at b/A in {1e-2, 1e-3, 1e-4} and Richardson-extrapolated in
    the leading integer powers of b/A; the limit is 5/2.
    """
    if cfg.potential.n != 3:
        raise ValueError("dipole ratio defined for the rho^-3 power law")
    vals = []
    for frac in DIPOLE_RATIO_OFFSETS:
        probe = replace(cfg, b=frac * cfg.A)
        ratio = abs(_harmonic_force_integral(probe, math.cos)) / abs(_harmonic_action(probe))
        vals.append(probe.b * ratio)
    if not abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]):
        raise NumericalInconsistencyError(f"dipole ratio sequence not converging: {vals}")
    f21 = (10.0 * vals[1] - vals[0]) / 9.0
    f32 = (10.0 * vals[2] - vals[1]) / 9.0
    return (100.0 * f32 - f21) / 99.0


def harmonic_energy_bound(hv: HarmonicVariance, epsilon: float) -> BoundReport:
    """Oscillator-pair energy m w^2 A^2 against hbar/(eps T) with T = 2 pi / w."""
    cfg = hv.cfg
    if cfg.potential.n != 3:
        raise ValueError("the harmonic chain is evaluated for the rho^-3 power law")
    checked_epsilon(epsilon)
    T = cfg.period
    energy = cfg.m * cfg.omega ** 2 * cfg.A ** 2
    meta = {
        "epsilon_unphysical": epsilon >= 1.0,
        "amplitude_exceeds_gap": cfg.amplitude_exceeds_gap,
        "per_oscillator_energy": energy / 2.0,
        "delta_sq": hv.delta_sq,
        "interaction_time": T,
    }
    return BoundReport(
        energy=energy,
        bound=cfg.hbar / (epsilon * T),
        epsilon=epsilon,
        error_budget=epsilon,
        error=hv.delta_sq,
        phase=PI,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# classical return mismatch
# ---------------------------------------------------------------------------

class ReturnMismatch(NamedTuple):
    dx: float
    dp: float


def classical_return_mismatch(cfg: HarmonicCollisionConfig) -> ReturnMismatch:
    """Deviation of the perturbed classical trajectory from its return point.

    Both particles are integrated over one period (trap force plus the
    mutual potential) from rest at the outer turning points; the returned
    numbers are particle 2's position and momentum deviation at t = 2 pi/w
    (particle 1 mirrors them).  The momentum deviation is first order in the
    coupling; the position deviation is second order because its first-order
    response is the sin-weighted integral that vanishes by symmetry.
    """
    m, w, A, b = cfg.m, cfg.omega, cfg.A, cfg.b
    eq = A + b / 2.0
    pot = cfg.potential

    def rhs(t, y):
        x1, v1, x2, v2 = y
        rho = x2 - x1
        f_int = -pot.derivative(rho)  # force on particle 2; reaction on 1
        return [v1, -w * w * (x1 + eq) - f_int / m, v2, -w * w * (x2 - eq) + f_int / m]

    y0 = [-(2.0 * A + b / 2.0), 0.0, 2.0 * A + b / 2.0, 0.0]
    # absolute floors in units of A and A w, so the solve is the same in any units
    yT = _dop853(rhs, 0.0, cfg.period, y0, RETURN_RTOL, [A * 1e-13, A * w * 1e-13] * 2)
    return ReturnMismatch(dx=yT[2] - y0[2], dp=m * yT[3])


def mismatch_norm(mm: ReturnMismatch, cfg: HarmonicCollisionConfig) -> float:
    """Phase-space distance sqrt(dx^2 + (dp/m w)^2) from the return point."""
    return math.hypot(mm.dx, mm.dp / (cfg.m * cfg.omega))


@dataclass(frozen=True)
class SqueezingProbe:
    """Self-consistency diagnostic for squeezing the trapped wavepackets.

    ``delta_sq_leading`` is the first-order variance with its e^{-2r}
    reduction.  ``momentum_mismatch`` measures the classical return
    mismatch against the anti-squeezed momentum variance,
    dp_return^2 e^{2r} / (m w hbar); the neglected expansion terms enter at
    its square, so ``second_order_proxy`` = momentum_mismatch^2.  The probe
    flags when the proxy exceeds 10% of the leading term: the regime where
    the leading-order treatment is no longer self-consistent.
    """

    delta_sq_leading: float
    momentum_mismatch: float
    second_order_proxy: float
    flagged: bool


SECOND_ORDER_FLAG_FRACTION = 0.1


def squeezing_consistency_probe(hv: HarmonicVariance) -> SqueezingProbe:
    """:class:`SqueezingProbe` of one evaluation of a calibrated trapped chain."""
    cfg = hv.cfg
    amplification = math.exp(2.0 * cfg.squeeze_r)
    momentum_mismatch = hv.mismatch.dp * hv.mismatch.dp * amplification / (
        cfg.m * cfg.omega * cfg.hbar)
    proxy = momentum_mismatch * momentum_mismatch
    if not math.isfinite(proxy):
        raise NumericalInconsistencyError(
            f"squeezing probe second_order_proxy = {proxy!r} is not finite "
            f"(momentum_mismatch = {momentum_mismatch!r}, squeeze_r = {cfg.squeeze_r!r})")
    return SqueezingProbe(
        delta_sq_leading=hv.delta_sq,
        momentum_mismatch=momentum_mismatch,
        second_order_proxy=proxy,
        flagged=proxy > SECOND_ORDER_FLAG_FRACTION * hv.delta_sq,
    )

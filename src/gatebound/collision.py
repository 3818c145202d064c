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
quadrature (adaptive Gauss-Kronrod) and the ODE solver (DOP853) are
implemented here on plain floats, so the module needs no scipy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from operator import mul
from typing import Callable, NamedTuple

from .errors import (
    DegenerateConfigError,
    IntegrationError,
    NumericalInconsistencyError,
    UncertaintyError,
)
from .report import BoundReport, bound_satisfied

PI = math.pi
PHASE_CALIBRATION_TOL = 1e-6
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


# Gauss-Kronrod 7/15 rule on [-1, 1] (QUADPACK's qk15): the Kronrod nodes
# +-_XGK[j] with weights _WGK[j]; the odd-indexed nodes are the 7-point
# Gauss nodes, weighted by _WG[j // 2].
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WGK_CENTRE = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG_CENTRE = 0.417959183673469387755102040816327


def _gk15(fn: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """(Kronrod value, |Kronrod - Gauss|) of fn over [a, b]."""
    centre = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = fn(centre)
    kronrod = _WGK_CENTRE * fc
    gauss = _WG_CENTRE * fc
    for j, x in enumerate(_XGK):
        dx = half * x
        pair = fn(centre - dx) + fn(centre + dx)
        kronrod += _WGK[j] * pair
        if j & 1:
            gauss += _WG[j >> 1] * pair
    return kronrod * half, abs((kronrod - gauss) * half)


def quad(fn: Callable[[float], float], a: float, b: float, *, epsabs: float,
         epsrel: float, limit: int = 50, points=()) -> tuple[float, float]:
    """Adaptive Gauss-Kronrod quadrature of fn over [a, b]: (value, error estimate).

    Starts from the subintervals between the ``points`` breakpoints and
    bisects the one with the largest |K - G| until the summed estimate meets
    max(epsabs, epsrel |value|) or ``limit`` subintervals are in use.  The
    estimate is the plain |K - G| of each subinterval, with none of
    QUADPACK's heuristic rescaling and no extrapolation; a caller judges
    convergence from the returned estimate.
    """
    edges = [a, *sorted(points), b]
    heap = []
    for lo, hi in zip(edges, edges[1:]):
        val, err = _gk15(fn, lo, hi)
        heap.append((-err, lo, hi, val))
    heapq.heapify(heap)
    total = math.fsum(item[3] for item in heap)
    error = math.fsum(-item[0] for item in heap)
    while error > max(epsabs, epsrel * abs(total)) and len(heap) < limit:
        neg_err, lo, hi, val = heap[0]
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # the worst subinterval cannot be split in floating point
        v1, e1 = _gk15(fn, lo, mid)
        v2, e2 = _gk15(fn, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += v1 + v2 - val
        error += e1 + e2 + neg_err
    return math.fsum(item[3] for item in heap), math.fsum(-item[0] for item in heap)


def _quad(fn: Callable[[float], float], a: float, b: float, *,
          epsabs: float, epsrel: float, **kwargs) -> float:
    """quad(fn, a, b) whose error estimate must meet the requested tolerance."""
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
    """Power-law interaction potential V(rho) = C * rho^-n with n > 1."""

    n: float
    coupling: float = 1.0

    def __post_init__(self):
        if not self.n > 1:
            raise ValueError("power-law exponent must satisfy n > 1")

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
        for name in ("m", "v", "b", "T", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
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


def calibrated(cfg: FreeCollisionConfig) -> FreeCollisionConfig:
    """Copy of the config with the coupling rescaled onto phase = pi."""
    return _rescaled_to_pi(cfg, phase_integral_free(cfg))


def error_variance_free(cfg: FreeCollisionConfig, dx0: float, dp0: float) -> float:
    """Phase variance (b^2/hbar^2) (int V'(rho)/rho dt)^2 (dx0^2 + T^2 dp0^2/4m^2)."""
    if dx0 <= 0 or dp0 <= 0:
        raise ValueError("wavepacket widths must be positive")
    if dx0 * dp0 < cfg.hbar / 2.0 - 1e-12:
        raise UncertaintyError(f"dx0*dp0 = {dx0 * dp0!r} violates the uncertainty relation")
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
    if m <= 0 or T <= 0:
        raise ValueError("m and T must be positive")
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
    if n <= 1:
        raise ValueError("power-law exponent must satisfy n > 1")
    if b <= 0:
        raise ValueError("b must be positive")
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


def effective_duration_rms(cfg: FreeCollisionConfig, phase: float) -> float:
    """2 * RMS width of V(rho(t)) over the window; diagnostic only.

    ``phase`` is :func:`phase_integral_free` of ``cfg``: hbar phase / 2 is
    the normalising integral of V over the half window.
    """
    if phase == 0.0:
        return 0.0
    c, e = cfg.potential.coupling, -0.5 * cfg.potential.n
    vv, bb = 4.0 * cfg.v * cfg.v, cfg.b * cfg.b
    second = _quad(lambda t: t * t * c * (vv * t * t + bb) ** e,
                   0.0, cfg.T / 2.0, epsabs=0.0, epsrel=1e-8, limit=400)
    return 2.0 * math.sqrt(2.0 * second / (phase * cfg.hbar))


def free_energy_bound(cfg: FreeCollisionConfig, epsilon: float) -> BoundReport:
    """Full free-collision chain at the optimal wavepacket.

    With the coupling calibrated to phase pi, the optimal-wavepacket error is
    delta^2 = (pi^2 T hbar / 2m) ((n-1)/b)^2; whenever delta^2 <= eps and
    b < v T hold, the pair kinetic energy m v^2 must exceed hbar/(eps T).
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    phase = phase_integral_free(cfg)
    off_calibration = abs(phase - PI) > PHASE_CALIBRATION_TOL
    log_deriv = powerlaw_log_derivative(cfg.potential.n, cfg.b)
    delta_sq = (PI * PI * cfg.T * cfg.hbar / (2.0 * cfg.m)) * log_deriv * log_deriv
    wp = optimal_wavepacket(cfg.m, cfg.T, cfg.hbar)
    energy = cfg.m * cfg.v * cfg.v
    bound = cfg.hbar / (epsilon * cfg.T)
    meta = {
        "epsilon": epsilon,
        "epsilon_unphysical": epsilon >= 1.0,
        "off_calibration": off_calibration,
        "error_within_epsilon": delta_sq <= epsilon,
        "dx0_sq": wp.dx0_sq,
        "dp0_sq": wp.dp0_sq,
        # 2 m hbar / T: the momentum variance obtained if the uncertainty
        # product were taken at hbar/sqrt(2) instead of hbar/2; kept for
        # comparison, not used in the chain.
        "dp0_sq_alt": 2.0 * cfg.m * cfg.hbar / cfg.T,
        "b_over_vT": cfg.b / (cfg.v * cfg.T),
        "effective_duration_rms": effective_duration_rms(cfg, phase),
    }
    return BoundReport(
        energy=energy,
        bound=bound,
        satisfied=bound_satisfied(energy, bound),
        phase=phase,
        error=delta_sq,
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
        for name in ("m", "omega", "A", "b", "hbar"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

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
    return _period_integral(cfg, lambda t: cfg.potential.value(cfg.rho(t)))


def _harmonic_force_integral(cfg: HarmonicCollisionConfig, weight: Callable[[float], float],
                             epsabs: float = 0.0) -> float:
    """int V'(rho(t)) weight(wt) dt over one period."""
    return _period_integral(
        cfg, lambda t: cfg.potential.derivative(cfg.rho(t)) * weight(cfg.omega * t), epsabs)


def harmonic_action_integrals(cfg: HarmonicCollisionConfig) -> tuple[float, float, float]:
    """(int V dt, int V' cos(wt) dt, int V' sin(wt) dt) over one period."""
    action = _harmonic_action(cfg)
    cos_int = _harmonic_force_integral(cfg, math.cos)
    sin_int = _harmonic_force_integral(cfg, math.sin, max(1e-13 * abs(cos_int), 1e-300))
    return action, cos_int, sin_int


def calibrated_harmonic(cfg: HarmonicCollisionConfig) -> HarmonicCollisionConfig:
    """Copy with the coupling making (1/hbar) int V(rho(t)) dt over one period equal pi."""
    return _rescaled_to_pi(cfg, _harmonic_action(cfg) / cfg.hbar)


@dataclass(frozen=True)
class HarmonicVariance:
    """Leading-order phase variance and its ingredient integrals."""

    delta_sq: float
    cos_integral: float
    sin_integral: float
    dx0_sq: float


def error_variance_harmonic(cfg: HarmonicCollisionConfig) -> HarmonicVariance:
    """delta^2 = (2/hbar^2)(int V' cos wt dt)^2 dx0^2 with dx0^2 = e^{-2r} hbar/2 m w.

    Requires the coupling calibrated to phase pi.  The sin-weighted integral
    is computed alongside and must vanish (relative to the cos-weighted one)
    by the symmetry of the unperturbed trajectory; its failure to do so
    signals a broken trajectory and raises.
    """
    action, cos_int, sin_int = harmonic_action_integrals(cfg)
    phase = action / cfg.hbar
    if abs(phase - PI) > PHASE_CALIBRATION_TOL:
        raise ValueError(
            f"coupling not calibrated: accumulated phase {phase!r} (want pi); "
            "use calibrated_harmonic() first"
        )
    if abs(sin_int) > SIN_SYMMETRY_TOL * abs(cos_int):
        raise NumericalInconsistencyError(
            f"sin-weighted integral {sin_int!r} fails the symmetry contract "
            f"against cos-weighted {cos_int!r}"
        )
    dx0_sq = math.exp(-2.0 * cfg.squeeze_r) * cfg.hbar / (2.0 * cfg.m * cfg.omega)
    delta_sq = (2.0 / (cfg.hbar * cfg.hbar)) * cos_int * cos_int * dx0_sq
    return HarmonicVariance(delta_sq, cos_int, sin_int, dx0_sq)


def harmonic_constraint_ratio(cfg: HarmonicCollisionConfig) -> float:
    """R = |int V' cos(wt) dt| / |int V dt|; the coupling cancels."""
    return abs(_harmonic_force_integral(cfg, math.cos)) / abs(_harmonic_action(cfg))


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
        vals.append(probe.b * harmonic_constraint_ratio(probe))
    if not abs(vals[2] - vals[1]) < abs(vals[1] - vals[0]):
        raise NumericalInconsistencyError(f"dipole ratio sequence not converging: {vals}")
    f21 = (10.0 * vals[1] - vals[0]) / 9.0
    f32 = (10.0 * vals[2] - vals[1]) / 9.0
    return (100.0 * f32 - f21) / 99.0


def harmonic_energy_bound(cfg: HarmonicCollisionConfig, epsilon: float) -> BoundReport:
    """Oscillator-pair energy m w^2 A^2 against hbar/(eps T) with T = 2 pi / w."""
    if cfg.potential.n != 3:
        raise ValueError("the harmonic chain is evaluated for the rho^-3 power law")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    hv = error_variance_harmonic(cfg)
    T = cfg.period
    energy = cfg.m * cfg.omega ** 2 * cfg.A ** 2
    bound = cfg.hbar / (epsilon * T)
    meta = {
        "epsilon": epsilon,
        "epsilon_unphysical": epsilon >= 1.0,
        "error_within_epsilon": hv.delta_sq <= epsilon,
        "amplitude_exceeds_gap": cfg.amplitude_exceeds_gap,
        "per_oscillator_energy": energy / 2.0,
        "delta_sq": hv.delta_sq,
        "interaction_time": T,
    }
    return BoundReport(
        energy=energy,
        bound=bound,
        satisfied=bound_satisfied(energy, bound),
        phase=PI,
        error=hv.delta_sq,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# classical return mismatch
# ---------------------------------------------------------------------------

# Dormand-Prince 8(5,3) tableau (Hairer, Norsett & Wanner, "Solving Ordinary
# Differential Equations I", sec. II.10), copied from SciPy's
# scipy/integrate/_ivp/dop853_coefficients.py (Copyright (c) 2001-2002
# Enthought, Inc., 2003 SciPy Developers; BSD-3-Clause license).  _DOP_A[s - 1]
# is the dense row of stage s over stages 0..s-1.
_DOP_C = (0.526001519587677318785587544488e-01, 0.789002279381515978178381316732e-01,
          0.118350341907227396726757197510, 0.281649658092772603273242802490,
          0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
          0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0)
_DOP_A = (
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1),
)
_DOP_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
          4.45031289275240888144113950566, 1.89151789931450038304281599044,
          -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
          -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
          4.47106157277725905176885569043e-2)
# the 3rd-order error weights are B minus these at stages 0, 8 and 11
_DOP_E3 = tuple(b - {0: 0.244094488188976377952755905512,
                     8: 0.733846688281611857341361741547,
                     11: 0.220588235294117647058823529412e-1}.get(j, 0.0)
                for j, b in enumerate(_DOP_B))
_DOP_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
           -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
           0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
           0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
           -0.2235530786388629525884427845e-1)

MAX_ODE_STEPS = 10_000  # step attempts, accepted or rejected, of one DOP853 solve


def _rms(values: list[float]) -> float:
    return math.hypot(*values) / math.sqrt(len(values))


def _dop853(rhs: Callable[[float, list[float]], list[float]], t0: float, t1: float,
            y0: list[float], rtol: float, atol: list[float]) -> list[float]:
    """y(t1) for y' = rhs(t, y), y(t0) = y0 and t1 > t0, by DOP853 on lists of floats.

    The error norm, step controller and initial step are those of SciPy's
    ``solve_ivp(method="DOP853")``; ``atol`` holds one tolerance per
    component.  Raises :class:`IntegrationError` with the time reached when
    the step size underflows or ``MAX_ODE_STEPS`` attempts do not reach t1.
    """
    n = len(y0)
    y = list(y0)
    f = rhs(t0, y)
    # initial step for an error estimator of order 7 (Hairer et al., sec. II.4)
    scale = [a + abs(v) * rtol for a, v in zip(atol, y)]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([d / s for d, s in zip(f, scale)])
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t1 - t0)
    f1 = rhs(t0 + h0, [v + h0 * d for v, d in zip(y, f)])
    d2 = _rms([(e - d) / s for d, e, s in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    h_abs = min(100.0 * h0, h1, t1 - t0)

    t, attempts, error_norm = t0, 0, 0.0
    while t < t1:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step or attempts == MAX_ODE_STEPS:
                reason = "step size underflow" if h_abs < min_step else "step cap reached"
                raise IntegrationError(
                    f"DOP853 integration stopped: {reason}",
                    {"function": rhs.__qualname__, "t_reached": t, "t_end": t1,
                     "step": h_abs, "attempts": attempts, "error_norm": error_norm,
                     "rtol": rtol, "atol": list(atol)},
                )
            attempts += 1
            t_new = min(t + h_abs, t1)
            h = t_new - t
            cols = [[d] for d in f]  # cols[i][s]: component i of stage s
            for c, row in zip(_DOP_C, _DOP_A):
                stage = rhs(t + c * h, [v + h * sum(map(mul, row, col))
                                        for v, col in zip(y, cols)])
                for col, k in zip(cols, stage):
                    col.append(k)
            y_new = [v + h * sum(map(mul, _DOP_B, col)) for v, col in zip(y, cols)]
            e5 = e3 = 0.0
            for a, v, w, col in zip(atol, y, y_new, cols):
                s = a + max(abs(v), abs(w)) * rtol
                r5 = sum(map(mul, _DOP_E5, col)) / s
                r3 = sum(map(mul, _DOP_E3, col)) / s
                e5 += r5 * r5  # x * x, unlike x ** 2, gives inf rather than OverflowError
                e3 += r3 * r3
            error_norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
            if error_norm < 1.0:
                factor = 10.0 if error_norm == 0.0 else min(10.0, 0.9 * error_norm ** -0.125)
                h_abs = h * (min(1.0, factor) if rejected else factor)
                break
            h_abs = h * max(0.2, 0.9 * error_norm ** -0.125)
            rejected = True
        t, y, f = t_new, y_new, rhs(t_new, y_new)
    return y


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
    scale = max(A, 1.0)
    yT = _dop853(rhs, 0.0, cfg.period, y0, RETURN_RTOL,
                 [scale * 1e-13, scale * w * 1e-13] * 2)
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
    dx_return: float
    dp_return: float


SECOND_ORDER_FLAG_FRACTION = 0.1


def squeezing_consistency_probe(cfg: HarmonicCollisionConfig,
                                epsilon: float) -> SqueezingProbe:
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    hv = error_variance_harmonic(cfg)
    mm = classical_return_mismatch(cfg)
    amplification = math.exp(2.0 * cfg.squeeze_r)
    momentum_mismatch = mm.dp ** 2 * amplification / (cfg.m * cfg.omega * cfg.hbar)
    proxy = momentum_mismatch ** 2
    return SqueezingProbe(
        delta_sq_leading=hv.delta_sq,
        momentum_mismatch=momentum_mismatch,
        second_order_proxy=proxy,
        flagged=proxy > SECOND_ORDER_FLAG_FRACTION * hv.delta_sq,
        dx_return=mm.dx,
        dp_return=mm.dp,
    )

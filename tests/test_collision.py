import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gatebound import (
    FreeCollisionConfig,
    HarmonicCollisionConfig,
    PotentialLaw,
    UncertaintyError,
    calibrate_coupling,
    calibrated,
    calibrated_harmonic,
    classical_return_mismatch,
    dipole_leading_ratio,
    error_variance_free,
    error_variance_harmonic,
    free_energy_bound,
    harmonic_constraint_ratio,
    harmonic_energy_bound,
    mismatch_norm,
    optimal_wavepacket,
    phase_integral_free,
    powerlaw_log_derivative,
    squeezing_consistency_probe,
)
from gatebound.collision import (
    harmonic_action_integrals,
    powerlaw_log_derivative_pair,
    trap_energy_drift,
    wavepacket_objective,
)
from gatebound.errors import DegenerateConfigError, IntegrationError

PI = math.pi


def free_cfg(n=2.0, C=1.0, m=1.0, v=1.0, b=1.0, T=8.0):
    return FreeCollisionConfig(m=m, v=v, b=b, T=T, potential=PotentialLaw.power_law(n, C))


# ---------------------------------------------------------------------------
# free collisions
# ---------------------------------------------------------------------------

def test_phase_zero_potential():
    assert phase_integral_free(free_cfg(C=0.0)) == 0.0


def test_phase_n2_closed_form():
    # int_{-T/2}^{T/2} C/(4 v^2 t^2 + b^2) dt = (C/(v b)) arctan(v T / b)
    cfg = free_cfg(n=2.0, C=1.7, v=1.3, b=0.8, T=10.0)
    expected = cfg.potential.coupling / (cfg.v * cfg.b) * math.atan(cfg.v * cfg.T / cfg.b)
    assert abs(phase_integral_free(cfg) - expected) < 1e-9 * expected
    # approaches C pi/(2 v b) as the window grows
    wide = free_cfg(n=2.0, C=1.7, v=1.3, b=0.8, T=1e4)
    infinite = cfg.potential.coupling * PI / (2.0 * cfg.v * cfg.b)
    assert abs(phase_integral_free(wide) - infinite) < 1e-3 * infinite


def test_phase_linear_in_coupling():
    p1 = phase_integral_free(free_cfg(C=1.0))
    p2 = phase_integral_free(free_cfg(C=2.0))
    assert abs(p2 - 2.0 * p1) < 1e-10 * p2


def test_even_integrand_identity():
    cfg = free_cfg(n=3.0, C=0.9, v=1.1, b=0.7, T=6.0)
    full, _ = quad(lambda t: cfg.potential.value(cfg.rho(t)), -cfg.T / 2, cfg.T / 2,
                   epsabs=0.0, epsrel=1e-12, limit=400)
    assert abs(phase_integral_free(cfg) - full) < 1e-10 * abs(full)


def test_calibration_reaches_pi():
    cfg = free_cfg(n=2.0)
    cal = calibrated(cfg)
    assert abs(phase_integral_free(cal) - PI) < 1e-9
    # linearity: calibrating from a different starting coupling lands on the same C*
    assert abs(calibrate_coupling(free_cfg(C=3.0)) - calibrate_coupling(cfg)) < 1e-9


def test_calibration_closed_form_n2():
    cfg = free_cfg(n=2.0, v=1.4, b=0.6, T=5.0)
    expected = PI * cfg.v * cfg.b / math.atan(cfg.v * cfg.T / cfg.b)
    assert abs(calibrate_coupling(cfg) - expected) < 1e-9 * expected


def test_phase_times_speed_invariant_under_window_rescaling():
    # (v, T) -> (2v, T/2) keeps v * phase fixed (the integrand depends on vt,
    # the measure contributes the 1/v)
    cfg = free_cfg(n=2.0, v=1.0, b=0.5, T=6.0)
    fast = free_cfg(n=2.0, v=2.0, b=0.5, T=3.0)
    assert abs(2.0 * phase_integral_free(fast) - phase_integral_free(cfg)) < 1e-9


def test_degenerate_calibration_raises():
    with pytest.raises(DegenerateConfigError):
        calibrate_coupling(free_cfg(C=0.0))


def test_unconverged_quadrature_raises_with_diagnostics():
    # ~2200 oscillations of the potential cannot be resolved in 400 subintervals
    wiggly = PotentialLaw.custom(lambda r: math.exp(-r) * math.sin(2000.0 * r), lambda r: 0.0)
    cfg = FreeCollisionConfig(m=1.0, v=1.0, b=1.0, T=8.0, potential=wiggly)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's own subdivision-limit warning
        with pytest.raises(IntegrationError) as info:
            phase_integral_free(cfg)
    diag = info.value.diagnostics
    assert diag["function"].startswith("phase_integral_free")
    assert diag["bounds"] == (0.0, 4.0)
    assert diag["error_estimate"] > diag["tolerance"] > 0.0
    assert math.isfinite(diag["value"])


def test_error_variance_zero_potential():
    assert error_variance_free(free_cfg(C=0.0), 1.0, 1.0) == 0.0


def test_error_variance_monotone_in_dx0():
    cfg = free_cfg(n=3.0)
    values = [error_variance_free(cfg, dx0, 2.0 / dx0) for dx0 in (1.0, 2.0, 4.0)]
    # at fixed dp0 the variance grows with dx0; rebuild with fixed dp0
    values = [error_variance_free(cfg, dx0, 1.0) for dx0 in (1.0, 2.0, 4.0)]
    assert values[0] < values[1] < values[2]


def test_error_variance_against_refined_quadrature():
    cfg = free_cfg(n=3.0, C=0.8, v=1.2, b=0.9, T=7.0)
    dx0, dp0 = 1.1, 0.7
    j, _ = quad(lambda t: cfg.potential.derivative(cfg.rho(t)) / cfg.rho(t),
                -cfg.T / 2, cfg.T / 2, epsabs=0.0, epsrel=1e-13, limit=500)
    expected = (cfg.b ** 2) * j * j * (dx0 ** 2 + cfg.T ** 2 * dp0 ** 2 / (4 * cfg.m ** 2))
    got = error_variance_free(cfg, dx0, dp0)
    assert abs(got - expected) < 1e-8 * expected


def test_error_variance_rejects_unphysical_wavepacket():
    with pytest.raises(UncertaintyError):
        error_variance_free(free_cfg(), 0.1, 0.1)


def test_optimal_wavepacket_values():
    m, T = 1.7, 2.3
    wp = optimal_wavepacket(m, T)
    assert abs(wp.dx0_sq - T / (4 * m)) < 1e-15
    assert abs(wp.dp0_sq - m / T) < 1e-15
    assert abs(math.sqrt(wp.dx0_sq * wp.dp0_sq) - 0.5) < 1e-12
    assert abs(wavepacket_objective(m, T, *wp) - T / (2 * m)) < 1e-12


def test_optimal_wavepacket_minimises_measured_variance():
    cfg = calibrated(free_cfg(n=2.0, m=30.0, v=1.0, b=2.0, T=10.0))
    wp = optimal_wavepacket(cfg.m, cfg.T)
    best = error_variance_free(cfg, math.sqrt(wp.dx0_sq), math.sqrt(wp.dp0_sq))
    for s in (0.5, 0.8, 1.3, 2.0):
        dx0 = math.sqrt(wp.dx0_sq) * s
        assert best <= error_variance_free(cfg, dx0, 0.5 / dx0) * (1 + 1e-12)


@pytest.mark.parametrize("n", [1.5, 2.0, 3.0, 4.0, 6.0])
def test_log_derivative_analytic_vs_quadrature(n):
    analytic, numeric = powerlaw_log_derivative_pair(n, 2.0)
    assert abs(numeric - analytic) < 1e-6 * abs(analytic)


def test_log_derivative_values():
    assert abs(powerlaw_log_derivative(3.0, 2.0) - (-1.0)) < 1e-15
    assert abs(powerlaw_log_derivative(2.0, 1.0) - (-1.0)) < 1e-15


def test_free_energy_bound_boundary_ratio():
    # at b -> vT and epsilon = delta^2 the slack factor is pi^2 (n-1)^2 / 2
    n, m, v, T = 2.0, 400.0, 1.0, 4.0
    b = v * T * (1.0 - 1e-9)
    cfg = calibrated(FreeCollisionConfig(m=m, v=v, b=b, T=T,
                                         potential=PotentialLaw.power_law(n)))
    probe = free_energy_bound(cfg, 0.5)
    report = free_energy_bound(cfg, probe.error)
    expected = PI ** 2 * (n - 1) ** 2 / 2.0 * (v * T / b) ** 2
    assert abs(report.ratio - expected) < 1e-6 * expected
    assert report.satisfied


def test_free_energy_bound_metadata():
    cfg = calibrated(free_cfg(n=2.0, m=50.0, v=2.0, b=3.0, T=6.0))
    report = free_energy_bound(cfg, 0.4)
    assert report.meta["dp0_sq_alt"] == pytest.approx(2.0 * cfg.m / cfg.T)
    assert report.meta["effective_duration_rms"] > 0.0
    assert not report.meta["off_calibration"]
    assert report.bound == pytest.approx(1.0 / (0.4 * cfg.T))


def test_config_validation():
    with pytest.raises(ValueError):
        FreeCollisionConfig(m=1, v=1, b=9, T=8, potential=PotentialLaw.power_law(2))
    with pytest.raises(ValueError):
        PotentialLaw.power_law(1.0)
    slow_decay = PotentialLaw.custom(lambda r: 1.0, lambda r: 0.0)
    with pytest.raises(ValueError):
        FreeCollisionConfig(m=1, v=1, b=1, T=8, potential=slow_decay)


# ---------------------------------------------------------------------------
# harmonic trap: closed-form oracle for the rho^-3 integrals
# ---------------------------------------------------------------------------

def _k_integrals(q):
    # K_m(q) = int_0^pi (cos^2 x + q)^{-m} dx via successive d/dq of K_1
    u = 2.0 * q + 1.0
    w = q * q + q
    k1 = PI * w ** -0.5
    k2 = PI * u / (2.0 * w ** 1.5)
    k3 = PI * (0.375 * u ** 2 * w ** -2.5 - 0.5 * w ** -1.5)
    k4 = PI * (0.3125 * u ** 3 * w ** -3.5 - 0.75 * u * w ** -2.5)
    return k1, k2, k3, k4


def _closed_form_integrals(cfg):
    q = cfg.b / (4.0 * cfg.A)
    four_a = 4.0 * cfg.A
    _, _, k3, k4 = _k_integrals(q)
    c = cfg.potential.coupling
    action = 2.0 * c / (cfg.omega * four_a ** 3) * k3
    cos_int = (-6.0 * c / (cfg.omega * four_a ** 4)) * (2.0 * k3 - (2.0 * q + 1.0) * k4)
    return action, cos_int


def harmonic_cfg(m=1.0, omega=1.0, A=100.0, b=30.0, C=1.0, r=0.0):
    return HarmonicCollisionConfig(m=m, omega=omega, A=A, b=b,
                                   potential=PotentialLaw.power_law(3.0, C), squeeze_r=r)


def test_trajectory_endpoints_exact():
    cfg = harmonic_cfg(A=1.0, b=0.3)
    assert cfg.rho(0.0) == 4.0 * cfg.A + cfg.b
    assert cfg.rho(cfg.period / 2.0) == cfg.b
    assert cfg.rho(cfg.period) == pytest.approx(4.0 * cfg.A + cfg.b, rel=1e-15)


def test_trajectory_even_about_closest_approach():
    cfg = harmonic_cfg()
    mid = cfg.period / 2.0
    for dt in (0.1, 0.5, 1.2):
        assert cfg.rho(mid - dt) == pytest.approx(cfg.rho(mid + dt), rel=1e-12)


def test_harmonic_integrals_match_closed_form():
    for b_over_a in (0.3, 1e-2, 1e-3):
        cfg = harmonic_cfg(b=100.0 * b_over_a)
        action, cos_int, sin_int = harmonic_action_integrals(cfg)
        action_cf, cos_cf = _closed_form_integrals(cfg)
        assert abs(action - action_cf) < 1e-8 * abs(action_cf)
        assert abs(cos_int - cos_cf) < 1e-8 * abs(cos_cf)
        assert abs(sin_int) < 1e-9 * abs(cos_int)


def test_error_variance_harmonic_closed_form_and_squeezing():
    cfg = calibrated_harmonic(harmonic_cfg())
    hv = error_variance_harmonic(cfg)
    _, cos_cf = _closed_form_integrals(cfg)
    expected = 2.0 * cos_cf ** 2 * (1.0 / (2.0 * cfg.m * cfg.omega))
    assert abs(hv.delta_sq - expected) < 1e-8 * expected
    squeezed = calibrated_harmonic(harmonic_cfg(r=0.7))
    hv_squeezed = error_variance_harmonic(squeezed)
    assert hv_squeezed.delta_sq == pytest.approx(math.exp(-1.4) * hv.delta_sq, rel=1e-12)


def test_error_variance_requires_calibration():
    with pytest.raises(ValueError):
        error_variance_harmonic(harmonic_cfg())


def test_constraint_ratio_independent_of_coupling():
    r1 = harmonic_constraint_ratio(harmonic_cfg(C=1.0))
    r7 = harmonic_constraint_ratio(harmonic_cfg(C=7.0))
    assert r1 == pytest.approx(r7, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=16)
@given(A=st.floats(0.5, 1e4), omega=st.floats(0.1, 10.0), m=st.floats(0.2, 50.0))
def test_dipole_leading_ratio_limit(A, omega, m):
    # b * R(b) -> 5/2 at any scale; R does not depend on the (uncalibrated) coupling
    cfg = HarmonicCollisionConfig(m=m, omega=omega, A=A, b=0.3 * A,
                                  potential=PotentialLaw.power_law(3.0))
    assert abs(dipole_leading_ratio(cfg) - 2.5) < 0.01


def test_dipole_ratio_at_finite_gap():
    cfg = harmonic_cfg(b=1.0)  # b/A = 1e-2
    value = cfg.b * harmonic_constraint_ratio(cfg)
    assert abs(value - 2.5) < 0.05 * 2.5


def test_harmonic_energy_bound_chain():
    cfg = calibrated_harmonic(harmonic_cfg(m=2.0))
    hv = error_variance_harmonic(cfg)
    report = harmonic_energy_bound(cfg, epsilon=max(hv.delta_sq * 1.5, 1e-6))
    assert report.satisfied
    assert report.meta["amplitude_exceeds_gap"]
    assert report.energy == pytest.approx(cfg.m * cfg.omega ** 2 * cfg.A ** 2)
    assert report.meta["per_oscillator_energy"] == pytest.approx(report.energy / 2.0)
    assert report.bound == pytest.approx(1.0 / (report.meta["epsilon"] * cfg.period))


def test_harmonic_bound_trivial_for_large_epsilon():
    cfg = calibrated_harmonic(harmonic_cfg(m=2.0))
    report = harmonic_energy_bound(cfg, epsilon=2.0)
    assert report.satisfied
    assert report.meta["epsilon_unphysical"]


def test_harmonic_bound_slack_at_gap_equals_amplitude():
    # A = b with epsilon = delta^2: slack at least (5/2)^2 pi^2 / 2
    cfg = calibrated_harmonic(harmonic_cfg(m=5000.0, A=30.0, b=30.0))
    hv = error_variance_harmonic(cfg)
    assert hv.delta_sq < 1.0
    report = harmonic_energy_bound(cfg, epsilon=hv.delta_sq)
    assert report.ratio >= (2.5 ** 2) * PI ** 2 / 2.0


# ---------------------------------------------------------------------------
# classical return mismatch
# ---------------------------------------------------------------------------

def test_return_mismatch_vanishes_without_interaction():
    cfg = harmonic_cfg(C=0.0)
    mm = classical_return_mismatch(cfg)
    assert abs(mm.dx) < 1e-8 * cfg.A
    assert abs(mm.dp) < 1e-8 * cfg.A * cfg.m * cfg.omega


def test_trap_only_energy_conservation():
    assert trap_energy_drift(harmonic_cfg()) < 1e-8


def test_return_mismatch_scalings():
    cfg = calibrated_harmonic(harmonic_cfg())
    half = harmonic_cfg(C=cfg.potential.coupling / 2.0)
    quarter = harmonic_cfg(C=cfg.potential.coupling / 4.0)
    mm1 = classical_return_mismatch(cfg)
    mm2 = classical_return_mismatch(half)
    mm4 = classical_return_mismatch(quarter)
    # momentum deviation is first order in the coupling
    assert abs(mm1.dp / mm2.dp - 2.0) < 0.05 * 2.0
    assert abs(mm2.dp / mm4.dp - 2.0) < 0.05 * 2.0
    # position deviation is second order: halving the coupling quarters it
    assert abs(mm1.dx / mm2.dx - 4.0) < 0.4
    # phase-space norm is dominated by dp, hence halves
    n1 = mismatch_norm(mm1, cfg)
    n2 = mismatch_norm(mm2, half)
    assert abs(n1 / n2 - 2.0) < 0.05 * 2.0


def test_return_mismatch_nonzero_at_calibrated_coupling():
    cfg = calibrated_harmonic(harmonic_cfg())
    norm = mismatch_norm(classical_return_mismatch(cfg), cfg)
    assert norm > 1e3 * 1e-10 * cfg.A
    # leading-order physics: |dp| ~ |int V' cos dt| = pi hbar R
    _, cos_int, _ = harmonic_action_integrals(cfg)
    mm = classical_return_mismatch(cfg)
    assert abs(abs(mm.dp) - abs(cos_int)) < 0.1 * abs(cos_int)


# ---------------------------------------------------------------------------
# squeezing probe
# ---------------------------------------------------------------------------

def test_probe_quiet_for_unsqueezed_desk_config():
    cfg = calibrated_harmonic(harmonic_cfg(m=2.0))
    hv = error_variance_harmonic(cfg)
    assert hv.delta_sq <= 0.05
    probe = squeezing_consistency_probe(cfg, epsilon=0.05)
    assert not probe.flagged
    assert probe.second_order_proxy == pytest.approx(probe.momentum_mismatch ** 2)


def test_probe_flags_extreme_position_squeezing():
    epsilon = 1e-4
    r = -0.5 * math.log(math.sqrt(epsilon))  # e^{-2r} = sqrt(eps)
    cfg = calibrated_harmonic(harmonic_cfg(m=12.7, r=r))
    hv = error_variance_harmonic(cfg)
    assert hv.delta_sq <= epsilon
    probe = squeezing_consistency_probe(cfg, epsilon)
    assert probe.flagged


def test_probe_momentum_term_vanishes_without_coupling():
    mm = classical_return_mismatch(harmonic_cfg(C=0.0))
    assert abs(mm.dp) < 1e-8
    assert abs(mm.dx) < 1e-8

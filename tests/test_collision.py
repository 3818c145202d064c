import csv
import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gatebound import (
    FreeCollisionConfig,
    HarmonicCollisionConfig,
    PotentialLaw,
    UncertaintyError,
    classical_return_mismatch,
    dipole_leading_ratio,
    error_variance_free,
    error_variance_harmonic,
    free_chain,
    free_energy_bound,
    harmonic_energy_bound,
    mismatch_norm,
    optimal_wavepacket,
    phase_integral_free,
    powerlaw_log_derivative,
    squeezing_consistency_probe,
)
from gatebound import collision
from gatebound.cli import main
from gatebound.collision import (
    powerlaw_log_derivative_pair,
    wavepacket_objective,
)
from gatebound.errors import DegenerateConfigError, IntegrationError, NumericalInconsistencyError
from gatebound.report import PHASE_CALIBRATION_TOL
from gatebound.verify import CRITERIA

PI = math.pi


def free_cfg(n=2.0, C=1.0, m=1.0, v=1.0, b=1.0, T=8.0):
    return FreeCollisionConfig(m=m, v=v, b=b, T=T, potential=PotentialLaw(n, C))


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
    cal = free_chain(free_cfg(n=2.0)).cfg
    assert abs(phase_integral_free(cal) - PI) < 1e-9
    # linearity: calibrating from a different starting coupling lands on the same C*
    assert abs(free_chain(free_cfg(C=3.0)).cfg.potential.coupling
               - cal.potential.coupling) < 1e-9


def test_calibration_closed_form_n2():
    cfg = free_cfg(n=2.0, v=1.4, b=0.6, T=5.0)
    expected = PI * cfg.v * cfg.b / math.atan(cfg.v * cfg.T / cfg.b)
    assert abs(free_chain(cfg).cfg.potential.coupling - expected) < 1e-9 * expected


def test_phase_times_speed_invariant_under_window_rescaling():
    # (v, T) -> (2v, T/2) keeps v * phase fixed (the integrand depends on vt,
    # the measure contributes the 1/v)
    cfg = free_cfg(n=2.0, v=1.0, b=0.5, T=6.0)
    fast = free_cfg(n=2.0, v=2.0, b=0.5, T=3.0)
    assert abs(2.0 * phase_integral_free(fast) - phase_integral_free(cfg)) < 1e-9


def test_degenerate_calibration_raises():
    with pytest.raises(DegenerateConfigError):
        free_chain(free_cfg(C=0.0))
    with pytest.raises(DegenerateConfigError):
        error_variance_harmonic(harmonic_cfg(C=0.0))


def test_unconverged_quadrature_raises_with_diagnostics(monkeypatch):
    # a quad whose error estimate exceeds every tolerance stands in for an
    # integrand it could not resolve
    exact_quad = collision.quad

    def unconverged_quad(fn, a, b, **kwargs):
        val, err = exact_quad(fn, a, b, **kwargs)
        return val, err + 1.0

    monkeypatch.setattr(collision, "quad", unconverged_quad)
    with pytest.raises(IntegrationError) as info:
        phase_integral_free(free_cfg())
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
    si = FreeCollisionConfig(m=1e-26, v=1.0, b=1.0, T=8.0, potential=PotentialLaw(2.0),
                             hbar=1.054571817e-34)
    with pytest.raises(UncertaintyError):  # dx0*dp0 = 1e-40 < hbar/2 = 5.3e-35
        error_variance_free(si, 1e-20, 1e-20)


def test_optimal_wavepacket_values():
    m, T = 1.7, 2.3
    wp = optimal_wavepacket(m, T)
    assert abs(wp.dx0_sq - T / (4 * m)) < 1e-15
    assert abs(wp.dp0_sq - m / T) < 1e-15
    assert abs(math.sqrt(wp.dx0_sq * wp.dp0_sq) - 0.5) < 1e-12
    assert abs(wavepacket_objective(m, T, *wp) - T / (2 * m)) < 1e-12


def test_optimal_wavepacket_minimises_measured_variance():
    cfg = free_chain(free_cfg(n=2.0, m=30.0, v=1.0, b=2.0, T=10.0)).cfg
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
    chain = free_chain(FreeCollisionConfig(m=m, v=v, b=b, T=T, potential=PotentialLaw(n)))
    report = free_energy_bound(chain, chain.delta_sq)
    expected = PI ** 2 * (n - 1) ** 2 / 2.0 * (v * T / b) ** 2
    assert abs(report.ratio - expected) < 1e-6 * expected
    assert report.satisfied


def test_free_energy_bound_metadata():
    chain = free_chain(free_cfg(n=2.0, m=50.0, v=2.0, b=3.0, T=6.0))
    cfg = chain.cfg
    report = free_energy_bound(chain, 0.4)
    assert report.meta["dp0_sq_alt"] == pytest.approx(2.0 * cfg.m / cfg.T)
    assert report.meta["effective_duration_rms"] > 0.0
    assert not report.meta["off_calibration"]
    assert report.bound == pytest.approx(1.0 / (0.4 * cfg.T))


@pytest.mark.parametrize("m, v, b", [(1.0, 1.0, 1.0), (40.0, 2.0, 4.0), (7.0, 0.3, 2.5)])
def test_free_chain_error_is_its_wide_window_limit(m, v, b):
    # delta^2 is the vT >> b closed form, while the phase keeps the finite
    # window; the window's own quadrature at the optimal wavepacket reads
    # more (1.39x at n = 2, vT/b = 4) and meets it as the window widens
    for n in (1.5, 2.0, 3.0):
        for window in (4.0, 40.0, 400.0):
            chain = free_chain(free_cfg(n=n, m=m, v=v, b=b, T=window * b / v))
            wp = chain.wavepacket
            ratio = error_variance_free(chain.cfg, math.sqrt(wp.dx0_sq),
                                        math.sqrt(wp.dp0_sq)) / chain.delta_sq
            assert ratio >= 1.0, (n, window)
            if (n, window) == (2.0, 400.0):
                assert ratio <= 1.005


def test_config_validation():
    with pytest.raises(ValueError):
        FreeCollisionConfig(m=1, v=1, b=9, T=8, potential=PotentialLaw(2))
    with pytest.raises(ValueError):
        PotentialLaw(1.0)
    with pytest.raises(ValueError):
        PotentialLaw(0.5)


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
                                   potential=PotentialLaw(3.0, C), squeeze_r=r)


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


@pytest.mark.parametrize("cfg", [
    harmonic_cfg(),
    harmonic_cfg(A=1.0, b=0.3, C=2.5),
    HarmonicCollisionConfig(m=1.0, omega=0.7, A=3.0, b=0.2, potential=PotentialLaw(2.5, 1.7)),
])
def test_harmonic_integrands_keep_the_bits_of_the_potential_on_the_trajectory(cfg):
    # the period integrals inline C rho^-n and -n C rho^(-n-1) on
    # rho(t) = 2A(1 + cos wt) + b; every node must give PotentialLaw's bits
    hv = error_variance_harmonic(cfg)
    cfg = hv.cfg
    pot, w = cfg.potential, cfg.omega
    action = collision._period_integral(cfg, lambda t: pot.value(cfg.rho(t)))
    cos_int = collision._period_integral(
        cfg, lambda t: pot.derivative(cfg.rho(t)) * math.cos(w * t))
    sin_int = collision._period_integral(
        cfg, lambda t: pot.derivative(cfg.rho(t)) * math.sin(w * t),
        max(1e-13 * abs(cos_int), 1e-300))
    assert (hv.action, hv.cos_integral, hv.sin_integral) == (action, cos_int, sin_int)


def test_harmonic_integrals_match_closed_form():
    for b_over_a in (0.3, 1e-2, 1e-3):
        hv = error_variance_harmonic(harmonic_cfg(b=100.0 * b_over_a))
        action_cf, cos_cf = _closed_form_integrals(hv.cfg)
        assert abs(hv.action - action_cf) < 1e-8 * abs(action_cf)
        assert abs(hv.cos_integral - cos_cf) < 1e-8 * abs(cos_cf)
        assert abs(hv.sin_integral) < 1e-9 * abs(hv.cos_integral)


def test_error_variance_harmonic_closed_form_and_squeezing():
    hv = error_variance_harmonic(harmonic_cfg())
    cfg = hv.cfg
    _, cos_cf = _closed_form_integrals(cfg)
    expected = 2.0 * cos_cf ** 2 * (1.0 / (2.0 * cfg.m * cfg.omega))
    assert abs(hv.delta_sq - expected) < 1e-8 * expected
    hv_squeezed = error_variance_harmonic(harmonic_cfg(r=0.7))
    assert hv_squeezed.delta_sq == pytest.approx(math.exp(-1.4) * hv.delta_sq, rel=1e-12)


def _counted_quads(monkeypatch):
    """Calls to the ``quad`` name that the collision quadratures look up."""
    calls = []
    original = collision.quad

    def counted(fn, a, b, **kwargs):
        calls.append(fn)
        return original(fn, a, b, **kwargs)

    monkeypatch.setattr(collision, "quad", counted)
    return calls


def _counted_odes(monkeypatch):
    """Calls to the ``_dop853`` name that the return-mismatch trajectory looks up."""
    calls = []
    original = collision._dop853

    def counted(rhs, *args):
        calls.append(rhs)
        return original(rhs, *args)

    monkeypatch.setattr(collision, "_dop853", counted)
    return calls


def _constraint_ratio(cfg):
    """R = |int V' cos(wt) dt| / |int V dt| integrated at ``cfg``'s own coupling."""
    return (abs(collision._harmonic_force_integral(cfg, math.cos))
            / abs(collision._harmonic_action(cfg)))


def test_error_variance_harmonic_calibrates_a_raw_config(monkeypatch):
    # the raw coupling C = 7 is rescaled onto phase pi; the action integrated
    # again at the calibrated coupling reads pi, and the return mismatch is
    # solved once, at that coupling
    raw = harmonic_cfg(C=7.0)
    calls, odes = _counted_quads(monkeypatch), _counted_odes(monkeypatch)
    hv = error_variance_harmonic(raw)
    assert (len(calls), len(odes)) == (4, 1)
    assert abs(hv.action / hv.cfg.hbar - PI) <= PHASE_CALIBRATION_TOL
    assert hv.cfg == collision._rescaled_to_pi(raw, collision._harmonic_action(raw) / raw.hbar)
    assert hv.mismatch == classical_return_mismatch(hv.cfg)
    assert hv.constraint_ratio == _constraint_ratio(hv.cfg)


def test_error_variance_harmonic_raises_on_a_calibration_off_pi(monkeypatch):
    # a calibration that leaves the coupling alone is caught on the action,
    # before the two force integrals and the trajectory run
    monkeypatch.setattr(collision, "_rescaled_to_pi", lambda cfg, phase: cfg)
    calls, odes = _counted_quads(monkeypatch), _counted_odes(monkeypatch)
    with pytest.raises(NumericalInconsistencyError, match="off pi"):
        error_variance_harmonic(harmonic_cfg())
    assert (len(calls), len(odes)) == (2, 0)


def test_free_chain_evaluates_the_chain_once(monkeypatch):
    # calibration, phase at the calibrated coupling and RMS width, in that order
    calls = _counted_quads(monkeypatch)
    chain = free_chain(free_cfg(C=7.0))
    assert [fn.__qualname__.split(".")[0] for fn in calls] == [
        "phase_integral_free", "phase_integral_free", "free_chain"]
    assert chain.cfg == collision._rescaled_to_pi(free_cfg(C=7.0),
                                                  phase_integral_free(free_cfg(C=7.0)))
    assert chain.phase == phase_integral_free(chain.cfg)


HARMONIC_ARGS = ["--m", "1", "--omega", "1", "--amplitude", "100", "--gap", "30"]


def test_collision_harmonic_evaluates_the_chain_once(tmp_path, monkeypatch):
    # calibration 1, chain evaluation 3 and its trajectory, read by the bound,
    # the probe and the ratio cell
    calls, odes = _counted_quads(monkeypatch), _counted_odes(monkeypatch)
    assert main(["collision-harmonic", *HARMONIC_ARGS, "--epsilon", "0.1",
                 "--output", str(tmp_path / "run")]) == 0
    assert (len(calls), len(odes)) == (4, 1)


@pytest.mark.parametrize("caller, quads, odes", [
    # the collision-harmonic evaluation, plus the trajectory at half the coupling
    (["return-mismatch", *HARMONIC_ARGS], 4, 2),
    # three dipole-ratio probes of 2 quadratures each, then as return-mismatch
    (8, 10, 2),
    # 27 free chains of 3 quadratures each and 5 log-derivative pairs of 2
    (7, 91, 0),
])
def test_numerics_per_caller(tmp_path, monkeypatch, caller, quads, odes):
    calls, solves = _counted_quads(monkeypatch), _counted_odes(monkeypatch)
    if isinstance(caller, int):
        assert CRITERIA[caller]().passed
    else:
        assert main([*caller, "--output", str(tmp_path / "run")]) == 0
    assert (len(calls), len(solves)) == (quads, odes)


def test_return_mismatch_and_collision_harmonic_write_one_coupling(tmp_path):
    rows = []
    for command in (["collision-harmonic", "--epsilon", "0.1"], ["return-mismatch"]):
        out = tmp_path / command[0]
        assert main([*command, *HARMONIC_ARGS, "--output", str(out)]) == 0
        with open(out / "result.csv", newline="", encoding="utf-8") as fh:
            rows.append(next(csv.DictReader(fh)))
    assert rows[0]["calibrated_coupling"] == rows[1]["calibrated_coupling"]


@pytest.mark.parametrize("squeeze_r", ["0", "0.5"])
def test_collision_harmonic_ratio_cell_is_the_constraint_ratio(tmp_path, squeeze_r):
    # the ratio read from the evaluation is the bits that the two integrals
    # give again at the calibrated coupling
    out = tmp_path / "run"
    assert main(["collision-harmonic", "--m", "1", "--omega", "1", "--amplitude", "100",
                 "--gap", "30", "--epsilon", "0.1", "--squeeze-r", squeeze_r,
                 "--output", str(out)]) == 0
    with open(out / "result.csv", newline="", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    cfg = error_variance_harmonic(HarmonicCollisionConfig(
        m=1.0, omega=1.0, A=100.0, b=30.0, potential=PotentialLaw(3.0),
        squeeze_r=float(squeeze_r))).cfg
    assert row["gap_times_constraint_ratio"] == repr(cfg.b * _constraint_ratio(cfg))


@pytest.mark.parametrize("squeeze_r, code, message", [
    ("200", 3, "second_order_proxy"),   # e^{2r} is finite, its square in the proxy is not
    ("300", 3, "second_order_proxy"),
    ("400", 2, "overflows"),            # e^{2r} itself overflows
    ("-400", 2, "overflows"),           # and so does e^{-2r} in dx0^2
])
def test_collision_harmonic_overflowing_squeeze_exits_without_artifacts(
        tmp_path, capsys, squeeze_r, code, message):
    out = tmp_path / "run"
    assert main(["collision-harmonic", *HARMONIC_ARGS, "--epsilon", "0.1",
                 "--squeeze-r", squeeze_r, "--output", str(out)]) == code
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_non_finite_error_variance_raises():
    # e^{-2r} hbar / (2 m w) overflows at a tiny mass although e^{-2r} does not
    with pytest.raises(NumericalInconsistencyError, match="delta_sq"):
        error_variance_harmonic(harmonic_cfg(m=1e-30, A=1.0, b=0.01, r=-354.0))


def test_harmonic_bound_reads_the_evaluation_at_any_epsilon(monkeypatch):
    hv = error_variance_harmonic(harmonic_cfg(m=2.0))
    calls = _counted_quads(monkeypatch)
    for epsilon in (1e-3, 0.1, 2.0):
        report = harmonic_energy_bound(hv, epsilon)
        assert report.error == hv.delta_sq == report.meta["delta_sq"]
        assert report.bound * epsilon == pytest.approx(1.0 / hv.cfg.period, rel=1e-15)
    assert calls == []


def test_constraint_ratio_independent_of_coupling():
    r1 = _constraint_ratio(harmonic_cfg(C=1.0))
    r7 = _constraint_ratio(harmonic_cfg(C=7.0))
    assert r1 == pytest.approx(r7, rel=1e-12)


@settings(derandomize=True, deadline=None, max_examples=16)
@given(A=st.floats(0.5, 1e4), omega=st.floats(0.1, 10.0), m=st.floats(0.2, 50.0))
def test_dipole_leading_ratio_limit(A, omega, m):
    # b * R(b) -> 5/2 at any scale; R does not depend on the (uncalibrated) coupling
    cfg = HarmonicCollisionConfig(m=m, omega=omega, A=A, b=0.3 * A,
                                  potential=PotentialLaw(3.0))
    assert abs(dipole_leading_ratio(cfg) - 2.5) < 0.01


def test_dipole_ratio_at_finite_gap():
    hv = error_variance_harmonic(harmonic_cfg(b=1.0))  # b/A = 1e-2
    value = hv.cfg.b * hv.constraint_ratio
    assert abs(value - 2.5) < 0.05 * 2.5


def test_harmonic_energy_bound_chain():
    hv = error_variance_harmonic(harmonic_cfg(m=2.0))
    cfg = hv.cfg
    report = harmonic_energy_bound(hv, epsilon=max(hv.delta_sq * 1.5, 1e-6))
    assert report.satisfied
    assert report.meta["amplitude_exceeds_gap"]
    assert report.energy == pytest.approx(cfg.m * cfg.omega ** 2 * cfg.A ** 2)
    assert report.meta["per_oscillator_energy"] == pytest.approx(report.energy / 2.0)
    assert report.bound == pytest.approx(1.0 / (report.epsilon * cfg.period))


def test_harmonic_bound_trivial_for_large_epsilon():
    hv = error_variance_harmonic(harmonic_cfg(m=2.0))
    report = harmonic_energy_bound(hv, epsilon=2.0)
    assert report.satisfied
    assert report.meta["epsilon_unphysical"]


def test_harmonic_bound_slack_at_gap_equals_amplitude():
    # A = b with epsilon = delta^2: slack at least (5/2)^2 pi^2 / 2
    hv = error_variance_harmonic(harmonic_cfg(m=5000.0, A=30.0, b=30.0))
    assert hv.delta_sq < 1.0
    report = harmonic_energy_bound(hv, epsilon=hv.delta_sq)
    assert report.ratio >= (2.5 ** 2) * PI ** 2 / 2.0


# ---------------------------------------------------------------------------
# classical return mismatch
# ---------------------------------------------------------------------------

def test_return_mismatch_vanishes_without_interaction():
    cfg = harmonic_cfg(C=0.0)
    mm = classical_return_mismatch(cfg)
    assert abs(mm.dx) < 1e-8 * cfg.A
    assert abs(mm.dp) < 1e-8 * cfg.A * cfg.m * cfg.omega


def test_return_mismatch_scalings():
    hv = error_variance_harmonic(harmonic_cfg())
    cfg, mm1 = hv.cfg, hv.mismatch
    half = harmonic_cfg(C=cfg.potential.coupling / 2.0)
    quarter = harmonic_cfg(C=cfg.potential.coupling / 4.0)
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
    hv = error_variance_harmonic(harmonic_cfg())
    cfg = hv.cfg
    norm = mismatch_norm(hv.mismatch, cfg)
    assert norm > 1e3 * collision.RETURN_RTOL * cfg.A
    # leading-order physics: |dp| ~ |int V' cos dt| = pi hbar R
    cos_int = hv.cos_integral
    assert abs(abs(hv.mismatch.dp) - abs(cos_int)) < 0.1 * abs(cos_int)


REFERENCE_MISMATCH = error_variance_harmonic(harmonic_cfg()).mismatch


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_return_mismatch_is_the_same_at_any_length_scale(scale):
    # (m, A, b) -> (m/s^2, s A, s b) is the same dimensionless config, so dx/A
    # and dp/(m w A) must not move; the ODE tolerances scale with A
    hv = error_variance_harmonic(harmonic_cfg(m=1.0 / scale ** 2, A=100.0 * scale,
                                              b=30.0 * scale))
    cfg, mm, ref = hv.cfg, hv.mismatch, REFERENCE_MISMATCH
    assert mm.dx / cfg.A == pytest.approx(ref.dx / 100.0, rel=1e-4)
    assert mm.dp / (cfg.m * cfg.omega * cfg.A) == pytest.approx(ref.dp / 100.0, rel=1e-7)


# ---------------------------------------------------------------------------
# squeezing probe
# ---------------------------------------------------------------------------

def test_probe_quiet_for_unsqueezed_desk_config():
    hv = error_variance_harmonic(harmonic_cfg(m=2.0))
    assert hv.delta_sq <= 0.05
    probe = squeezing_consistency_probe(hv)
    assert not probe.flagged
    assert probe.second_order_proxy == pytest.approx(probe.momentum_mismatch ** 2)


def test_probe_flags_extreme_position_squeezing():
    epsilon = 1e-4
    r = -0.5 * math.log(math.sqrt(epsilon))  # e^{-2r} = sqrt(eps)
    hv = error_variance_harmonic(harmonic_cfg(m=12.7, r=r))
    assert hv.delta_sq <= epsilon
    probe = squeezing_consistency_probe(hv)
    assert probe.flagged


def test_probe_momentum_term_vanishes_without_coupling():
    mm = classical_return_mismatch(harmonic_cfg(C=0.0))
    assert abs(mm.dp) < 1e-8
    assert abs(mm.dx) < 1e-8

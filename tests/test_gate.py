import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad

from gatebound import (
    CutoffError,
    GateScenario,
    LinearDrive,
    OperatorMatrix,
    coherent_drive_scenario,
    coherent_state,
    counterexample_always_on,
    counterexample_scenario,
    displacement_oracle,
    drive_integrals,
    envelope_drive,
    failure_probability_exact,
    failure_probability_perturbative,
    gaussian,
    ladder_operators,
    multi_envelope_drive,
    number_state,
    oscillator_hamiltonian,
    pi_phase_drive,
    piecewise_constant_drive,
    raised_cosine,
    switch_off_check,
    triangle,
)
from gatebound.errors import IntegrationError
from gatebound.gate import drive_bound_integral
from gatebound.verify import alpha_for_target_p

PI = math.pi

PROPERTY = settings(derandomize=True, deadline=None, max_examples=16)
unit_interval = st.floats(-1.0, 1.0)
complex_unit = st.builds(complex, unit_interval, unit_interval)


# ---------------------------------------------------------------------------
# always-on counterexample
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,g", [(1, 1.0), (4, 0.5), (6, 1.0)])
def test_counterexample_reaches_zero_failure(n, g):
    outcome = counterexample_always_on(n, g)
    assert outcome.failure_probability < 1e-10
    assert outcome.phase_residual < 1e-9
    assert abs(outcome.switch_residual_start - (g * n) ** 2) < 1e-9
    assert abs(outcome.switch_residual_end - (g * n) ** 2) < 1e-9


def test_counterexample_family_all_n():
    for n in range(1, 7):
        assert counterexample_always_on(n, 1.0).failure_probability < 1e-10


def test_counterexample_detuned_duration_fails():
    # same construction with T = pi/(g (n+1)): inner = e^{-i pi n/(n+1)}
    base = counterexample_scenario(1, 1.0)
    detuned = GateScenario(base.control, base.h0, base.v, PI / (1.0 * 2))
    outcome = failure_probability_exact(detuned, 1e-12)
    assert abs(outcome.failure_probability - 0.5) < 1e-9
    assert outcome.failure_probability > 0.1


def test_zero_interaction_always_fails():
    cutoff = 6
    control = number_state(1, cutoff)
    h0 = oscillator_hamiltonian(1.0, cutoff)
    v = OperatorMatrix(cutoff, np.zeros((cutoff, cutoff), complex), hermitian=True)
    outcome = failure_probability_exact(GateScenario(control, h0, v, 1.0), 1e-12)
    assert abs(outcome.inner - 1.0) < 1e-12
    assert abs(outcome.failure_probability - 1.0) < 1e-12


def test_outcome_invariant_links_p_and_inner():
    outcome = counterexample_always_on(2, 1.0)
    expected = 1.0 - abs(1.0 - outcome.inner) ** 2 / 4.0
    assert abs(outcome.failure_probability - max(0.0, min(1.0, expected))) < 1e-12


# ---------------------------------------------------------------------------
# displacement oracle
# ---------------------------------------------------------------------------

def test_oracle_zero_drive():
    drive = envelope_drive(raised_cosine(1.0), 0.0)
    outcome = displacement_oracle(0.7, drive)
    assert outcome.inner == 1.0
    assert outcome.failure_probability == 1.0


def test_oracle_pure_commutator_phase_gives_perfect_gate():
    # closed loop in phase space: f(t) = c e^{-i delta t} over one turn gives
    # beta = 0 and |phi| = 2 pi (|c|/delta)^2; r = 1/sqrt(2) makes phi = -pi
    T = 1.0
    delta = 2.0 * PI / T
    c = delta / math.sqrt(2.0)
    drive = LinearDrive(lambda t: c * np.exp(-1j * delta * t), T)
    integrals = drive_integrals(drive)
    assert abs(integrals.displacement) < 1e-10
    assert abs(abs(integrals.magnus_phase) - PI) < 1e-10
    outcome = displacement_oracle(0.0, drive)
    assert outcome.failure_probability < 1e-10


def _three_segment_drive():
    # piecewise-constant drive whose displacement path is the triangle
    # 0 -> 2 -> 2 + i pi/1.8 -> 0.2: beta = 0.2 and commutator phase pi
    legs = [2.0 + 0j, 1j * PI / 1.8, 0.2 - 2.0 - 1j * PI / 1.8]
    values = [1j * leg * 3.0 for leg in legs]
    return piecewise_constant_drive(values, 1.0)


def test_oracle_displacement_point_two_with_phase_pi():
    drive = _three_segment_drive()
    integrals = drive_integrals(drive)
    assert abs(integrals.displacement - 0.2) < 1e-10
    assert abs(integrals.magnus_phase - PI) < 1e-10
    outcome = displacement_oracle(0.0, drive)
    frozen = 0.01970330355854144  # 1 - (1 + e^{-0.02})^2 / 4
    assert abs(1.0 - (1.0 + math.exp(-0.02)) ** 2 / 4.0 - frozen) < 1e-15
    assert abs(outcome.failure_probability - frozen) < 1e-9


def test_exact_evolution_matches_oracle_on_segmented_drive():
    drive = _three_segment_drive()
    scenario = coherent_drive_scenario(0.0, drive)
    exact = failure_probability_exact(scenario, 1e-10)
    oracle = displacement_oracle(0.0, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) < 1e-8


def test_exact_matches_oracle_at_target_p():
    alpha = alpha_for_target_p(0.1)
    drive = pi_phase_drive(raised_cosine(1.0), alpha)
    scenario = coherent_drive_scenario(alpha, drive)
    exact = failure_probability_exact(scenario, 1e-9)
    oracle = displacement_oracle(alpha, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) < 1e-8
    assert exact.phase_residual < 1e-10


def test_oracle_equivalence_randomized_family():
    rng = np.random.default_rng(20260809)
    for _ in range(25):
        T = float(rng.uniform(0.6, 1.4))
        alpha = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        c1 = 0.4 * complex(rng.normal(), rng.normal())
        c2 = 0.4 * complex(rng.normal(), rng.normal())
        drive = multi_envelope_drive([(c1, raised_cosine(T)), (c2, triangle(T))])
        scenario = coherent_drive_scenario(alpha, drive)
        exact = failure_probability_exact(scenario, 1e-9)
        oracle = displacement_oracle(alpha, drive)
        assert abs(exact.failure_probability - oracle.failure_probability) < 1e-8
        assert abs(exact.inner - oracle.inner) < 1e-7


# ---------------------------------------------------------------------------
# perturbative estimator
# ---------------------------------------------------------------------------

def test_perturbative_zero_interaction():
    cutoff = 6
    control = number_state(1, cutoff)
    h0 = oscillator_hamiltonian(1.0, cutoff)
    v = OperatorMatrix(cutoff, np.zeros((cutoff, cutoff), complex), hermitian=True)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert failure_probability_perturbative(
            GateScenario(control, h0, v, 1.0)) == pytest.approx(0.0, abs=1e-12)


def test_perturbative_eigenstate_has_no_fluctuations():
    scenario = counterexample_scenario(3, 1.0)
    assert failure_probability_perturbative(scenario) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("p_target,allowed", [(0.1, 0.3), (0.03, 0.1), (0.01, 0.05)])
def test_perturbative_tracks_exact(p_target, allowed):
    alpha = alpha_for_target_p(p_target)
    drive = pi_phase_drive(raised_cosine(1.0), alpha)
    scenario = coherent_drive_scenario(alpha, drive)
    exact = failure_probability_exact(scenario, 1e-9).failure_probability
    estimate = failure_probability_perturbative(scenario)
    assert abs(estimate - exact) / exact <= allowed
    assert abs(estimate - exact) <= 5.0 * exact ** 2


def test_perturbative_warns_off_calibration():
    drive = envelope_drive(raised_cosine(1.0), 0.05)  # tiny phase, far from pi
    scenario = coherent_drive_scenario(1.0, drive)
    with pytest.warns(UserWarning):
        failure_probability_perturbative(scenario)


def _fluctuation_double_integral(scenario):
    # 1/2 int int Re <dV_I(t) psi0, dV_I(t') psi0> dt dt' with the dense
    # V_I(t): f a† + conj(f) a for a drive, e^{iH0t} V e^{-iH0t} for a
    # matrix; one quadrature per pair of drive segments
    psi = scenario.control.amplitudes
    if scenario.is_linear_drive:
        a, adag = ladder_operators(scenario.control.cutoff)
        segments = scenario.v.segments()

        def v_interaction(t):
            f = scenario.v(t)
            return f * adag.entries + np.conj(f) * a.entries
    else:
        lam, vecs = np.linalg.eigh(scenario.h0.entries)
        segments = [(0.0, scenario.duration)]

        def v_interaction(t):
            free = (vecs * np.exp(1j * lam * t)) @ vecs.conj().T  # e^{iH0t}
            return free @ scenario.v.entries @ free.conj().T

    @lru_cache(maxsize=None)
    def fluctuation(t):
        vpsi = v_interaction(t) @ psi
        return vpsi - np.vdot(psi, vpsi).real * psi

    return 0.5 * sum(
        dblquad(lambda tp, t: np.vdot(fluctuation(t), fluctuation(tp)).real,
                t0, t1, s0, s1, epsabs=1e-13, epsrel=1e-12)[0]
        for t0, t1 in segments for s0, s1 in segments)


@PROPERTY
@given(c1=complex_unit, c2=complex_unit, alpha=complex_unit, T=st.floats(0.6, 1.4))
def test_closed_form_perturbative_matches_double_quadrature(c1, c2, alpha, T):
    drive = multi_envelope_drive([(0.6 * c1, raised_cosine(T)), (0.6 * c2, triangle(T))])
    scenario = coherent_drive_scenario(alpha, drive)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate = failure_probability_perturbative(scenario)
    assert abs(estimate - _fluctuation_double_integral(scenario)) <= 1e-9
    exact = failure_probability_exact(scenario, 1e-9).failure_probability
    oracle = displacement_oracle(alpha, drive).failure_probability
    assert 0.0 <= exact <= 1.0 and 0.0 <= oracle <= 1.0
    assert abs(exact - oracle) <= 1e-8


@PROPERTY
@given(g=st.floats(0.1, 0.5), omega=st.floats(0.5, 2.0), T=st.floats(0.5, 1.5),
       alpha=st.floats(0.2, 1.2))
def test_matrix_and_drive_routes_agree(g, omega, T, alpha):
    # V = g(a + a†) under H0 = omega a†a is the interaction-picture drive
    # f(t) = g e^{i omega t}; both routes must produce the same physics.
    cutoff = 40
    control = coherent_state(alpha, cutoff, allow_truncation=True)
    a, adag = ladder_operators(cutoff)
    v = OperatorMatrix(cutoff, g * (a.entries + adag.entries), hermitian=True)
    matrix_scenario = GateScenario(control, oscillator_hamiltonian(omega, cutoff), v, T)
    drive = LinearDrive(lambda t: g * np.exp(1j * omega * t), T)
    drive_scenario = GateScenario(control, None, drive, T)

    exact_matrix = failure_probability_exact(matrix_scenario, 1e-10)
    exact_drive = failure_probability_exact(drive_scenario, 1e-10)
    assert abs(exact_matrix.failure_probability - exact_drive.failure_probability) < 1e-8
    assert abs(exact_matrix.phase_residual - exact_drive.phase_residual) < 1e-8

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p_matrix = failure_probability_perturbative(matrix_scenario)
        p_drive = failure_probability_perturbative(drive_scenario)
    assert abs(p_matrix - p_drive) < 1e-8
    assert abs(p_matrix - _fluctuation_double_integral(matrix_scenario)) <= 1e-9


def test_drive_bound_integral_checks_its_error_estimate():
    drive = LinearDrive(lambda t: math.sin(400 * t), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # quad's own subdivision-limit warning
        with pytest.raises(IntegrationError) as info:
            coherent_drive_scenario(1.0, drive)
    assert info.value.diagnostics["segment"] == (0.0, 1.0)
    assert info.value.diagnostics["error_estimate"] > info.value.diagnostics["rel_tol"]
    assert drive_bound_integral(envelope_drive(raised_cosine(1.0), 1.0)) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# switch-off premise
# ---------------------------------------------------------------------------

def test_switch_off_envelope_drive_is_exactly_zero():
    alpha = 2.0
    drive = pi_phase_drive(raised_cosine(1.0), alpha)
    scenario = coherent_drive_scenario(alpha, drive)
    start, end = switch_off_check(scenario)
    assert start == 0.0
    assert end == 0.0


def test_switch_off_counterexample_certifies_violation():
    n, g = 3, 0.5
    start, end = switch_off_check(counterexample_scenario(n, g))
    assert abs(start - (g * n) ** 2) < 1e-9
    assert abs(end - (g * n) ** 2) < 1e-9


def test_switch_off_truncated_gaussian_tails():
    # raw Gaussian truncated at +-5 sigma: endpoint <V^2> below 1e-9 of peak
    alpha = 1.5
    T = 1.0
    env = gaussian(T, sigma=T / 10.0, subtract_baseline=False)
    drive = pi_phase_drive(env, alpha)
    scenario = coherent_drive_scenario(alpha, drive)
    start, end = switch_off_check(scenario)
    f_peak = drive(T / 2.0)
    peak = (2.0 * (f_peak * np.conj(alpha)).real) ** 2 + abs(f_peak) ** 2
    assert start < 1e-9 * peak
    assert end < 1e-9 * peak


# ---------------------------------------------------------------------------
# invariances / covariances
# ---------------------------------------------------------------------------

def test_identity_shift_of_h0_leaves_p_invariant():
    base = counterexample_scenario(2, 1.0)
    p0 = failure_probability_exact(base, 1e-11).failure_probability
    shifted_h0 = OperatorMatrix(
        base.h0.cutoff, base.h0.entries + 3.7 * np.eye(base.h0.cutoff), hermitian=True)
    shifted = GateScenario(base.control, shifted_h0, base.v, base.duration)
    p1 = failure_probability_exact(shifted, 1e-11).failure_probability
    assert abs(p0 - p1) < 1e-9


def test_identity_shift_of_v_rotates_inner():
    # adding c*I to V rotates inner by e^{-i c T}: the conditional phase is
    # physical, so p is NOT invariant (reaches sin^2(cT/2) from p = 0 here)
    base = counterexample_scenario(1, 1.0)
    out0 = failure_probability_exact(base, 1e-11)
    c = 0.3
    shifted_v = OperatorMatrix(
        base.v.cutoff, base.v.entries + c * np.eye(base.v.cutoff), hermitian=True)
    shifted = GateScenario(base.control, base.h0, shifted_v, base.duration)
    out1 = failure_probability_exact(shifted, 1e-11)
    rotation = np.exp(-1j * c * base.duration)
    assert abs(out1.inner - rotation * out0.inner) < 1e-9
    expected_p = math.sin(c * base.duration / 2.0) ** 2
    assert abs(out1.failure_probability - expected_p) < 1e-9


def test_cutoff_regression_stability():
    alpha = 1.2
    drive = pi_phase_drive(raised_cosine(1.0), alpha)
    base_cutoff = coherent_drive_scenario(alpha, drive).control.cutoff
    ps = []
    for cutoff in (base_cutoff, base_cutoff + 15):
        scenario = coherent_drive_scenario(alpha, drive, cutoff=cutoff)
        ps.append(failure_probability_exact(scenario, 1e-10).failure_probability)
    assert abs(ps[0] - ps[1]) < 1e-8


def test_undersized_cutoff_for_drive_excursion_raises():
    # the vacuum fits in 20 levels, but a displacement |beta| = 4 moves most
    # of the driven state's population onto the top 10 of them
    drive = envelope_drive(raised_cosine(1.0), 4.0 / raised_cosine(1.0).integral)
    with pytest.raises(CutoffError):
        failure_probability_exact(coherent_drive_scenario(0.0, drive, cutoff=20), 1e-9)
    exact = failure_probability_exact(coherent_drive_scenario(0.0, drive), 1e-9)
    oracle = displacement_oracle(0.0, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) < 1e-8


def test_scenario_validation():
    cutoff = 6
    control = number_state(0, cutoff)
    h0 = oscillator_hamiltonian(1.0, cutoff)
    with pytest.raises(ValueError):
        GateScenario(control, h0, h0, 0.0)
    with pytest.raises(ValueError):
        GateScenario(control, None, envelope_drive(raised_cosine(2.0), 1.0), 1.0)
    with pytest.raises(ValueError):  # a linear drive carries no H0
        GateScenario(control, h0, envelope_drive(raised_cosine(1.0), 1.0), 1.0)
    with pytest.raises(ValueError):  # a constant matrix needs one
        GateScenario(control, None, h0, 1.0)
    not_hermitian = np.zeros((cutoff, cutoff), complex)
    not_hermitian[0, 1] = 1.0
    with pytest.raises(ValueError):
        GateScenario(control, h0, OperatorMatrix(cutoff, not_hermitian), 1.0)

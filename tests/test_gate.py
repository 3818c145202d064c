import cmath
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, solve_ivp

from gatebound import (
    ControlState,
    CutoffError,
    GateOutcome,
    GateScenario,
    LinearDrive,
    coherent_drive_scenario,
    coherent_state,
    counterexample_always_on,
    displacement_oracle,
    drive_integrals,
    envelope_drive,
    evolve,
    failure_probability_exact,
    failure_probability_perturbative,
    gaussian,
    number_state,
    pi_phase_drive,
    raised_cosine,
    squeezed_coherent_state,
    switch_off_check,
    triangle,
)
from gatebound import fock, gate
from gatebound.errors import IntegrationError, NumericalInconsistencyError
from gatebound.gate import MAX_PANELS, drive_excursion
from gatebound.verify import alpha_for_target_p

from drives import envelope_sum, step_drive

PI = math.pi

PROPERTY = settings(derandomize=True, deadline=None, max_examples=16)
unit_interval = st.floats(-1.0, 1.0)
complex_unit = st.builds(complex, unit_interval, unit_interval)


def _dense_ladder(cutoff):
    """Dense annihilation operator a (a|n> = sqrt(n)|n-1>) and its adjoint."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)
    return a, a.conj().T


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


def _zero_drive_scenario():
    return GateScenario(number_state(1, 12), LinearDrive(lambda t: 0j, 1.0))


def test_zero_interaction_always_fails():
    outcome = failure_probability_exact(_zero_drive_scenario(), 1e-12)
    assert abs(outcome.inner - 1.0) < 1e-12
    assert abs(outcome.failure_probability - 1.0) < 1e-12


def test_a_nan_amplitude_is_not_a_perfect_gate():
    # the clamp to [0, 1] reads max(0.0, nan) as p = 0
    with pytest.raises(NumericalInconsistencyError, match="inner"):
        GateOutcome.from_inner(complex("nan"), PI, 0.0, 0.0)
    with pytest.raises(NumericalInconsistencyError, match="inner"):
        displacement_oracle(complex("nan"), pi_phase_drive(raised_cosine(1.0), 2.0))


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
    return step_drive(values)


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


OFF_AXIS_ALPHAS = [-3.7, -3.2 + 2.2j, 16.0 * cmath.exp(0.7j)]


@pytest.mark.parametrize("shape", [raised_cosine, triangle, gaussian])
@pytest.mark.parametrize("alpha", OFF_AXIS_ALPHAS)
def test_exact_matches_oracle_at_negative_and_complex_alpha(alpha, shape):
    drive = pi_phase_drive(shape(1.0), alpha)
    exact = failure_probability_exact(coherent_drive_scenario(alpha, drive))
    oracle = displacement_oracle(alpha, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) <= 1e-8


# the sweep grid at seed 0, five jittered amplitudes in [a - 0.25, a + 0.25],
# the large gate and the off-axis phases
SWEEP_GRID_ALPHAS = [2, 3, 4, 5, 6, 2.1433, 2.8122, 4.2219, 5.0777, 5.7603, 16, -3.7,
                     -3.2 + 2.2j]


@pytest.mark.parametrize("shape", [raised_cosine, triangle, gaussian])
@pytest.mark.parametrize("alpha", SWEEP_GRID_ALPHAS)
def test_exact_matches_oracle_to_rounding_on_the_sweep_grid(alpha, shape):
    # a declared drive's propagator is one phase on the quadrature eigenbasis,
    # so the exact route leaves only rounding against the oracle
    drive = pi_phase_drive(shape(1.0), alpha)
    exact = failure_probability_exact(coherent_drive_scenario(alpha, drive))
    oracle = displacement_oracle(alpha, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) <= 1e-13


def test_declared_drive_propagates_without_the_oracle(monkeypatch):
    # the exact route never reads the oracle's panel integrals
    drive = pi_phase_drive(triangle(1.0), 2.0 + 1.0j)
    state = coherent_state(2.0 + 1.0j)

    def oracle(*args):
        raise AssertionError("evolve read the oracle's drive integrals")

    monkeypatch.setattr(gate, "_drive_panels", oracle)
    monkeypatch.setattr(gate, "drive_integrals", oracle)
    state = evolve(state, drive, 1e-9)
    assert state.cutoff == coherent_state(2.0 + 1.0j).cutoff


@pytest.mark.parametrize("shape", [raised_cosine, triangle, gaussian])
@pytest.mark.parametrize("alpha", OFF_AXIS_ALPHAS + [16.0])
def test_pi_phase_drive_changes_frame_twice_per_segment(monkeypatch, alpha, shape):
    # one factor per segment, each entering c's frame once and leaving it once,
    # all at the one coefficient c however the gate rounds
    original, coefficients = fock._apply_factor, []

    def counted(h, g, psi):
        coefficients.append(g)
        return original(h, g, psi)

    drive = pi_phase_drive(shape(1.0), alpha)
    scenario = coherent_drive_scenario(alpha, drive)
    monkeypatch.setattr(fock, "_apply_factor", counted)
    failure_probability_exact(scenario)
    assert coefficients == [drive.separable[0]] * len(drive.segments())


def test_oracle_equivalence_randomized_family():
    rng = np.random.default_rng(20260809)
    for _ in range(25):
        T = float(rng.uniform(0.6, 1.4))
        alpha = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        c1 = 0.4 * complex(rng.normal(), rng.normal())
        c2 = 0.4 * complex(rng.normal(), rng.normal())
        drive = envelope_sum([(c1, raised_cosine(T)), (c2, triangle(T))])
        scenario = coherent_drive_scenario(alpha, drive)
        exact = failure_probability_exact(scenario, 1e-9)
        oracle = displacement_oracle(alpha, drive)
        assert abs(exact.failure_probability - oracle.failure_probability) < 1e-8
        assert abs(exact.inner - oracle.inner) < 1e-7


# ---------------------------------------------------------------------------
# drive integrals
# ---------------------------------------------------------------------------

def _dop853_drive_integrals(drive, rtol=1e-13):
    # (F, phi) from the ODE dF = f, dphi = Im(f conj F), one DOP853 solve
    # per drive segment: the integrator the Gauss-Legendre panels replaced
    def rhs(t, y):
        ft = drive(t)
        return [ft.real, ft.imag, (ft * complex(y[0], -y[1])).imag]

    y = np.zeros(3)
    for a, b in drive.segments():
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol, atol=1e-14)
        assert sol.success, sol.message
        y = sol.y[:, -1]
    return complex(y[0], y[1]), float(y[2])


@pytest.mark.parametrize("shape", [raised_cosine, triangle, gaussian])
@pytest.mark.parametrize("alpha", [2.0, 6.0, 16.0, -3.2 + 2.2j])
def test_drive_integrals_match_closed_form_on_envelopes(shape, alpha):
    # every envelope has unit area, so a constant-phase drive c s(t)
    # integrates to c, and its samples commute, so its commutator phase is 0
    c = PI * cmath.exp(1j * cmath.phase(alpha)) / (2.0 * abs(alpha))
    integrals = drive_integrals(envelope_drive(shape(1.0), c))
    assert abs(integrals.integral - c) <= 1e-15
    assert abs(integrals.magnus_phase) <= 1e-15


phase_turn = st.floats(0.3, PI - 0.3)


@PROPERTY
@given(radii=st.tuples(*[st.floats(0.3, 2.0)] * 3), turns=st.tuples(phase_turn, phase_turn),
       shapes=st.permutations([raised_cosine, triangle, gaussian]),
       durations=st.tuples(st.floats(0.4, 0.7), st.floats(0.8, 1.1), st.floats(1.2, 1.5)))
def test_drive_integrals_match_dop853_on_mixed_phase_drives(radii, turns, shapes, durations):
    # three envelopes of distinct phases on staggered windows (symmetric
    # envelopes sharing one window would give a commutator phase of 0), with
    # the triangle's kink and the window ends as declared breakpoints
    phases = (0.0, turns[0], -turns[1])
    drive = envelope_sum([
        (cmath.rect(r, theta), shape(T))
        for r, theta, shape, T in zip(radii, phases, shapes, durations)])
    F_ref, phi_ref = _dop853_drive_integrals(drive)
    integrals = drive_integrals(drive)
    bound = 1e-12 * (1.0 + abs(phi_ref))
    assert abs(integrals.integral - F_ref) <= bound
    assert abs(integrals.magnus_phase - phi_ref) <= bound


def test_drive_integrals_reject_an_undeclared_jump():
    def sign_flip(t):
        return 1.0 if t < 0.3 else -1.0

    with pytest.raises(IntegrationError) as info:
        drive_integrals(LinearDrive(sign_flip, 1.0))
    diagnostics = info.value.diagnostics
    assert diagnostics["segment"] == (0.0, 1.0)
    assert diagnostics["panels"] == MAX_PANELS
    assert diagnostics["rtol"] == 1e-12
    assert diagnostics["integral_error"] > diagnostics["rtol"] * diagnostics["abs_integral"]
    # declared as a breakpoint, the same jump integrates exactly
    integrals = drive_integrals(LinearDrive(sign_flip, 1.0, (0.3,)))
    assert integrals.integral == pytest.approx(-0.4, abs=1e-15)
    assert integrals.magnus_phase == 0.0


@pytest.mark.parametrize("breakpoint", [1.5, -0.5, 0.0, 1.0, math.nan])
def test_linear_drive_rejects_a_breakpoint_outside_its_window(breakpoint):
    # a breakpoint past the end would stretch the last segment: F = 0.45
    # instead of 0.3 for f = 0.3 on (0, 1) with a breakpoint at 1.5
    with pytest.raises(ValueError, match="breakpoints"):
        LinearDrive(lambda t: 0.3, 1.0, (breakpoint,))


@pytest.mark.parametrize("duration", [-1.0, 0.0, math.inf, math.nan])
def test_linear_drive_rejects_a_window_that_is_not_finite_and_positive(duration):
    # a negative duration has no segments and integrated to 0 silently
    with pytest.raises(ValueError, match="duration"):
        LinearDrive(lambda t: 0.3, duration)


def _trapezoid_excursion(drive, steps=10_000):
    # (sup |int_0^t f|, int |f|, error bound) by the cumulative trapezoid rule
    # on at least ``steps + 1`` points, spread over the drive segments so that
    # every breakpoint is one.  The rule's error up to any t is about
    # h^2/12 int |f''| at most, estimated from the samples' second differences.
    F, sup, abs_integral, error = 0j, 0.0, 0.0, 0.0
    for a, b in drive.segments():
        t, h = np.linspace(a, b, 1 + math.ceil(steps * (b - a) / drive.duration), retstep=True)
        f = np.array([drive(x) for x in t.tolist()])
        G = F + np.concatenate(([0.0], np.cumsum(0.5 * h * (f[1:] + f[:-1]))))
        sup = max(sup, float(np.max(np.abs(G))))
        abs_integral += float(np.sum(0.5 * h * (np.abs(f[1:]) + np.abs(f[:-1]))))
        error += h * float(np.sum(np.abs(np.diff(f, 2)))) / 12.0
        F = G[-1]
    return sup, abs_integral, error


def _assert_sized_basis_matches_oracle(alpha, drive):
    scenario = coherent_drive_scenario(alpha, drive)
    exact = failure_probability_exact(scenario, 1e-10)   # passes the edge check
    oracle = displacement_oracle(alpha, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) <= 1e-8


@PROPERTY
@given(coefficients=st.tuples(st.floats(0.3, 2.0), st.floats(0.3, 2.0)),
       shapes=st.permutations([raised_cosine, triangle, gaussian]),
       durations=st.tuples(st.floats(0.5, 1.5), st.floats(0.5, 1.5)), alpha=complex_unit)
def test_drive_excursion_matches_trapezoid_sup_on_two_envelope_drives(
        coefficients, shapes, durations, alpha):
    # real coefficients keep every drive sample on one quadrature, which the
    # drive declares, so the propagation takes the declared route; the difference
    # of two envelopes mostly changes sign, where sup |beta| falls below int |f|
    (c1, c2), (T1, T2) = coefficients, durations
    first, second = shapes[0](T1), shapes[1](T2)
    drive = envelope_sum([(c1, first), (-c2, second)],
                         separable=(1.0, lambda t: c1 * first(t) - c2 * second(t)))
    sup, abs_integral, error = _trapezoid_excursion(drive)
    excursion = drive_excursion(drive)
    assert 0.99 * sup <= excursion <= sup + error
    # the trapezoid rule overestimates int |f| across each kink of |f|
    assert excursion <= abs_integral + error
    _assert_sized_basis_matches_oracle(alpha, drive)


@pytest.mark.parametrize("fn,peak", [
    (lambda t: 1.3 * math.sin(2 * PI * t + 0.3), 1.3 * (1.0 + math.cos(0.3)) / (2 * PI)),
    (lambda t: math.cos(3 * PI * t), 1.0 / (3 * PI)),
    (lambda t: math.sin(400 * t), 2.0 / 400),
], ids=["sine", "cos-3pi", "sin-400t"])
def test_drive_excursion_matches_closed_form_peaks(fn, peak):
    # the node maximum falls short of sup |beta| by the gap between nodes
    # only.  sin(400 t) has 127 sign changes but converging panels: the
    # excursion needs no integral of |f| around its kinks.
    drive = LinearDrive(fn, 1.0)
    assert (1.0 - 2e-3) * peak <= drive_excursion(drive) <= (1.0 + 1e-12) * peak
    _assert_sized_basis_matches_oracle(1.5, drive)


@pytest.mark.parametrize("shape", [raised_cosine, triangle, gaussian])
@pytest.mark.parametrize("alpha", [2.0, 3.7, 16.0, 4 + 1j, -3.2 + 2.2j])
def test_drive_excursion_of_pi_phase_drives_is_their_integral(shape, alpha):
    # the sizing gate-sim, sweep and the benchmark run: a constant-phase
    # drive on a nonnegative envelope moves beta along one ray, so its peak
    # is |F|, read off the panels drive_integrals sampled
    calls = 0
    drive = pi_phase_drive(shape(1.0), alpha)

    def f(t):
        nonlocal calls
        calls += 1
        return drive.f(t)

    counted = LinearDrive(f, drive.duration, drive.breakpoints)
    F = abs(drive_integrals(counted).integral)
    sampled = calls
    assert abs(drive_excursion(counted) - F) <= 1e-15 * F
    assert calls == sampled


# ---------------------------------------------------------------------------
# perturbative estimator
# ---------------------------------------------------------------------------

def test_perturbative_zero_interaction():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert failure_probability_perturbative(
            _zero_drive_scenario()) == pytest.approx(0.0, abs=1e-12)


def test_perturbative_eigenstate_has_no_fluctuations():
    # the estimate is the variance of A = F a† + conj(F) a on psi0, which
    # vanishes on every eigenvector of the truncated A
    cutoff = 12
    drive = envelope_drive(raised_cosine(1.0), 0.3 - 0.4j)
    F = drive_integrals(drive).integral
    a, adag = _dense_ladder(cutoff)
    _, vecs = np.linalg.eigh(F * adag + np.conj(F) * a)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for k in range(cutoff):
            scenario = GateScenario(ControlState(cutoff, vecs[:, k]), drive)
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
    # V_I(t) = f a† + conj(f) a; one quadrature per pair of drive segments
    psi = scenario.control.amplitudes
    a, adag = _dense_ladder(scenario.control.cutoff)
    segments = scenario.drive.segments()

    @lru_cache(maxsize=None)
    def fluctuation(t):
        f = scenario.drive(t)
        vpsi = (f * adag + np.conj(f) * a) @ psi
        return vpsi - np.vdot(psi, vpsi).real * psi

    return 0.5 * sum(
        dblquad(lambda tp, t: np.vdot(fluctuation(t), fluctuation(tp)).real,
                t0, t1, s0, s1, epsabs=1e-13, epsrel=1e-12)[0]
        for t0, t1 in segments for s0, s1 in segments)


@PROPERTY
@given(c1=complex_unit, c2=complex_unit, alpha=complex_unit, T=st.floats(0.6, 1.4))
def test_closed_form_perturbative_matches_double_quadrature(c1, c2, alpha, T):
    drive = envelope_sum([(0.6 * c1, raised_cosine(T)), (0.6 * c2, triangle(T))])
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
def test_carrier_drive_matches_oracle(g, omega, T, alpha):
    # V = g(a + a†) under H0 = omega a†a is the interaction-picture carrier
    # f(t) = g e^{i omega t}.  Its samples do not commute, so the oracle's
    # Magnus phase is nonzero and the exact route's time ordering is tested.
    cutoff = 40  # at least coherent_required_cutoff(alpha), 36 at alpha = 1.2
    control = coherent_state(alpha, cutoff)
    drive = LinearDrive(lambda t: g * np.exp(1j * omega * t), T)
    scenario = GateScenario(control, drive)
    assert drive_integrals(drive).magnus_phase != 0.0

    exact = failure_probability_exact(scenario, 1e-10)
    oracle = displacement_oracle(alpha, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) < 1e-8
    assert abs(exact.phase_residual - oracle.phase_residual) < 1e-8

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        estimate = failure_probability_perturbative(scenario)
    assert abs(estimate - _fluctuation_double_integral(scenario)) <= 1e-9


def _gaussian_failure_probability(alpha, r, drive):
    # e^{i phi} D(beta) on D(alpha) S(r)|0>: S(r)† D(beta) S(r) = D(beta cosh r
    # + conj(beta) sinh r) in the convention of fock._squeezed_amplitudes, and
    # moving D(beta) past D(alpha) leaves the phase e^{2i Im(conj(alpha) beta)}
    integrals = drive_integrals(drive)
    beta = integrals.displacement
    gamma = beta * math.cosh(r) + np.conj(beta) * math.sinh(r)
    inner = (cmath.exp(1j * integrals.magnus_phase) * math.exp(-0.5 * abs(gamma) ** 2)
             * cmath.exp(2j * (np.conj(alpha) * beta).imag))
    return 1.0 - abs(1.0 - inner) ** 2 / 4.0


@PROPERTY
@given(radius=st.floats(0.5, 2.0), angle=st.floats(-PI, PI), r=st.floats(0.2, 1.0),
       carrier=st.booleans(), g=st.builds(cmath.rect, st.floats(0.1, 1.0), st.floats(-PI, PI)),
       omega=st.floats(0.5, 3.0))
def test_squeezed_control_matches_gaussian_closed_form(radius, angle, r, carrier, g, omega):
    # the exact route from a squeezed control, under a constant-phase drive or
    # a carrier whose Magnus phase is nonzero
    alpha = cmath.rect(radius, angle)
    if carrier:
        drive = LinearDrive(lambda t: g * np.exp(1j * omega * t), 1.0)
    else:
        drive = pi_phase_drive(raised_cosine(1.0), alpha)
    # the squeezed cutoff rule at the largest amplitude the drive can reach
    reach = abs(alpha) + drive_excursion(drive) + 0.5
    control = squeezed_coherent_state(alpha, r, squeezed_coherent_state(reach, r).cutoff)
    exact = failure_probability_exact(GateScenario(control, drive), 1e-10)
    assert abs(exact.failure_probability - _gaussian_failure_probability(alpha, r, drive)) <= 1e-8


# ---------------------------------------------------------------------------
# switch-off premise
# ---------------------------------------------------------------------------

ENVELOPE_SCALES = [
    (raised_cosine, 1e-320, "2 pi / duration must be finite and positive, got inf"),
    (triangle, 1e-320, "the peak 2 / duration must be finite and positive, got inf"),
    (gaussian, 1e-200, "2 sigma^2 must be finite and positive, got 0.0"),
    (gaussian, 1e300, "2 sigma^2 must be finite and positive, got inf"),
]


@pytest.mark.parametrize("shape, duration, message", ENVELOPE_SCALES,
                         ids=[f"{shape.__name__}-{T}" for shape, T, _ in ENVELOPE_SCALES])
def test_envelope_scale_out_of_float_range_is_named(shape, duration, message):
    with pytest.raises(ValueError) as err:
        shape(duration)
    assert str(err.value) == message
    # every envelope keeps its scales in range at 1e-100 and 1e100
    for window in (1e-100, 1e100):
        assert abs(drive_integrals(envelope_drive(shape(window))).integral - 1.0) <= 1e-12


def test_switch_off_envelope_drive_is_exactly_zero():
    # every envelope, the Gaussian minus its endpoint value included
    alpha = 2.0
    for shape in (raised_cosine, triangle, gaussian):
        drive = pi_phase_drive(shape(1.0), alpha)
        scenario = coherent_drive_scenario(alpha, drive)
        start, end = switch_off_check(scenario)
        assert start == 0.0
        assert end == 0.0


def test_switch_off_counterexample_certifies_violation():
    n, g = 3, 0.5
    outcome = counterexample_always_on(n, g)
    assert outcome.switch_residual_start == outcome.switch_residual_end == (g * n) ** 2
    # a drive that is never switched off fails the same check
    alpha, c = 1.5, 0.4 - 0.3j
    start, end = switch_off_check(
        coherent_drive_scenario(alpha, step_drive([c])))
    expected = (2.0 * (c * np.conj(alpha)).real) ** 2 + abs(c) ** 2
    assert start == pytest.approx(expected, rel=1e-12)
    assert end == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------

def test_cutoff_regression_stability():
    alpha = 1.2
    drive = pi_phase_drive(raised_cosine(1.0), alpha)
    base_cutoff = coherent_drive_scenario(alpha, drive).control.cutoff
    ps = []
    for cutoff in (base_cutoff, base_cutoff + 15):
        scenario = GateScenario(coherent_state(alpha, cutoff), drive)
        ps.append(failure_probability_exact(scenario, 1e-10).failure_probability)
    assert abs(ps[0] - ps[1]) < 1e-8


def test_undersized_cutoff_for_drive_excursion_raises():
    # the vacuum fits in 20 levels, but a displacement |beta| = 4 moves most
    # of the driven state's population onto the top 10 of them
    drive = envelope_drive(raised_cosine(1.0), 4.0)  # unit area: |beta| = 4
    with pytest.raises(CutoffError):
        failure_probability_exact(GateScenario(coherent_state(0.0, 20), drive), 1e-9)
    exact = failure_probability_exact(coherent_drive_scenario(0.0, drive), 1e-9)
    oracle = displacement_oracle(0.0, drive)
    assert abs(exact.failure_probability - oracle.failure_probability) < 1e-8

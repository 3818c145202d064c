import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from gatebound import (
    PulseSpec,
    SamplingError,
    adversarial_pulse_search,
    energy_bound_check,
    field_energy,
    linewidth_combined_bound,
    mean_frequency,
    min_photon_number,
    nonlinear_bound_check,
    nonlinear_reduce,
    optimize_squeezing,
    phase_accumulated,
    photon_number,
    quantum_error,
    raised_cosine,
    random_feasible_pulse,
    single_mode_equality_pulse,
    squeezed_energy,
)
from gatebound.pulses import mode_window_integral

PI = math.pi


# ---------------------------------------------------------------------------
# phase and error integrals
# ---------------------------------------------------------------------------

def test_phase_single_mode_closed_form_vs_quadrature():
    omega, g, alpha, T = 1.7, 0.4, 1.3, 2.0
    pulse = PulseSpec(((omega, g, alpha),), (-T / 2, T / 2))
    expected = 2.0 * g * alpha * 2.0 * math.sin(omega * T / 2.0) / omega
    got = phase_accumulated(pulse)
    assert abs(got - expected) < 1e-12
    quad_val, _ = quad(lambda t: 2.0 * (g * alpha * np.exp(-1j * omega * t)).real,
                       -T / 2, T / 2, epsabs=1e-14, epsrel=1e-12)
    assert abs(got - quad_val) < 1e-10


def test_phase_zero_amplitudes():
    pulse = PulseSpec(((1.0, 0.3, 0.0), (2.0, 0.1j, 0.0)), (0.0, 1.0))
    assert phase_accumulated(pulse) == 0.0


def test_phase_linear_in_amplitude_scale():
    base = PulseSpec(((1.0, 0.3 + 0.2j, 0.8 - 0.1j),), (0.0, 1.5))
    scaled = PulseSpec(((1.0, 0.3 + 0.2j, 3.0 * (0.8 - 0.1j)),), (0.0, 1.5))
    assert abs(phase_accumulated(scaled) - 3.0 * phase_accumulated(base)) < 1e-12


def test_quantum_error_single_mode_closed_form():
    omega, g, T = 0.9, 0.25, 2.0
    pulse = PulseSpec(((omega, g, 5.0),), (-T / 2, T / 2))
    expected = abs(g * 2.0 * math.sin(omega * T / 2.0) / omega) ** 2
    assert abs(quantum_error(pulse) - expected) < 1e-12


def test_quantum_error_ignores_amplitudes():
    w = ((1.1, 0.2 + 0.1j, 0.5), (2.3, 0.4, -1.0 + 2j))
    w2 = ((1.1, 0.2 + 0.1j, 9.0), (2.3, 0.4, 0.0))
    assert quantum_error(PulseSpec(w, (0, 1))) == quantum_error(PulseSpec(w2, (0, 1)))


def test_quantum_error_zero_couplings():
    assert quantum_error(PulseSpec(((1.0, 0.0, 1.0),), (0, 1))) == 0.0


# ---------------------------------------------------------------------------
# photon-number and energy bound
# ---------------------------------------------------------------------------

def test_min_photon_number_values():
    assert abs(min_photon_number(0.01) - 246.74011002723395) < 1e-9
    assert abs(min_photon_number(0.25) - PI ** 2) < 1e-12
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            min_photon_number(bad)


def test_cauchy_schwarz_witness_on_random_feasible_pulses():
    rng = np.random.default_rng(123)
    for _ in range(100):
        pulse = random_feasible_pulse(rng, 0.05, int(rng.integers(1, 4)))
        n = photon_number(pulse)
        err = quantum_error(pulse)
        assert n * err >= PI ** 2 / 4.0 - 1e-9
        # general chain: phase <= 2 sqrt(N * error)
        assert phase_accumulated(pulse) <= 2.0 * math.sqrt(n * err) + 1e-9


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), epsilon=st.floats(0.005, 0.5))
def test_energy_bound_holds_for_feasible_pulses(seed, epsilon):
    # Two modes: a single mode's mean frequency can round 1 ulp outside
    # [min, max], which the exact containment check below would catch.
    pulse = random_feasible_pulse(np.random.default_rng(seed), epsilon, 2)
    report = energy_bound_check(pulse, epsilon)
    assert report.error <= epsilon
    assert report.satisfied
    assert report.ratio >= 1.0 - 1e-6
    assert min(m[0] for m in pulse.modes) <= report.mean_omega <= max(m[0] for m in pulse.modes)
    assert report.energy >= min(m[0] for m in pulse.modes) * report.photon_number - 1e-12


def test_equality_construction_is_tight():
    for epsilon in (0.01, 0.25):
        pulse = single_mode_equality_pulse(epsilon, omega=1.4)
        report = energy_bound_check(pulse, epsilon)
        assert abs(report.phase - PI) < 1e-9
        assert abs(report.error - epsilon) < 1e-12
        assert 1.0 <= report.ratio * (1 + 1e-12) <= 1.0001
        # Cauchy-Schwarz equality: amplitude aligned with the conjugate
        # mode integral saturates N * error = pi^2 / 4
        assert report.photon_number * report.error == pytest.approx(PI ** 2 / 4, rel=1e-12)


def test_bound_premise_unmet_is_flagged():
    pulse = single_mode_equality_pulse(0.1)
    report = energy_bound_check(pulse, 0.01)  # error 0.1 > epsilon 0.01
    assert report.meta["bound_premise_unmet"]
    assert not report.meta["error_within_epsilon"]


def test_field_energy_units():
    pulse = PulseSpec(((2.0, 0.1, 1.5), (3.0, 0.1, 0.5)), (0, 1))
    assert abs(field_energy(pulse) - (2.0 * 2.25 + 3.0 * 0.25)) < 1e-12
    assert abs(mean_frequency(pulse) - (2.0 * 2.25 + 3.0 * 0.25) / 2.5) < 1e-12


# ---------------------------------------------------------------------------
# nonlinear reduction
# ---------------------------------------------------------------------------

def test_p1_reduction_identical_to_linear_path():
    omega, g, alpha, window, epsilon = 1.3, 0.4 + 0.1j, 2.0 - 0.5j, (0.0, 1.0), 0.05
    linear = energy_bound_check(PulseSpec(((omega, g, alpha),), window), epsilon)
    reduction = nonlinear_reduce(1, lambda t: 1.0, window, [(omega, g)])
    reduced = nonlinear_bound_check(reduction, [alpha], epsilon)
    assert reduced.phase == linear.phase
    assert reduced.error == linear.error
    assert reduced.energy == linear.energy
    assert reduced.bound == linear.bound
    assert abs(reduction.coefficients[0][1] - g * mode_window_integral(omega, window)) == 0.0


def test_p2_bound_is_four_times_linear():
    omega, g, alpha, window, epsilon = 1.0, 0.2, 1.0, (0.0, 1.0), 0.1
    envelope = raised_cosine(1.0)
    linear = nonlinear_bound_check(nonlinear_reduce(1, envelope, window, [(omega, g)]),
                                   [alpha], epsilon)
    quadratic = nonlinear_bound_check(nonlinear_reduce(2, envelope, window, [(omega, g)]),
                                      [alpha], epsilon)
    assert quadratic.bound == pytest.approx(4.0 * linear.bound, rel=1e-14)


def test_p2_coefficient_matches_refined_quadrature():
    # oracle: scipy adaptive quadrature of E(t) e^{-i w t} at 1e-12
    from gatebound.envelopes import gaussian

    omega, weight, T = 2.1, 0.7, 1.0
    envelope = gaussian(T, sigma=0.17, area=1.3)
    reduction = nonlinear_reduce(2, envelope, (0.0, T), [(omega, weight)])
    re, _ = quad(lambda t: envelope(t) * math.cos(omega * t), 0, T, epsabs=1e-14, epsrel=1e-12)
    im, _ = quad(lambda t: -envelope(t) * math.sin(omega * t), 0, T, epsabs=1e-14, epsrel=1e-12)
    oracle = weight * complex(re, im)
    assert abs(reduction.coefficients[0][1] - oracle) < 1e-8


def test_nonlinear_reduce_reports_sampling_error():
    envelope = raised_cosine(1.0)
    with pytest.raises(SamplingError):
        nonlinear_reduce(3, envelope, (0.0, 1.0), [(1.0, 1.0)], tol=1e-15, max_doublings=1)


# ---------------------------------------------------------------------------
# squeezing
# ---------------------------------------------------------------------------

def test_squeezed_energy_at_r_zero():
    epsilon, omega = 0.2, 1.5
    assert abs(squeezed_energy(0.0, epsilon, omega) - omega * (1 / epsilon + 1)) < 1e-12


def test_squeezed_energy_symmetry_about_optimum():
    epsilon = 0.03
    x = 2.7
    r1 = 0.5 * math.log(x)
    r2 = 0.5 * math.log(1.0 / (x * epsilon))
    assert squeezed_energy(r1, epsilon, 1.0) == pytest.approx(
        squeezed_energy(r2, epsilon, 1.0), rel=1e-12)


def test_optimize_squeezing_values():
    r_star, e_min = optimize_squeezing(0.01)
    assert abs(e_min - 20.0) < 1e-9
    assert abs(r_star - 1.1512925464970228) < 1e-12
    r_star, e_min = optimize_squeezing(1e-4)
    assert abs(e_min - 200.0) < 1e-6
    assert abs(r_star - 2.302585092994046) < 1e-6
    r_star, e_min = optimize_squeezing(1.0)
    assert r_star == 0.0
    assert abs(e_min - 2.0) < 1e-12


def test_energy_derivative_vanishes_at_optimum():
    epsilon = 0.02
    r_star, e_min = optimize_squeezing(epsilon)
    h = 1e-5
    deriv = (squeezed_energy(r_star + h, epsilon, 1.0)
             - squeezed_energy(r_star - h, epsilon, 1.0)) / (2 * h)
    assert abs(deriv) < 1e-6 * e_min


def test_linewidth_combined_bound():
    lw = linewidth_combined_bound(1.0, 0.01)
    assert abs(lw.omega_min - 10.0) < 1e-12
    assert abs(lw.bound - 200.0) < 1e-12
    assert abs(lw.bound_quoted - 100.0) < 1e-12
    assert abs(linewidth_combined_bound(1.0, 1.0).bound - 2.0) < 1e-12
    assert abs(linewidth_combined_bound(2.0, 0.01).bound - 100.0) < 1e-12


# ---------------------------------------------------------------------------
# adversarial search
# ---------------------------------------------------------------------------

def test_search_budget_one_is_a_feasible_pulse():
    report = adversarial_pulse_search(0.05, 2, budget=1, seed=5)
    assert report.ratio >= 1.0 - 1e-9
    assert abs(report.phase - PI) < 1e-9
    assert report.error <= 0.05 * (1 + 1e-12)


def test_search_never_beats_the_bound():
    for seed in (0, 1, 2):
        report = adversarial_pulse_search(0.01, 2, budget=300, seed=seed)
        assert report.ratio >= 1.0 - 1e-6


def test_single_mode_search_converges_to_tightness():
    report = adversarial_pulse_search(0.01, 1, budget=2000, seed=7)
    assert 1.0 - 1e-6 <= report.ratio <= 1.01


def test_search_is_deterministic():
    a = adversarial_pulse_search(0.02, 2, budget=250, seed=42)
    b = adversarial_pulse_search(0.02, 2, budget=250, seed=42)
    assert a.ratio == b.ratio
    assert a.energy == b.energy


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec((), (0, 1))
    with pytest.raises(ValueError):
        PulseSpec(((-1.0, 0.1, 0.1),), (0, 1))
    with pytest.raises(ValueError):
        PulseSpec(((1.0, 0.1, 0.1),), (1, 1))

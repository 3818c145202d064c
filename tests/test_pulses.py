import cmath
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from gatebound import (
    Envelope,
    PulseSpec,
    SamplingError,
    adversarial_pulse_search,
    energy_bound_check,
    linewidth_combined_bound,
    min_photon_number,
    optimize_squeezing,
    raised_cosine,
    random_feasible_ratios,
    single_mode_equality_pulse,
    squeezed_energy,
    triangle,
)
from gatebound.cli import main
from gatebound.errors import IntegrationError
from gatebound.pulses import (NARROW_PHASE, REDUCE_MAX_PANELS, WINDOW, _weighted,
                              mode_window_integral)
from gatebound.report import BoundReport

PI = math.pi


def report_of(pulse, epsilon=0.5):
    """Bound report of a pulse; epsilon only enters the bound and the meta flags."""
    return energy_bound_check(pulse, epsilon)


# ---------------------------------------------------------------------------
# window coefficients, phase and error
# ---------------------------------------------------------------------------

def test_pulse_spec_holds_read_only_arrays():
    modes = ((1.1, 0.2 + 0.1j, 0.5), (2.3, 0.4, -1.0 + 2j))
    pulse = PulseSpec(modes, (0, 1))
    assert pulse.omegas.tolist() == [1.1, 2.3]
    assert pulse.couplings.tolist() == [0.2 + 0.1j, 0.4]
    assert pulse.alphas.tolist() == [0.5, -1.0 + 2j]
    for (w, g, _), c in zip(modes, pulse.coefficients):
        assert c == g * mode_window_integral(w, (0.0, 1.0))
    for arr in (pulse.omegas, pulse.couplings, pulse.alphas, pulse.coefficients):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # the arrays are derived from (modes, window), which alone define equality
    assert pulse == PulseSpec(modes, (0.0, 1.0))
    assert hash(pulse) == hash(PulseSpec(modes, (0.0, 1.0)))


def test_phase_single_mode_closed_form_vs_quadrature():
    omega, g, alpha, T = 1.7, 0.4, 1.3, 2.0
    pulse = PulseSpec(((omega, g, alpha),), (-T / 2, T / 2))
    expected = 2.0 * g * alpha * 2.0 * math.sin(omega * T / 2.0) / omega
    got = report_of(pulse).phase
    assert abs(got - expected) < 1e-12
    quad_val, _ = quad(lambda t: 2.0 * (g * alpha * np.exp(-1j * omega * t)).real,
                       -T / 2, T / 2, epsabs=1e-14, epsrel=1e-12)
    assert abs(got - quad_val) < 1e-10


def test_phase_zero_amplitudes():
    # a mode without photons adds nothing to the phase, the photon number or the energy
    dark = PulseSpec(((1.0, 0.3, 0.0), (2.0, 0.1j, 1.5)), (0.0, 1.0))
    lit = PulseSpec(((2.0, 0.1j, 1.5),), (0.0, 1.0))
    assert report_of(dark).phase == report_of(lit).phase
    assert report_of(dark).photon_number == report_of(lit).photon_number
    assert report_of(dark).energy == report_of(lit).energy
    assert report_of(dark).error > report_of(lit).error


def test_phase_linear_in_amplitude_scale():
    base = PulseSpec(((1.0, 0.3 + 0.2j, 0.8 - 0.1j),), (0.0, 1.5))
    scaled = PulseSpec(((1.0, 0.3 + 0.2j, 3.0 * (0.8 - 0.1j)),), (0.0, 1.5))
    assert abs(report_of(scaled).phase - 3.0 * report_of(base).phase) < 1e-12


def test_quantum_error_single_mode_closed_form():
    omega, g, T = 0.9, 0.25, 2.0
    pulse = PulseSpec(((omega, g, 5.0),), (-T / 2, T / 2))
    expected = abs(g * 2.0 * math.sin(omega * T / 2.0) / omega) ** 2
    assert abs(report_of(pulse).error - expected) < 1e-12


def test_quantum_error_ignores_amplitudes():
    w = ((1.1, 0.2 + 0.1j, 0.5), (2.3, 0.4, -1.0 + 2j))
    w2 = ((1.1, 0.2 + 0.1j, 9.0), (2.3, 0.4, 0.0))
    a, b = PulseSpec(w, (0, 1)), PulseSpec(w2, (0, 1))
    assert np.array_equal(a.coefficients, b.coefficients)
    assert report_of(a).error == report_of(b).error


def test_quantum_error_zero_couplings():
    pulse = PulseSpec(((1.0, 0.0, 1.0),), (0, 1))
    assert report_of(pulse).error == 0.0
    assert report_of(pulse).phase == 0.0


def _difference_form(omega, window):
    t0, t1 = window
    rate = -1j * omega
    return (np.exp(rate * t1) - np.exp(rate * t0)) / rate


def _series_integral(omega, window, terms=12):
    """sum_k (-i omega)^k (t1^{k+1} - t0^{k+1}) / (k+1)!: converges fast for small omega."""
    t0, t1 = window
    total = 0j
    for k in range(terms):
        total += (-1j * omega) ** k * (t1 ** (k + 1) - t0 ** (k + 1)) / math.factorial(k + 1)
    return total


def assert_close_componentwise(got, want, rel):
    assert abs(got.real - want.real) <= rel * abs(want.real)
    assert abs(got.imag - want.imag) <= rel * abs(want.imag)


@pytest.mark.parametrize("window", [(0.0, 1.0), (-0.7, 2.3)])
@pytest.mark.parametrize("omega", [1e-8, 1e-4])
def test_window_integral_keeps_its_imaginary_part_at_small_omega(omega, window):
    # the difference form gives 1-0j at omega = 1e-8 on (0, 1), where the value is 1 - 5e-9j
    got = mode_window_integral(omega, window)
    assert_close_componentwise(got, _series_integral(omega, window), 1e-15)
    assert np.array_equal(mode_window_integral(np.full((2, 3), omega), window),
                          np.full((2, 3), got))
    # elements on both sides of the threshold: the array picks each element's
    # form, and a scalar above it returns the difference form alone
    span = window[1] - window[0]
    mixed = np.array([[omega, 0.5 * NARROW_PHASE / span, 1.7],
                      [NARROW_PHASE / span, 40.0, 3.0 * omega]])
    scalars = np.array([[mode_window_integral(w, window) for w in row] for row in mixed])
    both = mode_window_integral(mixed, window)
    assert np.array_equal(both.real, scalars.real) and np.array_equal(both.imag, scalars.imag)


@pytest.mark.parametrize("window", [(0.0, 1.0), (-0.7, 2.3)])
def test_window_integral_forms_agree_across_the_threshold(window):
    span = window[1] - window[0]
    below = NARROW_PHASE / span * (1.0 - 1e-12)
    above = NARROW_PHASE / span * (1.0 + 1e-12)
    # just below the threshold the sin form is used, just above the difference form
    assert_close_componentwise(mode_window_integral(below, window),
                               _difference_form(below, window), 1e-13)
    assert_close_componentwise(mode_window_integral(above, window),
                               mode_window_integral(below, window), 1e-11)
    # above it the difference form keeps its bits, so no fixed-seed artifact moves
    omegas = np.geomspace(above, 1e3, 200)
    assert np.array_equal(mode_window_integral(omegas, window), _difference_form(omegas, window))
    assert mode_window_integral(float(above), window) == _difference_form(float(above), window)


# ---------------------------------------------------------------------------
# photon-number and energy bound
# ---------------------------------------------------------------------------

def test_min_photon_number_values():
    assert abs(min_photon_number(0.01) - 246.74011002723395) < 1e-9
    assert abs(min_photon_number(0.25) - PI ** 2) < 1e-12
    for bad in (0.0, math.inf, -0.1):
        with pytest.raises(ValueError):
            min_photon_number(bad)


def test_cauchy_schwarz_witness_on_random_pulses():
    # at budget 1 the search returns its one random feasible pulse
    for seed in range(100):
        report = report_of(adversarial_pulse_search(0.05, 1 + seed % 3, 1, seed))
        n, err = report.photon_number, report.error
        assert n * err >= PI ** 2 / 4.0 - 1e-9
        # general chain: phase <= 2 sqrt(N * error)
        assert report.phase <= 2.0 * math.sqrt(n * err) + 1e-9


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), epsilon=st.floats(0.005, 5.0))
def test_energy_bound_holds_for_feasible_pulses(seed, epsilon):
    # Two modes: a single mode's mean frequency can round 1 ulp outside
    # [min, max], which the exact containment check below would catch.
    pulse = adversarial_pulse_search(epsilon, 2, 1, seed)
    report = energy_bound_check(pulse, epsilon)
    assert report.error <= epsilon
    assert report.error_within_epsilon
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


@pytest.mark.parametrize("epsilon", [0.3, 0.1, 0.03, 0.01, 1e-3])
def test_equality_pulse_meets_its_own_premise(epsilon):
    # its error is eps up to rounding (0.010000000000000002 at eps = 0.01),
    # which the same relative slack as the energy comparison absorbs
    report = energy_bound_check(single_mode_equality_pulse(epsilon), epsilon)
    assert report.to_dict()["meta"] == {"epsilon": epsilon, "p_power": 1,
                                        "off_calibration": False, "error_within_epsilon": True}
    assert report.satisfied


def test_bound_premise_unmet_is_flagged():
    pulse = single_mode_equality_pulse(0.1)
    report = energy_bound_check(pulse, 0.01)  # error 0.1 > epsilon 0.01
    assert not report.error_within_epsilon
    # a power-p coupling must keep its error below eps / p^2
    epsilon, envelope = 0.1, raised_cosine(1.0)
    unit = abs(power_pulse(1.0, envelope).coefficients[0])
    report = energy_bound_check(power_pulse(1.0, envelope, math.sqrt(0.5 * epsilon) / unit),
                                epsilon)
    assert report.error == pytest.approx(0.5 * epsilon, rel=1e-15)
    assert report.meta["p_power"] == 2
    assert report.error_budget == epsilon / 4.0
    assert not report.error_within_epsilon


def test_field_energy_units():
    pulse = PulseSpec(((2.0, 0.1, 1.5), (3.0, 0.1, 0.5)), (0, 1))
    report = report_of(pulse)
    assert abs(report.energy - (2.0 * 2.25 + 3.0 * 0.25)) < 1e-12
    assert abs(report.photon_number - 2.5) < 1e-12
    assert abs(report.mean_omega - (2.0 * 2.25 + 3.0 * 0.25) / 2.5) < 1e-12
    hbar = 1.054571817e-34
    assert energy_bound_check(pulse, 0.5, hbar).energy == pytest.approx(
        hbar * report.energy, rel=1e-15)


# ---------------------------------------------------------------------------
# power-p coupling
# ---------------------------------------------------------------------------

def power_pulse(omega, envelope, weight=1.0, window=(0.0, 1.0), p_power=2, alpha=1.0):
    """One-mode pulse of a power-p coupling with mean field ``envelope``."""
    return PulseSpec(((omega, weight, alpha),), window, p_power, envelope)


def counted_raised_cosine():
    """(E, times): E = raised_cosine(1.0), recording each time it is sampled at in ``times``."""
    envelope, times = raised_cosine(1.0), []

    def counted(t):
        times.append(t)
        return envelope(t)

    return counted, times


def test_p1_reduction_identical_to_linear_path():
    # E^0 = 1: at p = 1 the envelope is never sampled
    omega, g, alpha, window, epsilon = 1.3, 0.4 + 0.1j, 2.0 - 0.5j, (0.0, 1.0), 0.05
    pulse = PulseSpec(((omega, g, alpha),), window)
    counted, times = counted_raised_cosine()
    reduced = power_pulse(omega, counted, g, window, p_power=1, alpha=alpha)
    assert energy_bound_check(reduced, epsilon).to_dict() == \
        energy_bound_check(pulse, epsilon).to_dict()
    assert reduced.coefficients[0] == pulse.coefficients[0]
    assert abs(reduced.coefficients[0] - g * mode_window_integral(omega, window)) == 0.0
    assert times == []


def test_p2_bound_is_four_times_linear():
    omega, g, epsilon, envelope = 1.0, 0.2, 0.1, raised_cosine(1.0)
    linear = energy_bound_check(power_pulse(omega, envelope, g, p_power=1), epsilon)
    quadratic = energy_bound_check(power_pulse(omega, envelope, g), epsilon)
    assert quadratic.bound == pytest.approx(4.0 * linear.bound, rel=1e-14)
    assert (linear.meta["p_power"], quadratic.meta["p_power"]) == (1, 2)


def test_p2_coefficient_matches_refined_quadrature():
    # oracle: scipy adaptive quadrature of E(t) e^{-i w t} at 1e-12
    from gatebound.envelopes import gaussian

    omega, weight, T = 2.1, 0.7, 1.0
    envelope = gaussian(T)
    pulse = power_pulse(omega, envelope, weight, (0.0, T))
    re, _ = quad(lambda t: envelope(t) * math.cos(omega * t), 0, T, epsabs=1e-14, epsrel=1e-12)
    im, _ = quad(lambda t: -envelope(t) * math.sin(omega * t), 0, T, epsabs=1e-14, epsrel=1e-12)
    oracle = weight * complex(re, im)
    assert abs(pulse.coefficients[0] - oracle) < 1e-8


def test_bound_checks_reject_a_pulse_with_no_photons():
    # the bound's mean frequency is a photon-weighted average, undefined at alpha = 0
    omega, g, epsilon = 1.0, 0.2, 0.1
    for pulse in (PulseSpec(((omega, g, 0.0),), (0.0, 1.0)),
                  *(power_pulse(omega, raised_cosine(1.0), g, p_power=p, alpha=0.0)
                    for p in (1, 2))):
        with pytest.raises(ValueError, match="no photons"):
            energy_bound_check(pulse, epsilon)


OVERFLOWING = {  # the first report quantity to overflow: (modes, epsilon, hbar)
    "photon_number": (((1.0, 1.0, 1e200),), 0.1, 1.0),
    "mean_omega": (((1e300, 1.0, 1e10),), 0.1, 1.0),
    "energy": (((1e10, 1.0, 1.0),), 0.1, 1e300),
    "bound": (((1e10, 1.0, 1.0),), 1e-300, 1.0),
    # |c| |alpha| overflows where |c|^2 and |alpha|^2 do not (c ~ g at small omega)
    "phase": (((1e-3, 1.2e154, 1.2e154),), 0.1, 1.0),
    "error": (((1.0, 1e200, 1e-150),), 0.1, 1.0),
}


@pytest.mark.parametrize("quantity", sorted(OVERFLOWING))
def test_bound_check_names_an_overflowing_quantity(quantity):
    # finite inputs whose report would overflow: no bound to compare, and no RuntimeWarning
    modes, epsilon, hbar = OVERFLOWING[quantity]
    pulse = PulseSpec(modes, (0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{quantity} must be finite"):
            energy_bound_check(pulse, epsilon, hbar)


def test_power_pulse_needs_p_at_least_one_and_an_envelope():
    with pytest.raises(ValueError, match="p_power must be >= 1"):
        power_pulse(1.0, raised_cosine(1.0), p_power=0)
    with pytest.raises(ValueError, match="needs an envelope"):
        PulseSpec(((1.0, 1.0, 1.0),), (0.0, 1.0), 2)


def test_power_pulse_rejects_an_unresolvable_mode_before_sampling():
    # 1e8 rad on the window needs more than the 2^16-panel (2^20-sample) cap
    counted, times = counted_raised_cosine()
    with pytest.raises(IntegrationError, match="cannot resolve"):
        power_pulse(1e8, counted)
    assert times == []


def test_power_pulse_waits_for_a_resolving_grid():
    # with E = 1 - cos(2 pi t), c = int E e^{-i w t} dt on (0, 1) is
    # (1 - e^{-i w}) / i * 4 pi^2 / (w (4 pi^2 - w^2)), about 3e-12 at w = 2e4.
    # Aliased Simpson sums on 128 and 256 samples agree to the absolute
    # tol = 1e-8 but miss c by 7e-8; the grid must reach one sample per radian.
    omega = 2e4
    four_pi_sq = 4.0 * math.pi ** 2
    exact = (1.0 - cmath.exp(-1j * omega)) / 1j * four_pi_sq / (omega * (four_pi_sq - omega ** 2))
    assert abs(power_pulse(omega, raised_cosine(1.0)).coefficients[0] - exact) <= 1e-8


def test_power_pulse_rejects_an_undeclared_jump():
    # a jump at t = 0.3 is never a panel edge: the panel levels keep missing
    # each other by O(h) up to the cap
    def sign_flip(t):
        return 1.0 if t < 0.3 else -1.0

    with pytest.raises(IntegrationError) as info:
        power_pulse(1.0, sign_flip)
    diagnostics = info.value.diagnostics
    assert diagnostics["panels"] == REDUCE_MAX_PANELS
    assert diagnostics["rtol"] == 1e-12
    assert diagnostics["error"] > diagnostics["rtol"] * diagnostics["scale"]


def test_power_pulse_splits_the_window_at_declared_breakpoints():
    # the triangle's kink at t = 0.5 is never a panel edge of the window
    # (0, 0.7): on one segment the levels agreed only after 2,097,136
    # envelope samples.  Split there, each segment's E is linear.
    shape, times = triangle(1.0), []

    def counted(t):
        times.append(t)
        return shape.fn(t)

    envelope = Envelope(counted, shape.duration, shape.breakpoints)
    pulse = power_pulse(1.0, envelope, window=(0.0, 0.7))
    # E = 4t up to 0.5 and 4(1 - t) after; A and B are antiderivatives of
    # t e^{-it} and e^{-it}
    A = lambda t: cmath.exp(-1j * t) * (1j * t + 1.0)
    B = lambda t: 1j * cmath.exp(-1j * t)
    exact = 4.0 * (A(0.5) - A(0.0) + B(0.7) - B(0.5) - A(0.7) + A(0.5))
    assert abs(pulse.coefficients[0] - exact) <= 1e-12
    assert len(times) <= 0.01 * 2_097_136


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(math.log(0.1), math.log(1e5)).map(math.exp)
       .filter(lambda omega: abs(omega - 2.0 * PI) > 0.1))
def test_p2_coefficient_matches_closed_form(omega):
    # E = 1 - cos(2 pi t): int_0^1 E e^{-i w t} dt in closed form
    four_pi_sq = 4.0 * PI ** 2
    exact = (1.0 - cmath.exp(-1j * omega)) / 1j * four_pi_sq / (omega * (four_pi_sq - omega ** 2))
    assert abs(power_pulse(omega, raised_cosine(1.0)).coefficients[0] - exact) <= 1e-12


NON_FINITE_PULSES = [  # (omega, coupling or weight or amplitude, window)
    (math.nan, 1.0, (0.0, 1.0)), (math.inf, 1.0, (0.0, 1.0)),
    (1.0, math.nan, (0.0, 1.0)), (1.0, complex(1.0, math.inf), (0.0, 1.0)),
    (1.0, 1.0, (0.0, math.inf)), (1.0, 1.0, (-math.inf, 1.0)),
    (1.0, 1.0, (math.nan, 1.0)), (1.0, 1.0, (0.0, math.nan)),
    (1.0, 1.0, (1.0, 0.0)),  # reversed: finite, but t_end < t_start
]


@pytest.mark.parametrize("omega, value, window", NON_FINITE_PULSES,
                         ids=[f"{w}-{v}-{win}" for w, v, win in NON_FINITE_PULSES])
def test_non_finite_pulse_inputs_are_rejected_before_sampling(omega, value, window):
    # every power checks its frequencies, couplings and amplitudes alike
    match = "t_end > t_start" if window == (1.0, 0.0) else "finite"
    counted, times = counted_raised_cosine()
    for spec in [((omega, value, 1.0),), ((omega, 1.0, value),)]:
        with pytest.raises(ValueError, match=match):
            PulseSpec(spec, window)
        for p_power in (1, 2):
            with pytest.raises(ValueError, match=match):
                PulseSpec(spec, window, p_power, counted)
    assert times == []


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

def search_report(epsilon, n_modes, budget, seed):
    """Bound report of the adversarial search's winning pulse."""
    return energy_bound_check(adversarial_pulse_search(epsilon, n_modes, budget, seed), epsilon)


def test_search_budget_one_is_a_feasible_pulse():
    report = search_report(0.05, 2, budget=1, seed=5)
    assert report.ratio >= 1.0 - 1e-9
    assert abs(report.phase - PI) < 1e-9
    assert report.error <= 0.05 * (1 + 1e-12)


def test_search_never_beats_the_bound():
    for seed in (0, 1, 2):
        report = search_report(0.01, 2, budget=300, seed=seed)
        assert report.ratio >= 1.0 - 1e-6


def test_single_mode_search_converges_to_tightness():
    report = search_report(0.01, 1, budget=2000, seed=7)
    assert 1.0 - 1e-6 <= report.ratio <= 1.01


def test_search_is_deterministic():
    a = adversarial_pulse_search(0.02, 2, budget=250, seed=42)
    b = adversarial_pulse_search(0.02, 2, budget=250, seed=42)
    assert a == b
    assert energy_bound_check(a, 0.02).ratio == energy_bound_check(b, 0.02).ratio


def _sequential_search(epsilon: float, n_modes: int, budget: int, seed: int) -> PulseSpec:
    """Reference: the one-restart-at-a-time search, one PulseSpec per candidate."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    evals_per_restart = 120
    n_restarts = max(1, math.ceil(budget / evals_per_restart))
    remaining = budget
    best: PulseSpec | None = None
    best_ratio = math.inf

    for restart in range(n_restarts):
        if remaining <= 0:
            break
        rng = np.random.default_rng(np.random.SeedSequence([seed, restart]))
        pulse = _sequential_pulse(rng, epsilon, n_modes)
        # every restart draws the first restart's moves: their kinds, then Re z | Im z
        kinds = rng.integers(0, 3, size=min(budget - 1, evals_per_restart - 1))
        zs = rng.normal(size=(len(kinds), 2 * n_modes))
        ratio = energy_bound_check(pulse, epsilon).ratio
        remaining -= 1
        if best is None or ratio < best_ratio:
            best, best_ratio = pulse, ratio
        step = 0.5
        use = min(remaining, evals_per_restart - 1)
        for k in range(use):
            candidate = _perturb_pulse(pulse, epsilon, step, kinds[k], zs[k])
            if candidate is None:
                continue
            cand_ratio = energy_bound_check(candidate, epsilon).ratio
            if cand_ratio < ratio:
                pulse, ratio = candidate, cand_ratio
                step = min(0.5, step * 1.3)
            else:
                step = max(1e-4, step * 0.93)
            if ratio < best_ratio:
                best, best_ratio = pulse, ratio
        remaining -= use
    assert best is not None
    return best


def _perturb_pulse(pulse: PulseSpec, epsilon: float, step: float, which: int,
                   z: np.ndarray) -> PulseSpec | None:
    """One move of kind ``which`` with the pre-drawn values z = Re z | Im z."""
    omegas, gs, alphas = pulse.omegas, pulse.couplings, pulse.alphas
    n = len(omegas)
    if which == 0:
        omegas = omegas * np.exp(step * z[:n] * 0.3)
    elif which == 1:
        gs = gs * (1.0 + step * (z[:n] + 1j * z[n:]) * 0.3)
    else:
        alphas = alphas + step * (z[:n] + 1j * z[n:]) * np.mean(np.abs(alphas))
    if np.any(omegas <= 0):
        return None
    integral = mode_window_integral(omegas, pulse.window)
    coeffs = _weighted(gs, integral)
    error = float(np.sum(np.abs(coeffs) ** 2))
    if error == 0.0:
        return None
    if error > epsilon:
        gs = gs * math.sqrt(epsilon / error) * (1.0 - 1e-15)
        coeffs = _weighted(gs, integral)
    phase = 2.0 * float(np.sum(coeffs * alphas).real)
    if abs(phase) < 1e-9:
        return None
    alphas = alphas * (PI / phase)
    return PulseSpec(tuple(zip(omegas, gs, alphas)), pulse.window)


def test_bound_report_satisfied_within_ratio_slack():
    # a rounding shortfall below RATIO_SLACK = 1e-12 still satisfies the bound
    b = 7.3
    inside = BoundReport(energy=b * (1 - 1e-13), bound=b, epsilon=0.1, error_budget=0.1, error=0.0)
    outside = BoundReport(energy=b * (1 - 1e-11), bound=b, epsilon=0.1, error_budget=0.1, error=0.0)
    assert inside.satisfied
    assert not outside.satisfied
    for report in (inside, outside):
        assert report.to_dict()["satisfied"] == report.satisfied


def assert_same_pulse(got: PulseSpec, want: PulseSpec):
    assert got.window == want.window
    for name in ("omegas", "couplings", "alphas"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


# one restart is 120 evaluations; these budgets end a restart early, on its
# first perturbation, exactly at its end, and one evaluation into the next
@example(epsilon=0.03, n_modes=1, budget=1, seed=11)
@example(epsilon=0.03, n_modes=2, budget=2, seed=11)
@example(epsilon=0.03, n_modes=3, budget=119, seed=11)
@example(epsilon=0.03, n_modes=1, budget=120, seed=11)
@example(epsilon=0.03, n_modes=3, budget=121, seed=11)
@example(epsilon=0.03, n_modes=9, budget=241, seed=11)
@settings(derandomize=True, deadline=None, max_examples=60)
@given(epsilon=st.floats(0.005, 5.0), n_modes=st.integers(1, 9),
       budget=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
def test_lockstep_search_matches_sequential_reference(epsilon, n_modes, budget, seed):
    assert_same_pulse(adversarial_pulse_search(epsilon, n_modes, budget, seed),
                      _sequential_search(epsilon, n_modes, budget, seed))


def test_lockstep_search_matches_reference_on_benchmark_case():
    # the pulse-bound search of the closed-forms benchmark workload
    assert_same_pulse(adversarial_pulse_search(0.01, 1, 2000, 0),
                      _sequential_search(0.01, 1, 2000, 0))


def test_search_builds_one_pulse_spec(monkeypatch):
    # the restarts start from arrays; only the winner becomes a PulseSpec
    built = []
    post_init = PulseSpec.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(PulseSpec, "__post_init__", counted)
    adversarial_pulse_search(0.01, 1, 2000, 0)
    assert len(built) == 1


def test_search_memory_is_bounded_by_its_move_draws():
    # 834 restarts of 119 moves of 2 * 9 values: 14.3 MB of move draws,
    # filled restart by restart into one array with no stacked copy beside it
    n_modes, budget = 9, 100_000
    draw_bytes = math.ceil(budget / 120) * 119 * 2 * n_modes * 8
    tracemalloc.start()
    try:
        adversarial_pulse_search(0.01, n_modes, budget, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * draw_bytes


def test_search_validates_before_drawing():
    for epsilon, n_modes, budget in ((0.0, 1, 10), (math.nan, 1, 10), (-0.1, 1, 10),
                                     (math.inf, 1, 10), (0.1, 0, 10), (0.1, 1, 0)):
        with pytest.raises(ValueError):
            adversarial_pulse_search(epsilon, n_modes, budget, 0)


class _ZeroNormalGenerator:
    """A Generator whose normal draws are all zero, so every coupling vanishes."""

    def __init__(self, *args, **kwargs):
        self._rng = np.random.Generator(np.random.PCG64(0))

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)

    def normal(self, size=None):
        return np.zeros(size)


def test_degenerate_stream_raises_sampling_error(monkeypatch):
    with pytest.raises(SamplingError, match="feasible pulse"):
        random_feasible_ratios(_ZeroNormalGenerator(), 0.1, 5)
    monkeypatch.setattr(np.random, "default_rng", _ZeroNormalGenerator)
    with pytest.raises(SamplingError, match="feasible pulse"):
        adversarial_pulse_search(0.1, 2, 1, 0)


def _sequential_pulse(rng, epsilon, n_modes):
    """Reference: one feasible pulse, projected with NumPy's complex products."""
    omegas = np.exp(rng.uniform(math.log(0.5), math.log(20.0), n_modes))
    gs = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    u = rng.uniform(0.2, 1.0)
    alphas = rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes)
    return _projected_pulse(omegas, gs, u, alphas, epsilon)


def _projected_pulse(omegas, gs, u, alphas, epsilon):
    """Reference: couplings onto error eps*u, then amplitudes onto phase pi."""
    error = float(np.sum(np.abs(_weighted(gs, mode_window_integral(omegas, WINDOW))) ** 2))
    if error == 0.0:
        raise SamplingError("degenerate draw")
    gs = gs * math.sqrt(epsilon * u / error)
    coeffs = _weighted(gs, mode_window_integral(omegas, WINDOW))
    phase = 2.0 * float(np.sum(coeffs * alphas).real)
    if abs(phase) < 1e-9:
        raise SamplingError("degenerate draw")
    alphas = alphas * (PI / phase)
    return PulseSpec(tuple(zip(omegas, gs, alphas)), WINDOW)


def _sequential_ratios(rng, epsilon, count):
    """Reference: the universality screen of criterion 4, one pulse at a time.

    The whole screen is drawn first: the mode counts n_j, then (count x 3)
    ln omega, Re g | Im g, u and Re alpha | Im alpha.  Pulse j is the first
    n_j modes of row j, projected alone and scored by energy_bound_check.
    """
    ns = rng.integers(1, 4, size=count)
    log_omegas = rng.uniform(math.log(0.5), math.log(20.0), (count, 3))
    g = rng.normal(size=(count, 6))
    us = rng.uniform(0.2, 1.0, count)
    a = rng.normal(size=(count, 6))
    ratios = []
    for j, n in enumerate(ns):
        pulse = _projected_pulse(np.exp(log_omegas[j, :n]), g[j, :n] + 1j * g[j, 3:3 + n], us[j],
                                 a[j, :n] + 1j * a[j, 3:3 + n], epsilon)
        ratios.append(energy_bound_check(pulse, epsilon).ratio)
    return np.array(ratios)


def test_budget_one_search_matches_one_pulse_reference():
    # the one-pulse stream: ln omega, Re g, Im g, u, Re alpha, Im alpha
    for seed in range(40):
        n_modes = 1 + seed % 5
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
        pulse = adversarial_pulse_search(0.02, n_modes, 1, seed)
        want = _sequential_pulse(rng, 0.02, n_modes)
        assert pulse.modes == want.modes
        assert_same_pulse(pulse, want)


@example(seed=0, epsilon=0.01, count=300)
@example(seed=1, epsilon=0.4, count=1)
@settings(derandomize=True, deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), epsilon=st.floats(0.005, 0.5),
       count=st.integers(1, 300))
def test_random_feasible_ratios_match_sequential_reference(seed, epsilon, count):
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_feasible_ratios(a, epsilon, count)
    assert np.array_equal(got, _sequential_ratios(b, epsilon, count))
    assert a.bit_generator.state == b.bit_generator.state


class _ZeroedNormals:
    """A Generator stream whose chosen normal calls come out zero in one row.

    Calls are counted from 0: the screen draws its couplings in call 0 and
    its amplitudes in call 1, one row per pulse.
    """

    def __init__(self, seed, pulse, calls):
        self._rng = np.random.default_rng(seed)
        self._row, self._calls = pulse, calls
        self._normals = 0

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def uniform(self, *args, **kwargs):
        return self._rng.uniform(*args, **kwargs)

    def normal(self, size=None):
        z = self._rng.normal(size=size)
        if self._normals in self._calls:
            z[self._row] = 0.0
        self._normals += 1
        return z


@pytest.mark.parametrize("calls", [(1,), (0,)], ids=["zero-phase", "zero-error"])
@pytest.mark.parametrize("pulse", [0, 17, 99])
def test_degenerate_draw_raises_on_the_same_pulse_in_sequence(pulse, calls):
    with pytest.raises(SamplingError, match=f"at pulse {pulse}:"):
        random_feasible_ratios(_ZeroedNormals(7, pulse, calls), 0.03, 100)
    # the one-pulse-at-a-time reference meets the same degenerate row
    with pytest.raises(SamplingError, match="degenerate draw"):
        _sequential_ratios(_ZeroedNormals(7, pulse, calls), 0.03, 100)


def test_fixed_seed_streams_draw_no_degenerate_pulse():
    # a degenerate draw raises, so the fixed-seed runs rely on none occurring:
    # criterion 4's screen, and the restarts of pulse-bound --budget 2000
    # (17 restarts of one mode) at seeds 0 and 7
    rng = np.random.default_rng(np.random.SeedSequence([20260809, 4]))
    assert random_feasible_ratios(rng, 0.01, 1000).shape == (1000,)
    for seed in (0, 7):
        adversarial_pulse_search(0.01, 1, 2000, seed)


def test_random_feasible_ratios_validate_before_drawing():
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    for epsilon, count in ((0.0, 5), (math.nan, 5), (0.1, -1)):
        with pytest.raises(ValueError):
            random_feasible_ratios(rng, epsilon, count)
    assert rng.bit_generator.state == before
    assert random_feasible_ratios(rng, 0.1, 0).shape == (0,)


def test_degenerate_stream_exits_3_from_pulse_bound(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(np.random, "default_rng", _ZeroNormalGenerator)
    out = tmp_path / "run"
    assert main(["pulse-bound", "--epsilon", "0.1", "--budget", "5", "--output", str(out)]) == 3
    assert "feasible pulse" in capsys.readouterr().err
    assert not (out / "result.csv").exists()


def test_coefficients_are_the_scalar_product_for_any_shape():
    # One pulse's c_k must be the same bits whether it is computed alone
    # (PulseSpec) or as one row of a (restarts x modes) batch, and the same
    # as the scalar product w * integral.  A vectorised complex multiply
    # that fuses multiply-adds rounds differently, so it fails this test
    # on hosts where NumPy uses FMA for complex arrays.
    rng = np.random.default_rng(2026)
    omegas = 10.0 ** rng.uniform(-2, 2, size=(40, 5))
    weights = (10.0 ** rng.uniform(-2, 2, size=(40, 5))
               * np.exp(2j * PI * rng.uniform(size=(40, 5))))
    reference = np.array([[w * mode_window_integral(om, WINDOW) for om, w in zip(row_om, row_w)]
                          for row_om, row_w in zip(omegas, weights)])

    def same_bits(got, want):
        return np.array_equal(got.real, want.real) and np.array_equal(got.imag, want.imag)

    assert same_bits(_weighted(weights, mode_window_integral(omegas, WINDOW)), reference)
    for row_om, row_w, row_ref in zip(omegas, weights, reference):
        assert same_bits(_weighted(row_w, mode_window_integral(row_om, WINDOW)), row_ref)
        pulse = PulseSpec(tuple(zip(row_om, row_w, np.ones(5))), WINDOW)
        assert same_bits(pulse.coefficients, row_ref)


def test_pulse_spec_validation():
    with pytest.raises(ValueError):
        PulseSpec((), (0, 1))
    with pytest.raises(ValueError):
        PulseSpec(((-1.0, 0.1, 0.1),), (0, 1))
    with pytest.raises(ValueError):
        PulseSpec(((1.0, 0.1, 0.1),), (1, 1))

"""One error-budget domain across the bound routes, and one rule per input check and flag."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from gatebound import collision, pulses
from gatebound import (
    BoundReport,
    FreeCollisionConfig,
    GateScenario,
    HarmonicCollisionConfig,
    HeuristicConfig,
    PotentialLaw,
    PulseSpec,
    coherent_state,
    collision_crosscheck,
    counterexample_always_on,
    energy_bound_check,
    envelope_drive,
    error_variance_free,
    error_variance_harmonic,
    evolve,
    failure_probability_exact,
    free_chain,
    free_energy_bound,
    gaussian,
    harmonic_energy_bound,
    heuristic_energy_bound,
    linewidth_combined_bound,
    min_photon_number,
    optimal_wavepacket,
    optimize_squeezing,
    powerlaw_log_derivative,
    raised_cosine,
    squeezed_energy,
    squeezing_consistency_probe,
    triangle,
)

NAN = math.nan
INF = math.inf
# each route evaluated once from raw inputs; every bound reads it at any eps
FREE = free_chain(FreeCollisionConfig(m=40.0, v=2.0, b=4.0, T=8.0, potential=PotentialLaw(2.0)))
HARMONIC = error_variance_harmonic(
    HarmonicCollisionConfig(m=1.0, omega=1.0, A=100.0, b=30.0, potential=PotentialLaw(3.0)))
HEURISTIC = HeuristicConfig(m=1.0, L=1.0, T=2.0)
PULSE = PulseSpec(((1.3, 0.4 + 0.1j, 2.0 - 1.0j), (4.1, 0.2j, 0.5)), (0.0, 1.0))
POWER_2 = PulseSpec(((3.0, 1.0, 1.0),), (0.0, 1.0), 2, raised_cosine(1.0))


def _bounds(epsilon):
    """Every route's bound at ``epsilon``, with its parameters other than eps fixed."""
    return {
        "free": free_energy_bound(FREE, epsilon).bound,
        "harmonic": harmonic_energy_bound(HARMONIC, epsilon).bound,
        "heuristic": heuristic_energy_bound(HEURISTIC, epsilon).bound,
        "pulse": energy_bound_check(PULSE, epsilon).bound,
        "power-2": energy_bound_check(POWER_2, epsilon).bound,
        "photons": min_photon_number(epsilon),
        "linewidth": linewidth_combined_bound(2.0, epsilon).bound,
    }


@settings(derandomize=True, deadline=None, max_examples=40)
@given(epsilon=st.floats(1e-3, 1e3))
def test_every_bound_scales_as_one_over_epsilon(epsilon):
    # each closed form is defined for all eps > 0, not only below 1
    at_one = _bounds(1.0)
    for route, bound in _bounds(epsilon).items():
        assert bound * epsilon == pytest.approx(at_one[route], rel=1e-14), route
    r_star, e_min = optimize_squeezing(epsilon, 1.5)
    assert e_min * math.sqrt(epsilon) == pytest.approx(3.0, rel=1e-14)
    assert (r_star < 0) == (epsilon > 1)
    assert squeezed_energy(r_star, epsilon, 1.5) == pytest.approx(e_min, rel=1e-14)


# each physical input must be finite and > 0, so NaN and inf are both rejected
SCENARIO = GateScenario(coherent_state(0.0, 30), envelope_drive(raised_cosine(1.0), 1.0))
NAN_INPUTS = {
    "free-epsilon": lambda: free_energy_bound(FREE, NAN),
    "harmonic-epsilon": lambda: harmonic_energy_bound(HARMONIC, NAN),
    "heuristic-epsilon": lambda: heuristic_energy_bound(HEURISTIC, NAN),
    "free-config": lambda: FreeCollisionConfig(m=NAN, v=2.0, b=4.0, T=8.0,
                                               potential=PotentialLaw(2.0)),
    "harmonic-config": lambda: HarmonicCollisionConfig(m=1.0, omega=NAN, A=100.0, b=30.0,
                                                       potential=PotentialLaw(3.0)),
    "heuristic-config": lambda: HeuristicConfig(m=NAN, L=1.0, T=1.0),
    "heuristic-widths": lambda: HeuristicConfig(m=1.0, L=1.0, T=1.0, dx=NAN, dp=1.0),
    "optimal-wavepacket": lambda: optimal_wavepacket(1.0, NAN),
    "log-derivative": lambda: powerlaw_log_derivative(2.0, NAN),
    "error-variance": lambda: error_variance_free(FREE.cfg, 1.0, NAN),
    "squeezed-energy": lambda: squeezed_energy(0.0, 0.1, NAN),
    "optimize-squeezing": lambda: optimize_squeezing(1.0, NAN),
    "linewidth": lambda: linewidth_combined_bound(NAN, 0.1),
    # hbar enters the pulse route only through the bound report and the three squeezing
    # closed forms; the CLI takes it from --units
    "squeezed-energy-hbar": lambda: squeezed_energy(0.0, 0.1, 1.0, hbar=INF),
    "squeezed-energy-r": lambda: squeezed_energy(NAN, 0.1, 1.0),
    "optimize-squeezing-hbar": lambda: optimize_squeezing(0.1, 1.0, hbar=NAN),
    "linewidth-hbar": lambda: linewidth_combined_bound(1.0, 0.1, hbar=-1.0),
    "pulse-hbar": lambda: energy_bound_check(PULSE, 0.1, NAN),
    "power-2-hbar": lambda: energy_bound_check(POWER_2, 0.1, -1.0),
    "raised-cosine": lambda: raised_cosine(NAN),
    "triangle": lambda: triangle(NAN),
    "gaussian": lambda: gaussian(NAN),
    "evolve-tol": lambda: evolve(SCENARIO.control, SCENARIO.drive, 0.0, 1.0, NAN),
    "exact-tol": lambda: failure_probability_exact(SCENARIO, NAN),
    "counterexample-g": lambda: counterexample_always_on(1, NAN),
    "log-derivative-exponent": lambda: powerlaw_log_derivative(NAN, 1.0),
    "crosscheck-epsilon": lambda: collision_crosscheck(2.0, 3.0, -1.0),
    "crosscheck-speed": lambda: collision_crosscheck(NAN, 3.0, 0.05),
    "free-config-inf": lambda: FreeCollisionConfig(m=INF, v=2.0, b=4.0, T=8.0,
                                                   potential=PotentialLaw(2.0)),
    "harmonic-config-inf": lambda: HarmonicCollisionConfig(m=1.0, omega=1.0, A=INF, b=30.0,
                                                           potential=PotentialLaw(3.0)),
    "heuristic-config-inf": lambda: HeuristicConfig(m=1.0, L=INF, T=1.0),
    "heuristic-widths-inf": lambda: HeuristicConfig(m=1.0, L=1.0, T=1.0, dx=INF, dp=1.0),
    # squeeze_r may be any real number, but a NaN error would read as within budget
    "harmonic-squeeze": lambda: HarmonicCollisionConfig(m=1.0, omega=1.0, A=100.0, b=30.0,
                                                        potential=PotentialLaw(3.0),
                                                        squeeze_r=NAN),
    "harmonic-squeeze-inf": lambda: HarmonicCollisionConfig(m=1.0, omega=1.0, A=100.0, b=30.0,
                                                            potential=PotentialLaw(3.0),
                                                            squeeze_r=INF),
    "harmonic-squeeze-minus-inf": lambda: HarmonicCollisionConfig(
        m=1.0, omega=1.0, A=100.0, b=30.0, potential=PotentialLaw(3.0), squeeze_r=-INF),
    "potential-exponent": lambda: PotentialLaw(NAN),
    "potential-exponent-inf": lambda: PotentialLaw(INF),
    "log-derivative-exponent-inf": lambda: powerlaw_log_derivative(INF, 2.0),
}


@pytest.mark.parametrize("name", sorted(NAN_INPUTS))
def test_nan_input_to_a_bound_route_raises(name):
    with pytest.raises(ValueError, match="epsilon|positive|n > 1|r must be finite"):
        NAN_INPUTS[name]()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(epsilon=st.floats(1e-3, 0.5), L=st.floats(0.1, 3.0), T=st.floats(0.1, 3.0))
@example(epsilon=0.01, L=1.2, T=1.5)  # m = 2056.1675835602828, misoverlap = eps + 1 ulp
def test_heuristic_flag_agrees_with_satisfied_at_equality(epsilon, L, T):
    # misoverlap <= eps is exactly energy >= bound, and at the equality mass
    # both sides land within rounding of equality: one slack decides both
    m = 2.0 * math.pi ** 2 * T / (epsilon * L * L)
    report = heuristic_energy_bound(HeuristicConfig(m=m, L=L, T=T), epsilon)
    assert report.satisfied == report.error_within_epsilon


def test_each_route_is_evaluated_once_and_its_bound_runs_no_numerics(monkeypatch):
    calls = []
    for module, name in ((collision, "quad"), (collision, "_dop853"),
                         (pulses, "_power_coefficients")):
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    routes = {
        "free": (free_chain(FreeCollisionConfig(m=40.0, v=2.0, b=4.0, T=8.0,
                                                potential=PotentialLaw(2.0))),
                 free_energy_bound, 1.0),
        "harmonic": (error_variance_harmonic(HarmonicCollisionConfig(
            m=1.0, omega=1.0, A=100.0, b=30.0, potential=PotentialLaw(3.0))),
            harmonic_energy_bound, 1.0),
        "heuristic": (HeuristicConfig(m=1.0, L=1.0, T=2.0), heuristic_energy_bound, 1.0),
        "power-2": (PulseSpec(((3.0, 1.0, 1.0),), (0.0, 1.0), 2, raised_cosine(1.0)),
                    energy_bound_check, 0.25),
    }
    # the free chain's 3 quadratures, the trapped chain's 4 and its trajectory,
    # one power-p integral
    assert calls == ["quad"] * 7 + ["_dop853", "_power_coefficients"]
    calls.clear()
    for route, (evaluation, bound, budget_per_epsilon) in routes.items():
        for epsilon in (1e-3, 0.5, 2.0):
            report = bound(evaluation, epsilon)
            assert report.epsilon == epsilon, route
            assert report.error_budget == budget_per_epsilon * epsilon, route
    squeezing_consistency_probe(routes["harmonic"][0])
    assert calls == []


def test_error_flag_within_ratio_slack_and_written_to_meta():
    # an error above its budget by less than RATIO_SLACK = 1e-12 is within it
    budget = 0.3
    inside = BoundReport(energy=1.0, bound=1.0, epsilon=1.2, error_budget=budget,
                         error=budget * (1 + 1e-13))
    outside = BoundReport(energy=1.0, bound=1.0, epsilon=1.2, error_budget=budget,
                          error=budget * (1 + 1e-11))
    assert inside.error_within_epsilon
    assert not outside.error_within_epsilon
    for report in (inside, outside):
        meta = report.to_dict()["meta"]
        assert meta == {"epsilon": 1.2, "error_within_epsilon": report.error_within_epsilon}

import math

import pytest

from gatebound import (
    HeuristicConfig,
    UncertaintyError,
    collision_crosscheck,
    displacement_estimates,
    heuristic_energy_bound,
    misoverlap,
    misoverlap_optimal,
    optimal_wavepacket,
)

PI = math.pi


def test_displacement_estimates_natural_units():
    cfg = HeuristicConfig(m=1.0, L=1.0, T=1.0)
    d = displacement_estimates(cfg)
    assert d.delta_x == pytest.approx(PI / 2.0, rel=1e-14)
    assert d.delta_p == pytest.approx(PI, rel=1e-14)


def test_momentum_kick_independent_of_duration():
    for T in (0.5, 1.0, 4.0):
        d = displacement_estimates(HeuristicConfig(m=1.0, L=2.0, T=T))
        assert d.delta_p == pytest.approx(PI / 2.0, rel=1e-14)


def test_doubling_mass_halves_position_kick():
    d1 = displacement_estimates(HeuristicConfig(m=1.0, L=1.0, T=1.0))
    d2 = displacement_estimates(HeuristicConfig(m=2.0, L=1.0, T=1.0))
    assert d2.delta_x == pytest.approx(d1.delta_x / 2.0, rel=1e-14)
    assert d2.delta_p == d1.delta_p


def test_misoverlap_optimal_closed_form():
    cfg = HeuristicConfig(m=1.3, L=0.9, T=1.7)
    assert misoverlap(cfg) == pytest.approx(misoverlap_optimal(cfg), rel=1e-9)
    assert misoverlap_optimal(cfg) == pytest.approx(
        2.0 * PI ** 2 * cfg.T / (cfg.m * cfg.L ** 2), rel=1e-14)


def test_misoverlap_terms_equalised_at_optimum():
    cfg = HeuristicConfig(m=0.8, L=1.6, T=2.2)
    wp = optimal_wavepacket(cfg.m, cfg.T)
    dx, dp = math.sqrt(wp.dx0_sq), math.sqrt(wp.dp0_sq)
    amp = (PI / cfg.L) ** 2
    term_x = amp * cfg.T ** 2 / (4.0 * cfg.m ** 2 * dx ** 2)
    term_p = amp / dp ** 2
    total = misoverlap(cfg)
    assert term_x == pytest.approx(total / 2.0, rel=1e-9)
    assert term_p == pytest.approx(total / 2.0, rel=1e-9)
    assert dx * dp == pytest.approx(0.5, rel=1e-12)


def test_misoverlap_wide_packet_limit():
    cfg = HeuristicConfig(m=1.0, L=1.0, T=1.0, dx=1e8, dp=1.0)
    assert misoverlap(cfg) == pytest.approx((PI / cfg.L) ** 2, rel=1e-6)


def test_misoverlap_scales_inverse_length_squared():
    base = misoverlap(HeuristicConfig(m=1.0, L=1.0, T=1.0))
    double = misoverlap(HeuristicConfig(m=1.0, L=2.0, T=1.0))
    assert double == pytest.approx(base / 4.0, rel=1e-12)


def test_misoverlap_invariant_under_m_T_doubling():
    a = misoverlap_optimal(HeuristicConfig(m=1.0, L=1.5, T=1.0))
    b = misoverlap_optimal(HeuristicConfig(m=2.0, L=1.5, T=2.0))
    assert a == pytest.approx(b, rel=1e-14)


def test_equality_case_maps_exactly():
    epsilon, L, T = 0.03, 1.2, 0.8
    m = 2.0 * PI ** 2 * T / (epsilon * L ** 2)
    report = heuristic_energy_bound(HeuristicConfig(m=m, L=L, T=T), epsilon)
    assert report.energy == pytest.approx(report.bound, rel=1e-12)
    assert report.bound == pytest.approx(PI ** 2 / (epsilon * T), rel=1e-14)


def test_bound_satisfaction_equivalent_to_misoverlap_budget():
    for m in (10.0, 100.0, 1000.0):
        cfg = HeuristicConfig(m=m, L=1.0, T=1.0)
        report = heuristic_energy_bound(cfg, 0.05)
        assert report.satisfied == (misoverlap_optimal(cfg) <= 0.05)


def test_bound_monotone_in_epsilon_and_duration():
    cfg = HeuristicConfig(m=1.0, L=1.0, T=1.0)
    bounds_eps = [heuristic_energy_bound(cfg, e).bound for e in (0.01, 0.1, 0.5)]
    assert bounds_eps[0] > bounds_eps[1] > bounds_eps[2]
    bounds_t = [heuristic_energy_bound(
        HeuristicConfig(m=1.0, L=1.0, T=t), 0.1).bound for t in (0.5, 1.0, 2.0)]
    assert bounds_t[0] > bounds_t[1] > bounds_t[2]


def test_one_config_serves_every_budget():
    # the budget enters only the bound: bound * eps and every other number stay put
    cfg = HeuristicConfig(m=1.3, L=0.9, T=1.7)
    reports = {epsilon: heuristic_energy_bound(cfg, epsilon) for epsilon in (1e-3, 0.2, 2.0)}
    for epsilon, report in reports.items():
        assert report.epsilon == report.error_budget == epsilon
        assert report.bound * epsilon == pytest.approx(
            report.meta["bound_epsilon_free"], rel=1e-15)
        assert (report.energy, report.error) == (reports[0.2].energy, reports[0.2].error)


def test_epsilon_free_variant_recorded():
    cfg = HeuristicConfig(m=1.0, L=1.0, T=2.0)
    report = heuristic_energy_bound(cfg, 0.1)
    assert report.meta["bound_epsilon_free"] == pytest.approx(PI ** 2 / cfg.T, rel=1e-14)


def test_crosscheck_against_collision_chain():
    result = collision_crosscheck(v=2.0, T=3.0, epsilon=0.05)
    assert result["ratio"] == pytest.approx(4.0, rel=1e-9)
    assert 1.0 / 5.0 <= result["ratio"] <= 5.0


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        heuristic_energy_bound(HeuristicConfig(m=1.0, L=1.0, T=1.0), math.inf)
    with pytest.raises(ValueError):
        HeuristicConfig(m=-1.0, L=1.0, T=1.0)
    with pytest.raises(ValueError):
        HeuristicConfig(m=1.0, L=1.0, T=1.0, dx=1.0)
    with pytest.raises(UncertaintyError):
        HeuristicConfig(m=1.0, L=1.0, T=1.0, dx=0.1, dp=0.1)
    # the slack is relative, so the relation holds in SI too: 1e-40 < hbar/2 = 5.3e-35
    with pytest.raises(UncertaintyError):
        HeuristicConfig(m=1.0, L=1.0, T=1.0, dx=1e-20, dp=1e-20,
                        hbar=1.054571817e-34)


def test_scales_out_of_float_range_are_named():
    # m L^2 underflows to 0 in the closed form's denominator
    with pytest.raises(ValueError, match=r"^m L\^2 must be finite and positive, got 0\.0$"):
        misoverlap_optimal(HeuristicConfig(m=1.0, L=1e-200, T=1.0))
    # m^2 underflows to 0 while the optimal dx^2 = T hbar / 4m overflows
    with pytest.raises(ValueError, match=r"^4 m\^2 dx\^2 must be finite and positive, got nan$"):
        misoverlap(HeuristicConfig(m=1e-320, L=1.0, T=1.0))
    # dropping a term that overflowed would halve the mis-overlap silently
    with pytest.raises(ValueError, match=r"^4 m\^2 dx\^2 .* got inf$"):
        misoverlap(HeuristicConfig(m=1e200, L=1.0, T=1.0))
    with pytest.raises(ValueError, match=r"^\(pi hbar / L\)\^2 .* got inf$"):
        misoverlap(HeuristicConfig(m=1e300, L=1e-160, T=1.0))
    with pytest.raises(ValueError, match=r"^L T .* got 0\.0$"):
        displacement_estimates(HeuristicConfig(m=1.0, L=1e-200, T=1e-200))

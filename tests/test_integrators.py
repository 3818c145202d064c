"""The package's integrators against their references: the Gauss-Legendre
panel rule against numpy.polynomial's, the collision chains' quadrature and
ODE solver against scipy's.

numpy.polynomial and scipy.integrate are only references here: gatebound
itself loads neither.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad as scipy_quad, solve_ivp

from gatebound import HarmonicCollisionConfig, PotentialLaw
from gatebound import collision, numerics
from gatebound.collision import (
    SIN_SYMMETRY_TOL,
    _harmonic_quad_points,
    _line_integral_power_law,
    _quad,
    error_variance_harmonic,
)
from gatebound.errors import IntegrationError
from gatebound.numerics import _dop853, quad

PI = math.pi


# ---------------------------------------------------------------------------
# Gauss-Legendre panel rule
# ---------------------------------------------------------------------------

def test_panel_rule_keeps_the_bits_of_numpys_legendre_rule():
    # the tabulated nodes and weights are leggauss's, and the recurrence is
    # legvander's, so the nodes, weights and integration matrix S keep the
    # bits they had when the rule was built from numpy.polynomial
    from numpy.polynomial import legendre
    n = numerics.PANEL_NODES
    ref_x, ref_w = legendre.leggauss(n)
    P = legendre.legvander(ref_x, n)
    integrated = np.empty((n, n))
    integrated[:, 0] = ref_x + 1.0
    integrated[:, 1:] = (P[:, 2:] - P[:, :-2]) / (2.0 * np.arange(1, n) + 1.0)
    lagrange = (np.arange(n) + 0.5)[:, None] * P[:, :n].T * ref_w
    x, w, S = numerics._panel_rule()
    assert np.array_equal(x, ref_x)
    assert np.array_equal(w, ref_w)
    assert np.array_equal(S, integrated @ lagrange)


# ---------------------------------------------------------------------------
# Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

def test_gauss_kronrod_rule_degrees():
    # the 15-point Kronrod rule integrates x^k exactly for k <= 22 and the
    # embedded 7-point Gauss rule for k <= 13, so |K - G| vanishes up to 13
    for k in range(23):
        value, k_minus_g = numerics._gk15(lambda x: x ** k, 0.0, 1.0)
        assert value == pytest.approx(1.0 / (k + 1), rel=1e-14, abs=1e-15), k
        if k <= 13:
            assert k_minus_g < 1e-15, k
    _, k_minus_g = numerics._gk15(lambda x: x ** 14, 0.0, 1.0)
    assert k_minus_g > 1e-9


def _harmonic_integrands(cfg):
    V = lambda t: cfg.potential.value(cfg.rho(t))
    dV = lambda t: cfg.potential.derivative(cfg.rho(t))
    return (V, lambda t: dV(t) * math.cos(cfg.omega * t),
            lambda t: dV(t) * math.sin(cfg.omega * t))


@pytest.mark.parametrize("b_over_a", [0.3, 1e-2, 1e-3, 1e-4])
def test_harmonic_integrals_match_scipy(b_over_a):
    hv = error_variance_harmonic(HarmonicCollisionConfig(m=1.0, omega=1.0, A=100.0,
                                                         b=100.0 * b_over_a,
                                                         potential=PotentialLaw(3.0)))
    cfg = hv.cfg
    action, cos_int, sin_int = hv.action, hv.cos_integral, hv.sin_integral
    pts = _harmonic_quad_points(cfg)
    refs = [scipy_quad(fn, 0.0, cfg.period, epsabs=0.0, epsrel=1e-13, limit=800, points=pts)
            for fn in _harmonic_integrands(cfg)[:2]]
    assert abs(action - refs[0][0]) < 1e-11 * abs(refs[0][0])
    assert abs(cos_int - refs[1][0]) < 1e-11 * abs(refs[1][0])
    # the sin-weighted integral vanishes by symmetry, within its absolute tolerance
    assert abs(sin_int) <= 1e-13 * abs(cos_int) < SIN_SYMMETRY_TOL * abs(cos_int)


@pytest.mark.parametrize("b", [0.5, 2.0])
def test_singular_line_integral_matches_scipy(b):
    # n = 1.5 in the sin form, unsubstituted: sin^{-1/2}(phi) at phi = 0
    n = 1.5
    raw = lambda phi: (math.sin(phi) ** (n - 2.0)
                       * (math.cos(phi) ** 2 + b * b * math.sin(phi) ** 2) ** (-0.5 * n))
    val, err = quad(raw, 0.0, PI / 2.0, epsabs=0.0, epsrel=1e-10, limit=400)
    ref, _ = scipy_quad(raw, 0.0, PI / 2.0, epsabs=0.0, epsrel=1e-13, limit=400)
    assert err <= 1e-10 * abs(val)
    assert abs(val - ref) < 1e-10 * ref


def test_singular_line_integral_costs_about_a_smooth_one(monkeypatch):
    # phi = u^2 makes the n = 1.5 integrand bounded; bisecting down to the
    # singularity instead costs over 30 times the evaluations
    counts = []

    def counted(fn, *args, **kwargs):
        calls = []
        out = quad(lambda x: calls.append(x) or fn(x), *args, **kwargs)
        counts.append(len(calls))
        return out

    monkeypatch.setattr(collision, "quad", counted)
    _line_integral_power_law(1.5, 2.0)
    _line_integral_power_law(2.0, 2.0)
    assert counts[0] <= 2 * counts[1]


@pytest.mark.parametrize("n", [1.1, 1.5, 2.0, 3.0, 6.0])
def test_line_integral_closed_form(n):
    # int (y^2 + b^2)^{-n/2} dy = b^{1-n} sqrt(pi) Gamma((n-1)/2) / Gamma(n/2)
    for b in (0.5, 2.0, 7.0):
        closed = b ** (1.0 - n) * math.sqrt(PI) * math.gamma((n - 1.0) / 2.0) / math.gamma(n / 2.0)
        assert abs(_line_integral_power_law(n, b) - closed) < 1e-10 * closed


@settings(derandomize=True, deadline=None, max_examples=30)
@given(a=st.floats(-3.0, 3.0), width=st.floats(0.1, 10.0),
       k=st.floats(-2.0, 2.0), w=st.floats(0.0, 20.0))
def test_quad_matches_scipy_on_smooth_integrands(a, width, k, w):
    fn = lambda x: math.exp(k * x) * math.cos(w * x)
    val, err = quad(fn, a, a + width, epsabs=1e-14, epsrel=1e-11, limit=200)
    ref, _ = scipy_quad(fn, a, a + width, epsabs=1e-13, epsrel=1e-12, limit=200)
    assert err <= max(1e-14, 1e-11 * abs(val))
    assert abs(val - ref) <= max(2e-13, 1e-10 * abs(ref))


def test_exhausted_limit_raises_with_diagnostics():
    singular = lambda x: x ** -0.9
    val, err = quad(singular, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=5)
    assert err > 1e-10 * abs(val)
    with pytest.raises(IntegrationError) as info:
        _quad(singular, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=5)
    diag = info.value.diagnostics
    assert diag["function"] == "test_exhausted_limit_raises_with_diagnostics.<locals>.<lambda>"
    assert diag["bounds"] == (0.0, 1.0)
    assert diag["value"] == val and diag["error_estimate"] == err
    assert diag["tolerance"] == pytest.approx(1e-10 * abs(val))


def test_quad_error_estimate_of_nan_fails_the_check():
    with pytest.raises(IntegrationError):
        _quad(lambda x: math.nan, 0.0, 1.0, epsabs=0.0, epsrel=1e-10)


# ---------------------------------------------------------------------------
# DOP853
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m, omega, A, b", [(1.0, 1.0, 100.0, 30.0), (2.0, 3.0, 1.0, 0.3),
                                            (5.0, 0.5, 10.0, 1.0)])
def test_dop853_matches_scipy_on_the_collision_trajectory(monkeypatch, m, omega, A, b):
    cfg = error_variance_harmonic(HarmonicCollisionConfig(m=m, omega=omega, A=A, b=b,
                                                          potential=PotentialLaw(3.0))).cfg
    seen = {}

    def recorded(rhs, t0, t1, y0, rtol, atol):
        seen.update(rhs=rhs, span=(t0, t1), y0=y0, rtol=rtol, atol=atol)
        seen["y"] = _dop853(rhs, t0, t1, y0, rtol, atol)
        return seen["y"]

    monkeypatch.setattr(collision, "_dop853", recorded)
    mm = collision.classical_return_mismatch(cfg)
    y0, mine = seen["y0"], seen["y"]
    ref = solve_ivp(seen["rhs"], seen["span"], y0, method="DOP853",
                    rtol=seen["rtol"], atol=seen["atol"])
    assert ref.success
    # both meet rtol 1e-10 per step; the return deviations they report agree
    # to a small fraction of their size
    ref_dx = ref.y[2, -1] - y0[2]
    assert abs(mm.dx - ref_dx) < 1e-4 * abs(ref_dx)
    assert abs(mm.dp - m * ref.y[3, -1]) < 1e-7 * abs(m * ref.y[3, -1])
    assert np.allclose(mine, ref.y[:, -1], rtol=1e-10, atol=1e-8 * A)


def test_dop853_on_a_closed_form_oscillator():
    # x'' = -k^2 x from (1, 0): x(t) = cos(k t), x'(t) = -k sin(k t)
    k, t1 = 2.5, 7.3
    y = _dop853(lambda t, y: [y[1], -k * k * y[0]], 0.0, t1, [1.0, 0.0], 1e-10, [1e-13, 1e-13])
    assert abs(y[0] - math.cos(k * t1)) < 1e-8
    assert abs(y[1] + k * math.sin(k * t1)) < 1e-8


def test_dop853_step_cap_raises_with_diagnostics(monkeypatch):
    cfg = error_variance_harmonic(HarmonicCollisionConfig(m=1.0, omega=1.0, A=100.0, b=30.0,
                                                          potential=PotentialLaw(3.0))).cfg
    monkeypatch.setattr(numerics, "MAX_ODE_STEPS", 3)
    with pytest.raises(IntegrationError, match="step cap") as info:
        collision.classical_return_mismatch(cfg)
    diag = info.value.diagnostics
    assert diag["function"] == "classical_return_mismatch.<locals>.rhs"
    assert diag["attempts"] == 3
    assert 0.0 < diag["t_reached"] < diag["t_end"] == cfg.period
    assert diag["rtol"] == collision.RETURN_RTOL and len(diag["atol"]) == 4
    assert math.isfinite(diag["error_norm"])


def test_dop853_step_underflow_raises_at_the_blow_up():
    # y' = y^2 from y(0) = 1 blows up at t = 1
    with pytest.raises(IntegrationError, match="underflow") as info:
        _dop853(lambda t, y: [y[0] * y[0]], 0.0, 2.0, [1.0], 1e-10, [1e-12])
    diag = info.value.diagnostics
    assert diag["t_reached"] == pytest.approx(1.0, abs=1e-6)
    assert diag["t_end"] == 2.0
    assert diag["step"] < 1e-14


def test_dop853_nan_rhs_raises():
    with pytest.raises(IntegrationError):
        _dop853(lambda t, y: [math.nan], 0.0, 1.0, [1.0], 1e-10, [1e-12])

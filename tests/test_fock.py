import dataclasses
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, example, given, settings, strategies as st
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import gammaln

from gatebound import (
    ControlState,
    CutoffError,
    DimensionMismatchError,
    coherent_required_cutoff,
    coherent_state,
    envelope_drive,
    evolve,
    gaussian,
    mean_photon_number,
    multi_envelope_drive,
    number_state,
    overlap,
    piecewise_constant_drive,
    quadrature_variance,
    raised_cosine,
    squeezed_coherent_state,
    triangle,
)
from gatebound import fock
from gatebound.envelopes import ENVELOPES, Envelope, LinearDrive
from gatebound.fock import IntegrationError
from gatebound.gate import pi_phase_drive

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
unit_interval = st.floats(-1.0, 1.0)
complex_unit = st.builds(complex, unit_interval, unit_interval)


def _dense_ladder(cutoff):
    """Dense annihilation operator a (a|n> = sqrt(n)|n-1>) and its adjoint."""
    a = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)
    return a, a.conj().T


def _norm_sq(state):
    return float(np.vdot(state.amplitudes, state.amplitudes).real)


def test_coherent_vacuum_is_identity_case():
    state = coherent_state(0.0, cutoff=8)
    expected = np.zeros(8, complex)
    expected[0] = 1.0
    assert np.array_equal(state.amplitudes, expected)


def test_coherent_mean_photon_number():
    state = coherent_state(2.0)
    assert abs(mean_photon_number(state) - 4.0) < 1e-9


def test_coherent_tail_against_high_precision_poisson():
    # oracle: direct Poisson tail summation at 50 digits
    alpha = 1.5
    cutoff = coherent_required_cutoff(alpha)
    lam = mpmath.mpf(abs(alpha)) ** 2
    with mpmath.workdps(50):
        tail = mpmath.mpf(1) - sum(
            mpmath.e ** (-lam) * lam ** n / mpmath.factorial(n) for n in range(cutoff)
        )
    assert tail < 1e-12
    state = coherent_state(alpha, cutoff)
    assert abs(_norm_sq(state) - 1.0) < 1e-12


def _truncated_coherent(alpha, cutoff):
    """|alpha> cut to ``cutoff`` levels and renormalised, whatever mass the cut drops."""
    amps = coherent_state(alpha, max(cutoff, coherent_required_cutoff(alpha))).amplitudes
    return ControlState(cutoff, amps[:cutoff] / np.linalg.norm(amps[:cutoff]))


# |alpha| = 93 is about the largest amplitude whose required cutoff fits
# MAX_CUTOFF.  z puts the cutoff z standard deviations above the mean photon
# number, so the draws crowd the threshold near z ~ 7; the examples reach the
# ends, cutoff 1 and required - 1.
@settings(derandomize=True, deadline=None, max_examples=100)
@given(r=st.floats(0.1, 93.0), phase=st.floats(-math.pi, math.pi), z=st.floats(0.0, 13.0))
@example(r=93.0, phase=0.0, z=-100.0)  # cutoff 1, tail ~ 1
@example(r=0.1, phase=1.0, z=-3.0)     # cutoff 1, tail ~ 1e-2
@example(r=93.0, phase=0.0, z=100.0)   # cutoff required - 1
@example(r=0.1, phase=0.0, z=100.0)
def test_coherent_state_raises_exactly_when_the_poisson_tail_breaks_the_contract(r, phase, z):
    alpha = r * complex(math.cos(phase), math.sin(phase))
    lam = r * r
    required = coherent_required_cutoff(alpha)
    cutoff = min(required - 1, max(1, math.ceil(lam + z * math.sqrt(max(lam, 1.0)))))
    with mpmath.workdps(30):
        tail = float(mpmath.gammainc(cutoff, 0, lam, regularized=True))
    # the summed tail is good to about eps * lam * log(lam) relative
    assume(abs(tail - fock.COHERENT_TAIL) > 1e-9 * fock.COHERENT_TAIL)
    if tail > fock.COHERENT_TAIL:
        with pytest.raises(CutoffError, match=f"beyond cutoff {cutoff} "):
            coherent_state(alpha, cutoff)
    else:
        state = coherent_state(alpha, cutoff)
        assert state.cutoff == cutoff
        assert np.max(np.abs(state.amplitudes - _truncated_coherent(alpha, cutoff).amplitudes)) \
            <= 1e-15


@pytest.mark.parametrize("alpha", [0.3, 1.7, 2.5, 6.0, 16.0, 4 + 1j, -3.2 + 2.2j, 50.0, 93.0])
def test_coherent_amplitudes_match_the_gammaln_formula(alpha):
    state = coherent_state(alpha)
    n = np.arange(state.cutoff)
    r, lam = abs(alpha), abs(alpha) ** 2
    reference = np.exp(-0.5 * r * r + n * math.log(r) - 0.5 * gammaln(n + 1)
                       + 1j * n * np.angle(alpha))
    reference /= np.linalg.norm(reference)
    # log|c_n| is a difference of terms up to ~ |a|^2 log |a|^2 near the peak, so
    # a last-bit change in log n! moves |c_n| by that magnitude times eps
    tol = max(1e-14, 4.0 * np.finfo(float).eps * lam * math.log(lam))
    assert np.max(np.abs(state.amplitudes - reference)) <= tol * np.max(np.abs(reference))


@pytest.mark.parametrize("alpha, cutoff", [(2.5, 57), (16.0, 495), (-3.2 + 2.2j, 80),
                                           (93.0, fock.MAX_CUTOFF)])
def test_cached_log_factorials_give_the_per_call_lgamma_bits(alpha, cutoff):
    # reference: log n! built from math.lgamma on every call
    n = np.arange(cutoff)
    log_factorial = np.fromiter(map(math.lgamma, range(1, cutoff + 1)), float, cutoff)
    reference = np.exp(-0.5 * abs(alpha) ** 2 + n * math.log(abs(alpha)) - 0.5 * log_factorial
                       + 1j * n * np.angle(alpha))
    reference /= np.linalg.norm(reference)
    assert np.array_equal(coherent_state(alpha, cutoff).amplitudes, reference)
    with pytest.raises(ValueError):
        fock._log_factorials()[0] = 1.0


@pytest.mark.parametrize("cutoff", [1, 2, 3, 30, 71, 147, 495, 1000])
def test_quadrature_eigh_matches_the_tridiagonal_solver(cutoff):
    lam, w = fock._quadrature_eigh(cutoff)
    ref_lam, ref_w = eigh_tridiagonal(np.zeros(cutoff), np.sqrt(np.arange(1.0, cutoff)))
    ref_w = np.linalg.qr(ref_w)[0]
    assert np.max(np.abs(lam - ref_lam)) <= 1e-13 * math.sqrt(cutoff)
    assert np.max(np.abs(w.T @ w - np.eye(cutoff))) <= 1e-14
    # eigenvectors of distinct eigenvalues agree up to sign
    signs = np.sign(np.sum(w * ref_w, axis=0))
    assert np.max(np.abs(w * signs - ref_w)) <= 1e-12


@pytest.mark.parametrize("cutoff", [*range(1, 65), 495, 496])
def test_quadrature_eigh_pairs_each_eigenvalue_with_its_negative(cutoff):
    # X = [[0, B], [B^T, 0]] in even/odd order: the spectrum is +-s_k (and 0
    # for odd N) by construction, so the pairing holds bit for bit.
    lam, w = fock._quadrature_eigh(cutoff)
    assert not lam.flags.writeable and not w.flags.writeable
    assert w.shape == (cutoff, cutoff)
    assert np.all(np.diff(lam) > 0)
    assert np.array_equal(lam, -lam[::-1])
    assert np.max(np.abs(w.T @ w - np.eye(cutoff))) <= 1e-14
    a, adag = _dense_ladder(cutoff)
    x = (a + adag).real
    assert np.max(np.abs(x @ w - w * lam)) <= 2e-14 * math.sqrt(cutoff)


def test_coherent_rejects_small_cutoff_without_override():
    with pytest.raises(CutoffError):
        coherent_state(2.0, cutoff=10)


@pytest.mark.parametrize("alpha", [1e200, math.inf, complex(0.0, math.nan)])
def test_cutoff_rule_rejects_a_non_finite_mean_photon_number(alpha):
    with pytest.raises(CutoffError):
        coherent_required_cutoff(alpha)


def test_cutoff_rule_caps_the_basis_size():
    assert coherent_required_cutoff(90.0) <= fock.MAX_CUTOFF
    with pytest.raises(CutoffError, match="MAX_CUTOFF"):
        coherent_required_cutoff(1e5)


def test_coherent_state_rejects_a_basis_above_the_cap():
    with pytest.raises(CutoffError, match="MAX_CUTOFF"):
        coherent_state(1e5)
    with pytest.raises(CutoffError, match="MAX_CUTOFF"):
        coherent_state(1.0, fock.MAX_CUTOFF + 1)
    assert coherent_state(1.0, fock.MAX_CUTOFF).cutoff == fock.MAX_CUTOFF


def test_squeezed_state_rejects_a_basis_above_the_cap():
    with pytest.raises(CutoffError, match="MAX_CUTOFF"):
        squeezed_coherent_state(1e5, 0.5)  # automatic size
    with pytest.raises(CutoffError, match="MAX_CUTOFF"):
        squeezed_coherent_state(1.0, 0.5, fock.MAX_CUTOFF + 1)


def test_number_state_rejects_a_basis_above_the_cap():
    with pytest.raises(CutoffError, match="MAX_CUTOFF"):
        number_state(0, fock.MAX_CUTOFF + 1)


def test_number_state_basis_vectors():
    vac = number_state(0, 4)
    assert vac.amplitudes[0] == 1.0
    e3 = number_state(3, 10)
    assert e3.amplitudes[3] == 1.0
    assert np.count_nonzero(e3.amplitudes) == 1


def test_number_state_orthonormality():
    assert overlap(number_state(2, 10), number_state(3, 10)) == 0.0
    assert overlap(number_state(2, 10), number_state(2, 10)) == 1.0


def test_number_state_out_of_range():
    with pytest.raises(IndexError):
        number_state(5, 5)


def test_squeezed_r_zero_matches_coherent():
    alpha = 1.3 - 0.4j
    cutoff = coherent_required_cutoff(alpha)
    squeezed = squeezed_coherent_state(alpha, 0.0, cutoff)
    coherent = coherent_state(alpha, cutoff)
    assert np.max(np.abs(squeezed.amplitudes - coherent.amplitudes)) < 1e-10


def test_squeezed_recursion_rescales_at_large_alpha():
    # at |alpha| = 30 the unnormalised recursion passes 1e100 and divides by its peak,
    # c0 = 1 included; the rescaled state is still the coherent one
    assert fock._squeezed_amplitudes(30.0, 0.0, 1024)[0] < 1.0
    state = squeezed_coherent_state(30.0, 0.0)
    assert abs(overlap(state, coherent_state(30.0, state.cutoff))) >= 1.0 - 1e-12


def test_squeezed_vacuum_mean_photon_number():
    state = squeezed_coherent_state(0.0, 1.0)
    assert abs(mean_photon_number(state) - math.sinh(1.0) ** 2) < 1e-6
    assert abs(math.sinh(1.0) ** 2 - 1.3810978455418157) < 1e-12


def test_squeezed_quadrature_variance():
    state = squeezed_coherent_state(0.0, 0.5)
    assert abs(quadrature_variance(state, "x") - math.exp(-1.0) / 2.0) < 1e-6


@pytest.mark.parametrize("alpha,r", [(0.7 + 0.3j, 0.8), (1.5, -0.6), (0.0, 1.2)])
def test_squeezed_moments_general(alpha, r):
    state = squeezed_coherent_state(alpha, r)
    nbar = abs(alpha) ** 2 + math.sinh(r) ** 2
    assert abs(mean_photon_number(state) - nbar) < 1e-8 * max(nbar, 1.0)
    assert abs(quadrature_variance(state, "x") - math.exp(-2 * r) / 2) < 1e-8
    assert abs(quadrature_variance(state, "p") - math.exp(2 * r) / 2) < 1e-8


def test_squeezed_tail_contract_raises():
    with pytest.raises(CutoffError):
        squeezed_coherent_state(2.0, 1.5, cutoff=8)


def test_ladder_action():
    a, adag = _dense_ladder(6)
    e1 = number_state(1, 6).amplitudes
    e0 = number_state(0, 6).amplitudes
    assert np.allclose(a @ e1, e0)
    num = adag @ a
    assert np.allclose(np.diag(num), np.arange(6))
    # the banded drive action is the dense f a† + conj(f) a
    f = 0.3 - 0.7j
    psi = _truncated_coherent(0.5 + 0.2j, 6).amplitudes
    dense = (f * adag + np.conj(f) * a) @ psi
    assert np.max(np.abs(fock.drive_action(f, psi) - dense)) < 1e-15


def test_ladder_commutator_truncation():
    d = 7
    a, adag = _dense_ladder(d)
    comm = a @ adag - adag @ a
    expected = np.eye(d)
    expected[-1, -1] = -(d - 1)  # truncation corrupts only the last diagonal entry
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_overlap_coherent_closed_form():
    alpha, beta = 0.7 + 0.2j, -0.3 + 0.5j
    cutoff = 40
    got = overlap(coherent_state(alpha, cutoff), coherent_state(beta, cutoff))
    want = np.exp(-(abs(alpha) ** 2 + abs(beta) ** 2) / 2 + np.conj(alpha) * beta)
    assert abs(got - want) < 1e-8


def test_overlap_conjugate_symmetry_exact():
    rng = np.random.default_rng(42)
    for _ in range(20):
        v1 = rng.normal(size=9) + 1j * rng.normal(size=9)
        v2 = rng.normal(size=9) + 1j * rng.normal(size=9)
        s1 = ControlState(9, v1 / np.linalg.norm(v1))
        s2 = ControlState(9, v2 / np.linalg.norm(v2))
        assert overlap(s1, s2) == np.conj(overlap(s2, s1))


def test_overlap_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        overlap(number_state(0, 4), number_state(0, 5))


def _dense_factor(h, g, psi):
    """Reference for ``fock._apply_factor``: expm of the dense generator, number basis."""
    a, adag = _dense_ladder(psi.size)
    return expm(-1j * h * (g * adag + np.conj(g) * a)) @ psi


def _propagate_per_segment(state, sample, drive, tol):
    for t0, t1 in drive.segments():  # a kink splits the window
        state = evolve(state, sample, t0, t1, tol)
    return state


def _counted(drive):
    samples = []

    def sample(t):
        samples.append(t)
        return drive(t)

    return sample, samples


def _counting_shape(drive):
    """``drive`` with its declared shape counting its samples, and the sample list."""
    c, shape = drive.separable
    sample, samples = _counted(shape)
    return dataclasses.replace(drive, separable=(c, sample)), samples


def _sign_changing_drive(c, T):
    # one phase arg(c), and a real shape that changes sign: the -|c| samples;
    # the narrow Gaussian makes the phase quadrature subdivide as tol tightens
    bump, tri = gaussian(T), triangle(T / 2.0)
    return envelope_drive(Envelope(lambda t: bump(t) - 2.0 * tri(t), T, (T / 4.0, T / 2.0)), c)


def _checked_quad(fn, a, b):
    value, error = scipy.integrate.quad(fn, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)
    assert error <= 1e-13
    return value


def _dense_reference(state, drive):
    """Per segment of ``drive``, expm(-i (F a† + conj(F) a)) @ psi with F = int f
    from scipy's QUADPACK: the exact propagator of a drive of one phase, whose
    couplings commute."""
    a, adag = _dense_ladder(state.cutoff)
    psi = state.amplitudes
    for t0, t1 in drive.segments():
        F = complex(_checked_quad(lambda t: drive(t).real, t0, t1),
                    _checked_quad(lambda t: drive(t).imag, t0, t1))
        psi = expm(-1j * (F * adag + np.conj(F) * a)) @ psi
    return psi


def test_evolve_zero_hamiltonian_is_identity():
    state = coherent_state(1.0)
    out = evolve(state, lambda t: 0j, 0.0, 3.0, 1e-10)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


@PROPERTY
@given(c1=complex_unit, c2=complex_unit, alpha=complex_unit, T=st.floats(0.5, 1.5),
       cutoff=st.integers(2, 60))
def test_evolve_keeps_norm_on_random_drives(c1, c2, alpha, T, cutoff):
    drive = multi_envelope_drive([(c1, raised_cosine(T)), (c2, triangle(T))])
    state = _truncated_coherent(alpha, cutoff)
    out = _propagate_per_segment(state, drive, drive, 1e-9)
    assert abs(_norm_sq(out) - 1.0) <= 1e-12


def _wiggly_drive(t):
    return 2.0 * math.cos(7.0 * t) + 1.1 * math.sin(3.0 * t)


def test_evolve_self_convergence_under_tol_halving():
    # Halving tol keeps the deviation from a much finer reference inside the
    # halved contract; the deviation itself fluctuates below that bound
    # (adaptive step quantisation), so the bound is what must shrink.
    state = number_state(1, 16)
    tols = [1e-4 / 2 ** k for k in range(5)]
    reference = evolve(state, _wiggly_drive, 0.0, 2.0, tols[-1] / 100).amplitudes
    deviations = []
    for tol in tols:
        out = evolve(state, _wiggly_drive, 0.0, 2.0, tol).amplitudes
        deviations.append(np.linalg.norm(out - reference))
    for tol, dev in zip(tols, deviations):
        assert dev <= tol
    assert deviations[-1] <= deviations[0]


def test_evolve_argument_validation():
    state = number_state(0, 4)
    with pytest.raises(ValueError):
        evolve(state, _wiggly_drive, 1.0, 0.0, 1e-8)
    with pytest.raises(ValueError):
        evolve(state, _wiggly_drive, 0.0, 1.0, -1e-8)


def test_evolve_step_budget_failure_carries_diagnostics(monkeypatch):
    monkeypatch.setattr(fock, "MAX_STEPS", 3)
    with pytest.raises(IntegrationError) as err:
        evolve(number_state(1, 8), _wiggly_drive, 0.0, 2.0, 1e-10)
    assert "steps" in err.value.diagnostics


def test_evolve_rejects_a_non_finite_state():
    with pytest.raises(IntegrationError, match="non-finite state during propagation") as err:
        evolve(number_state(1, 8), lambda t: complex(math.nan), 0.0, 1.0, 1e-8)
    assert set(err.value.diagnostics) == {"t", "h", "steps"}


def test_evolve_raises_on_step_size_underflow():
    # a drive whose phase turns has a nonzero step-doubling error, which no
    # step above 1e-14 of the window brings below tol = 1e-300
    with pytest.raises(IntegrationError, match="step-size underflow") as err:
        evolve(number_state(1, 8), lambda t: 1 + 0.5j * t, 0.0, 1.0, 1e-300)
    assert set(err.value.diagnostics) == {"t", "h", "error_estimate", "tol", "steps"}
    assert err.value.diagnostics["h"] <= 1e-14


def test_evolve_raises_on_norm_drift(monkeypatch):
    # rounding alone may leave |psi|^2 exactly 1, so a stand-in frame change
    # keeps the coefficients on entering the frame and doubles them on leaving it
    monkeypatch.setattr(fock, "_change_frame",
                        lambda psi, frame, theta: psi if frame is None else 2.0 * psi)
    with pytest.raises(IntegrationError, match="norm drift exceeded tolerance") as err:
        evolve(number_state(1, 8), envelope_drive(raised_cosine(1.0), 0.0), 0.0, 1.0, 1e-8)
    assert err.value.diagnostics == {"in_norm_sq": 1.0, "out_norm_sq": 4.0, "tol": 1e-8}


def test_declared_phase_quadrature_raises_on_an_undeclared_jump():
    # 50 subintervals (quad's default limit) crowd the jump at 0.3, and the
    # one holding it still misses tol / ||lam v|| on the area of s
    def sign_flip(t):
        return 1.0 if t < 0.3 else -1.0

    drive = LinearDrive(lambda t: complex(sign_flip(t)), 1.0, separable=(1.0, sign_flip))
    with pytest.raises(IntegrationError, match="phase quadrature did not converge") as err:
        evolve(number_state(1, 8), drive, 0.0, 1.0, 1e-17)
    diagnostics = err.value.diagnostics
    assert set(diagnostics) == {"t0", "t1", "error_estimate", "tol", "subintervals"}
    assert (diagnostics["t0"], diagnostics["t1"], diagnostics["tol"]) == (0.0, 1.0, 1e-17)
    assert diagnostics["subintervals"] == 50
    assert diagnostics["error_estimate"] > 1e-17


@PROPERTY
@given(cutoff=st.integers(2, 200), g=st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)),
       h=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_drive_sample_exponential_matches_dense_expm(cutoff, g, h, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
    psi /= np.linalg.norm(psi)
    exact = fock._apply_factor(h, g, psi)
    assert np.linalg.norm(exact - _dense_factor(h, g, psi)) <= 1e-12


def _dense_sampled(drive, state):
    """(state, drive samples) of a per-segment propagation of ``drive`` as a plain
    callable, each factor the expm of the dense generator, under ``evolve``'s step control."""
    sample, samples = _counted(drive)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_apply_factor", _dense_factor)
        return _propagate_per_segment(state, sample, drive, 1e-9), len(samples)


@PROPERTY
@given(c1=complex_unit, c2=complex_unit, alpha=complex_unit, T=st.floats(0.5, 1.5),
       cutoff=st.integers(2, 60))
def test_evolve_drive_sample_matches_dense_sampler(c1, c2, alpha, T, cutoff):
    drive = multi_envelope_drive([(c1, raised_cosine(T)), (c2, triangle(T))])
    state = _truncated_coherent(alpha, cutoff)
    sample, fast_samples = _counted(drive)
    fast = _propagate_per_segment(state, sample, drive, 1e-9)
    reference, dense_samples = _dense_sampled(drive, state)
    assert np.max(np.abs(fast.amplitudes - reference.amplitudes)) <= 1e-11
    assert len(fast_samples) == dense_samples


@PROPERTY
@given(c=complex_unit, alpha=complex_unit, T=st.floats(0.5, 1.5), cutoff=st.integers(2, 60))
def test_evolve_constant_phase_drive_matches_dense_sampler(c, alpha, T, cutoff):
    # the declared drive propagates as one phase; the reference is one dense
    # exponential of the segment's integrated generator
    drive = _sign_changing_drive(c, T)
    state = _truncated_coherent(alpha, cutoff)
    declared = _propagate_per_segment(state, drive, drive, 1e-9)
    assert np.max(np.abs(declared.amplitudes - _dense_reference(state, drive))) <= 1e-12


@PROPERTY
@given(c=st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)), alpha=complex_unit,
       envelope=st.sampled_from(sorted(ENVELOPES)), cutoff=st.integers(2, 200))
def test_declared_drive_matches_the_same_drive_as_a_callable(c, alpha, envelope, cutoff):
    # the declared route is exact up to rounding; the sampled route meets its
    # norm-distance contract, tol per segment
    drive = envelope_drive(ENVELOPES[envelope](1.0), c)
    state = _truncated_coherent(alpha, cutoff)
    reference = _dense_reference(state, drive)
    declared = _propagate_per_segment(state, drive, drive, 1e-9)
    sampled = _propagate_per_segment(state, drive.f, drive, 1e-9)
    assert np.max(np.abs(declared.amplitudes - reference)) <= 1e-12
    assert np.linalg.norm(sampled.amplitudes - reference) <= 1e-9 * len(drive.segments())


def _unsampled(t):
    raise AssertionError("a declared drive's f was sampled")


BIT_IDENTITY_CASES = [(name, alpha) for name in ENVELOPES
                      for alpha in (2, 4 + 1j, -3.2 + 2.2j, 16)] + [("sign-changing", 1.5)]


@pytest.mark.parametrize("envelope, alpha", BIT_IDENTITY_CASES)
def test_evolve_is_bit_identical_to_the_per_step_reference(envelope, alpha):
    # An accuracy check despite the name: the declared route on the gates the
    # lab runs, each segment at its share of tol, against the dense
    # exponential of the integrated generator.  Every declared drive keeps one
    # frame, the complex alphas and the sign-changing shape (negative r)
    # included, and its own f is never sampled.
    if envelope == "sign-changing":
        drive = _sign_changing_drive(0.6 + 0.6j, 1.0)
    else:
        drive = pi_phase_drive(ENVELOPES[envelope](1.0), alpha)
    counted, samples = _counting_shape(dataclasses.replace(drive, f=_unsampled))
    state = coherent_state(alpha)
    reference = _dense_reference(state, drive)
    for t0, t1 in drive.segments():
        state = evolve(state, counted, t0, t1, 1e-9 * (t1 - t0) / drive.duration)
    assert np.max(np.abs(state.amplitudes - reference)) <= 1e-12
    assert len(samples) > 0


def _count_frame_changes(monkeypatch, sample, drive, tol, cutoff=40):
    """(frame changes, drive samples) of one propagation of ``drive`` through ``sample``."""
    original = fock._change_frame
    changes = []

    def counted(*args):
        changes.append(args[2])
        return original(*args)

    monkeypatch.setattr(fock, "_change_frame", counted)
    _propagate_per_segment(coherent_state(1.5, cutoff), sample, drive, tol)
    return len(changes)


def test_constant_phase_drive_changes_frame_a_fixed_number_of_times(monkeypatch):
    # per segment the state enters the frame of c's phase once and leaves it once,
    # whatever the tolerance and the sign of the shape
    drive, samples = _counting_shape(_sign_changing_drive(0.6 + 0.6j, 1.0))
    coarse = _count_frame_changes(monkeypatch, drive, drive, 1e-6)
    coarse_samples = len(samples)
    fine = _count_frame_changes(monkeypatch, drive, drive, 1e-10)
    assert len(samples) - coarse_samples > coarse_samples
    assert coarse == fine == 2 * len(drive.segments())


SAME_PHASE_DRIVES = {
    # the second term has the first's phase, negated: one frame, a shape that changes sign
    "multi-envelope": lambda: multi_envelope_drive(
        [(0.6 + 0.6j, raised_cosine(1.0)), (-1.2 - 1.2j, triangle(0.5))]),
    "piecewise-constant": lambda: piecewise_constant_drive([0.3j, 0.0, -0.7j, 1.1j], 1.0),
}


@pytest.mark.parametrize("name", sorted(SAME_PHASE_DRIVES))
def test_same_phase_drives_declare_their_phase(monkeypatch, name):
    drive = SAME_PHASE_DRIVES[name]()
    c0, shape = drive.separable
    for t in np.linspace(0.0, 1.0, 97):
        assert abs(c0 * shape(t) - drive(t)) <= 1e-15 * max(1.0, abs(drive(t)))
    state = coherent_state(1.5, 40)
    declared = _propagate_per_segment(state, drive, drive, 1e-9)
    assert np.max(np.abs(declared.amplitudes - _dense_reference(state, drive))) <= 1e-12
    assert _count_frame_changes(monkeypatch, drive, drive, 1e-9) == 2 * len(drive.segments())


def test_mixed_phase_drives_stay_undeclared():
    assert multi_envelope_drive([(1.0, raised_cosine(1.0)), (1.0j, triangle(1.0))]).separable \
        is None
    assert piecewise_constant_drive([1.0, 1.0 + 1e-300j], 1.0).separable is None
    assert piecewise_constant_drive([0.0, 0.0], 1.0).separable is None


def test_mixed_phase_drive_changes_frame_every_factor(monkeypatch):
    # an undeclared drive applies each factor, one per sample, through the
    # number basis: into the sample's frame and out again
    drive = multi_envelope_drive([(1.0, raised_cosine(1.0)), (1.0j, triangle(1.0))])
    coarse_sample, coarse_samples = _counted(drive)
    coarse = _count_frame_changes(monkeypatch, coarse_sample, drive, 1e-6)
    fine_sample, fine_samples = _counted(drive)
    fine = _count_frame_changes(monkeypatch, fine_sample, drive, 1e-10)
    assert coarse == 2 * len(coarse_samples)
    assert fine == 2 * len(fine_samples) > 4 * len(coarse_samples)


class _CountingNumpy:
    """numpy, with ``exp`` counting its calls on complex vectors of one length."""

    def __init__(self, size):
        self.size, self.calls = size, 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x, *args, **kwargs):
        if np.iscomplexobj(x) and np.shape(x) == (self.size,):
            self.calls += 1
        return np.exp(x, *args, **kwargs)


def _count_vector_exponentials(monkeypatch, drive, tol, cutoff=40):
    """Complex exponentials over N-vectors in one propagation."""
    state = coherent_state(1.5, cutoff)
    counting = _CountingNumpy(cutoff)
    fock._number_phases.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(fock, "np", counting)
        _propagate_per_segment(state, drive, drive, tol)
    return counting.calls


def test_constant_phase_drive_exponentiates_a_fixed_number_of_times(monkeypatch):
    # one frame angle: the quadrature only sets the frame's phase; the frame's
    # diagonal U_theta (once for the angle) and leaving the frame (e^{-i phi
    # lam}, once per segment) exponentiate a vector, whatever the tolerance
    drive, samples = _counting_shape(_sign_changing_drive(0.6 + 0.6j, 1.0))
    coarse = _count_vector_exponentials(monkeypatch, drive, 1e-6)
    coarse_samples = len(samples)
    fine = _count_vector_exponentials(monkeypatch, drive, 1e-10)
    assert len(samples) - coarse_samples > coarse_samples
    assert coarse == fine == len(drive.segments()) + 1


def test_state_norm_validation():
    with pytest.raises(ValueError):
        ControlState(3, np.array([1.0, 1.0, 0.0], complex))


def test_amplitudes_are_immutable():
    state = coherent_state(1.0)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0

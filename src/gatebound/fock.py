"""Truncated bosonic Hilbert-space kernel.

State constructors (number, coherent, squeezed-coherent), overlaps and
unitary time propagation on a number basis truncated to ``cutoff`` levels
``|0> ... |cutoff-1>``.  Everything works in natural units (hbar = 1);
states are plain complex amplitude vectors wrapped in an immutable
``ControlState``.

Truncation is controlled explicitly: constructors enforce tail-mass
contracts and raise :class:`~gatebound.errors.CutoffError` instead of
silently normalising away probability that leaked past the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import CutoffError, DimensionMismatchError, IntegrationError
from .numerics import quad
from .report import checked_positive


def __getattr__(name: str):
    # Not called here: perfbench/tracing.py wraps fock.expm and
    # fock.expm_multiply to count dense exponentials.  They resolve on first
    # access, so importing fock does not load scipy.sparse.
    if name == "expm":
        from scipy.linalg import expm
        return expm
    if name == "expm_multiply":
        from scipy.sparse.linalg import expm_multiply
        return expm_multiply
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


NORM_TOL = 1e-10          # allowed |sum |c_n|^2 - 1| for constructed states
COHERENT_TAIL = 1e-12     # Poisson tail mass guaranteed by the cutoff rule
SQUEEZED_TAIL = 1e-10     # tail mass contract for squeezed-coherent states
MAX_STEPS = 200_000       # adaptive sub-steps allowed per evolve call
MAX_CUTOFF = 10_000       # largest basis; its N x N quadrature eigenbasis is 800 MB


@dataclass(frozen=True)
class ControlState:
    """Normalised state of the control mode on a truncated number basis."""

    cutoff: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (self.cutoff,):
            raise DimensionMismatchError(
                f"amplitude vector has shape {amps.shape}, expected ({self.cutoff},)"
            )
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 = {norm_sq!r} deviates from 1 beyond {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def coherent_required_cutoff(alpha: complex) -> int:
    """Basis size that keeps the Poisson tail below ``COHERENT_TAIL``."""
    try:
        lam = abs(alpha) ** 2
    except OverflowError:
        lam = math.inf
    if not math.isfinite(lam):
        raise CutoffError(f"no finite cutoff holds |alpha| = {abs(alpha)!r}")
    return _capped(int(math.ceil(lam + 12.0 * math.sqrt(max(lam, 1.0)) + 20.0)))


def _capped(cutoff: int) -> int:
    """``cutoff``, or :class:`CutoffError` if it exceeds ``MAX_CUTOFF``."""
    if cutoff > MAX_CUTOFF:
        raise CutoffError(f"basis of {cutoff} levels exceeds MAX_CUTOFF = {MAX_CUTOFF}")
    return cutoff


@lru_cache(maxsize=1)
def _log_factorials() -> np.ndarray:
    """Read-only log n! for n < MAX_CUTOFF, from math.lgamma (80 kB, built once)."""
    table = np.fromiter(map(math.lgamma, range(1, MAX_CUTOFF + 1)), float, MAX_CUTOFF)
    table.flags.writeable = False
    return table


def _truncated(c: np.ndarray, cutoff: int, contract: float) -> ControlState:
    """The first ``cutoff`` of the amplitudes ``c``, normalised, once the rest is checked.

    ``c`` is built past the cutoff; the share of its mass beyond it is
    summed directly and :class:`CutoffError` raised when it exceeds
    ``contract``.
    """
    tail = float(np.sum(np.abs(c[cutoff:]) ** 2)) / float(np.sum(np.abs(c) ** 2))
    if tail > contract:
        raise CutoffError(f"tail mass {tail:.3e} beyond cutoff {cutoff} exceeds {contract}")
    amps = c[:cutoff]
    return ControlState(cutoff, amps / np.linalg.norm(amps))


def coherent_state(alpha: complex, cutoff: int | None = None) -> ControlState:
    """Coherent state |alpha> with amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    The amplitudes are built on at least :func:`coherent_required_cutoff`
    levels, so a smaller ``cutoff`` is accepted only if the mass they put
    past it stays below ``COHERENT_TAIL``.
    """
    required = coherent_required_cutoff(alpha)
    if cutoff is None:
        cutoff = required
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    _capped(cutoff)
    r = abs(alpha)
    if r == 0.0:
        return number_state(0, cutoff)
    size = max(cutoff, required)
    n = np.arange(size)
    log_mag = -0.5 * r * r + n * math.log(r) - 0.5 * _log_factorials()[:size]
    return _truncated(np.exp(log_mag + 1j * n * np.angle(alpha)), cutoff, COHERENT_TAIL)


def number_state(n: int, cutoff: int) -> ControlState:
    """Number state |n> on a basis of ``cutoff`` levels."""
    if not 0 <= n < cutoff:
        raise IndexError(f"n={n} outside truncated basis of size {cutoff}")
    _capped(cutoff)
    amps = np.zeros(cutoff, dtype=np.complex128)
    amps[n] = 1.0
    return ControlState(cutoff, amps)


def _squeezed_amplitudes(alpha: complex, r: float, size: int) -> np.ndarray:
    # |alpha, r> = D(alpha) S(r) |0> satisfies (cosh r * a + sinh r * a†)|psi>
    # = (cosh r * alpha + sinh r * conj(alpha))|psi>, which yields a stable
    # three-term upward recursion.  c0 is fixed real-positive; that matches
    # the coherent-state convention at r = 0 up to the (irrelevant) global
    # phase of D(alpha)S(r)|0>.
    mu, nu = math.cosh(r), math.sinh(r)
    lam = mu * alpha + nu * np.conj(alpha)
    c = np.zeros(size, dtype=np.complex128)
    c[0] = 1.0
    for n in range(size - 1):
        prev = c[n - 1] if n >= 1 else 0.0
        c[n + 1] = (lam * c[n] - nu * math.sqrt(n) * prev) / (mu * math.sqrt(n + 1))
        if n % 32 == 31:
            scale = np.max(np.abs(c[: n + 2]))
            if scale > 1e100:
                c[: n + 2] /= scale
    return c


def squeezed_coherent_state(alpha: complex, r: float,
                            cutoff: int | None = None) -> ControlState:
    """Displaced squeezed vacuum with quadrature variances e^{-2r}/2, e^{2r}/2.

    The constructor sums the tail mass beyond ``cutoff`` directly (in a
    padded workspace) and raises :class:`CutoffError` when it exceeds
    ``SQUEEZED_TAIL``.
    """
    nbar = abs(alpha) ** 2 + math.sinh(r) ** 2
    if cutoff is None:
        # squeezed-vacuum number tails decay geometrically as tanh(r)^{2n},
        # much slower than Poisson; size the basis off that rate plus the
        # coherent displacement part.
        t2 = math.tanh(abs(r)) ** 2
        geom = 0.0 if t2 == 0.0 else 2.0 * math.log(1e13) / (-math.log(t2))
        cutoff = int(math.ceil(nbar + 12.0 * math.sqrt(max(nbar, 1.0)) + geom + 30.0))
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    _capped(cutoff)
    c = _squeezed_amplitudes(alpha, r, cutoff + 64)
    if np.sum(np.abs(c[-8:]) ** 2) > 1e-18 * np.sum(np.abs(c) ** 2):
        c = _squeezed_amplitudes(alpha, r, cutoff + 512)
    return _truncated(c, cutoff, SQUEEZED_TAIL)


def overlap(lhs: ControlState, rhs: ControlState) -> complex:
    """Inner product <lhs|rhs>."""
    if lhs.cutoff != rhs.cutoff:
        raise DimensionMismatchError(f"cutoffs differ: {lhs.cutoff} vs {rhs.cutoff}")
    return complex(np.vdot(lhs.amplitudes, rhs.amplitudes))


def mean_photon_number(state: ControlState) -> float:
    n = np.arange(state.cutoff)
    return float(np.sum(n * np.abs(state.amplitudes) ** 2))


def drive_action(f: complex, psi: np.ndarray) -> np.ndarray:
    """(f a† + conj(f) a) psi, applied along the two bands of the ladder operators."""
    root = np.sqrt(np.arange(1, psi.size))
    out = np.zeros_like(psi)
    out[1:] = f * root * psi[:-1]
    out[:-1] += np.conj(f) * root * psi[1:]
    return out


def quadrature_variance(state: ControlState, quadrature: str = "x") -> float:
    """Variance of x = (a + a†)/sqrt(2) or p = (a - a†)/(i sqrt(2))."""
    if quadrature not in ("x", "p"):
        raise ValueError("quadrature must be 'x' or 'p'")
    psi = state.amplitudes
    qpsi = drive_action((1.0 if quadrature == "x" else 1j) / math.sqrt(2.0), psi)
    mean = np.vdot(psi, qpsi).real
    return float(np.vdot(qpsi, qpsi).real - mean * mean)


# ---------------------------------------------------------------------------
# time propagation
# ---------------------------------------------------------------------------

_SQ3 = math.sqrt(3.0)
_GAUSS_C1 = 0.5 - _SQ3 / 6.0
_GAUSS_C2 = 0.5 + _SQ3 / 6.0
_CF4_P = (3.0 - 2.0 * _SQ3) / 12.0
_CF4_Q = (3.0 + 2.0 * _SQ3) / 12.0

_MAX_GROW = 5.0
_MIN_SHRINK = 0.2
_SAFETY = 0.9


# One entry per cutoff, N^2 doubles each (2 MB at N=495); a sweep over five
# jittered alphas and three envelopes visits 15 cutoffs.
@lru_cache(maxsize=16)
def _quadrature_eigh(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """X = a + a† = W diag(lam) W^T on the truncated basis, lam ascending.

    X has a zero diagonal, so in even/odd level order it is [[0, B], [B^T, 0]]
    with B the ceil(N/2) x floor(N/2) lower-bidiagonal block B[k, k] =
    sqrt(2k+1), B[k+1, k] = sqrt(2k+2), and its eigenproblem is the SVD
    B = U S V^T of half the size (Golub & Kahan, SIAM J. Numer. Anal. B 2, 205
    (1965)): eigenvalues -+s_k with eigenvectors (u_k, -+v_k)/sqrt(2), and for
    odd N the eigenvalue 0 with (u_last, 0).
    """
    m, n = (cutoff + 1) // 2, cutoff // 2
    root = np.sqrt(np.arange(1.0, cutoff))  # X[j, j+1]
    b = np.zeros((m, n))
    np.fill_diagonal(b, root[0::2])
    np.fill_diagonal(b[1:], root[1::2])
    u, s, vt = np.linalg.svd(b)
    lam = np.concatenate((-s, np.zeros(m - n), s[::-1]))
    # Every factor reuses W, so its orthogonality error adds up over a
    # propagation.  U and V come out orthogonal to working precision and the
    # split only scales and interleaves them, so W needs no re-orthogonalising
    # QR: max |W^T W - I| is 1.9e-15 at N=495, 3.4e-15 at N=1000 and 4.8e-15
    # at N=2000 (a QR would bring it only to about 1.5e-15), and the residual
    # max |XW - W diag(lam)| is 2.3e-14 at N=495.
    c = math.sqrt(0.5)
    w = np.empty((cutoff, cutoff))
    w[0::2, :n] = c * u[:, :n]
    w[1::2, :n] = -c * vt.T
    w[0::2, m:] = c * u[:, n - 1::-1]
    w[1::2, m:] = c * vt[::-1].T
    if m > n:
        w[0::2, n] = u[:, n]
        w[1::2, n] = 0.0
    lam.flags.writeable = False
    w.flags.writeable = False
    return lam, w


def _real_matmul(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v for real m and complex v, as one real (N x N)(N x 2) product."""
    return (m @ v.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()


# A drive sample g a† + conj(g) a with g = r e^{i theta}, r real, equals
# r U_theta X U_theta† (U_theta = diag(e^{i n theta}), X = a + a† = W diag(lam)
# W^T), so it is diagonal in the frame U_theta W, where its factor is
# e^{-i h r lam}.  A frame (theta, phi) holds coefficients v of the
# number-basis vector U_theta W e^{-i phi lam} v; ``None`` is the number basis.
# Only a drive that declares one phase stays in a frame: its couplings commute
# there, and its whole propagator is the one Python float phi.  Frame angles
# are canonical, theta in (-pi/2, pi/2]; a sample in the opposite half-plane
# is read as theta with a negative r.
_Frame = tuple[float, float] | None


# Entering and leaving a frame share its angle; a few entries serve a drive
# whose samples keep one phase.
@lru_cache(maxsize=4)
def _number_phases(theta: float, cutoff: int) -> np.ndarray:
    """diag(U_theta) = e^{i n theta}, n = 0 .. cutoff-1."""
    u = np.exp(1j * theta * np.arange(cutoff))
    u.flags.writeable = False
    return u


def _polar(g: complex) -> tuple[float, float]:
    """(theta, r) with g = r e^{i theta}, r real and theta canonical."""
    r = abs(g)
    if g.real < 0 or (g.real == 0 and g.imag < 0):
        g, r = -g, -r
    return math.atan2(g.imag, g.real), r


def _change_frame(psi: np.ndarray, frame: _Frame, theta: float | None) -> np.ndarray:
    """Coefficients in frame (theta, 0) (number basis if None) of a state held in ``frame``."""
    lam, w = _quadrature_eigh(psi.size)
    if frame is not None:
        angle, phi = frame
        psi = _number_phases(angle, psi.size) * _real_matmul(w, np.exp(-1j * phi * lam) * psi)
    if theta is not None:
        psi = _real_matmul(w.T, _number_phases(theta, psi.size).conj() * psi)
    return psi


def _apply_factor(h: float, g: complex, psi: np.ndarray) -> np.ndarray:
    """exp(-i h (g a† + conj(g) a)) psi in the number basis: into the sample's
    frame and out again, two real N x N products; a zero sample is the identity."""
    if g == 0:
        return psi
    theta, r = _polar(g)
    return _change_frame(_change_frame(psi, None, theta), (theta, h * r), None)


def _sampled(drive: Callable[[float], complex], psi: np.ndarray, t0: float, t1: float,
             tol: float) -> np.ndarray:
    """``psi`` carried over [t0, t1] under a drive sampled as a callable.

    Each step attempt is a full CF4 step and two half steps from t, each two
    factors of two drive samples applied in the number basis; the steps are
    sized so the Richardson estimate of the norm distance between the two
    results sums to at most ``tol``.
    """
    total = t1 - t0
    t = t0
    h = total
    n_steps = 0
    while t < t1 - 1e-15 * total:
        if n_steps >= MAX_STEPS:
            raise IntegrationError(
                "step budget exhausted",
                {"t": t, "h": h, "steps": n_steps, "tol": tol},
            )
        h = min(h, t1 - t)
        half_h = 0.5 * h
        mid = t + half_h
        g1, g2 = drive(t + _GAUSS_C1 * h), drive(t + _GAUSS_C2 * h)
        g3, g4 = drive(t + _GAUSS_C1 * half_h), drive(t + _GAUSS_C2 * half_h)
        g5, g6 = drive(mid + _GAUSS_C1 * half_h), drive(mid + _GAUSS_C2 * half_h)
        full = _apply_factor(h, _CF4_Q * g1 + _CF4_P * g2, psi)
        full = _apply_factor(h, _CF4_P * g1 + _CF4_Q * g2, full)
        half = _apply_factor(half_h, _CF4_Q * g3 + _CF4_P * g4, psi)
        half = _apply_factor(half_h, _CF4_P * g3 + _CF4_Q * g4, half)
        half = _apply_factor(half_h, _CF4_Q * g5 + _CF4_P * g6, half)
        half = _apply_factor(half_h, _CF4_P * g5 + _CF4_Q * g6, half)
        err = float(np.linalg.norm(half - full)) / 15.0  # Richardson: 2^4 - 1
        if not math.isfinite(err):
            raise IntegrationError(
                "non-finite state during propagation",
                {"t": t, "h": h, "steps": n_steps},
            )
        budget = tol * h / total
        if err <= budget:
            psi = half
            t += h
        elif h <= 1e-14 * total:
            raise IntegrationError(
                "step-size underflow",
                {"t": t, "h": h, "error_estimate": err, "tol": tol, "steps": n_steps},
            )
        n_steps += 1
        if err > 0.0:
            h *= min(_MAX_GROW, max(_MIN_SHRINK, _SAFETY * (budget / err) ** 0.25))
        else:
            h *= _MAX_GROW
    return psi


def _declared(drive, psi: np.ndarray, t0: float, t1: float, tol: float) -> np.ndarray:
    """``psi`` carried over [t0, t1] under a drive that declares f = c s, s real.

    An error d in the frame phase |c| int s moves the state by
    ||e^{-i d lam} v - v|| <= |d| ||lam v||, so int s to within
    tol / (|c| ||lam v||) keeps the norm-distance contract ``tol``.
    """
    c, shape = drive.separable
    theta, scale = _polar(complex(c))
    coefficients = _change_frame(psi, None, theta)
    lam, _ = _quadrature_eigh(psi.size)
    weight = abs(scale) * float(np.linalg.norm(lam * coefficients))
    inside = [bp for bp in drive.breakpoints if t0 < bp < t1]
    area = quad(shape, t0, t1, epsabs=tol / weight if weight > 0.0 else math.inf, epsrel=0.0,
                points=inside)
    return _change_frame(coefficients, (theta, scale * area), None)


def evolve(state: ControlState, drive: Callable[[float], complex],
           t0: float, t1: float, tol: float) -> ControlState:
    """Propagate ``state`` under the linear drive f(t) a† + conj(f(t)) a.

    ``drive`` maps t to the complex coefficient f(t); the result is within
    norm distance ``tol`` of the time-ordered propagator's action.

    A :class:`~gatebound.envelopes.LinearDrive` that declares
    f(t) = c s(t) with s real (its ``separable``) has commuting couplings,
    so its propagator is exactly e^{-i |c| S X_theta}, S = int_{t0}^{t1} s
    and X_theta = U_theta X U_theta† with U_theta = diag(e^{i n theta}),
    theta c's canonical phase and X = a + a† = W diag(lam) W^T (built once
    per cutoff from the SVD of X's half-size bidiagonal block).  The state
    enters the frame U_theta W once, takes the phase e^{-i |c| S lam} there
    and leaves once.  S is one adaptive Gauss-Kronrod quadrature of s, split
    at the drive's breakpoints inside (t0, t1), to an absolute error of
    tol / (|c| ||lam v||), v the frame's coefficients, which bounds the
    norm distance by ``tol``.  The drive's own f is never sampled.

    Any other drive is sampled as a callable by adaptive sub-stepping.
    Each sub-step is a fourth-order commutator-free Magnus step (Alvermann &
    Fehske, J. Comput. Phys. 230, 5930 (2011)): two exponentials of
    g a† + conj(g) a, each g a real-weighted sum of two drive samples, each
    exact on the truncated space (two real N x N products in the sample's
    frame), so every step is exactly unitary there.  Step doubling supplies
    the local error estimate: one step attempt is a full step and two half
    steps, i.e. six drive samples and six factors.  Steps are sized so the
    summed local errors stay below ``tol``; at most ``MAX_STEPS`` are taken.

    Raises
    ------
    IntegrationError
        On step-size underflow or when the step budget is exhausted
        (diagnostics carry the reached time and the last step/error), when
        a declared drive's phase quadrature misses its tolerance (raised by
        :func:`~gatebound.numerics.quad`, its diagnostics in units of
        int s: the tolerance is tol / (|c| ||lam v||)), or when the norm
        drifts by more than ``tol``.
    """
    checked_positive(tol=tol)
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return state

    in_norm_sq = float(np.vdot(state.amplitudes, state.amplitudes).real)
    if getattr(drive, "separable", None) is None:  # declared by a LinearDrive
        psi = _sampled(drive, state.amplitudes, t0, t1, tol)
    else:
        psi = _declared(drive, state.amplitudes, t0, t1, tol)
    out_norm_sq = float(np.vdot(psi, psi).real)
    if abs(out_norm_sq - in_norm_sq) > tol:
        raise IntegrationError(
            "norm drift exceeded tolerance",
            {"in_norm_sq": in_norm_sq, "out_norm_sq": out_norm_sq, "tol": tol},
        )
    return ControlState(state.cutoff, psi)

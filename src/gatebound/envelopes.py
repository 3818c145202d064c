"""Analytic drive envelopes with exact endpoint zeros.

The gate studies switch their interaction on and off through a complex
drive f(t) multiplying the ladder operators.  The envelope primitives here
have unit area and vanish identically at t = 0 and t = duration (and
outside the window), so the switch-off premise holds by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .report import checked_positive


@dataclass(frozen=True)
class Envelope:
    """Real scalar shape s(t) on [0, duration], zero outside.

    ``breakpoints`` mark interior derivative kinks so integrators can split
    there instead of stepping across them.
    """

    fn: Callable[[float], float]
    duration: float
    breakpoints: tuple[float, ...] = ()

    def __call__(self, t: float) -> float:
        if t < 0.0 or t > self.duration:
            return 0.0
        return self.fn(t)


def raised_cosine(duration: float) -> Envelope:
    """(1 - cos(2 pi t / T)) / 2 scaled to unit area."""
    checked_positive(duration=duration)
    amp = 1.0 / (duration / 2.0)

    def fn(t, _w=2.0 * math.pi / duration, _a=amp):
        return _a * 0.5 * (1.0 - math.cos(_w * t))

    return Envelope(fn, duration)


def triangle(duration: float) -> Envelope:
    """Symmetric unit-area triangle peaking at T/2."""
    checked_positive(duration=duration)
    peak = 2.0 / duration

    def fn(t, _T=duration, _p=peak):
        return _p * (1.0 - abs(2.0 * t / _T - 1.0))

    return Envelope(fn, duration, breakpoints=(duration / 2.0,))


def gaussian(duration: float) -> Envelope:
    """Unit-area Gaussian bump of width sigma = T/10 centred at T/2, minus its
    endpoint value so it is exactly zero at t = 0, T."""
    checked_positive(duration=duration)
    sigma = duration / 10.0
    half = duration / 2.0
    base = math.exp(-half * half / (2.0 * sigma * sigma))
    raw_integral = math.sqrt(2.0 * math.pi) * sigma * math.erf(half / (math.sqrt(2.0) * sigma))
    shape_integral = raw_integral - base * duration
    amp = 1.0 / shape_integral

    def fn(t, _c=half, _s2=2.0 * sigma * sigma, _b=base, _a=amp):
        return _a * (math.exp(-(t - _c) ** 2 / _s2) - _b)

    return Envelope(fn, duration)


ENVELOPES = {
    "raised-cosine": raised_cosine,
    "triangle": triangle,
    "gaussian": gaussian,
}


@dataclass(frozen=True)
class LinearDrive:
    """Complex drive f(t) for an interaction f(t) a† + conj(f(t)) a.

    ``breakpoints`` mark interior discontinuities (piecewise drives); the
    propagator and the closed-form displacement check both split there.
    ``separable = (c, s)`` declares f(t) = c s(t) with s real, so that every
    sample has the phase of c and the couplings commute;
    :func:`~gatebound.fock.evolve` then propagates the drive as the one
    phase |c| int s, from an adaptive Gauss-Kronrod quadrature of s.
    """

    f: Callable[[float], complex]
    duration: float
    breakpoints: tuple[float, ...] = ()
    separable: tuple[complex, Callable[[float], float]] | None = None

    def __post_init__(self):
        checked_positive(duration=self.duration)
        outside = [bp for bp in self.breakpoints if not 0.0 < bp < self.duration]
        if outside:
            raise ValueError(f"breakpoints {outside} lie outside the window (0, {self.duration})")

    def __call__(self, t: float) -> complex:
        return complex(self.f(t))

    def segments(self) -> list[tuple[float, float]]:
        edges = [0.0, *sorted(self.breakpoints), self.duration]
        return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def envelope_drive(envelope: Envelope, coefficient: complex = 1.0) -> LinearDrive:
    """f(t) = coefficient * envelope(t), declared ``separable``."""
    c = complex(coefficient)

    # Envelope.__call__'s window test, inline: one Python call fewer per sample
    def f(t, _c=c, _fn=envelope.fn, _T=envelope.duration):
        return _c * (0.0 if t < 0.0 or t > _T else _fn(t))

    def s(t, _fn=envelope.fn, _T=envelope.duration):
        return 0.0 if t < 0.0 or t > _T else _fn(t)

    return LinearDrive(f, envelope.duration, envelope.breakpoints, separable=(c, s))


def _common_phase(coefficients: tuple[complex, ...]
                  ) -> tuple[complex, tuple[float, ...]] | None:
    """(c0, [w_i]) with c_i = w_i c0, w_i real, when every c_i has the phase of the
    first nonzero c0 up to sign (c_i conj(c0) real, exactly); else None."""
    c0 = next((c for c in coefficients if c != 0), None)
    if c0 is None or any((c * c0.conjugate()).imag != 0.0 for c in coefficients):
        return None
    norm_sq = abs(c0) ** 2
    return c0, tuple((c * c0.conjugate()).real / norm_sq for c in coefficients)


def multi_envelope_drive(terms: list[tuple[complex, Envelope]]) -> LinearDrive:
    """f(t) = sum_i c_i * envelope_i(t); duration is the longest window.

    Declared ``separable`` as c0 sum_i w_i envelope_i(t) when every c_i has
    the phase of the first nonzero c0 up to sign.
    """
    if not terms:
        raise ValueError("need at least one term")
    duration = max(env.duration for _, env in terms)
    frozen = tuple((complex(c), env) for c, env in terms)
    breaks = sorted({bp for _, env in frozen for bp in env.breakpoints}
                    | {env.duration for _, env in frozen if env.duration < duration})

    def f(t, _terms=frozen):
        return sum(c * env(t) for c, env in _terms)

    separable = None
    common = _common_phase(tuple(c for c, _ in frozen))
    if common is not None:
        c0, weights = common
        weighted = tuple(zip(weights, (env for _, env in frozen)))

        def s(t, _terms=weighted):
            return sum(w * env(t) for w, env in _terms)

        separable = (c0, s)
    return LinearDrive(f, duration, tuple(breaks), separable)


def piecewise_constant_drive(values: list[complex], duration: float) -> LinearDrive:
    """Equal-length constant segments spanning [0, duration].

    Declared ``separable`` as c0 w_k on segment k when every value has the
    phase of the first nonzero c0 up to sign.
    """
    if not values:
        raise ValueError("need at least one segment")
    vals = tuple(complex(v) for v in values)
    seg = duration / len(vals)

    def f(t, _v=vals, _seg=seg):
        k = min(int(t / _seg), len(_v) - 1) if t >= 0 else 0
        return _v[k]

    separable = None
    common = _common_phase(vals)
    if common is not None:
        c0, weights = common
        separable = (c0, lambda t, _w=weights: f(t, _w))  # f's lookup on the weights
    breaks = tuple(seg * k for k in range(1, len(vals)))
    return LinearDrive(f, duration, breaks, separable)

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
    checked_positive(**{"2 pi / duration": 2.0 * math.pi / duration})
    amp = 1.0 / (duration / 2.0)

    def fn(t, _w=2.0 * math.pi / duration, _a=amp):
        return _a * 0.5 * (1.0 - math.cos(_w * t))

    return Envelope(fn, duration)


def triangle(duration: float) -> Envelope:
    """Symmetric unit-area triangle peaking at T/2."""
    checked_positive(duration=duration)
    peak = 2.0 / duration
    checked_positive(**{"the peak 2 / duration": peak})

    def fn(t, _T=duration, _p=peak):
        return _p * (1.0 - abs(2.0 * t / _T - 1.0))

    return Envelope(fn, duration, breakpoints=(duration / 2.0,))


def gaussian(duration: float) -> Envelope:
    """Unit-area Gaussian bump of width sigma = T/10 centred at T/2, minus its
    endpoint value so it is exactly zero at t = 0, T."""
    checked_positive(duration=duration)
    sigma = duration / 10.0
    checked_positive(**{"2 sigma^2": 2.0 * sigma * sigma})
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

    ``breakpoints`` mark interior discontinuities (piecewise drives);
    :func:`~gatebound.fock.evolve` and the closed-form displacement check
    both split the window there, into its :meth:`segments`.
    ``separable = (c, s)`` declares f(t) = c s(t) with s real, so that every
    sample has the phase of c and the couplings commute; ``evolve`` then
    propagates each segment as the one factor exp(-i S (c a† + conj(c) a)),
    S = int s from an adaptive Gauss-Kronrod quadrature of s.
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

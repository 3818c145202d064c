"""Drives the tests build from ``LinearDrive`` directly.  Neither helper
declares f = c s: a test that wants the declared route passes ``separable``.
"""

from gatebound.envelopes import LinearDrive


def envelope_sum(terms, **declared):
    """f = sum_i c_i env_i(t) over the longest window, split at each kink and window end."""
    duration = max(env.duration for _, env in terms)
    breaks = {bp for _, env in terms for bp in env.breakpoints} | {env.duration for _, env in terms}
    return LinearDrive(lambda t: sum(c * env(t) for c, env in terms), duration,
                       tuple(sorted(breaks - {duration})), **declared)


def step_drive(values, duration=1.0, **declared):
    """f = values[k] on the k-th of len(values) equal segments of [0, duration]."""
    seg = duration / len(values)
    return LinearDrive(lambda t: values[min(max(int(t / seg), 0), len(values) - 1)], duration,
                       tuple(seg * k for k in range(1, len(values))), **declared)

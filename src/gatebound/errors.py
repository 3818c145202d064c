"""Exception types shared across the package."""


class CutoffError(ValueError):
    """A truncated-basis dimension is too small for the requested tail-mass contract."""


class DimensionMismatchError(ValueError):
    """Two objects live on truncated bases of different dimension."""


class UncertaintyError(ValueError):
    """A wavepacket violates dx * dp >= hbar/2."""


class DegenerateConfigError(ValueError):
    """A configuration cannot be calibrated (e.g. zero accumulated phase)."""


class IntegrationError(RuntimeError):
    """A propagation, quadrature or ODE solve failed to converge.

    Diagnostic quantities (reached time, step size, error estimate, ...) are
    attached as the ``diagnostics`` dict.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class NumericalInconsistencyError(RuntimeError):
    """Two independent computations of the same quantity disagree beyond tolerance."""


class SamplingError(NumericalInconsistencyError):
    """A random draw was degenerate: no candidate can be projected onto the constraints."""

"""Exception types shared across the package."""


class SpinAccessError(Exception):
    """Base class for all package-specific errors."""


class InvalidStateError(SpinAccessError):
    """A density matrix fails Hermiticity or unit-trace requirements."""


class UnphysicalStateError(SpinAccessError):
    """A coherence vector lies outside the Bloch ball."""


class InvalidModelError(SpinAccessError):
    """A correlation model violates its covariance constraints."""


class InfeasibleParametersError(SpinAccessError):
    """Supplied coordinates violate the requested positivity cone."""


class StepSizeError(SpinAccessError):
    """Integration step too coarse for the requested noise model."""

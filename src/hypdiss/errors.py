"""Exception types raised across the toolkit."""


class HypdissError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(HypdissError):
    pass


class SingularB00(HypdissError):
    pass


class SingularA0(HypdissError):
    pass


class NonUnitDirection(HypdissError):
    pass


class StackPointError(HypdissError):
    """An error at one point of a stack: a stacked computation sets ``index``
    to the position of the first failing point in its stack."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class EigensolverFailure(StackPointError):
    """An eigensolver refused its input."""


class ClusterAmbiguity(StackPointError):
    """Two eigenvalue clusters lie too close to tell apart."""


class NotSymmetrizable(HypdissError):
    """Spectrum is non-real or defective beyond tolerance.

    Carries an optional ``witness`` attribute identifying the grid point.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class GridEmpty(HypdissError):
    pass


class PrerequisiteMissing(HypdissError):
    pass


class LyapunovSolveFailure(StackPointError):
    """A Lyapunov certificate could not be formed."""


class UnsupportedDataSpec(HypdissError):
    pass


class GridMismatch(HypdissError):
    pass


class DegenerateFit(HypdissError):
    pass


class InvalidEpsilon(HypdissError):
    pass


class PrecheckFailed(HypdissError):
    pass


class DomainExit(HypdissError):
    """Simulated state left the model's state domain.

    Carries a ``report`` attribute with the offending time and bounds.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class CFLViolation(HypdissError):
    pass


class BlowUp(HypdissError):
    pass

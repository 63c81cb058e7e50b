"""Exception types shared across the package."""


class TritshareError(Exception):
    """Base class for every error this package raises on purpose."""


class LengthMismatch(TritshareError):
    """An amplitude vector or matrix has the wrong size for its register."""


class NotNormalized(TritshareError):
    """A state's squared norm deviates from 1 beyond the allowed tolerance."""


class NonFiniteAmplitude(TritshareError):
    """An amplitude contains NaN or infinity."""


class NotUnitary(TritshareError):
    """An operator fails the U U-dagger = I check."""


class InvalidDensityMatrix(TritshareError):
    """A density matrix is not Hermitian, unit-trace, and positive."""


class TargetOutOfRange(TritshareError):
    """A measurement or gate target lies outside the register."""


class DimensionMismatch(TritshareError):
    """Two states (or a state and an operator) live on different registers."""


class NotOrthonormal(TritshareError):
    """A measurement family is not a complete orthonormal set."""


class TargetsOverlap(TritshareError):
    """The same qutrit label was listed twice."""


class ZeroProbabilityBranchSampled(TritshareError):
    """A branch with (numerically) zero Born weight was selected; internal invariant violation."""


class EmptyRegister(TritshareError):
    """An operation would leave no qutrit in the register."""


class EmptyKeepSet(TritshareError):
    """A partial trace was asked to keep nothing."""


class LabelOutOfRange(TritshareError):
    """A qutrit label or outcome index is outside its valid range."""


class SizeOutOfRange(TritshareError):
    """A register size is outside the supported desk-scale range."""


class ConfigInvalid(TritshareError):
    """A session or experiment configuration violates its constraints."""


class SelfCapture(TritshareError):
    """A dishonest agent tried to capture its own qutrit."""


class EmptyInput(TritshareError):
    """An aggregate operation received no records."""


class ParseError(TritshareError):
    """Command-line input could not be parsed."""


class ReportInvalid(TritshareError):
    """A run report violates the published report schema; internal invariant violation."""

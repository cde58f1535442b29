"""Exception types shared across the package."""


class StringAlgError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(StringAlgError):
    pass


class ParseError(StringAlgError):
    pass


class NotComposable(StringAlgError):
    pass


class ForbiddenSubword(StringAlgError):
    pass


class LimitExceeded(StringAlgError):
    pass


class OnPeak(StringAlgError):
    pass


class InDeep(StringAlgError):
    pass


class Ambiguous(StringAlgError):
    """More than one legal hook/cohook extension (only empty strings)."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = candidates


class EmptyString(StringAlgError):
    pass


class ZeroLambda(StringAlgError):
    pass


class InvalidMultiplicity(StringAlgError):
    """A band module needs a Jordan block of size at least 1."""


class ContextMismatch(StringAlgError):
    pass


class SplitFailure(StringAlgError):
    pass


class ProjectiveInput(StringAlgError):
    pass


class SplitOnly(StringAlgError):
    pass


class IdentificationFailed(StringAlgError):
    pass


class Undecided(StringAlgError):
    pass


class HypothesisFailed(StringAlgError):
    pass


class FieldTooSmall(StringAlgError):
    pass


class NotInvolution(StringAlgError):
    pass


class NonIntegral(StringAlgError):
    pass


class ConfigError(StringAlgError):
    pass

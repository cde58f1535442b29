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


class ZeroLambda(StringAlgError):
    pass


class InvalidMultiplicity(StringAlgError):
    """A band module needs a Jordan block of size at least 1."""


class ContextMismatch(StringAlgError):
    pass


class SplitFailure(StringAlgError):
    pass


class SplitOnly(StringAlgError):
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

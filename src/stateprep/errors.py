"""Exception types raised across the package."""


class StatePrepError(Exception):
    """Base class for all library errors."""


class NonPowerOfTwoLength(StatePrepError):
    pass


class NegativeAmplitude(StatePrepError):
    pass


class NonFiniteAmplitude(StatePrepError):
    pass


class ZeroVector(StatePrepError):
    pass


class InvalidCircuit(StatePrepError):
    pass


class ParseError(StatePrepError):
    """Malformed circuit document.  ``location`` points at the offending field."""

    def __init__(self, message, location=""):
        self.location = location
        super().__init__(f"{message} (at {location})" if location else message)


class TraceNotZero(StatePrepError):
    pass


class NotOrthogonal(StatePrepError):
    pass


class DimensionMismatch(StatePrepError):
    pass


class NonUnitInput(StatePrepError):
    pass


class LambdaOutOfRange(StatePrepError):
    pass


class NOutOfRange(StatePrepError):
    pass


class TooManyBranches(StatePrepError):
    pass

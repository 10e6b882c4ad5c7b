"""Exception types shared across the package."""


class QheckeError(Exception):
    pass


class InvalidRootDatum(QheckeError):
    pass


class NonCanonicalizable(QheckeError):
    pass


class UnsuitableData(QheckeError):
    pass


class DivisionByZeroDenominator(QheckeError):
    pass


class InternalInvariantError(QheckeError):
    """An invariant the program guarantees was found broken: a bug, not bad
    input and not a failed check."""


class NonIntegralResult(QheckeError):
    """An operator applied to a polynomial produced a non-polynomial component."""


class ExtractionStuck(QheckeError):
    pass


class ZeroWeight(QheckeError):
    pass


class ParseError(QheckeError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownIndex(QheckeError):
    pass


class UnsupportedDimension(QheckeError):
    pass

"""Exception types raised by the motzkinrow package."""


class MotzkinError(Exception):
    """Base class for every domain error raised by this package."""


class WordError(MotzkinError):
    """A character string is not a well-formed Motzkin word."""


class EmptyError(WordError):
    pass


class AlphabetError(WordError):
    """The text contains a character outside {'0', '(', ')'}."""


class UnbalancedError(WordError):
    """Open and close bracket counts differ."""


class PrefixViolationError(WordError):
    """Some prefix closes more brackets than it has opened."""


class NotCanonicalError(WordError):
    """A multi-symbol word starts with a zero (use parse for padded text)."""


class ConfigError(MotzkinError, ValueError):
    """A MOTZKINROW_* environment variable is not a positive integer."""


class LimitError(MotzkinError):
    """A configured size limit was exceeded."""


class ArgumentError(MotzkinError, ValueError):
    """A numeric argument is outside its documented domain."""


class SpanError(MotzkinError):
    """The given span is not an outer block of the word."""


class ZeroWordError(MotzkinError):
    """The operation needs at least one bracket and got the zero word."""


class UnderflowError(MotzkinError):
    """The zero word has no predecessor."""


class CrossingError(MotzkinError):
    """Addition is undefined: the operands' outer blocks cross."""


class InclusionError(MotzkinError):
    """Subtraction is undefined: the subtrahend is not included in the word."""


class SiteError(MotzkinError):
    """The named position does not carry the symbol pattern the operation needs."""


class BlockedError(MotzkinError):
    """A non-zero symbol sits in the path of a moving bracket."""


class ValidityError(MotzkinError):
    """Applying the operation would produce an invalid word."""


class PolynomialMismatchError(MotzkinError):
    """A proven index polynomial disagreed with the rank difference.

    This signals an internal inconsistency, never expected user input; the
    offending delta report rides along for diagnostics.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class UnknownSequenceError(MotzkinError):
    pass


class UnknownCheckError(MotzkinError):
    pass

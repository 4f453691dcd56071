"""Exception hierarchy.

Two broad families matter to callers: `InputError` (malformed files or
expressions; CLI exit code 3) and `PreconditionError` (a mathematically
meaningful operation was invoked on data that does not satisfy its
contract; CLI exit code 4).  Everything else derives from `OlieError`.
Messages quote input text through :func:`quoted`, so that their length
is bounded whatever the input.
"""

QUOTE_LIMIT = 40
"""The most characters of an input text that an error message quotes."""


def quoted(value):
    """``repr(value)`` for an error message; a text, or the repr of any
    other value, longer than ``QUOTE_LIMIT`` characters is shown by its
    first ``QUOTE_LIMIT`` characters and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= QUOTE_LIMIT:
        return repr(value)
    head = text[:QUOTE_LIMIT]
    return f"{repr(head) if text is value else head}... ({len(text)} characters)"


class OlieError(Exception):
    pass


class FieldMismatch(OlieError):
    pass


class DivisionByZero(OlieError, ZeroDivisionError):
    pass


class InputError(OlieError):
    """Bad external input: files, expressions, encodings."""


class UnsupportedCharacteristic(InputError):
    """Raised for GF(p) with p not prime, p < 5 or p >= ``PSI_12``; a
    field tag or file naming one is bad input."""


class ParseError(InputError):
    def __init__(self, message, line=None, position=None):
        super().__init__(message)
        self.line = line
        self.position = position


class SchemaError(InputError):
    pass


class IdentitySyntaxError(ParseError):
    pass


class IdentityTypeError(InputError):
    pass


class NotMultilinear(InputError):
    def __init__(self, message, variable=None):
        super().__init__(message)
        self.variable = variable


class UnknownIdentity(InputError):
    pass


class UnknownName(InputError):
    pass


class PreconditionError(OlieError):
    """An operation's precondition failed."""


class DimensionMismatch(PreconditionError):
    pass


class ShapeMismatch(PreconditionError):
    pass


class ZeroVector(PreconditionError):
    pass


class ArityMismatch(PreconditionError):
    pass


class NotAnIdeal(PreconditionError):
    pass


class NotASubalgebra(PreconditionError):
    pass


class NotAbelianSubalgebra(PreconditionError):
    pass


class KernelConditionFailed(PreconditionError):
    """The form does not descend to the requested quotient."""


class NotMultiplicative(PreconditionError):
    pass


class NotADerivation(PreconditionError):
    pass


class NotARepresentation(PreconditionError):
    pass


class NotACocycle(PreconditionError):
    pass


class NotALieAlgebra(PreconditionError):
    pass


class NotOmegaAssociative(PreconditionError):
    pass


class EigenvectorConditionFailed(PreconditionError):
    pass


class PreconditionFailed(PreconditionError):
    """Generic precondition failure with a message."""

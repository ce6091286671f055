"""Exception types shared across the package."""


class BinprodError(Exception):
    """Base class for every error raised by this package."""


class InvalidInput(BinprodError):
    """An argument violates an operation's preconditions."""


class DivisibilityError(BinprodError):
    """Exact polynomial division was requested but the remainder is nonzero."""


class NotAPowerSeries(BinprodError):
    """The denominator vanishes at 0, so the value has no power series expansion."""


class DivisionByZero(BinprodError, ZeroDivisionError):
    """Division by zero: the zero function, polynomial or scalar.

    Also a `ZeroDivisionError`, so code that catches Python's own still works.
    """


class ReconstructionFailed(BinprodError):
    """No rational function within the given degree bounds matches the series."""


class InternalInvariantViolation(BinprodError):
    """An internal cross-check failed.  This indicates a bug, not bad input.

    One raised out of `binomial_product` or `hadamard_product` has a
    ``reproducer`` attribute, the ``binprod`` command line that repeats the
    failing product.  So does any exception from there that is not a
    `BinprodError`.
    """


class DecompositionUnavailable(BinprodError):
    """The requested decomposition does not exist for these inputs."""


class CoprimalityViolation(BinprodError):
    """Polynomials required to be coprime share a nonconstant factor."""


class ParseError(BinprodError):
    """Syntax error in an input expression.

    Carries the character offset of the offending token and the set of token
    descriptions that would have been accepted there.
    """

    def __init__(self, message: str, position: int, expected: tuple = ()):
        self.message = message
        self.position = position
        self.expected = tuple(expected)
        detail = f"{message} at position {position}"
        if self.expected:
            detail += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(detail)

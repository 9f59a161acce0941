"""Exception hierarchy shared by all qdiam modules."""


class QdiamError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimePower(QdiamError):
    """Field order is not a supported prime power."""


class ZeroInverse(QdiamError):
    """Multiplicative inverse of zero requested."""


class DimensionMismatch(QdiamError):
    """Vector length does not match the ambient dimension."""


class AmbientMismatch(QdiamError):
    """Operands live in different ambient spaces or fields."""


class ParameterOutOfRange(QdiamError):
    """Formula parameters violate the stated precondition."""


class BudgetExceeded(QdiamError):
    """An enumeration or search would exceed the configured budget.

    ``would_be_count`` carries the exact size the operation refused to touch.
    """

    def __init__(self, message, would_be_count=None):
        super().__init__(message)
        self.would_be_count = would_be_count


class InvalidConfiguration(QdiamError):
    """Construction parameters describe no valid family (e.g. X <= Y)."""


class EmptyFamily(QdiamError):
    """Operation requires a nonempty family."""


class ParseError(QdiamError):
    """Malformed subspace token or family file.

    ``line`` is the 1-based line number when parsing a file.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line

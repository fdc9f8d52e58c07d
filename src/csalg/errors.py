"""Exception hierarchy shared by the whole package."""

__all__ = [
    "ConductorError",
    "CsalgError",
    "DomainError",
    "ParseError",
    "TableInconsistencyError",
]


class CsalgError(Exception):
    """Base class for every error raised by this package."""


class ParseError(CsalgError):
    """Syntax or validation error in a .csa/.csm source file.

    Carries the 1-based line and column of the offending token, and the
    path of the file when it was read from one, so the CLI can point at
    it.
    """

    def __init__(self, message, line=None, col=None, path=None):
        self.reason = message
        self.line = line
        self.col = col
        self.path = path
        if line is not None:
            message = "line %d, col %d: %s" % (line, col, message)
        if path is not None:
            message = "%s: %s" % (path, message)
        super().__init__(message)

    def within(self, path):
        """This error, pointed at the named input ``path``."""
        return ParseError(self.reason, self.line, self.col, path)


class DomainError(CsalgError):
    """A value is outside the mathematical domain of an operation.

    Examples: inverting a non-unit Laurent element, a morphism without
    finite order under the given bound, a matrix with non-unit
    determinant.
    """


class ConductorError(DomainError):
    """A root of unity was requested that the fixed conductor cannot host."""


class TableInconsistencyError(CsalgError):
    """A bracket table contradicts the skew-symmetry axiom.

    Raised during table completion when both orientations of a
    generator pair are present but do not determine each other.
    """

    def __init__(self, pair, n):
        self.pair = pair
        self.n = n
        super().__init__("table entry (%s, %s) inconsistent at n=%d" % (
            pair[0], pair[1], n))

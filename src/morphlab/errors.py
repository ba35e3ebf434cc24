"""Exception hierarchy.

Every error raised by the library derives from MorphlabError so callers
(and the CLI) can distinguish domain errors from genuine bugs.
"""


class MorphlabError(Exception):
    """Base class for all library errors."""


class DomainMismatchError(MorphlabError):
    """A symbol or alphabet does not fit the operation's domain."""


class NotASubMorphismError(MorphlabError):
    """Restriction target is not stable under the morphism."""

    def __init__(self, letter, message=None):
        self.letter = letter
        super().__init__(message or f"image of {letter!r} leaves the sub-alphabet")


class NotPrimitiveError(MorphlabError):
    """Matrix passed where a primitive matrix is required."""


class NotProlongableError(MorphlabError):
    """Morphism is not prolongable on the requested letter."""


class FiniteWordError(MorphlabError):
    """The presented word g(f^w(a)) is finite; the pipeline cannot proceed."""


class BudgetExceededError(MorphlabError):
    """Stream pump budget exhausted, or the image word is finite; the
    message says which."""


class InsufficientLengthError(MorphlabError):
    """A word is shorter than the requested prefix length."""


class ParseError(MorphlabError):
    """Syntax or consistency error in a morphism file."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class InvariantError(MorphlabError):
    """An internal consistency check failed; the library has a bug."""

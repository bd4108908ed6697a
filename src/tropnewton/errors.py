"""Exception types shared across the package.

The hierarchy is flat on purpose: callers tell apart "your input was
malformed" (ParseError, SchemaError and friends; ``require``), "your
input is outside the theory's hypotheses" (precondition errors), and
"the library caught itself producing garbage" (``check``), nothing finer.
"""

from __future__ import annotations


class TropnewtonError(Exception):
    """Base class for every error raised by this package."""


# --- input / parsing -------------------------------------------------------

_ECHO = 40  # characters of the text a parse error shows on each side of pos


class ParseError(TropnewtonError):
    """Malformed expression text.

    Carries the character offset ``pos`` so the CLI can print a caret
    under the offending spot: the start of the token the error names,
    or the end of the text, never a blank.
    """

    def __init__(self, message: str, text: str = "", pos: int = 0):
        super().__init__(message)
        self.text = text
        self.pos = pos

    def caret_block(self) -> str:
        """The text with a caret under ``pos``.  At most ``_ECHO``
        characters on each side of ``pos`` are shown, and '...' marks
        each cut, so a long input gets a short echo."""
        lo, hi = max(0, self.pos - _ECHO), self.pos + _ECHO
        head = "..." if lo else ""
        tail = "..." if hi < len(self.text) else ""
        return f"{head}{self.text[lo:hi]}{tail}\n{' ' * (len(head) + self.pos - lo)}^"


class NegativeExponentError(ParseError):
    """An exponent parsed negative where only naturals are allowed."""


class EmptySupportError(TropnewtonError):
    """All terms cancelled, or no monomials were given."""


class DuplicateMonomialError(TropnewtonError):
    """The same (i, j) monomial appeared twice in a lifted polynomial."""


class SchemaError(TropnewtonError):
    """A malformed value from a caller: a JSON file against the schema,
    or a point, ring, height, bound or count passed to the API.

    ``pointer`` is a JSON-pointer-style path to the offending element,
    e.g. ``/monomials/3/coeff``, or empty for an API argument.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


# --- preconditions of the theory -------------------------------------------

class NotSingularAtOriginError(TropnewtonError):
    """Support contains (0,0), (1,0) or (0,1): no singularity at 0."""


class NotConvenientError(TropnewtonError):
    """Support misses an axis, so the Newton diagram region is unbounded."""


class NotCoprimeError(TropnewtonError):
    """A (p, q) pair fed to the square counters is not coprime."""


# --- geometry --------------------------------------------------------------

class DegenerateHullError(TropnewtonError):
    """Fewer than three non-collinear points, so no 2D hull exists."""


class ZeroSegmentError(TropnewtonError):
    """Lattice length of a segment with equal endpoints is undefined."""


class DegenerateInputError(TropnewtonError):
    """Lifted support is affinely degenerate (all points collinear)."""


class NonRegularInputError(TropnewtonError):
    """Adjacent cells share a plane gradient; no dual edge exists."""


class NotCellUnionError(TropnewtonError):
    """The restriction region is not a union of subdivision cells."""


class RegularityCertificationError(TropnewtonError):
    """Neither the default nor the corner-kinked separable lifting lands
    on the special subdivision of the region under the boundary.  Not
    expected for convenient staircase supports; carries the boundary
    chain in ``details``.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = details or {}


# --- self checks -----------------------------------------------------------

class ParityViolationError(TropnewtonError):
    """mu + branches - 1 came out odd; signals a defect, never corrected."""


class InternalCheckError(TropnewtonError):
    """An invariant the package proves of itself failed: always a bug."""


def check(condition: bool, message: str) -> None:
    """Raise InternalCheckError unless ``condition`` holds."""
    if not condition:
        raise InternalCheckError(message)


def require(condition: bool, message: str) -> None:
    """Raise SchemaError unless the caller's argument meets ``condition``."""
    if not condition:
        raise SchemaError(message)

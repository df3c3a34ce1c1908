"""Exception taxonomy for kronkit.

Every error raised by the library for bad input or an exceeded limit
derives from :class:`KronkitError`, so callers (and the command-line front
end) can distinguish "the input was malformed" from "the certificate was
valid but rejected".  A failed internal consistency check, such as LP
multipliers that do not prove a redundancy, is a bug and raises otherwise.
"""

from __future__ import annotations


class KronkitError(Exception):
    """Base class for all kronkit errors."""


# ---------------------------------------------------------------------------
# diagram / instance construction


class NotWeaklyDecreasing(KronkitError):
    """Row lengths of a diagram must be weakly decreasing."""


class NonPositiveRow(KronkitError):
    """Diagram rows must be strictly positive integers."""


class EmptyDiagram(KronkitError):
    """A diagram needs at least one row."""


class BoxCountMismatch(KronkitError):
    """The three diagrams of an instance must have the same box count."""


class RankTooSmall(KronkitError):
    """Declared local dimension is smaller than a diagram height."""


class IndexOutOfRange(KronkitError):
    """A basis index lies outside 1..m."""


# ---------------------------------------------------------------------------
# hyperplane-certificate verification


class ComponentNotTraceless(KronkitError):
    """Each block of a test vector must sum to zero."""


class NotSquare(KronkitError):
    """The structured matrix is not square (count condition violated)."""


class LengthMismatch(KronkitError):
    """An evaluation point has the wrong number of coordinates."""


class ShapeMismatch(KronkitError):
    """Certificate dimensions disagree with each other or with the instance."""


class CoordinateTooLarge(KronkitError):
    """A hyperplane coordinate exceeds the search-space bound (4m)^{3m}."""


# ---------------------------------------------------------------------------
# witness-vector verification


class ZeroVector(KronkitError):
    """The witness vector has no nonzero entry."""


# ---------------------------------------------------------------------------
# search / oracle resource limits


class BudgetExceeded(KronkitError):
    """Enumeration would examine more subsets than the budget allows."""


class CapExceeded(KronkitError):
    """A configurable size cap would be exceeded."""


class InternalNonInteger(RuntimeError):
    """An exact count came out non-integral: a bug, hence no KronkitError."""


# ---------------------------------------------------------------------------
# command-line input


class MalformedInput(KronkitError):
    """A file or argument could not be read or parsed into a kronkit object."""

"""Exact scalar types.

Rational numbers are plain :class:`fractions.Fraction` instances (arbitrary
precision, always in lowest terms, positive denominator).  On top of that this
module provides a Gaussian-rational type — a complex number with rational
real and imaginary parts — as the value type of a witness amplitude.  It
carries no arithmetic and no float view: the exact verifier scales amplitudes
to integers over their common denominator and computes there.

Serialization is string-based so that certificates survive JSON without loss:
a rational is written ``"num/den"`` in lowest terms, a Gaussian rational as
``{"re": "num/den", "im": "num/den"}``.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import KronkitError

RationalLike = Union[Fraction, int, str]

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce ints, ``"p/q"`` or ``"p"`` strings, or Fractions to Fraction.

    A ``bool`` is an ``int`` in Python, but JSON ``true`` is no amplitude,
    so it is refused like any other junk.  A string must match
    ``-?[0-9]+(/[0-9]+)?``: ``Fraction`` alone would also read ``"0.5"``,
    ``"1_0"`` and ``"1e1000000"``, a nine-character 3.3-million-bit integer.
    The string is parsed once: the Fraction is built from the integers of
    that one match, and a zero denominator raises ZeroDivisionError.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f"expected num/den or an integer, got {value!r}")
        num, den = match.groups()
        return Fraction(int(num)) if den is None else Fraction(int(num), int(den))
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def json_int(value) -> int:
    """A JSON integer field as an int; anything else raises KronkitError.

    ``int()`` would truncate 2.9 to 2 and read ``true`` as 1, so only a
    plain int is taken: floats and bools are refused rather than converted.
    """
    if type(value) is int:
        return value
    raise KronkitError(f"expected an integer, got {value!r}")


def json_list(value, name: str) -> list:
    """A JSON list field as a list; anything else raises KronkitError.

    Iterating a string or an object would read its characters or its keys,
    so the refusal names the field instead.
    """
    if type(value) is list:
        return value
    raise KronkitError(f"{name} must be a list, got {type(value).__name__}")


def json_ints(value, name: str) -> tuple[int, ...]:
    """A JSON list of integers as a tuple, each entry read by ``json_int``."""
    return tuple(map(json_int, json_list(value, name)))


def format_rational(q: Fraction) -> str:
    """Canonical ``"num/den"`` form, e.g. ``-3/7``, ``0/1``, ``5/1``.

    Under CPython's int→str digit limit, which also bounds every integer
    read, a longer numerator or denominator raises KronkitError: no file is
    written that could not be read back.
    """
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise KronkitError(f"a rational exceeds the {limit}-digit limit on integers")


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", as_fraction(self.re))
        object.__setattr__(self, "im", as_fraction(self.im))

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_json(self) -> dict:
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianRational":
        return cls(obj["re"], obj.get("im", "0"))


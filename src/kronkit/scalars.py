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

Every integer read has at most ``DIGIT_CAP`` digits, counted here, not by
CPython's int↔str limit, which ``cli.main`` lifts while a command runs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import KronkitError

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")

DIGIT_CAP = 4300  # CPython's default int↔str limit, so defaults read alike
_PAST_CAP = 10**DIGIT_CAP  # the least integer of DIGIT_CAP + 1 digits
_LIMIT = f"the {DIGIT_CAP}-digit limit on integers"


def json_field(obj: dict, name: str):
    """The field ``name`` of a JSON object; a missing field, or a value that
    is no object, raises KronkitError."""
    try:
        return obj[name]
    except KeyError:
        raise KronkitError(f"missing field {name!r}") from None
    except TypeError:  # a list, a string, a number, a bool or null
        raise KronkitError(f"expected an object, got {type(obj).__name__}") from None


def quoted(value) -> str:
    """repr(value) for an error message, so that an oversized value leaves one
    short line: a str or a repr past 20 characters is cut to its first 20 and
    its length, and an int past the cap is shown by its size, never in digits."""
    if type(value) is int and abs(value) >= _PAST_CAP:
        return f"<a {value.bit_length()}-bit integer>"
    text, show = (value, repr) if type(value) is str else (repr(value), str)
    if len(text) <= 20:
        return show(text)
    return f"{show(text[:20])}... ({len(text)} characters)"


def json_rational(value) -> Fraction:
    """The JSON string ``"num/den"`` or ``"num"`` as a Fraction, else KronkitError.

    A JSON number, bool or null is refused, as is a zero denominator or a
    string that ``Fraction`` alone would read: ``"0.5"``, ``"1_0"`` or
    ``"1e1000000"``, a nine-character 3.3-million-bit integer."""
    match = _RATIONAL.fullmatch(value) if type(value) is str else None
    if match is None:
        raise KronkitError(f"expected a num/den string, got {quoted(value)}")
    num, den = match.groups()
    den = decimal_int(den) if den else 1
    if den == 0:
        raise KronkitError(f"rational {quoted(value)} has a zero denominator")
    return Fraction(decimal_int(num), den)


def decimal_int(digits: str) -> int:
    """ASCII decimal digits, a minus allowed first, as an int; more than
    ``DIGIT_CAP`` digits raise KronkitError.  ``cli`` also reads every JSON
    integer literal through it."""
    if len(digits) - digits.startswith("-") > DIGIT_CAP:
        raise KronkitError(f"an integer exceeds {_LIMIT}")
    return int(digits)


def json_int(value) -> int:
    """A JSON integer field as an int; anything else raises KronkitError.

    ``int()`` would truncate 2.9 to 2 and read ``true`` as 1, so only a
    plain int is taken: floats and bools are refused rather than converted.
    """
    if type(value) is int:
        return value
    raise KronkitError(f"expected an integer, got {quoted(value)}")


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
    """Canonical ``"num/den"`` form, e.g. ``-3/7``, ``0/1``, ``5/1``."""
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class GaussianRational:
    """re + i·im with both parts Fractions; an int, str or bool part is refused."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if not (isinstance(self.re, Fraction) and isinstance(self.im, Fraction)):
            raise KronkitError(f"parts {self.re!r}, {self.im!r} are not both Fractions")

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_json(self) -> dict:
        for part in (self.re, self.im):  # refuse what from_json could not read
            if abs(part.numerator) >= _PAST_CAP or part.denominator >= _PAST_CAP:
                raise KronkitError(f"a rational exceeds {_LIMIT}")
        return {"re": format_rational(self.re), "im": format_rational(self.im)}

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianRational":
        real = json_rational(json_field(obj, "re"))  # obj is an object from here on
        return cls(real, json_rational(obj["im"]) if "im" in obj else Fraction(0))

"""Young diagrams and problem instances.

An instance is a triple of Young diagrams with a common box count ``k``,
together with an ambient local dimension ``m`` (by default the maximum of the
three heights).  The normalized point associated with the instance is the
triple of padded row vectors divided by ``k``; the toolkit decides on which
side of the relevant polytope that point lies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import KronkitError
from .scalars import json_field, json_int, json_list, quoted


@dataclass(frozen=True)
class YoungDiagram:
    """A partition: weakly decreasing strictly positive row lengths."""

    rows: tuple[int, ...]

    @property
    def height(self) -> int:
        return len(self.rows)

    @property
    def boxes(self) -> int:
        return sum(self.rows)

    def padded(self, m: int) -> tuple[int, ...]:
        """Row vector in ℤ^m with trailing zeros."""
        if m < self.height:
            raise KronkitError(f"cannot pad height-{self.height} diagram to length {m}")
        return self.rows + (0,) * (m - self.height)

    def serialize(self) -> list[int]:
        return list(self.rows)

    def __str__(self) -> str:
        return "(" + ",".join(str(r) for r in self.rows) + ")"


def parse_young(rows: Iterable[int]) -> YoungDiagram:
    """Validate row lengths as a Young diagram.

    Each row must be a plain int, the rule of ``scalars.json_int``: a bool, a
    float, a string or any other type, an integer-like one too, is refused,
    not converted.  A refusal names the first offending row by its position,
    counted from 1."""
    rows = tuple(rows)
    if not rows:
        raise KronkitError("a diagram needs at least one row")
    for n, r in enumerate(rows, 1):
        if type(r) is not int:
            raise KronkitError(f"row {n} is not an integer: {quoted(r)}")
        if r <= 0:
            raise KronkitError(f"row {n} is not strictly positive: {quoted(r)}")
        if n > 1 and r > rows[n - 2]:
            raise KronkitError(f"row {n} is longer than row {n - 1}")
    return YoungDiagram(rows)


_FIELDS = ("lambda_A", "lambda_B", "lambda_C")


def _natural_rank(a: YoungDiagram, b: YoungDiagram, c: YoungDiagram) -> int:
    return max(a.height, b.height, c.height)


@dataclass(frozen=True)
class KronInstance:
    """Triple of diagrams with k boxes each, plus ambient local dimension m.

    Construction, ``dataclasses.replace`` included, refuses a non-int k or m,
    a diagram without k boxes, and an m below ``height``, the natural rank r."""

    lambda_A: YoungDiagram
    lambda_B: YoungDiagram
    lambda_C: YoungDiagram
    k: int
    m: int

    def __post_init__(self) -> None:
        k, m = json_int(self.k), json_int(self.m)
        for name, lam in zip(_FIELDS, self.diagrams):
            if lam.boxes != k:
                got, want = quoted(lam.boxes), quoted(k)
                raise KronkitError(f"{name} has {got} boxes, expected {want}")
        if m < self.height:
            raise KronkitError(f"m={quoted(m)} is below the maximum height {self.height}")

    @property
    def height(self) -> int:
        """The natural rank r: the largest of the three diagram heights."""
        return _natural_rank(self.lambda_A, self.lambda_B, self.lambda_C)

    @property
    def m_overridden(self) -> bool:
        """True iff m differs from the largest diagram height."""
        return self.m != self.height

    @property
    def diagrams(self) -> tuple[YoungDiagram, YoungDiagram, YoungDiagram]:
        return (self.lambda_A, self.lambda_B, self.lambda_C)

    def padded_rows(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The three diagrams as integer vectors in ℤ^m."""
        return tuple(d.padded(self.m) for d in self.diagrams)

    def to_json(self) -> dict:
        obj = {
            "lambda_A": self.lambda_A.serialize(),
            "lambda_B": self.lambda_B.serialize(),
            "lambda_C": self.lambda_C.serialize(),
            "k": self.k,
        }
        if self.m_overridden:
            obj["m"] = self.m
        return obj

    @classmethod
    def from_json(cls, obj: dict) -> "KronInstance":
        return make_instance(
            *(parse_young(json_list(json_field(obj, key), key)) for key in _FIELDS),
            json_field(obj, "k"),
            m_override=json_int(obj["m"]) if "m" in obj else None,
        )

    def __str__(self) -> str:
        tag = f", m={self.m} (override)" if self.m_overridden else f", m={self.m}"
        return (
            f"({self.lambda_A},{self.lambda_B},{self.lambda_C}), k={self.k}{tag}"
        )


def make_instance(
    lam_a: YoungDiagram, lam_b: YoungDiagram, lam_c: YoungDiagram, k: int,
    m_override: int | None = None,
) -> KronInstance:
    """The instance at ``m_override``, by default at ``height``; KronInstance checks it."""
    m = _natural_rank(lam_a, lam_b, lam_c) if m_override is None else m_override
    return KronInstance(lam_a, lam_b, lam_c, k, m)

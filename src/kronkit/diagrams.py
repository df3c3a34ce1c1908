"""Young diagrams and problem instances.

An instance is a triple of Young diagrams with a common box count ``k``,
together with an ambient local dimension ``m`` (by default the maximum of the
three heights).  The normalized point associated with the instance is the
triple of padded row vectors divided by ``k``; the toolkit decides on which
side of the relevant polytope that point lies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Iterable

from .errors import KronkitError
from .scalars import json_int


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
    """Validate row lengths as a Young diagram; a row that ``operator.index``
    refuses, or a bool, is refused too, not converted."""
    rows = tuple(rows)
    if not rows:
        raise KronkitError("a diagram needs at least one row")
    for r in rows:
        if isinstance(r, bool) or not hasattr(type(r), "__index__"):
            raise KronkitError(f"row length {r!r} is not an integer")
    rows = tuple(map(index, rows))
    for r in rows:
        if r <= 0:
            raise KronkitError(f"row length {r} is not strictly positive")
    for a, b in zip(rows, rows[1:]):
        if a < b:
            raise KronkitError(f"rows {rows} are not weakly decreasing")
    return YoungDiagram(rows)


@dataclass(frozen=True)
class KronInstance:
    """Triple of diagrams with k boxes each, plus ambient local dimension m."""

    lambda_A: YoungDiagram
    lambda_B: YoungDiagram
    lambda_C: YoungDiagram
    k: int
    m: int

    @property
    def m_overridden(self) -> bool:
        """True iff m differs from the largest diagram height."""
        return self.m != max(d.height for d in self.diagrams)

    @property
    def diagrams(self) -> tuple[YoungDiagram, YoungDiagram, YoungDiagram]:
        return (self.lambda_A, self.lambda_B, self.lambda_C)

    def padded_rows(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """The three diagrams as integer vectors in ℤ^m."""
        m = self.m
        return (
            self.lambda_A.padded(m), self.lambda_B.padded(m), self.lambda_C.padded(m)
        )

    def normalized_point(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational point (rows/k, rows/k, rows/k), each block summing to 1."""
        return tuple(
            tuple(Fraction(r, self.k) for r in vec) for vec in self.padded_rows()
        )

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
            *(
                parse_young([json_int(r) for r in obj[key]])
                for key in ("lambda_A", "lambda_B", "lambda_C")
            ),
            json_int(obj["k"]),
            m_override=json_int(obj["m"]) if "m" in obj else None,
        )

    def __str__(self) -> str:
        tag = f", m={self.m} (override)" if self.m_overridden else f", m={self.m}"
        return (
            f"({self.lambda_A},{self.lambda_B},{self.lambda_C}), k={self.k}{tag}"
        )


def make_instance(
    lam_a: YoungDiagram,
    lam_b: YoungDiagram,
    lam_c: YoungDiagram,
    k: int,
    m_override: int | None = None,
) -> KronInstance:
    """Build a validated instance; m defaults to the maximum height."""
    for lam in (lam_a, lam_b, lam_c):
        if lam.boxes != k:
            raise KronkitError(f"diagram {lam} has {lam.boxes} boxes, expected {k}")
    max_height = max(lam_a.height, lam_b.height, lam_c.height)
    if m_override is None:
        return KronInstance(lam_a, lam_b, lam_c, k, max_height)
    if m_override < max_height:
        raise KronkitError(f"m={m_override} is below the maximum height {max_height}")
    return KronInstance(lam_a, lam_b, lam_c, k, m_override)

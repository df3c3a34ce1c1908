"""Weights, negative roots, and the affine geometry they live in.

The ambient space is ℝ^{3m}, three blocks of length m, one per subsystem.
A weight is a tuple (i, j, l) of 1-based basis indices; its vector is the
concatenation (e_i, e_j, e_l).  There are exactly m³ weights, kept in
lexicographic order on (i, j, l) throughout — this order is part of the
certificate format, not an implementation detail.  ``weight_index`` gives a
weight's zero-based position in it.

A negative root is a tuple (block, i, j) with block 0, 1, 2 for A, B, C and
i > j: the vector e_i − e_j inside that block, zero elsewhere.  Roots are
ordered by block and then lexicographically by (i, j).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .errors import KronkitError
from .intlinalg import integer_rank
from .scalars import json_int

# Materializing Φ(m) costs m³ memory; the cap keeps accidental
# mega-instances from exhausting the machine.
WEIGHT_CAP = 12

SUBSYSTEMS = ("A", "B", "C")


@dataclass(frozen=True)
class HyperplaneCandidate:
    """Blockwise-traceless integer test vector H plus integer level z.

    Construction refuses all but three blocks of one length m, each summing
    to 0, so no consumer checks them again.  ``to_json`` and ``from_json``
    alone write and read the ``{"H": …, "z": …}`` form.

    The level split of Φ(m) and the negatively pairing roots are computed at
    most once per object, on first use, and kept on it; two equal candidates
    each compute their own.
    """

    h_a: tuple[int, ...]
    h_b: tuple[int, ...]
    h_c: tuple[int, ...]
    z: int

    @property
    def m(self) -> int:
        return len(self.h_a)

    @property
    def blocks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return (self.h_a, self.h_b, self.h_c)

    def __post_init__(self) -> None:
        for tag, block in zip(SUBSYSTEMS, self.blocks):
            if len(block) != self.m:
                raise KronkitError(
                    f"component {tag} has length {len(block)}, expected {self.m}"
                )
            if sum(block) != 0:
                raise KronkitError(f"component {tag} of H sums to {sum(block)}, not 0")

    def to_json(self) -> dict:
        return {"H": [list(b) for b in self.blocks], "z": self.z}

    @classmethod
    def from_json(cls, obj: dict) -> "HyperplaneCandidate":
        if len(obj["H"]) != 3:
            raise KronkitError("H must have exactly three components")
        blocks = (tuple(json_int(v) for v in block) for block in obj["H"])
        return cls(*blocks, json_int(obj["z"]))

    def negated(self) -> "HyperplaneCandidate":
        blocks = (tuple(-v for v in block) for block in self.blocks)
        return HyperplaneCandidate(*blocks, -self.z)

    def pair_instance(self, padded_rows) -> int:
        """H·(λ_A,λ_B,λ_C) for padded integer row vectors."""
        pairs = zip(self.blocks, padded_rows)
        return sum(h * x for block, lam in pairs for h, x in zip(block, lam))

    @cached_property
    def _split(self) -> tuple[tuple, tuple, tuple]:
        return _level_split(self)

    @cached_property
    def _negative_roots(self) -> tuple[tuple[int, int, int], ...]:
        blocks = self.blocks
        return tuple(
            (b, i, j)
            for b, i, j in negative_roots(self.m)
            if blocks[b][i - 1] < blocks[b][j - 1]
        )


def check_weight_cap(m: int) -> None:
    """Raise KronkitError when work dense in m³ would exceed the rank cap."""
    if m > WEIGHT_CAP:
        raise KronkitError(f"m={m} exceeds the weight materialization cap {WEIGHT_CAP}")


def weights(m: int) -> list[tuple[int, int, int]]:
    """All m³ weights (i, j, l) in canonical lexicographic order."""
    check_weight_cap(m)
    rng = range(1, m + 1)
    return list(product(rng, rng, rng))


def weight_index(m: int, w: Sequence[int]) -> int:
    """Zero-based position of the weight (i, j, l) in ``weights(m)``."""
    i, j, l = w
    for idx in (i, j, l):
        if not 1 <= idx <= m:
            raise KronkitError(f"index {idx} outside 1..{m}")
    return (i - 1) * m * m + (j - 1) * m + (l - 1)


def negative_roots(m: int) -> list[tuple[int, int, int]]:
    """All 3·m(m−1)/2 negative roots (block, i, j), block-major then lexicographic."""
    return [
        (block, i, j)
        for block in range(3)
        for i in range(2, m + 1)
        for j in range(1, i)
    ]


def weight_vector(w: tuple[int, int, int], m: int) -> list[int]:
    """Concatenation (e_i, e_j, e_l) ∈ ℤ^{3m} of the weight w = (i, j, l)."""
    v = [0] * (3 * m)
    for block, idx in enumerate(w):
        v[block * m + idx - 1] = 1
    return v


def _level_split(h: HyperplaneCandidate) -> tuple[tuple, tuple, tuple]:
    """(on, below, above) by the sign of φ·H − z over Φ(h.m), canonical order.

    φ·H = (H_A)_i + (H_B)_j + (H_C)_l for φ = (i, j, l); the loops run over
    the three blocks, so Φ(m) itself is never built.
    """
    h_a, h_b, h_c = h.blocks
    on, below, above = [], [], []
    for i, a in enumerate(h_a, 1):
        for j, b in enumerate(h_b, 1):
            rest = h.z - a - b
            for l, c in enumerate(h_c, 1):
                if c == rest:
                    on.append((i, j, l))
                elif c < rest:
                    below.append((i, j, l))
                else:
                    above.append((i, j, l))
    return tuple(on), tuple(below), tuple(above)


def _check_rank(h: HyperplaneCandidate, m: int) -> None:
    if h.m != m:
        raise KronkitError(f"H has blocks of length {h.m}, expected m={m}")


def split_weights(h: HyperplaneCandidate, m: int) -> tuple[list, list, list]:
    """Partition Φ(m) by the sign of φ·H − z, canonical order preserved.

    Returns fresh lists (on, below, above), copied from the split that ``h``
    computes once and keeps.  ``m`` must be the block length of ``h`` and at
    most the weight cap.
    """
    check_weight_cap(m)
    _check_rank(h, m)
    on, below, above = h._split
    return list(on), list(below), list(above)


def negative_roots_on(h: HyperplaneCandidate, m: int) -> list[tuple[int, int, int]]:
    """The negative roots with α·H < 0, canonical order preserved.

    A fresh list, copied from the roots that ``h`` finds once and keeps.
    """
    _check_rank(h, m)
    return list(h._negative_roots)


def affine_rank(s: list[tuple[int, int, int]], m: int) -> int:
    """Exact rank of the (3m+1)-row matrix with columns (φ_vec; −1).

    For nonempty s that is 1 + the rank of the differences φ − φ₀ (subtract
    the first column from the others).  Each block of a difference sums to
    0, so its last entry follows from the rest: the rank is taken over the
    3(m−1) free coordinates, each block without its last entry, by
    fraction-free elimination on one row per difference.
    """
    if not s:
        return 0
    n = m - 1
    first = s[0]
    rows = []
    for w in s[1:]:
        row = [0] * (3 * n)
        for offset, idx, idx0 in zip((0, n, 2 * n), w, first):
            if idx != idx0:
                if idx < m:
                    row[offset + idx - 1] = 1
                if idx0 < m:
                    row[offset + idx0 - 1] = -1
        rows.append(row)
    return 1 + integer_rank(rows)

"""Weights, negative roots, and the affine geometry they live in.

The ambient space is ℝ^{3m}, three blocks of length m, one per subsystem.
A weight is a triple of basis indices (i,j,l); its vector form is the
concatenation (e_i, e_j, e_l).  There are exactly m³ weights, kept in
lexicographic order on (i,j,l) throughout — this order is part of the
certificate format, not an implementation detail.

Negative roots act inside a single block: e_i − e_j with i > j.  They are
ordered by subsystem A < B < C and then lexicographically by (i,j).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import CapExceeded, ComponentNotTraceless
from .intlinalg import integer_rank

# Materializing Φ(m) costs m³ memory; the default cap keeps accidental
# mega-instances from exhausting the machine.  Raise it deliberately.
DEFAULT_WEIGHT_CAP = 12

SUBSYSTEMS = ("A", "B", "C")


@dataclass(frozen=True)
class Weight:
    """Basis-index triple (i,j,l), 1-based."""

    i: int
    j: int
    l: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.i, self.j, self.l)

    def vector(self, m: int) -> tuple[int, ...]:
        """Concatenation (e_i, e_j, e_l) ∈ ℤ^{3m}."""
        v = [0] * (3 * m)
        v[self.i - 1] = 1
        v[m + self.j - 1] = 1
        v[2 * m + self.l - 1] = 1
        return tuple(v)

    def pair_with(self, h: "HyperplaneCandidate") -> int:
        """φ·H = (H_A)_i + (H_B)_j + (H_C)_l."""
        return h.h_a[self.i - 1] + h.h_b[self.j - 1] + h.h_c[self.l - 1]


@dataclass(frozen=True)
class NegativeRoot:
    """e_i − e_j (i > j) in one subsystem block, zero elsewhere."""

    subsystem: str  # "A" | "B" | "C"
    i: int
    j: int

    def vector(self, m: int) -> tuple[int, ...]:
        v = [0] * (3 * m)
        off = SUBSYSTEMS.index(self.subsystem) * m
        v[off + self.i - 1] = 1
        v[off + self.j - 1] = -1
        return tuple(v)

    def pair_with(self, h: "HyperplaneCandidate") -> int:
        block = (h.h_a, h.h_b, h.h_c)[SUBSYSTEMS.index(self.subsystem)]
        return block[self.i - 1] - block[self.j - 1]


@dataclass(frozen=True)
class HyperplaneCandidate:
    """Blockwise-traceless integer test vector H plus integer level z."""

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

    def validate_traceless(self) -> None:
        for tag, block in zip(SUBSYSTEMS, self.blocks):
            if len(block) != self.m:
                raise ComponentNotTraceless(
                    f"component {tag} has length {len(block)}, expected {self.m}"
                )
            if sum(block) != 0:
                raise ComponentNotTraceless(
                    f"component {tag} of H sums to {sum(block)}, not 0"
                )

    def negated(self) -> "HyperplaneCandidate":
        return HyperplaneCandidate(
            tuple(-v for v in self.h_a),
            tuple(-v for v in self.h_b),
            tuple(-v for v in self.h_c),
            -self.z,
        )

    def pair_instance(self, padded_rows) -> int:
        """H·(λ_A,λ_B,λ_C) for padded integer row vectors."""
        total = 0
        for block, lam in zip(self.blocks, padded_rows):
            total += sum(h * x for h, x in zip(block, lam))
        return total


def check_weight_cap(m: int, cap: int = DEFAULT_WEIGHT_CAP) -> None:
    """Raise CapExceeded when work dense in m³ would exceed the rank cap."""
    if m > cap:
        raise CapExceeded(f"m={m} exceeds the weight materialization cap {cap}")


def weights(m: int, cap: int = DEFAULT_WEIGHT_CAP) -> list[Weight]:
    """All m³ weights in canonical lexicographic order."""
    check_weight_cap(m, cap)
    rng = range(1, m + 1)
    return [Weight(i, j, l) for i, j, l in product(rng, rng, rng)]


def negative_roots(m: int) -> list[NegativeRoot]:
    """All 3·m(m−1)/2 negative roots, subsystem-major then lexicographic."""
    out = []
    for tag in SUBSYSTEMS:
        for i in range(2, m + 1):
            for j in range(1, i):
                out.append(NegativeRoot(tag, i, j))
    return out


def split_weights(
    h: HyperplaneCandidate, m: int
) -> tuple[list[Weight], list[Weight], list[Weight]]:
    """Partition Φ(m) by the sign of φ·H − z, canonical order preserved."""
    on, below, above = [], [], []
    for w in weights(m):
        value = w.pair_with(h)
        if value == h.z:
            on.append(w)
        elif value < h.z:
            below.append(w)
        else:
            above.append(w)
    return on, below, above


def negative_roots_on(h: HyperplaneCandidate, m: int) -> list[NegativeRoot]:
    """The sublist of negative roots with α·H < 0, canonical order preserved."""
    return [a for a in negative_roots(m) if a.pair_with(h) < 0]


def affine_rank(s: list[Weight], m: int) -> int:
    """Exact rank of the (3m+1)-row matrix with columns (φ_vec; −1).

    Computed by fraction-free elimination on the transpose (rank is the same
    and rows are handier than columns here).
    """
    if not s:
        return 0
    mat = [list(w.vector(m)) + [-1] for w in s]
    return integer_rank(mat)

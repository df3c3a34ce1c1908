"""Weights, negative roots, and the affine geometry they live in.

The ambient space is ℝ^{3m}, three blocks of length m, one per subsystem.
A weight is a tuple (i, j, l) of 1-based basis indices; its vector is the
concatenation (e_i, e_j, e_l).  There are exactly m³ weights, kept in
lexicographic order on (i, j, l) throughout — this order is part of the
certificate format, not an implementation detail.

A negative root is a tuple (block, i, j) with block 0, 1, 2 for A, B, C and
i > j: the vector e_i − e_j inside that block, zero elsewhere.  Roots are
ordered by block and then lexicographically by (i, j).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product
from operator import mul

from .errors import KronkitError
from .intlinalg import integer_rank
from .scalars import json_field, json_int, json_list

# Materializing Φ(m) costs m³ memory; the cap keeps accidental
# mega-instances from exhausting the machine.
WEIGHT_CAP = 12

SUBSYSTEMS = ("A", "B", "C")


@dataclass(frozen=True)
class HyperplaneCandidate:
    """Blockwise-traceless integer test vector H plus integer level z.

    Construction refuses all but three blocks of one length m, each summing
    to 0, and any entry or z that is not a plain int (``json_int``), so no
    consumer checks them again.  ``to_json`` and ``from_json`` alone write
    and read the ``{"H": …, "z": …}`` form.

    The level split of Φ(m) and the negatively pairing roots are kept as
    plain attributes of the object, ``_split`` and ``_roots``, each set on
    first use by ``split_weights`` and ``negative_roots_on``.  They are not
    fields, so equality, hashing and repr ignore them, and nothing is keyed
    by value: two equal candidates each compute their own.
    """

    h_a: tuple[int, ...]
    h_b: tuple[int, ...]
    h_c: tuple[int, ...]
    z: int

    # per object, set on first use (no annotation, so not dataclass fields)
    _split = None
    _roots = None

    @property
    def m(self) -> int:
        return len(self.h_a)

    @property
    def blocks(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        return (self.h_a, self.h_b, self.h_c)

    def __post_init__(self) -> None:
        for v in (*self.h_a, *self.h_b, *self.h_c, self.z):
            json_int(v)
        m = len(self.h_a)
        for tag, block in zip(SUBSYSTEMS, self.blocks):
            if len(block) != m:
                raise KronkitError(
                    f"component {tag} has length {len(block)}, expected {m}"
                )
            if sum(block) != 0:
                raise KronkitError(f"component {tag} of H sums to {sum(block)}, not 0")

    def to_json(self) -> dict:
        return {"H": [list(b) for b in self.blocks], "z": self.z}

    @classmethod
    def from_json(cls, obj: dict) -> "HyperplaneCandidate":
        h = json_list(json_field(obj, "H"), "H")
        if len(h) != 3:
            raise KronkitError("H must have exactly three components")
        blocks = (tuple(json_list(block, name)) for block, name in zip(h, _COMPONENTS))
        return cls(*blocks, json_field(obj, "z"))

    def negated(self) -> "HyperplaneCandidate":
        blocks = (tuple(-v for v in block) for block in self.blocks)
        return HyperplaneCandidate(*blocks, -self.z)

    def pair_instance(self, padded_rows) -> int:
        """H·(λ_A,λ_B,λ_C) for padded integer row vectors."""
        lam_a, lam_b, lam_c = padded_rows
        return (
            sum(map(mul, self.h_a, lam_a))
            + sum(map(mul, self.h_b, lam_b))
            + sum(map(mul, self.h_c, lam_c))
        )


_COMPONENTS = tuple(f"component {tag} of H" for tag in SUBSYSTEMS)


def check_weight_cap(m: int) -> None:
    """Raise KronkitError when work dense in m³ would exceed the rank cap."""
    if m > WEIGHT_CAP:
        raise KronkitError(f"m={m} exceeds the weight materialization cap {WEIGHT_CAP}")


def weights(m: int) -> list[tuple[int, int, int]]:
    """All m³ weights (i, j, l) in canonical lexicographic order."""
    check_weight_cap(m)
    rng = range(1, m + 1)
    return list(product(rng, rng, rng))


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


# negative_roots(m) as one tuple per m up to the weight cap, built at import;
# each candidate filters its pairing roots from it
_ROOTS = tuple(tuple(negative_roots(m)) for m in range(WEIGHT_CAP + 1))


def _level_split(h: HyperplaneCandidate) -> tuple[tuple, tuple]:
    """(on, below) by the sign of φ·H − z over Φ(h.m), canonical order.

    φ·H = (H_A)_i + (H_B)_j + (H_C)_l for φ = (i, j, l); the loops run over
    the three blocks, so Φ(m) itself is never built.  No check reads the
    weights above the level, so they are not kept.
    """
    z = h.z
    last = tuple(enumerate(h.h_c, 1))
    on, below = [], []
    for i, a in enumerate(h.h_a, 1):
        for j, b in enumerate(h.h_b, 1):
            rest = z - a - b
            for l, c in last:
                if c == rest:
                    on.append((i, j, l))
                elif c < rest:
                    below.append((i, j, l))
    return tuple(on), tuple(below)


def _check_rank(h: HyperplaneCandidate, m: int) -> None:
    check_weight_cap(m)
    if h.m != m:
        raise KronkitError(f"H has blocks of length {h.m}, expected m={m}")


def split_weights(h: HyperplaneCandidate, m: int) -> tuple[tuple, tuple]:
    """The weights of Φ(m) on and below the level of ``h``, canonical order.

    Returns the tuples (on, below) that ``h`` keeps as its plain attribute
    ``_split``: computed on the first call for this object and read on every
    later one.  ``m`` must be the block length of ``h`` and at most the
    weight cap.
    """
    _check_rank(h, m)
    if h._split is None:
        object.__setattr__(h, "_split", _level_split(h))
    return h._split


def negative_roots_on(h: HyperplaneCandidate, m: int) -> tuple[tuple[int, int, int], ...]:
    """The negative roots with α·H < 0, canonical order preserved.

    Returns the tuple that ``h`` keeps as its plain attribute ``_roots``:
    the roots (b, i, j) with H_b[i] < H_b[j], filtered on the first call for
    this object from the one tuple of all roots of rank m.  ``m`` is checked
    as in ``split_weights``.
    """
    _check_rank(h, m)
    if h._roots is None:
        blocks = h.blocks
        pairing = [(b, i, j) for b, i, j in _ROOTS[m] if blocks[b][i - 1] < blocks[b][j - 1]]
        object.__setattr__(h, "_roots", tuple(pairing))
    return h._roots


def affine_rank(s: Sequence[tuple[int, int, int]], m: int) -> int:
    """Exact rank of the (3m+1)-row matrix with columns (φ_vec; −1).

    For nonempty s that is 1 + the rank of the differences φ − φ₀ (subtract
    the first column from the others).  Block b of a difference is e_t − e_t₀,
    where t and t₀ are the b-th indices of φ and φ₀, so it lies in the
    traceless subspace of that block, and the m − 1 vectors e_t − e_t₀ with
    t ≠ t₀ are a basis of that subspace.  In that basis block b of the
    difference is the unit vector of t, or 0 when t = t₀.  A change of basis
    keeps the rank, so it is taken, by fraction-free elimination, on 0/1
    rows of 3(m−1) columns written block by block: at most three ones each.
    """
    if not s:
        return 0
    n = m - 1
    a0, b0, c0 = s[0]
    # block coordinate of e_t − e_t₀ (t ≠ t₀): t − 1, skipping t₀'s place
    rows = []
    for i, j, l in s[1:]:
        row = [0] * (3 * n)
        if i != a0:
            row[i - 1 - (i > a0)] = 1
        if j != b0:
            row[n + j - 1 - (j > b0)] = 1
        if l != c0:
            row[2 * n + l - 1 - (l > c0)] = 1
        rows.append(row)
    return 1 + integer_rank(rows)

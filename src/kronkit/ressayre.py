"""Hyperplane certificates of non-membership and their exact verifier.

A certificate is a triple ``(H, z, p)``: a blockwise-traceless integer vector
``H`` and an integer level ``z`` (a ``HyperplaneCandidate``, checked traceless
when built or read), and an integer evaluation point ``p`` (the
``witness_point`` field, ``"p"`` in JSON).  The verifier accepts only if

1. the weights lying exactly on the hyperplane φ·H = z affinely span a
   hyperplane of the ambient normalized-spectra space (rank 3(m−1)),
2. as many weights lie strictly below the level as there are negative roots
   pairing negatively with H,
3. the structured determinant built from those two index sets is nonzero at
   the evaluation point, and
4. the instance strictly violates the inequality: H·(λ_A,λ_B,λ_C) < k·z.

All four checks are exact integer arithmetic; an Accept is a proof that the
normalized point lies outside the polytope.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .diagrams import KronInstance
from .errors import KronkitError
from .intlinalg import det_bareiss
from .scalars import json_field, json_int, json_list
from .weights import HyperplaneCandidate, affine_rank, negative_roots_on, split_weights


class Decision(enum.Enum):
    ACCEPT = "Accept"
    REJECT = "Reject"


class Reason(enum.Enum):
    NOT_ADMISSIBLE = "NotAdmissible"
    TRACE_MISMATCH = "TraceMismatch"
    DETERMINANT_VANISHES = "DeterminantVanishes"
    INEQUALITY_NOT_VIOLATED = "InequalityNotViolated"
    IN_THRESHOLD = "InThreshold"
    OUT_OF_THRESHOLD = "OutOfThreshold"


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    reason: Reason | None = None
    # squared gap measured by the membership verifier; not part of the verdict
    gap2: Fraction | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.decision is Decision.REJECT and self.reason is None:
            raise ValueError("a rejection must carry a reason")

    @property
    def accepted(self) -> bool:
        return self.decision is Decision.ACCEPT

    def __str__(self) -> str:
        if self.reason is None:
            return self.decision.value
        return f"{self.decision.value}({self.reason.value})"


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix whose entries are variable slots or structural zeros.

    Row r is ω_r, the r-th below-level weight (``split_weights(h, m)[1]``),
    and column c is α_c, the c-th negatively-pairing root
    (``negative_roots_on(h, m)``), both in canonical order.  ``entries[r][c]``
    is the ordinal of ω_r − α_c within the on-level weight list, or ``None``
    for a structural zero.  ``n_slots`` is the number of on-level weights,
    i.e. the length of a valid evaluation point.
    """

    entries: tuple[tuple[int | None, ...], ...]
    n_slots: int

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RessayreCertificate:
    """(H, z) and an integer point p: a non-int entry is refused when built."""

    h: HyperplaneCandidate
    witness_point: tuple[int, ...]

    def __post_init__(self) -> None:
        for v in self.witness_point:
            json_int(v)

    def to_json(self) -> dict:
        return {**self.h.to_json(), "p": list(self.witness_point)}

    @classmethod
    def from_json(cls, obj: dict) -> "RessayreCertificate":
        h = HyperplaneCandidate.from_json(obj)
        return cls(h, tuple(json_list(json_field(obj, "p"), "p")))


def check_admissible(h: HyperplaneCandidate, m: int) -> bool:
    """True iff the on-level weights affinely span a hyperplane: rank 3(m−1).

    H is traceless by construction, so the rank is all that is left to check.
    The affine rank is at most the number of points, so a level holding
    fewer than 3(m−1) weights fails without an elimination.
    """
    on, _ = split_weights(h, m)
    if len(on) < 3 * (m - 1):
        return False
    return affine_rank(on, m) == 3 * (m - 1)


def check_trace(h: HyperplaneCandidate, m: int) -> bool:
    """True iff #(negatively-pairing roots) = #(below-level weights)."""
    _, below = split_weights(h, m)
    return len(negative_roots_on(h, m)) == len(below)


def build_det_matrix(h: HyperplaneCandidate, m: int) -> PolyMatrix:
    """Assemble the structured matrix of condition 3."""
    on, below = split_weights(h, m)
    roots = negative_roots_on(h, m)
    if len(below) != len(roots):
        raise KronkitError(
            f"{len(below)} below-level weights vs {len(roots)} negative roots"
        )
    slot_of = {w: idx for idx, w in enumerate(on)}
    # α = e_i − e_j in block b moves coordinate b of ω from i to j; ω − α is
    # a structural zero when ω_b ≠ i (it leaves the weight set) or when it
    # lies off the level (it has no slot)
    rows = []
    for w in below:
        row = []
        for b, i, j in roots:
            if w[b] != i:
                row.append(None)
                continue
            diff = list(w)
            diff[b] = j
            row.append(slot_of.get(tuple(diff)))
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows), len(on))


def eval_determinant(matrix: PolyMatrix, p: tuple[int, ...]) -> int:
    """Exact determinant with slot i set to p[i]; empty matrix gives 1."""
    if len(p) != matrix.n_slots:
        raise KronkitError(
            f"evaluation point has length {len(p)}, expected {matrix.n_slots}"
        )
    numeric = [[0 if slot is None else p[slot] for slot in row] for row in matrix.entries]
    return det_bareiss(numeric)


# a verdict is frozen, so one object per outcome serves every verification
_ACCEPT = Verdict(Decision.ACCEPT)
_NOT_ADMISSIBLE = Verdict(Decision.REJECT, Reason.NOT_ADMISSIBLE)
_TRACE_MISMATCH = Verdict(Decision.REJECT, Reason.TRACE_MISMATCH)
_DETERMINANT_VANISHES = Verdict(Decision.REJECT, Reason.DETERMINANT_VANISHES)
_NOT_VIOLATED = Verdict(Decision.REJECT, Reason.INEQUALITY_NOT_VIOLATED)


def verify_nonmembership(inst: KronInstance, cert: RessayreCertificate) -> Verdict:
    """The full exact verifier; Accept proves the point is outside."""
    h = cert.h
    m = inst.m
    if h.m != m:
        raise KronkitError(f"certificate rank {h.m} does not match instance m={m}")
    if not check_admissible(h, m):
        return _NOT_ADMISSIBLE
    if not check_trace(h, m):
        return _TRACE_MISMATCH
    if eval_determinant(build_det_matrix(h, m), cert.witness_point) == 0:
        return _DETERMINANT_VANISHES
    if h.pair_instance(inst.padded_rows()) < inst.k * h.z:
        return _ACCEPT
    return _NOT_VIOLATED


def siegel_bound(m: int) -> int:
    """Exact search-space bound (4m)^{3m} on ∥H∥∞ and |z|."""
    return (4 * m) ** (3 * m)


def min_gap(m: int, k: int) -> Fraction:
    """Exact distance bound 1/(k·(4m)^{4m}) separating outside points."""
    return Fraction(1, k * (4 * m) ** (4 * m))

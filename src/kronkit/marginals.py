"""Witness vectors of membership and their exact verifier.

A membership certificate is a nonzero vector with Gaussian-rational entries
on the m×m×m index grid.  Its three reduced density matrices are computed
exactly (including the normalization), and the certificate is accepted iff
the squared Frobenius distance to the target diagonal triple is at most the
squared acceptance threshold — an exact comparison of two rationals.

The densities are integer Gram matrices over one denominator, the norm² of
the vector scaled to integers; the squared gap is a sum of integer squares,
and the one Fraction built on the way to a verdict is the gap² itself.  A
Gram matrix is positive semidefinite by construction, so no numeric check is
needed.

Floats enter here only through ``truncate``, which turns a float vector (a
demo's, say) into an exact certificate, and through ``_grams``, which the
sampler of :mod:`kronkit.floats` also runs on floats.  The witness search
scales in integers, and the accept/reject decision never touches floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .diagrams import KronInstance
from .errors import KronkitError
from .ressayre import Decision, Reason, Verdict, min_gap
from .scalars import GaussianRational, json_field, json_int, json_ints, json_list
from .weights import check_weight_cap, weights

Entry = tuple[int, int, int]
# a Gram matrix: rows of (re, im) integer pairs
Gram = tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True)
class MembershipCertificate:
    """Sparse nonzero vector on [m]³, m and indices plain ints; absent entries are 0."""

    m: int
    entries: dict[Entry, GaussianRational]

    def __post_init__(self) -> None:
        json_int(self.m)
        cleaned = {}
        for idx, value in self.entries.items():
            if len(idx) != 3:
                raise KronkitError(f"idx {list(idx)} does not have three indices")
            for component in idx:
                if not 1 <= json_int(component) <= self.m:
                    raise KronkitError(f"index {idx} outside 1..{self.m}")
            if not value.is_zero():
                cleaned[idx] = value
        if not cleaned:
            raise KronkitError("certificate has no nonzero entry")
        object.__setattr__(self, "entries", cleaned)

    def to_json(self) -> dict:
        ordered = sorted(self.entries.items())
        return {
            "m": self.m,
            "entries": [
                {"idx": list(idx), **value.to_json()} for idx, value in ordered
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "MembershipCertificate":
        """Read a certificate; an index given twice is refused, not merged."""
        entries = {}
        for item in json_list(json_field(obj, "entries"), "entries"):
            idx = json_ints(json_field(item, "idx"), "idx")  # hashable, for the check
            if idx in entries:
                raise KronkitError(f"index {list(idx)} appears twice")
            entries[idx] = GaussianRational.from_json(item)
        return cls(json_field(obj, "m"), entries)


@dataclass(frozen=True)
class DensityTriple:
    """Exact reduced density matrices G/den, one integer Gram matrix per leg.

    Entry (r, s) of a Gram is the pair (re, im) of the density entry
    (re + i·im)/den.  The triple is kept in lowest terms (den > 0, and den and
    every part of every Gram have gcd 1), so equal densities compare equal.
    Each Gram is Hermitian with trace den.
    """

    grams: tuple[Gram, Gram, Gram]
    den: int

    @property
    def m(self) -> int:
        return len(self.grams[0])


def _common_denominator(values) -> int:
    """Least common multiple of the denominators of Gaussian rationals."""
    return math.lcm(*(q.denominator for v in values for q in (v.re, v.im)))


def _over(q: Fraction, den: int) -> int:
    """The integer q·den; den must be a multiple of q's denominator."""
    return q.numerator * (den // q.denominator)


def _grams(ints: list, m: int) -> list[list]:
    """The three unnormalized Gram matrices, as rows of (re, im) pairs.

    ``ints`` holds (index, re, im) per entry, ints or floats.  One pass over
    the vector groups its entries, per leg, by the two traced-out indices.
    """
    # per leg, the entries grouped by the two traced-out indices
    legs: tuple[dict, dict, dict] = ({}, {}, {})
    for (a, b, c), re, im in ints:
        legs[0].setdefault((b, c), []).append((a - 1, re, im))
        legs[1].setdefault((a, c), []).append((b - 1, re, im))
        legs[2].setdefault((a, b), []).append((c - 1, re, im))
    grams = []
    for groups in legs:
        rows = [[(0, 0)] * m for _ in range(m)]
        for group in groups.values():
            for a, xa, ya in group:
                row = rows[a]
                for b, xb, yb in group:
                    # (xa + i·ya)·conj(xb + i·yb)
                    re, im = row[b]
                    row[b] = (re + xa * xb + ya * yb, im + ya * xb - xa * yb)
        grams.append(rows)
    return grams


def reduced_densities(cert: MembershipCertificate) -> DensityTriple:
    """Exact normalized reduced density matrices of the certificate vector.

    The entries are scaled by their common denominator once; every Gram entry
    and the norm² are then integers, and the densities are the Grams over
    the norm², both divided by their common gcd.  The norm² is the trace of
    any Gram.
    """
    m = cert.m
    den = _common_denominator(cert.entries.values())
    ints = [
        (idx, _over(v.re, den), _over(v.im, den)) for idx, v in cert.entries.items()
    ]
    grams = _grams(ints, m)
    # positive: MembershipCertificate rejects the zero vector
    norm2 = sum(grams[0][r][r][0] for r in range(m))
    g = math.gcd(
        norm2, *(part for gram in grams for row in gram for pair in row for part in pair)
    )
    return DensityTriple(
        tuple(
            tuple(tuple((re // g, im // g) for re, im in row) for row in gram)
            for gram in grams
        ),
        norm2 // g,
    )


def accept_threshold2(m: int, k: int) -> Fraction:
    """(min_gap/2)² = (1/(2k(4m)^{4m}))²: within half the gap, never both verdicts."""
    return (min_gap(m, k) / 2) ** 2


def frobenius_gap2(rho: DensityTriple, inst: KronInstance) -> Fraction:
    """Exact squared Frobenius distance to the padded diagonal targets.

    With densities G/N and targets λ/k, k·G − diag(λ)·N is N·k times the
    difference, an integer matrix; its squared norm over (k·N)² is built as
    the one Fraction.
    """
    if rho.m != inst.m:
        raise KronkitError(f"density rank {rho.m} vs instance m={inst.m}")
    k, den = inst.k, rho.den
    total = 0
    for gram, lam in zip(rho.grams, inst.padded_rows()):
        for r, row in enumerate(gram):
            for s, (re, im) in enumerate(row):
                re *= k
                if r == s:
                    re -= lam[r] * den
                im *= k
                total += re * re + im * im
    return Fraction(total, (k * den) ** 2)


def verify_membership(inst: KronInstance, cert: MembershipCertificate) -> Verdict:
    """Exact accept/reject: squared gap against squared threshold.

    The verdict carries the measured gap² in ``Verdict.gap2``.  Ranks above
    the weight cap raise KronkitError: the densities are dense in m.
    """
    check_weight_cap(inst.m)
    if cert.m != inst.m:
        raise KronkitError(
            f"certificate rank {cert.m} does not match instance m={inst.m}"
        )
    gap2 = frobenius_gap2(reduced_densities(cert), inst)
    if gap2 <= accept_threshold2(inst.m, inst.k):
        return Verdict(Decision.ACCEPT, Reason.IN_THRESHOLD, gap2)
    return Verdict(Decision.REJECT, Reason.OUT_OF_THRESHOLD, gap2)


def required_bits(m: int, k: int) -> int:
    """Bits of truncation precision that guarantee acceptance of exact points.

    Smallest even b with 5·√3·m^{3/4}·2^{−b/2} ≤ 1/D, where accept_threshold2
    is 1/D²; evenness keeps b/2 integral.  Raised to the fourth power, the
    comparison is exact: 16^{b/2} ≥ 5625·m³·D⁴.
    """
    target = 5625 * m**3 * accept_threshold2(m, k).denominator ** 2
    bits = (target - 1).bit_length()  # smallest e with 2^e ≥ target
    half = -(-bits // 4)  # smallest t with 16^t ≥ target
    return 2 * half


def _trunc_scaled(x: float, b: int) -> int:
    """trunc(x·2^b) in integers; the float product overflows once b > 1023."""
    num, den = x.as_integer_ratio()
    return (num << b) // den if num >= 0 else -((-num << b) // den)


def truncate(v, b: int) -> MembershipCertificate:
    """Exact b-bit truncation (toward zero) of a float complex vector.

    ``v`` is a flat sequence of numbers that ``complex()`` reads, indexed in
    the canonical lexicographic order of (a,b,c); its length determines m.
    Resulting entries are rationals with denominator dividing 2^b; entries
    truncated to zero are dropped by the certificate, which raises
    KronkitError when none is left.
    """
    vec = [complex(x) for x in v]
    m = round(len(vec) ** (1 / 3))
    if m**3 != len(vec):
        raise KronkitError(f"vector length {len(vec)} is not a cube")
    scale = 1 << b
    entries = {
        w: GaussianRational(
            Fraction(_trunc_scaled(value.real, b), scale),
            Fraction(_trunc_scaled(value.imag, b), scale),
        )
        for w, value in zip(weights(m), vec)
    }
    return MembershipCertificate(m, entries)

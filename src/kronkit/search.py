"""Desk-scale certificate generation, and the one place a point is decided.

Three generators live here:

* ``enumerate_ressayre`` — complete hyperplane-certificate discovery for
  small m, by iterating over affinely independent weight subsets and solving
  exactly for the level hyperplane they span, in the 3(m−1) free coordinates
  of a traceless H (``_free``);
* ``reduce_irredundant`` — removal of implied inequalities by exact
  linear programming: one standard-form LP per element, the 3(m−1)-row dual
  of "is this inequality implied by the others?", whose integer Farkas
  multipliers alone decide, by one exact check, whether it is dropped;
* ``search_witness`` — construction of membership witnesses, exactly first
  (one rational LP per free support: the diagonal, then cyclic Latin
  supports) and, only when that fails, by seeded float scalings that stop
  at the verifier's threshold: within the face of each committed facet
  tight at the point (the face route), then on all of [m]³; gated by the
  exact verifier.

``decide`` answers either way: a committed element the point violates, as
a nonmembership certificate, or else ``search_witness``'s witness.  The
committed irredundant systems of ranks 2 and 3 ship beside this module as
``facets_m2.json`` and ``facets_m3.json`` (the output of ``kronkit facets
--m 2|3 --irredundant``); ``committed_system`` is their one reader, used by
``decide`` and the face route alike.  The float scaling lives in
:mod:`kronkit.floats`, which this module loads only when it runs; neither it
nor a facet file is loaded by ``import kronkit``.  Everything feeding a
verifier decision is exact.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, isqrt

from .diagrams import KronInstance, YoungDiagram
from .errors import KronkitError, ZeroVector
from .exactlp import solve_lp
from .intlinalg import kernel_vector_if_unique
from .marginals import (
    Entry,
    MembershipCertificate,
    accept_threshold2,
    required_bits,
    truncate,
    verify_membership,
)
from .ressayre import (
    RessayreCertificate,
    build_det_matrix,
    check_admissible,
    check_trace,
    eval_determinant,
    siegel_bound,
    verify_nonmembership,
)
from .scalars import GaussianRational, json_int
from .weights import (
    SUBSYSTEMS,
    HyperplaneCandidate,
    check_weight_cap,
    weight_vector,
    weights,
)

# Weight subsets enumerate_ressayre may visit: admits m = 3 (C(27,6) =
# 296,010 subsets, about 61 µs each) and refuses m = 4 (C(64,9) ≈ 2.75·10¹⁰).
SUBSET_BUDGET = 400_000

# Free supports tried per witness search: the diagonal plus the 144 cyclic
# Latin supports of m = 4, which bounds the LPs of find-witness at any m.
# Above m = 4 they are the first relabellings in order; BENCH_witness.json
# records what they decide on seeded kron > 0 panels at m = 5 and 6.
MAX_FREE_SUPPORTS = 145

# Float64 floor of the scaling's gap²: converged at m = 3 it hovers near
# 1e-31 and dips to 4e-33–3e-32 (1500 passes, seeds 0–2, four points).  The
# fallback is skipped below it: at every m ≥ 4, and at m = 3 from k ≈ 281.
FLOAT_GAP2_FLOOR = 1e-32


def find_point(
    h: HyperplaneCandidate, m: int, seed: int = 0, trials: int = 32
) -> tuple[int, ...] | None:
    """Seeded search for an evaluation point with nonvanishing determinant.

    Points are drawn uniformly from {0,…,m³} per coordinate; the zero-set
    density bound makes each trial succeed with probability ≥ 1 − n/(m³+1).
    Returns None (NotFound) after ``trials`` failures.
    """
    matrix = build_det_matrix(h, m)  # KronkitError if the count condition fails
    if matrix.n == 0:
        return (0,) * matrix.n_slots  # determinant is identically 1
    rng = random.Random(seed)
    hi = m**3
    for _ in range(trials):
        p = tuple(rng.randint(0, hi) for _ in range(matrix.n_slots))
        if eval_determinant(matrix, p) != 0:
            return p
    return None


def _flat(h: HyperplaneCandidate) -> list[int]:
    return [v for block in h.blocks for v in block]


def chamber_inequalities(m: int) -> tuple[HyperplaneCandidate, ...]:
    """The trivial inequalities r_{X,i} ≥ r_{X,i+1}, as r·H ≥ 0 candidates."""
    zero = (0,) * m
    out = []
    for block_idx in range(3):
        for i in range(m - 1):
            blocks = [zero, zero, zero]
            blocks[block_idx] = zero[:i] + (1, -1) + zero[i + 2 :]
            out.append(HyperplaneCandidate(*blocks, 0))
    return tuple(out)


@dataclass(frozen=True)
class FacetSystem:
    """Verified hyperplane certificates of rank m, plus the chamber.

    Every hyperplane, element or chamber inequality, is checked where the
    system is built: it has rank m, and ∥H∥∞ and |z| are at most
    ``siegel_bound(m)``.  Tracelessness, which the dual LP of
    ``reduce_irredundant`` relies on, holds for any ``HyperplaneCandidate``.
    """

    m: int
    nontrivial: tuple[RessayreCertificate, ...]
    chamber: tuple[HyperplaneCandidate, ...]

    def __post_init__(self) -> None:
        bound = siegel_bound(self.m)
        for h in (*(e.h for e in self.nontrivial), *self.chamber):
            if h.m != self.m:
                raise KronkitError(
                    f"hyperplane of rank {h.m} in a facet system of rank {self.m}"
                )
            if max(abs(v) for v in (*_flat(h), h.z)) > bound:
                raise KronkitError(f"element exceeds the search-space bound {bound}")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "nontrivial": [e.to_json() for e in self.nontrivial],
            "chamber": {
                "inequalities": [h.to_json() for h in self.chamber],
                "equalities": [
                    {"block": tag, "sum": 1} for tag in SUBSYSTEMS
                ],
            },
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FacetSystem":
        m = json_int(obj["m"])
        elements = tuple(
            RessayreCertificate.from_json(e) for e in obj["nontrivial"]
        )
        return cls(m, elements, chamber_inequalities(m))


def _canonical_sign(vec: list[int]) -> tuple[int, ...]:
    for v in vec:
        if v != 0:
            return tuple(vec) if v > 0 else tuple(-x for x in vec)
    return tuple(vec)


def _free(h: HyperplaneCandidate) -> list[int]:
    """The 3(m−1) free coordinates of a traceless H: each block but its last."""
    return [v for block in h.blocks for v in block[:-1]]


def _traceless(v: tuple[int, ...], m: int) -> HyperplaneCandidate:
    """Inverse of ``_free``, z appended; unimodular, keeps the first nonzero."""
    blocks = (v[b * (m - 1) : (b + 1) * (m - 1)] for b in range(3))
    return HyperplaneCandidate(*(b + (-sum(b),) for b in blocks), v[-1])


def enumerate_ressayre(m: int, seed: int = 0) -> FacetSystem:
    """Complete enumeration of hyperplane certificates at rank m.

    Every admissible level hyperplane is affinely spanned by 3(m−1) of the
    m³ weights, so iterating over affinely independent subsets and solving
    the exact system H·φ = z in the 3(m−1) free coordinates of H and z finds
    every candidate (H,z) up to scale.  It is checked admissible once (−H has
    the same on-level weights); both orientations then run the trace and
    determinant checks.  Survivors come with their evaluation points, in
    order of first discovery.
    """
    check_weight_cap(m)  # before comb(), which is slow for huge m
    subset_size = 3 * (m - 1)
    total = comb(m**3, subset_size)
    if total > SUBSET_BUDGET:
        raise KronkitError(
            f"{total} subsets at m={m} exceed the budget of {SUBSET_BUDGET}"
        )
    # entry[i] is H_X[i] in free coordinates: a unit vector, all −1 at i = m
    entry = [[int(i == j) for j in range(1, m)] for i in range(m + 1)]
    entry[m] = [-1] * (m - 1)
    weight_rows = [entry[i] + entry[j] + entry[l] + [-1] for i, j, l in weights(m)]

    seen: set[tuple[int, ...]] = set()
    elements: list[RessayreCertificate] = []
    for subset in combinations(range(m**3), subset_size):
        v = kernel_vector_if_unique([weight_rows[i] for i in subset])
        if v is None:
            continue
        key = _canonical_sign(v)
        if key in seen:
            continue
        seen.add(key)
        base = _traceless(key, m)
        if not check_admissible(base, m):
            continue
        for h in (base, base.negated()):
            if not check_trace(h, m):
                continue
            p = find_point(h, m, seed=seed, trials=64)
            if p is None:
                continue
            elements.append(RessayreCertificate(h, p))
    return FacetSystem(m, tuple(elements), chamber_inequalities(m))


def _implied(columns, y, d: int, h: HyperplaneCandidate) -> bool:
    """Whether y/d proves r·H ≥ z: Σ yᵢzᵢ ≥ d·z, given y ≥ 0 and Σ yᵢHᵢ = d·H.

    The givens are checked on all 3m coordinates.  A failure is the LP
    solver's fault, not the input's, so it raises a non-KronkitError.
    """
    flats = [_flat(c) for c in columns]
    combined = [sum(yi * f[i] for yi, f in zip(y, flats)) for i in range(3 * h.m)]
    if min(y, default=0) < 0 or combined != [d * v for v in _flat(h)]:
        raise RuntimeError(f"LP multipliers do not solve Σ yᵢHᵢ = d·H for {h}")
    return sum(yi * c.z for yi, c in zip(y, columns)) >= d * h.z


def reduce_irredundant(fs: FacetSystem) -> FacetSystem:
    """Drop every inequality implied by the rest plus the chamber.

    Elements are tested in order against the ones still kept, by one exact
    LP each: the dual described in :mod:`kronkit.exactlp`, minimize −z·y
    subject to Σ yᵢHᵢ = H_e on the free coordinates, y ≥ 0, with a column per
    other element and then per chamber inequality.  e is dropped iff the LP
    is optimal and its integer multipliers pass ``_implied``.  An unbounded
    or infeasible dual (infeasible or unbounded primal) keeps e.
    """
    active = list(fs.nontrivial)
    for element in list(active):
        columns = [e.h for e in active if e is not element] + list(fs.chamber)
        a_eq = list(zip(*(_free(h) for h in columns)))
        lp = solve_lp([-h.z for h in columns], a_eq, _free(element.h))
        if lp.status == "optimal" and _implied(columns, lp.x, lp.d, element.h):
            active.remove(element)
    return FacetSystem(fs.m, tuple(active), fs.chamber)


# ---------------------------------------------------------------------------
# membership witnesses


def _dyadic_sqrt(num: int, den: int, bits: int) -> Fraction:
    """Largest multiple of 2^−bits whose square is ≤ num/den (exact when possible)."""
    root = isqrt(num * den)  # √(num/den) is rational iff num·den is a square
    if root * root == num * den:
        return Fraction(root, den)
    return Fraction(isqrt((num << 2 * bits) // den), 1 << bits)


def free_supports(m: int) -> Iterator[tuple[Entry, ...]]:
    """The free supports tried for an exact witness, in their fixed order.

    A support S ⊂ [m]³ is free when no two of its indices differ in exactly
    one coordinate; then every reduced density of a vector on S is diagonal.
    First comes the diagonal {(i,i,i)}, then the cyclic Latin supports
    {(σ(i), τ(j), l) : i + j + l ≡ c (mod m)}, with (σ, τ, c) in
    lexicographic order and repeated sets skipped.  At most
    ``MAX_FREE_SUPPORTS`` are yielded: every relabelling up to m = 4, the
    first ones in this order above.  Supports are built lazily, so a
    witness on the diagonal costs no Latin square.
    """
    diagonal = tuple((i, i, i) for i in range(1, m + 1))
    yield diagonal
    seen = {diagonal}
    # nested loops, not itertools.product, which would list all m! perms
    for sigma in permutations(range(m)):
        for tau in permutations(range(m)):
            for c in range(m):
                if len(seen) == MAX_FREE_SUPPORTS:
                    return
                support = tuple(sorted(
                    (sigma[i] + 1, tau[j] + 1, (c - i - j) % m + 1)
                    for i in range(m)
                    for j in range(m)
                ))
                if support not in seen:
                    seen.add(support)
                    yield support


def _exact_witness(inst: KronInstance) -> MembershipCertificate | None:
    """The first free-support witness that verify_membership accepts, or None.

    On a free support S the marginals of Σ_{s∈S} √(x_s/k)|s⟩ are diagonal,
    entry i of block X being Σ_{s_X = i} x_s/k.  So x ≥ 0 with block sums
    λ_A, λ_B, λ_C is one standard-form LP (objective 0, one row per block
    entry), and its rational solution, truncated to required_bits, is the
    candidate.  The supports are those of r = the largest diagram height,
    not of m: indices in [r]³ are indices in [m]³, so an instance padded by
    an m override is decided exactly as at its natural rank.
    """
    r = max(d.height for d in inst.diagrams)
    bits = required_bits(inst.m, inst.k)
    b_eq = [v for d in inst.diagrams for v in d.padded(r)]
    for support in free_supports(r):
        columns = [weight_vector(s, r) for s in support]
        result = solve_lp([0] * len(support), [list(c) for c in zip(*columns)], b_eq)
        if result.status != "optimal":
            continue
        cert = MembershipCertificate(inst.m, {
            s: GaussianRational(_dyadic_sqrt(x, inst.k * result.d, bits))
            for s, x in zip(support, result.x)
        })
        if verify_membership(inst, cert).accepted:
            return cert
    return None


def _uniform(d: YoungDiagram) -> bool:
    """Whether a diagram is a rectangle, its spectrum uniform on its support."""
    return len(set(d.rows)) == 1


def committed_system(m: int) -> FacetSystem | None:
    """The committed irredundant facet system of rank m, or None.

    It ships for m = 2 and 3 as ``facets_m{m}.json`` and is read from the
    package on each call; every other rank has none.
    """
    if m not in (2, 3):
        return None
    import json  # imported here, like floats, so that import kronkit stays lean
    from importlib.resources import files

    text = files(__package__).joinpath(f"facets_m{m}.json").read_text(encoding="utf-8")
    return FacetSystem.from_json(json.loads(text))


def _tight_faces(inst: KronInstance) -> list[HyperplaneCandidate]:
    """The hyperplanes of the face route, in committed order.

    They are the elements of ``committed_system(inst.m)`` that are tight at
    the point, H·λ = k·z on the padded rows, and have at least two nonzero
    blocks.  A positivity element such as λ_A[3] ≥ 0 is skipped: its level
    set only drops a row whose target is 0, which the plain scaling's first
    step already zeroes.
    """
    system = committed_system(inst.m)
    if system is None:
        return []
    rows = inst.padded_rows()
    return [
        e.h for e in system.nontrivial
        if sum(any(block) for block in e.h.blocks) >= 2
        and e.h.pair_instance(rows) == inst.k * e.h.z
    ]


def _accepted(inst: KronInstance, vector) -> MembershipCertificate | None:
    """The vector truncated to required_bits, if verify_membership accepts it."""
    try:
        cert = truncate(vector, required_bits(inst.m, inst.k))
    except ZeroVector:
        return None
    return cert if verify_membership(inst, cert).accepted else None


def search_witness(inst: KronInstance, seed: int = 0) -> MembershipCertificate | None:
    """Find a certificate that passes the exact membership verifier.

    Exact route first: one LP per free support (``free_supports``), whose
    rational solution gives the amplitudes.  Only if none is accepted do the
    float routes run, skipped where their stop, accept_threshold2/4 (room for
    truncation), is below ``FLOAT_GAP2_FLOOR``.  The face route scales within
    the face of each committed element tight at the point (``_tight_faces``),
    where the plain scaling stalls; then the plain route scales in the face
    of the zero hyperplane, whose level set is all of [m]³.  Each is one
    ``floats.scale`` from one start drawn from ``seed``.
    Every candidate is truncated to required_bits and returned only if
    verify_membership accepts it.
    """
    check_weight_cap(inst.m)
    low, mid, r = sorted(d.height for d in inst.diagrams)
    if r > low * mid:  # rank ρ_X = rank ρ_YZ ≤ rank ρ_Y · rank ρ_Z: no state
        return None
    a, b, c = inst.diagrams
    for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
        # ρ_X uniform of rank h_Y·h_Z forces ρ_YZ = I/(h_Y·h_Z): uniform ρ_Y, ρ_Z
        if x.height == y.height * z.height and _uniform(x):
            if not (_uniform(y) and _uniform(z)):
                return None
    cert = _exact_witness(inst)
    if cert is not None:
        return cert
    # At r ≤ 2 the block sums fix x on the support {111, 122, 212, 221}, and
    # x ≥ 0 exactly under the Higuchi–Sudbery–Szulc inequalities that cut out
    # the qubit polytope, so the exact route has decided every member.
    if r <= 2:
        return None
    stop = float(accept_threshold2(inst.m, inst.k) / 4)
    if stop < FLOAT_GAP2_FLOOR:
        return None
    from . import floats  # numpy loads only when a scaling runs
    zero = (0,) * inst.m
    for h in [*_tight_faces(inst), HyperplaneCandidate(zero, zero, zero, 0)]:
        cert = _accepted(inst, floats.scale(inst, seed, stop, h))
        if cert is not None:
            return cert
    return None


def decide(
    inst: KronInstance, seed: int = 0
) -> RessayreCertificate | MembershipCertificate | None:
    """A certificate for the point on whichever side of the polytope it lies.

    The first element of ``committed_system(inst.m)`` that the point
    violates, H·λ < k·z on the padded rows, is returned if
    verify_nonmembership accepts it; otherwise ``search_witness(inst,
    seed)``, whose witness verify_membership has accepted.  None means
    neither side was certified: at m ≥ 4 no system is committed, and the
    witness search can miss.
    """
    system = committed_system(inst.m)
    if system is not None:
        rows = inst.padded_rows()
        violated = next(
            (e for e in system.nontrivial if e.h.pair_instance(rows) < inst.k * e.h.z),
            None,
        )
        if violated is not None and verify_nonmembership(inst, violated).accepted:
            return violated
    return search_witness(inst, seed)

"""Desk-scale certificate generation, and the one place a point is decided.

Two generators live here:

* ``enumerate_ressayre`` — complete hyperplane-certificate discovery for
  small m, by iterating over affinely independent weight subsets and solving
  exactly for the level hyperplane they span, in the 3(m−1) free coordinates
  of a traceless H, each block but its last entry (``_traceless``);
* ``reduce_irredundant`` — removal of implied inequalities by exact
  linear programming: one feasibility LP per element, the (3m−2)-row affine
  Farkas system of "is this inequality implied by the others?" in chamber
  coordinates, where each chamber inequality is a unit column, whose
  integer multipliers alone decide, by one exact check, whether it is dropped.

``decide`` answers either way, in one order: the rank inequalities, which
every state obeys; an exact witness (the diagonal, which needs no LP and is
tried only on three equal rows, then one rational LP per cyclic Latin
support); one scan of the committed system at r, the largest height, whose
first violated element is a nonmembership certificate; and only then seeded
fixed-point scalings (:mod:`kronkit.scaling`) that stop at the verifier's
threshold, within the face of each committed facet tight at the point (the
face route) and then on all of [r]³ (the plain route), gated by the exact
verifier.
``search_witness`` is its witness half.  The committed irredundant systems of
ranks 2 and 3 ship beside this module as ``facets_m2.json`` and
``facets_m3.json`` (the output of ``kronkit facets --m 2|3 --irredundant``);
``committed_system`` is their reader, called at most once per point: at r
after an exact miss, at m where a rank inequality fails, not at all when the
exact route decides.  No facet file is loaded by ``import kronkit``.
Everything feeding a verifier decision is exact.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, islice, permutations
from math import comb, isqrt

from .diagrams import KronInstance
from .errors import KronkitError
from .exactlp import solve_lp
from .intlinalg import kernel_vector_if_unique
from .marginals import (
    Entry,
    MembershipCertificate,
    accept_threshold2,
    required_bits,
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
from .scalars import GaussianRational, json_field, json_int, json_list
from .scaling import scale
from .weights import SUBSYSTEMS, HyperplaneCandidate, check_weight_cap, weights

# Weight subsets enumerate_ressayre may visit: admits m = 3 (C(27,6) =
# 296,010 subsets, about 61 µs each) and refuses m = 4 (C(64,9) ≈ 2.75·10¹⁰).
SUBSET_BUDGET = 400_000

# Free supports tried per witness search: the diagonal plus the 144 cyclic
# Latin supports of m = 4, one LP each, which bounds the LPs of find-witness
# at any m.
# Above m = 4 they are the first relabellings in order; BENCH_witness.json
# records what they decide on seeded kron > 0 panels at m = 5 and 6.
MAX_FREE_SUPPORTS = 145

def find_point(
    h: HyperplaneCandidate, m: int, seed: int = 0, trials: int = 64
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
    ``siegel_bound(m)``.  Tracelessness, which the chamber coordinates of
    ``reduce_irredundant`` rely on, holds for any ``HyperplaneCandidate``.
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
        m = json_int(json_field(obj, "m"))
        nontrivial = json_list(json_field(obj, "nontrivial"), "nontrivial")
        elements = tuple(map(RessayreCertificate.from_json, nontrivial))
        return cls(m, elements, chamber_inequalities(m))


def _canonical_sign(vec: list[int]) -> tuple[int, ...]:
    for v in vec:
        if v != 0:
            return tuple(vec) if v > 0 else tuple(-x for x in vec)
    return tuple(vec)


def _chamber_coordinates(h: HyperplaneCandidate) -> list[int]:
    """(H, z) in the coordinates of the chamber: P_1, …, P_{m−1} per block,
    P_i = h_1 + … + h_i, then −z.

    On a traceless block h·r = Σ_{i<m} P_i·(r_i − r_{i+1}) (summation by
    parts), so r_{X,i} ≥ r_{X,i+1} maps to the unit vector e_{X,i}.  The map
    is unimodular: lower triangular with unit diagonal on each block, −1 on z.
    """
    partial = [sum(block[: i + 1]) for block in h.blocks for i in range(h.m - 1)]
    return partial + [-h.z]


def _traceless(v: tuple[int, ...], m: int) -> HyperplaneCandidate:
    """The traceless H with v as each block but its last entry, z = v[-1].

    Unimodular, and it keeps the first nonzero, so a canonical sign survives.
    """
    blocks = (v[b * (m - 1) : (b + 1) * (m - 1)] for b in range(3))
    return HyperplaneCandidate(*(b + (-sum(b),) for b in blocks), v[-1])


def enumerate_ressayre(m: int, seed: int = 0) -> FacetSystem:
    """Complete enumeration of hyperplane certificates at rank m.

    Every admissible level hyperplane is affinely spanned by 3(m−1) of the
    m³ weights, so iterating over affinely independent subsets and solving
    the exact system H·φ = z in the 3(m−1) free coordinates of H and z finds
    every candidate (H,z) up to scale.  Each is admissible: nullity one makes
    the subset's 3(m−1) weights affinely independent on its level, and H ≠ 0
    (H = 0 forces z = 0), so a failed ``check_admissible``, run once as −H
    has the same level set, is a bug.  Both orientations then run the trace
    and determinant checks; survivors keep their points, in discovery order.
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
            raise RuntimeError(f"the kernel of a weight subset is not admissible: {base}")
        for h in (base, base.negated()):
            if not check_trace(h, m):
                continue
            p = find_point(h, m, seed=seed)
            if p is None:
                continue
            elements.append(RessayreCertificate(h, p))
    return FacetSystem(m, tuple(elements), chamber_inequalities(m))


def _implied(columns, y, d: int, h: HyperplaneCandidate) -> None:
    """Check that y/d proves r·H ≥ z: y ≥ 0, Σ yᵢHᵢ = d·H and Σ yᵢzᵢ ≥ d·z.

    The equality is checked on all 3m coordinates, summing the columns with
    yᵢ ≠ 0 only.  A feasible Farkas system's multipliers pass every check
    (its z row reads Σ yᵢzᵢ = d·z + s, s ≥ 0), so a failure is the LP
    solver's fault, not the input's, and raises a non-KronkitError.
    """
    combined = [0] * (3 * h.m)
    for yi, c in zip(y, columns):
        if yi:
            combined = [a + yi * v for a, v in zip(combined, _flat(c))]
    if min(y, default=0) < 0 or combined != [d * v for v in _flat(h)]:
        raise RuntimeError(f"LP multipliers do not solve Σ yᵢHᵢ = d·H for {h}")
    if sum(yi * c.z for yi, c in zip(y, columns)) < d * h.z:
        raise RuntimeError(f"LP multipliers do not prove Σ yᵢzᵢ ≥ d·z for {h}")


def reduce_irredundant(fs: FacetSystem) -> FacetSystem:
    """Drop every inequality implied by the rest plus the chamber.

    Elements are tested in order against the ones still kept, by one exact
    feasibility LP each, the affine Farkas system of :mod:`kronkit.exactlp`
    in chamber coordinates (``_chamber_coordinates``, one map per hyperplane
    per reduction): y ≥ 0 and s ≥ 0 with Σ yᵢ·c(Hᵢ) + s·e_z = c(H_e), a
    column per other element, per chamber inequality, then s.  The chamber
    columns and s are unit vectors, so phase 1 starts on them in every row
    where c(H_e) is ≥ 0, and an element with c(H_e) ≥ 0, which holds on the
    whole chamber, drops with no pivot.  e is dropped iff the system is
    feasible, and ``_implied`` re-checks its integer multipliers as the
    proof of the drop, raising if they are none.
    """
    active = [(e, _chamber_coordinates(e.h)) for e in fs.nontrivial]
    chamber = [_chamber_coordinates(h) for h in fs.chamber]
    s_col = (0,) * (3 * fs.m - 3) + (1,)
    for pair in list(active):
        element, target = pair
        others = [p for p in active if p is not pair]
        a_eq = list(zip(*(c for _, c in others), *chamber, s_col))
        lp = solve_lp(a_eq, target)
        columns = [e.h for e, _ in others] + list(fs.chamber)
        if lp.status == "optimal":
            _implied(columns, lp.x[:-1], lp.d, element.h)
            active.remove(pair)
    return FacetSystem(fs.m, tuple(e for e, _ in active), fs.chamber)


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
    {(σ(i), τ(j), l) : i + j + l ≡ c (mod m)}, the graphs of (a, b) ↦
    c − σ⁻¹(a) − τ⁻¹(b) mod m.  Rotating σ or τ only shifts c, so fixing
    σ(1) = τ(1) = 1 lists each once, m·((m−1)!)² in all (at m = 1 it is the
    diagonal), in the lexicographic order of (σ, τ, c), which is their order
    of first occurrence over all (σ, τ, c).  At most ``MAX_FREE_SUPPORTS``
    are yielded: at m = 4 the diagonal and all 144 cyclic supports, whose
    symbol map is fixed up to a shift, not all 576 Latin squares of order 4;
    above, the first ones in this order.  Built lazily, a witness on the
    diagonal costs no Latin square; each is sorted, fixing its LP's column order.
    """
    yield tuple((i, i, i) for i in range(1, m + 1))
    if m == 1:
        return
    rest = range(1, m)
    latin = (  # lazy: there are ((m−1)!)² pairs (σ, τ)
        tuple(sorted(
            (a + 1, b + 1, (c - i - j) % m + 1)
            for i, a in enumerate((0, *sigma)) for j, b in enumerate((0, *tau))
        ))
        for sigma in permutations(rest) for tau in permutations(rest) for c in range(m)
    )
    yield from islice(latin, MAX_FREE_SUPPORTS - 1)


def _exact_witness(inst: KronInstance) -> MembershipCertificate | None:
    """The witness on the first free support that carries the point, or None.

    On a free support S the marginals of Σ_{s∈S} √(x_s/k)|s⟩ are diagonal,
    entry i of block X being Σ_{s_X = i} x_s/k.  So x ≥ 0 with block sums
    λ_A, λ_B, λ_C is one standard-form feasibility LP (one row per block
    entry), and its rational solution, truncated to required_bits, is the
    witness.  The diagonal needs no LP: its system says x = λ_A = λ_B =
    λ_C, so it is taken exactly when the three rows are equal, and then x =
    λ, that LP's one solution, gives its amplitudes; otherwise the first
    Latin support whose LP is feasible gives them.  required_bits makes
    verify_membership accept every such truncation, so a rejection is a
    bug and raises a non-KronkitError.  The supports are those of r = the
    largest diagram height, not of m: indices in [r]³ are indices in [m]³,
    so an instance padded by an m override is decided exactly as at its
    natural rank.
    """
    r = inst.height
    supports = free_supports(r)
    support, x, d = next(supports), inst.lambda_A.rows, 1
    if not (x == inst.lambda_B.rows == inst.lambda_C.rows):
        b_eq = [v for diagram in inst.diagrams for v in diagram.padded(r)]
        rows = [(b, i) for b in range(3) for i in range(1, r + 1)]  # b_eq's order
        for support in supports:
            result = solve_lp([[int(s[b] == i) for s in support] for b, i in rows], b_eq)
            if result.status == "optimal":
                x, d = result.x, result.d
                break
        else:
            return None
    bits = required_bits(inst.m, inst.k)
    cert = MembershipCertificate(inst.m, {
        s: GaussianRational(_dyadic_sqrt(xs, inst.k * d, bits))
        for s, xs in zip(support, x)
    })
    if not verify_membership(inst, cert).accepted:
        raise RuntimeError(f"verify_membership rejects the exact witness for {inst}")
    return cert


def _rank_inequalities_hold(inst: KronInstance) -> bool:
    """Whether the rank inequalities, which every state obeys, hold.

    They are Σ_{i>ab} λ_X[i] ≤ Σ_{j>a} λ_Y[j] + Σ_{l>b} λ_Z[l] for each party
    X, Y and Z the others, and a, b ≥ 1 with ab < r, the largest height.
    Project ψ onto the top a eigenvectors of ρ_Y ⊗ the top b of ρ_Z: the
    part kept has X-rank ≤ ab, and as 1 − P_Y⊗P_Z ≤ (1 − P_Y) + (1 − P_Z)
    the part lost has norm² ≤ the right side, which by Eckart–Young bounds
    the left.  (a, b) = (h_Y, h_Z) gives h_X ≤ h_Y·h_Z; (h_Y − 1, h_Z) and
    (h_Y, h_Z − 1) make a uniform λ_X of height h_Y·h_Z force uniform λ_Y
    and λ_Z.  At r = 2 the (1, 1) cases are Higuchi–Sudbery–Szulc, under
    which the exact route decides every point, on {111, 122, 212, 221}.
    """
    r = inst.height
    tails = [[sum(d.rows[n:]) for n in range(r)] for d in inst.diagrams]
    return all(
        tails[x][a * b] <= tails[y][a] + tails[z][b]
        for x, y, z in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
        for a in range(1, r) for b in range(1, (r - 1) // a + 1)
    )


def committed_system(m: int) -> FacetSystem | None:
    """The committed irredundant facet system of rank m, or None.

    It ships for m = 2 and 3 as ``facets_m{m}.json`` and is read from the
    package on each call; every other rank has none.
    """
    if m not in (2, 3):
        return None
    import json  # imported here, so that import kronkit stays lean
    from importlib.resources import files

    text = files(__package__).joinpath(f"facets_m{m}.json").read_text(encoding="utf-8")
    return FacetSystem.from_json(json.loads(text))


def _scan(
    inst: KronInstance, system: FacetSystem | None
) -> tuple[RessayreCertificate | None, list[HyperplaneCandidate]]:
    """(cut, faces): each element of ``system`` paired with the point once.

    ``system`` has rank ``inst.m`` or is None.  The cut is the first element
    violated (H·λ < k·z on the padded rows), or None.  Every committed
    element is a verified certificate, so verify_nonmembership accepts the
    cut, and a refusal is a bug that raises a non-KronkitError.  The faces
    are the elements tight at the point (H·λ = k·z) with at least two
    nonzero blocks, in committed order.  A positivity element such as
    λ_A[3] ≥ 0 opens no face: its level set only drops a row whose target
    is 0, which the plain scaling's start already zeroes.
    """
    rows, cut, faces = inst.padded_rows(), None, []
    for e in system.nontrivial if system else ():
        gap = e.h.pair_instance(rows) - inst.k * e.h.z
        if gap < 0 and cut is None:
            cut = e
        elif gap == 0 and sum(map(any, e.h.blocks)) >= 2:
            faces.append(e.h)
    if cut is not None and not verify_nonmembership(inst, cut).accepted:
        raise RuntimeError(f"verify_nonmembership refuses the committed cut {cut.h}")
    return cut, faces


def _scaled_witness(
    inst: KronInstance, h: HyperplaneCandidate, seed: int
) -> MembershipCertificate | None:
    """One seeded scaling in the face of (H, z), if verify_membership accepts it.

    ``h`` has rank r, the largest diagram height, and the scaling runs on
    [r]³; its vector, at the precision and threshold of ``inst.m``, is a
    vector on [m]³ too, as the exact route's is.
    """
    bits = required_bits(inst.m, inst.k)
    rows = tuple(d.padded(h.m) for d in inst.diagrams)
    vector = scale(rows, inst.k, h, seed, bits, accept_threshold2(inst.m, inst.k) / 4)
    if not vector:
        return None
    cert = MembershipCertificate(inst.m, {
        s: GaussianRational(Fraction(x, 1 << bits), Fraction(y, 1 << bits))
        for s, (x, y) in vector.items()
    })
    return cert if verify_membership(inst, cert).accepted else None


def decide(
    inst: KronInstance, seed: int = 0
) -> RessayreCertificate | MembershipCertificate | None:
    """A certificate for the point on whichever side of the polytope it lies.

    Where a rank inequality fails (``_rank_inequalities_hold``) no witness
    is sought, and ``committed_system(inst.m)`` is read for a certificate
    only.  Else the exact route runs (``_exact_witness``: the diagonal
    without an LP, then one LP per Latin support); after a miss ``_scan``
    reads ``committed_system(r)``, r the largest height: its cut is the
    answer at r = m, and rules out every witness under an ``m`` override.
    Only then does ``scaling.scale`` run at r, seeded, in the face of each
    tight element the scan found, then on all of [r]³.  A vector counts only
    if verify_membership accepts it.  None: neither side certified.
    """
    check_weight_cap(inst.m)
    r = inst.height
    natural = replace(inst, m=r)
    if not _rank_inequalities_hold(natural):
        return _scan(inst, committed_system(inst.m))[0]
    cert = _exact_witness(inst)
    if cert is not None:
        return cert
    # A state on [m]³ with these spectra lives on [r]³, so a rank-r element
    # that cuts the point off rules out every witness.  Only the rank-r
    # system is read.  The rank-m one differs only under an override with
    # m ≤ 3, since no other rank ships a system, and then r ≤ 2.  At r ≤ 2
    # the rank inequalities, Higuchi–Sudbery–Szulc, are complete, so no
    # verified rank-m element cuts off a point that they admit.
    cut, faces = _scan(natural, committed_system(r))
    if cut is not None:
        return cut if r == inst.m else None
    zero = (0,) * r
    for h in [*faces, HyperplaneCandidate(zero, zero, zero, 0)]:
        cert = _scaled_witness(inst, h, seed)
        if cert is not None:
            return cert
    return None


def search_witness(inst: KronInstance, seed: int = 0) -> MembershipCertificate | None:
    """``decide``'s answer when it is a witness, verified; else None."""
    cert = decide(inst, seed)
    return cert if isinstance(cert, MembershipCertificate) else None

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from kronkit import floats, search
from kronkit.cli import main
from kronkit.diagrams import make_instance, parse_young
from kronkit.errors import KronkitError
from kronkit.exactlp import LPResult, solve_lp
from kronkit.floats import sample_spectra, spectra_csv
from kronkit.intlinalg import kernel_vector_if_unique
from kronkit.marginals import (
    accept_threshold2,
    frobenius_gap2,
    reduced_densities,
    verify_membership,
)
from kronkit.oracle import kron_coeff, partitions
from kronkit.ressayre import (
    Decision,
    Reason,
    RessayreCertificate,
    Verdict,
    build_det_matrix,
    check_admissible,
    check_trace,
    eval_determinant,
    verify_nonmembership,
)
from kronkit.search import (
    FacetSystem,
    chamber_inequalities,
    committed_system,
    decide,
    enumerate_ressayre,
    find_point,
    reduce_irredundant,
    search_witness,
)
from kronkit.weights import HyperplaneCandidate, split_weights, weight_vector, weights

H_WORKED = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -1)
FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"


def inst(rows_a, rows_b, rows_c, k, m=None):
    return make_instance(
        parse_young(rows_a), parse_young(rows_b), parse_young(rows_c), k,
        m_override=m,
    )


def test_find_point_worked():
    p = find_point(H_WORKED, 2, seed=0)
    assert p is not None and len(p) == 3
    assert p[0] != 0  # the 1×1 determinant is the first slot


def test_find_point_empty_matrix():
    h = HyperplaneCandidate((0, 0), (0, 0), (0, 0), -1)
    assert find_point(h, 2) == ()


def test_find_point_structurally_singular():
    # this candidate passes the count condition but its matrix has an
    # all-zero row, so the determinant vanishes identically
    h = HyperplaneCandidate((-2, 2), (3, -3), (3, -3), -3)
    mat = build_det_matrix(h, 2)
    assert any(all(s is None for s in row) for row in mat.entries)
    assert find_point(h, 2, trials=16) is None


def test_element_rejects_oversized_coordinates():
    # siegel_bound(2) = 8^6 = 262144
    huge = RessayreCertificate(
        HyperplaneCandidate((300000, -300000), (0, 0), (0, 0), 0), ()
    )
    with pytest.raises(KronkitError, match="search-space bound 262144") as exc:
        FacetSystem(2, (huge,), chamber_inequalities(2))
    assert exc.type is KronkitError
    with pytest.raises(KronkitError, match="search-space bound 262144"):
        FacetSystem.from_json({"m": 2, "nontrivial": [huge.to_json()]})


def test_element_rejects_block_that_is_not_traceless():
    # the A block sums to 1; reduce_irredundant relies on every H being traceless
    obj = {"H": [[1, 0], [0, 0], [0, 0]], "z": 0, "p": []}
    with pytest.raises(KronkitError, match="component A of H sums to 1, not 0"):
        RessayreCertificate.from_json(obj)
    with pytest.raises(KronkitError, match="component A of H sums to 1, not 0"):
        FacetSystem.from_json({"m": 2, "nontrivial": [obj]})


def test_facet_system_rejects_elements_of_another_rank():
    # the three m = 2 facets in an m = 3 system: reduce_irredundant would
    # index past their blocks
    m2 = reduce_irredundant(enumerate_ressayre(2))
    with pytest.raises(KronkitError, match="rank 2 in a facet system of rank 3"):
        FacetSystem(3, m2.nontrivial, chamber_inequalities(3))
    with pytest.raises(KronkitError, match="rank 2 in a facet system of rank 3"):
        FacetSystem.from_json(dict(m2.to_json(), m=3))
    with pytest.raises(KronkitError, match="rank 3 in a facet system of rank 2"):
        FacetSystem(2, m2.nontrivial, chamber_inequalities(3))


def test_facet_system_rejects_fractional_rank():
    with pytest.raises(KronkitError, match="expected an integer, got 2.5"):
        FacetSystem.from_json({"m": 2.5, "nontrivial": []})


def test_element_json_round_trip():
    for elem in enumerate_ressayre(2).nontrivial:
        obj = elem.to_json()
        assert obj["p"] == list(elem.witness_point)
        assert RessayreCertificate.from_json(obj) == elem


def test_chamber_inequalities():
    assert chamber_inequalities(1) == ()
    cham = chamber_inequalities(2)
    assert len(cham) == 3
    assert cham[0] == HyperplaneCandidate((1, -1), (0, 0), (0, 0), 0)
    assert cham[2] == HyperplaneCandidate((0, 0), (0, 0), (1, -1), 0)
    assert len(chamber_inequalities(3)) == 6


def test_enumerate_rank_one_is_empty():
    fs = enumerate_ressayre(1)
    assert fs.nontrivial == () and fs.chamber == ()


def test_enumerate_rank_two():
    fs = enumerate_ressayre(2)
    assert len(fs.nontrivial) == 9
    for elem in fs.nontrivial:
        h = elem.h
        assert check_admissible(h, 2) and check_trace(h, 2)
        assert eval_determinant(build_det_matrix(h, 2), elem.witness_point) != 0
        assert gcd(*(v for block in h.blocks for v in block), h.z) == 1


def test_enumerate_rank_two_matches_full_coordinate_system():
    # reference: all 3m entries of H and z unknown, three rows for tracelessness
    m = 2
    rows = [weight_vector(w, m) + [-1] for w in weights(m)]
    rows_trace = [[int(i // m == b) for i in range(3 * m)] + [0] for b in range(3)]
    seen, expected = set(), []
    for subset in combinations(range(m**3), 3 * (m - 1)):
        v = kernel_vector_if_unique([rows[i] for i in subset] + rows_trace)
        if v is None:
            continue
        key = tuple(v) if next(x for x in v if x) > 0 else tuple(-x for x in v)
        if key in seen:
            continue
        seen.add(key)
        base = HyperplaneCandidate(key[:m], key[m : 2 * m], key[2 * m : 3 * m], key[-1])
        for h in (base, base.negated()):
            if check_admissible(h, m) and check_trace(h, m):
                p = find_point(h, m, trials=64)
                if p is not None:
                    expected.append(RessayreCertificate(h, p))
    assert len(expected) == 9
    assert list(enumerate_ressayre(m).nontrivial) == expected


def test_enumerate_orientations_are_exclusive():
    fs = enumerate_ressayre(2)
    seen = {(e.h.blocks, e.h.z) for e in fs.nontrivial}
    for e in fs.nontrivial:
        neg = e.h.negated()
        assert (neg.blocks, neg.z) not in seen


def test_enumerate_budget():
    # C(64, 9) ≈ 2.75·10¹⁰ subsets at m = 4, against 296,010 at m = 3
    with pytest.raises(KronkitError, match="subsets at m=4 exceed the budget of"):
        enumerate_ressayre(4)


def test_enumerate_is_deterministic():
    first, again = enumerate_ressayre(2), enumerate_ressayre(2)
    assert again == first and again.to_json() == first.to_json()


def test_reduce_rank_two_to_three_facets():
    fs = reduce_irredundant(enumerate_ressayre(2))
    assert len(fs.nontrivial) == 3
    got = {(e.h.blocks, e.h.z) for e in fs.nontrivial}
    lo, hi = (-1, 1), (1, -1)
    assert got == {
        ((lo, lo, hi), -1),
        ((lo, hi, lo), -1),
        ((hi, lo, lo), -1),
    }


def test_reduce_drops_scaled_duplicate():
    elem = RessayreCertificate(H_WORKED, (1, 0, 0))
    doubled_h = HyperplaneCandidate((-2, 2), (-2, 2), (2, -2), -2)
    doubled = RessayreCertificate(doubled_h, find_point(doubled_h, 2))
    fs = FacetSystem(2, (elem, doubled), chamber_inequalities(2))
    reduced = reduce_irredundant(fs)
    assert len(reduced.nontrivial) == 1


def test_reduce_empty_system_unchanged():
    fs = FacetSystem(2, (), chamber_inequalities(2))
    assert reduce_irredundant(fs) == fs


def test_committed_systems_ship_for_ranks_two_and_three():
    assert committed_system(2) == reduce_irredundant(enumerate_ressayre(2))
    assert len(committed_system(3).nontrivial) == 39
    assert [committed_system(m) for m in (1, 4, 5)] == [None, None, None]


def test_enumerate_rank_three_matches_committed_system(enumerate_once):
    # the committed fixture was written by the Fraction back-substitution
    text = json.dumps(enumerate_once(3).to_json(), indent=2) + "\n"
    assert text == (FIXTURES / "facets_m3.json").read_text(encoding="utf-8")


def test_reduce_rank_three_matches_committed_system():
    # the reference was computed by the primal LP over the full 3m coordinates
    system = json.loads((FIXTURES / "facets_m3.json").read_text(encoding="utf-8"))
    reduced = reduce_irredundant(FacetSystem.from_json(system))
    text = json.dumps(reduced.to_json(), indent=2) + "\n"
    assert len(reduced.nontrivial) == 39
    assert text == (FIXTURES / "facets_m3_irredundant.json").read_text(encoding="utf-8")


def test_reduce_rejects_wrong_multipliers(monkeypatch, capsys):
    # an optimal LP answer whose multipliers prove nothing
    def wrong(c, a_eq, b_eq):
        return LPResult("optimal", (0,) * len(c), 1)

    monkeypatch.setattr(search, "solve_lp", wrong)
    assert main(["facets", "--m", "2", "--irredundant"]) == 3
    err = capsys.readouterr().err
    assert "internal error:" in err and "multipliers" in err


@pytest.fixture(scope="module")
def m3_system():
    text = (FIXTURES / "facets_m3.json").read_text(encoding="utf-8")
    return FacetSystem.from_json(json.loads(text))


def first_turn_lp(system, element):
    """The LP reduce_irredundant solves for element before any drop."""
    columns = [e.h for e in system.nontrivial if e is not element]
    columns += system.chamber
    a_eq = list(zip(*(search._free(h) for h in columns)))
    return columns, solve_lp([-h.z for h in columns], a_eq, search._free(element.h))


def assert_refused(columns, y, d, h):
    with pytest.raises(RuntimeError, match="multipliers") as exc:
        search._implied(columns, y, d, h)
    assert not isinstance(exc.value, KronkitError)


def test_drop_check_proves_the_first_m3_drop_and_refuses_mutations(m3_system):
    kept = set(committed_system(3).nontrivial)
    dropped = next(e for e in m3_system.nontrivial if e not in kept)
    columns, lp = first_turn_lp(m3_system, dropped)
    assert lp.status == "optimal"
    assert search._implied(columns, lp.x, lp.d, dropped.h)
    i = next(i for i, v in enumerate(lp.x) if v)
    for bad in (lp.x[i] + 1, -lp.x[i]):
        assert_refused(columns, lp.x[:i] + (bad,) + lp.x[i + 1 :], lp.d, dropped.h)
    # add a kernel vector of seven unused columns: Σ yᵢHᵢ = d·H still holds,
    # so only the sign check can refuse the negative entries it brings
    unused = [j for j, v in enumerate(lp.x) if v == 0]
    for subset in combinations(unused, 7):
        rows = zip(*(search._free(columns[j]) for j in subset))
        v = kernel_vector_if_unique([list(r) for r in rows])
        if v is not None:
            break
    y = list(lp.x)
    for j, vj in zip(subset, v if min(v) < 0 else [-vj for vj in v]):
        y[j] += vj
    assert min(y) < 0
    assert_refused(columns, y, lp.d, dropped.h)


def test_drop_check_keeps_a_facet_on_its_own_optimum(m3_system):
    facet = m3_system.nontrivial[0]
    assert facet in committed_system(3).nontrivial
    columns, lp = first_turn_lp(m3_system, facet)
    assert lp.status == "optimal"
    assert not search._implied(columns, lp.x, lp.d, facet.h)


def test_facet_system_json_round_trip():
    fs = reduce_irredundant(enumerate_ressayre(2))
    obj = fs.to_json()
    assert obj["m"] == 2
    assert len(obj["nontrivial"]) == 3
    assert len(obj["chamber"]["inequalities"]) == 3
    assert FacetSystem.from_json(obj) == fs


def test_witness_rank_one():
    cert = search_witness(inst([3], [3], [3], 3))
    assert cert is not None
    assert cert.entries and cert.m == 1


def test_witness_rank_two_interior():
    target = inst([1, 1], [1, 1], [1, 1], 2)
    cert = search_witness(target)
    assert cert is not None
    assert verify_membership(target, cert).accepted
    assert frobenius_gap2(reduced_densities(cert), target) <= 1


def test_witness_rank_two_boundary_corner():
    # a product-state corner, reachable exactly on the diagonal support
    target = inst([2], [2], [2], 2, m=2)
    cert = search_witness(target)
    assert cert is not None and verify_membership(target, cert).accepted


def test_witness_outside_returns_none():
    assert search_witness(inst([2], [2], [1, 1], 2)) is None


def test_witness_rank_three_numeric_route():
    lam = parse_young([1, 1, 1])
    target = make_instance(lam, lam, lam, 3)
    cert = search_witness(target, seed=0)
    assert cert is not None
    assert verify_membership(target, cert).accepted
    assert search_witness(target, seed=0) == cert  # deterministic


def test_witness_rank_three_degenerate_spectrum():
    target = inst([2, 1], [2, 1], [2, 1], 3, m=3)
    cert = search_witness(target, seed=0)
    assert cert is not None and verify_membership(target, cert).accepted


# The certify panel instances (perfbench) that the float search left
# undecided, all decided by free supports.  At m = 4 the panel holds 25
# instances of the form (λ, λ, λ); these are its 11 distinct λ.
FREE_SUPPORT_M3 = [
    ((2, 1), (1, 1, 1), (2, 1)), ((2, 1, 1), (2, 2), (3, 1)),
    ((2, 2), (2, 1, 1), (3, 1)), ((4, 1), (2, 2, 1), (3, 1, 1)),
    ((4, 1), (2, 2, 1), (3, 2)), ((4, 1), (3, 1, 1), (3, 2)),
    ((4, 1), (3, 2), (2, 2, 1)), ((5, 1), (3, 2, 1), (4, 1, 1)),
    ((4, 4), (4, 2, 2), (6, 2)), ((5, 2, 1), (7, 1), (5, 2, 1)),
    ((3, 3, 3), (4, 3, 2), (4, 4, 1)), ((4, 3, 2), (6, 3), (7, 2)),
    ((7, 1, 1), (5, 2, 2), (4, 3, 2)), ((4, 4, 3), (4, 4, 3), (6, 4, 1)),
    ((8, 2, 1), (7, 4), (5, 5, 1)), ((7, 5), (7, 3, 2), (4, 4, 4)),
    ((8, 2, 2), (6, 4, 2), (6, 3, 3)), ((8, 4), (7, 4, 1), (9, 2, 1)),
    ((9, 3), (8, 2, 2), (7, 4, 1)),
]
FREE_SUPPORT_M4 = [
    (1, 1, 1, 1), (4, 4, 1, 1), (4, 4, 4, 1), (9, 1, 1, 1), (9, 4, 1, 1),
    (9, 4, 4, 1), (9, 4, 4, 4), (9, 9, 1, 1), (9, 9, 4, 1), (9, 9, 4, 4),
    (9, 9, 9, 1),
]
# inside (kron = 1) but on no free support of the fixed order
FREE_SUPPORT_MISSES = [((8, 4), (6, 5, 1), (10, 2)), ((8, 4), (7, 5), (8, 2, 2))]


def triple_instance(triple):
    return inst(*triple, sum(triple[0]))


def triple_id(triple):
    return "/".join(",".join(map(str, lam)) for lam in triple)


@pytest.mark.parametrize(
    "triple",
    FREE_SUPPORT_M3 + [(lam, lam, lam) for lam in FREE_SUPPORT_M4],
    ids=triple_id,
)
def test_witness_on_free_support(triple):
    target = triple_instance(triple)
    cert = search_witness(target)
    assert cert is not None and verify_membership(target, cert).accepted
    assert search._exact_witness(target) == cert


def test_exact_route_misses_are_left_to_the_float_route():
    for triple in FREE_SUPPORT_MISSES:
        assert search._exact_witness(triple_instance(triple)) is None
    assert search._exact_witness(inst([2], [2], [1, 1], 2)) is None


@pytest.mark.parametrize(
    "triple",
    [((5, 3), (5, 3), (5, 2, 1)), ((8, 4), (7, 5), (8, 2, 2))],
    ids=triple_id,
)
def test_witness_float_route(triple):
    # inside, missed by every free support, reached by the float scaling;
    # k = 12 needs the stop below the old fixed gap² < 1e-28
    target = triple_instance(triple)
    assert search._exact_witness(target) is None
    cert = search_witness(target, seed=0)
    assert cert is not None and verify_membership(target, cert).accepted


def test_float_route_miss_makes_one_start(monkeypatch):
    calls = 0
    scaling_pass = floats._scaling_pass

    def counted(psi, targets, blocks):
        nonlocal calls
        calls += 1
        return scaling_pass(psi, targets, blocks)

    monkeypatch.setattr(floats, "_scaling_pass", counted)
    # tight on no face, so only the plain route runs; this seed's start
    # reaches no stop (seeds 0–6, 8 and 9 decide the point)
    target = inst([7, 3, 1], [6, 5], [6, 5], 11)
    assert search._tight_faces(target) == []
    assert search_witness(target, seed=7) is None
    assert 0 < calls <= floats.MAX_SCALING_ITERS


def on_level_set(cert, h):
    on, _, _ = split_weights(h, cert.m)
    return set(cert.entries) <= set(on)


def test_face_route_decides_a_facet_point():
    # the certify instance that the plain scaling leaves undecided
    target = triple_instance(FREE_SUPPORT_MISSES[0])
    face = HyperplaneCandidate((-2, 1, 1), (2, -1, -1), (-2, 1, 1), -2)
    assert search._tight_faces(target) == [face]
    cert = search_witness(target, seed=0)
    assert cert is not None and verify_membership(target, cert).accepted
    assert on_level_set(cert, face)


def test_plain_route_witness_is_unchanged(tmp_path):
    # the bytes of find-witness --seed 0 before the face route existed
    target = triple_instance(FREE_SUPPORT_MISSES[1])
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(target.to_json()), encoding="utf-8")
    out = tmp_path / "w.json"
    assert main(["find-witness", str(path), "--seed", "0", "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "b1877582dc3c77061b446b7d187a50b2dd1d5f3f5d347524d8e73f9142fe000e"


def test_positivity_elements_open_no_face(monkeypatch):
    # λ_A[3] = λ_B[3] = 0 is tight on two positivity elements only
    target = triple_instance(FREE_SUPPORT_MISSES[1])
    rows = target.padded_rows()
    tight = [e.h for e in committed_system(3).nontrivial
             if e.h.pair_instance(rows) == target.k * e.h.z]
    assert len(tight) == 2
    assert all(sum(map(any, h.blocks)) == 1 for h in tight)
    hyperplanes = []
    scale = floats.scale

    def recorded(inst, seed, stop, h):
        hyperplanes.append(h)
        return scale(inst, seed, stop, h)

    monkeypatch.setattr(floats, "scale", recorded)
    assert search_witness(target, seed=0) is not None
    # only the plain route ran: the zero hyperplane, whose level set is [3]³
    assert hyperplanes == [HyperplaneCandidate((0, 0, 0), (0, 0, 0), (0, 0, 0), 0)]


def refuse_scaling(*args):
    raise AssertionError("the float scaling ran")


@pytest.mark.parametrize(
    "target",
    [inst([4, 4, 1], [7, 2], [5, 2, 1, 1], 9), inst([5, 3], [5, 3], [5, 2, 1], 8, m=4)],
    ids=["m=4 panel miss", "m=4 override"],
)
def test_float_route_skipped_below_float64_floor(monkeypatch, target):
    # threshold²/4 at m = 4, k ≤ 9 is below 3·10⁻⁴², far under
    # FLOAT_GAP2_FLOOR; neither the face route nor the plain route may scale
    monkeypatch.setattr(floats, "scale", refuse_scaling)
    monkeypatch.setattr(floats, "_scaling_pass", refuse_scaling)
    assert search_witness(target, seed=0) is None


@pytest.mark.parametrize(
    "target",
    [inst([2], [1, 1], [2], 2), inst([5, 1], [5, 1], [3, 3], 6, m=3)],
    ids=["height rule", "outside HSS"],
)
def test_float_route_skipped_at_rank_two(monkeypatch, target):
    # the float floor admits a scaling here; at r ≤ 2 the exact route decides
    assert float(accept_threshold2(target.m, target.k) / 4) > search.FLOAT_GAP2_FLOOR
    monkeypatch.setattr(floats, "scale", refuse_scaling)
    monkeypatch.setattr(floats, "_scaling_pass", refuse_scaling)
    assert search_witness(target, seed=0) is None


def qubit_triples(kmax):
    """Every triple of diagrams with at most 2 rows and k ≤ kmax, in every order."""
    for k in range(1, kmax + 1):
        shapes = [p for p in partitions(k) if len(p) <= 2]
        for triple in product(shapes, repeat=3):
            yield triple, k


def hss(triple):
    """Higuchi–Sudbery–Szulc: each smaller eigenvalue at most the other two's sum."""
    low = [lam[1] if len(lam) == 2 else 0 for lam in triple]
    return all(2 * x <= sum(low) for x in low)


def test_exact_route_decides_a_qubit_triple_iff_hss():
    triples = list(qubit_triples(10))
    assert len(triples) == 665
    for triple, k in triples:
        decided = search._exact_witness(inst(*triple, k)) is not None
        assert decided == hss(triple), triple


def test_committed_m2_system_is_hss():
    # With λ_X = (k − x, x) and h_X = H_X[0] = −H_X[1], H·λ ≥ k·z reads
    # Σ −2·h_X·x ≥ k·(z − Σ h_X) in the smaller rows x = a, b, c.
    # ((−1,1),(−1,1),(1,−1)) with z = −1, for one, gives 2a + 2b − 2c ≥ 0.
    system = committed_system(2)
    forms = set()
    for e in system.nontrivial:
        h = [block[0] for block in e.h.blocks]
        assert e.h.z == sum(h)  # no k term: the inequality is homogeneous
        coeffs = [-2 * v for v in h]
        forms.add(tuple(v // gcd(*coeffs) for v in coeffs))
    assert len(system.nontrivial) == 3
    # c ≤ a + b, b ≤ a + c, a ≤ b + c
    assert forms == {(1, 1, -1), (1, -1, 1), (-1, 1, 1)}
    for triple, k in qubit_triples(10):
        rows = inst(*triple, k, m=2).padded_rows()
        inside = all(e.h.pair_instance(rows) >= k * e.h.z for e in system.nontrivial)
        assert inside == hss(triple), triple


def test_height_rule_returns_before_any_lp(monkeypatch):
    # λ_B pure forces equal A and C spectra; 145 infeasible LPs before this
    def refuse(*args):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(search, "solve_lp", refuse)
    assert search_witness(inst([1] * 12, [12], [11, 1], 12), seed=0) is None


def test_height_rule_fires_only_where_kron_vanishes():
    fired = 0
    for k in range(1, 9):
        shapes = [p for p in partitions(k) if len(p) <= 3]
        for triple in product(shapes, repeat=3):
            low, mid, high = sorted(map(len, triple))
            if high > low * mid:
                fired += 1
                assert kron_coeff(*(parse_young(lam) for lam in triple)) == 0
    assert fired > 0


def test_uniform_rule_returns_before_any_lp(monkeypatch):
    # λ_A uniform of rank 12 = 3·4 forces uniform λ_B and λ_C; 145
    # infeasible LPs before this
    def refuse(*args):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(search, "solve_lp", refuse)
    assert search_witness(inst([1] * 12, [4, 4, 4], [9, 1, 1, 1], 12), seed=0) is None


def uniform_rule_fires(triple):
    uniform = [len(set(lam)) == 1 for lam in triple]
    heights = [len(lam) for lam in triple]
    return any(
        heights[x] == heights[y] * heights[z] and uniform[x]
        and not (uniform[y] and uniform[z])
        for x, y, z in ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    )


def test_uniform_rule_fires_only_where_kron_vanishes():
    fired = 0
    for k in range(1, 9):
        shapes = partitions(k)
        for triple in product(shapes, repeat=3):
            if uniform_rule_fires(triple):
                fired += 1
                assert kron_coeff(*(parse_young(lam) for lam in triple)) == 0
                assert search_witness(inst(*triple, k)) is None
    assert fired > 0


def test_dyadic_sqrt_is_exact_in_any_terms():
    assert search._dyadic_sqrt(2, 8, 10) == Fraction(1, 2)
    assert search._dyadic_sqrt(0, 5, 10) == 0
    assert search._dyadic_sqrt(4 * 9, 9 * 49, 10) == Fraction(2, 7)


def test_dyadic_sqrt_is_the_largest_dyadic_below():
    rng = random.Random(3)
    for _ in range(500):
        num, den = rng.randint(0, 10**12), rng.randint(1, 10**12)
        if rng.random() < 0.3:  # a rational square in non-lowest terms
            t = rng.randint(1, 10**4)
            num, den = num**2 * t, den**2 * t
        bits = rng.randint(0, 80)
        q, step = Fraction(num, den), Fraction(1, 2**bits)
        r = search._dyadic_sqrt(num, den, bits)
        exact = r * r == q
        assert exact or (r / step).denominator == 1
        assert r * r <= q
        assert exact or (r + step) ** 2 > q


def test_free_supports_are_free_and_bounded():
    for m in range(1, 6):
        supports = list(search.free_supports(m))
        assert supports[0] == tuple((i, i, i) for i in range(1, m + 1))
        assert len(set(supports)) == len(supports)
        for support in supports:
            assert len(support) in (m, m * m)
            for s, t in combinations(support, 2):
                assert sum(a != b for a, b in zip(s, t)) >= 2
    # every relabelling up to m = 4: 12 Latin supports at m = 3, 144 at m = 4
    counts = [sum(1 for _ in search.free_supports(m)) for m in (1, 2, 3, 4, 12)]
    assert counts == [1, 3, 13, 145, search.MAX_FREE_SUPPORTS]


def kron_panel(rank, seed, kmax, size=40):
    """Distinct seeded triples with at most rank rows, one of exactly rank,
    k from rank to kmax, kron > 0."""
    rng = random.Random(seed)
    shapes = {
        k: [p for p in partitions(k) if len(p) <= rank] for k in range(rank, kmax + 1)
    }
    panel = []
    while len(panel) < size:
        k = rng.randint(rank, kmax)
        triple = tuple(rng.choice(shapes[k]) for _ in range(3))
        if max(map(len, triple)) != rank or triple in panel:
            continue
        if kron_coeff(*(parse_young(lam) for lam in triple)) > 0:
            panel.append(triple)
    return panel


@pytest.mark.parametrize(
    "rank, kmax, at_least",
    [
        (4, 10, 39),  # the one miss is ((4,4,1),(7,2),(5,2,1,1))
        (5, 12, 32),  # decided on Latin supports only, none on the diagonal
    ],
)
def test_exact_route_on_kron_panel(rank, kmax, at_least):
    decided = 0
    for triple in kron_panel(rank, seed=0, kmax=kmax):
        target = triple_instance(triple)
        cert = search._exact_witness(target)
        if cert is not None:
            assert verify_membership(target, cert).accepted
            decided += 1
    assert decided >= at_least


@pytest.mark.parametrize("m", [3, 4, 5, 8])
def test_exact_route_ignores_padding(m):
    # supports are taken at the largest height, 3, whatever m is
    target = inst([3, 2], [4, 1], [3, 1, 1], 5, m=m)
    cert = search._exact_witness(target)
    assert cert is not None and cert.m == m
    assert verify_membership(target, cert).accepted


def test_witness_consistent_with_nonmembership_certificate():
    # the two verifiers can never both accept the same instance
    outside = inst([2], [2], [1, 1], 2)
    cert = RessayreCertificate(H_WORKED, (1, 0, 0))
    assert verify_nonmembership(outside, cert).accepted
    assert search_witness(outside) is None


# Inside points of the slice below that the plain scaling leaves undecided.
# Each lies on a nontrivial facet other than a positivity facet, where the
# plain scaling stalls; the face route decides them on such a facet.
SLICE_FACE_POINTS = {
    ((4, 2), (4, 1, 1), (3, 3)), ((5, 2), (5, 2), (3, 3, 1)),
    ((5, 2), (5, 1, 1), (4, 3)), ((6, 2), (6, 2), (4, 3, 1)),
    ((6, 2), (6, 1, 1), (5, 3)), ((6, 2), (5, 3), (4, 2, 2)),
    ((6, 2), (5, 2, 1), (4, 4)), ((6, 1, 1), (5, 3), (4, 4)),
}


def rank_triples(rank, kmax):
    """Triples of largest height rank with k ≤ kmax and λ_A ≥ λ_B ≥ λ_C as tuples."""
    for k in range(rank, kmax + 1):
        shapes = [p for p in partitions(k) if len(p) <= rank]
        for triple in product(shapes, repeat=3):
            if max(map(len, triple)) == rank and triple[0] >= triple[1] >= triple[2]:
                yield triple


def decided_both_ways(triples):
    """decide on each triple: (nonmember, member, undecided), each certificate verified."""
    nonmember, member, undecided = [], [], []
    for triple in triples:
        target = triple_instance(triple)
        cert = decide(target, seed=0)
        if isinstance(cert, RessayreCertificate):
            assert verify_nonmembership(target, cert).accepted, triple
            nonmember.append(triple)
        elif cert is None:
            undecided.append(triple)
        else:
            assert verify_membership(target, cert).accepted, triple
            member.append((triple, cert))
    return nonmember, member, undecided


def test_rank_two_points_are_decided_both_ways():
    # at r ≤ 2 the three committed facets and the exact route decide every point
    nonmember, member, undecided = decided_both_ways(rank_triples(2, 12))
    assert (len(nonmember), len(member), undecided) == (126, 197, [])


def test_rank_three_slice_is_decided_both_ways():
    triples = list(rank_triples(3, 8))
    nonmember, member, undecided = decided_both_ways(triples)
    on_face = set()
    for triple, cert in member:
        target = triple_instance(triple)
        if search._exact_witness(target) is None and any(
            on_level_set(cert, h) for h in search._tight_faces(target)
        ):
            on_face.add(triple)
    assert (len(triples), len(nonmember), len(member)) == (390, 132, 258)
    assert undecided == []
    assert on_face == SLICE_FACE_POINTS


def test_decide_searches_when_the_violated_element_is_refused(monkeypatch):
    # an outside point: its violated element is the answer unless the
    # verifier refuses it, and then only the witness search may answer
    outside = inst([2], [2], [1, 1], 2)
    assert isinstance(decide(outside), RessayreCertificate)
    refused = Verdict(Decision.REJECT, Reason.DETERMINANT_VANISHES)
    monkeypatch.setattr(search, "verify_nonmembership", lambda *args: refused)
    assert decide(outside) is None


def test_kron_positive_triples_satisfy_committed_m3_facets():
    # kron > 0 puts the point in the polytope, so no committed facet may cut
    # it off; this checks the m = 3 system against the character oracle
    system = committed_system(3)
    triples = positive = 0
    for k in range(1, 13):
        shapes = [p for p in partitions(k) if len(p) <= 3]
        for triple in product(shapes, repeat=3):
            if not triple[0] >= triple[1] >= triple[2]:
                continue
            triples += 1
            if kron_coeff(*(parse_young(lam) for lam in triple)) == 0:
                continue
            positive += 1
            rows = inst(*triple, k, m=3).padded_rows()
            for e in system.nontrivial:
                assert e.h.pair_instance(rows) >= k * e.h.z, (triple, e.h)
    assert (triples, positive) == (3564, 2254)


def test_sampled_spectra_satisfy_committed_m3_facets():
    # spectra of random states lie in the polytope, so no committed facet may
    # cut one off; the m = 3 counterpart of acceptance criterion 4
    system = committed_system(3)
    coeffs = np.array([[v for b in e.h.blocks for v in b] for e in system.nontrivial])
    levels = np.array([e.h.z for e in system.nontrivial])
    points = np.array([
        [x for spectrum in triple for x in spectrum]
        for triple in sample_spectra(3, 10_000, seed=0)
    ])
    slack = points @ coeffs.T - levels
    assert slack.shape == (10_000, 39)
    assert slack.min() >= -1e-9


def test_sample_spectra_shape_and_determinism():
    samples = sample_spectra(2, 50, seed=3)
    assert len(samples) == 50
    assert samples == sample_spectra(2, 50, seed=3)
    assert samples != sample_spectra(2, 50, seed=4)
    for triple in samples:
        assert len(triple) == 3
        for spectrum in triple:
            assert len(spectrum) == 2
            assert spectrum[0] >= spectrum[1] >= -1e-12
            assert abs(sum(spectrum) - 1.0) < 1e-9


def test_sample_spectra_rank_one_trivial():
    for triple in sample_spectra(1, 10, seed=0):
        for spectrum in triple:
            assert spectrum == pytest.approx((1.0,), abs=1e-12)


def test_samples_satisfy_enumerated_inequalities():
    fs = reduce_irredundant(enumerate_ressayre(2))
    for triple in sample_spectra(2, 200, seed=11):
        flat = [x for spectrum in triple for x in spectrum]
        for elem in fs.nontrivial:
            coeffs = [v for block in elem.h.blocks for v in block]
            value = sum(c * x for c, x in zip(coeffs, flat))
            assert value >= elem.h.z - 1e-9


def test_spectra_csv():
    samples = sample_spectra(2, 5, seed=7)
    text = spectra_csv(samples)
    lines = text.strip().split("\n")
    assert len(lines) == 5
    parsed = [tuple(float(tok) for tok in line.split(",")) for line in lines]
    for triple, row in zip(samples, parsed):
        flat = tuple(x for spectrum in triple for x in spectrum)
        assert row == flat  # repr round-trips floats exactly

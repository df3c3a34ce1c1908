import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, gcd
from pathlib import Path

import numpy as np
import pytest

from kronkit import scaling, search
from kronkit.cli import main
from kronkit.diagrams import make_instance, parse_young
from kronkit.errors import KronkitError
from kronkit.exactlp import LPResult, solve_lp
from kronkit.floats import sample_spectra, spectra_csv
from kronkit.intlinalg import kernel_vector_if_unique
from kronkit.marginals import (
    MembershipCertificate,
    accept_threshold2,
    frobenius_gap2,
    reduced_densities,
    required_bits,
    verify_membership,
)
from kronkit.oracle import kron_coeff, partitions
from kronkit.scalars import GaussianRational
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


def test_reduce_keeps_an_empty_set_empty():
    # r_A2 − r_A1 ≥ 1 meets no point of the chamber, so the system cuts out
    # the empty set, and so must what the reduction keeps: bad, and the last
    # committed element, whose H is outside the cone of what is left when it
    # is tested (the reduction never reads the point p)
    bad_h = HyperplaneCandidate((-1, 1), (0, 0), (0, 0), 1)
    bad = RessayreCertificate(bad_h, (1, 0, 0))
    fs = committed_system(2)
    for elements in ((bad, *fs.nontrivial), (*fs.nontrivial, bad)):
        reduced = reduce_irredundant(FacetSystem(2, elements, fs.chamber))
        assert set(reduced.nontrivial) == {bad, fs.nontrivial[-1]}


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
    # a feasible LP answer whose multipliers prove nothing
    def wrong(a_eq, b_eq):
        return LPResult("optimal", (0,) * len(a_eq[0]), 1)

    monkeypatch.setattr(search, "solve_lp", wrong)
    assert main(["facets", "--m", "2", "--irredundant"]) == 3
    err = capsys.readouterr().err
    assert "internal error:" in err and "multipliers" in err


@pytest.fixture(scope="module")
def m3_system():
    text = (FIXTURES / "facets_m3.json").read_text(encoding="utf-8")
    return FacetSystem.from_json(json.loads(text))


def first_turn_lp(system, element):
    """The Farkas system reduce_irredundant solves for element before any
    drop, in chamber coordinates: the H of each column but s, then A and b,
    the z row and s last."""
    columns = [e.h for e in system.nontrivial if e is not element]
    columns += system.chamber
    s_col = (0,) * (3 * system.m - 3) + (1,)
    a_eq = list(zip(*map(search._chamber_coordinates, columns), s_col))
    return columns, a_eq, search._chamber_coordinates(element.h)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_chamber_coordinates_sum_by_parts(m):
    # r·H − z = c(H)·(r_{X,i} − r_{X,i+1} for each block X and i < m, then 1)
    # on traceless H and any integer r: summation by parts, block by block
    rng = random.Random(m)
    for _ in range(50):
        blocks = []
        for _ in range(3):
            head = [rng.randint(-9, 9) for _ in range(m - 1)]
            blocks.append((*head, -sum(head)))
        h = HyperplaneCandidate(*blocks, rng.randint(-9, 9))
        r = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(3)]
        steps = [b[i] - b[i + 1] for b in r for i in range(m - 1)] + [1]
        c = search._chamber_coordinates(h)
        assert len(c) == 3 * m - 2
        lhs = sum(hv * rv for hb, rb in zip(h.blocks, r) for hv, rv in zip(hb, rb))
        assert lhs - h.z == sum(cv * sv for cv, sv in zip(c, steps))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_chamber_coordinates_of_the_chamber_are_unit_columns(m):
    # r_{X,i} ≥ r_{X,i+1} maps to e_{X,i}, in the order chamber_inequalities
    # lists them; s, the column of 0 ≥ −1 in Σ yᵢzᵢ − s = z_e, maps to +e_z
    n = 3 * m - 2
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    mapped = [tuple(search._chamber_coordinates(h)) for h in chamber_inequalities(m)]
    assert mapped == unit[:-1]
    zero = (0,) * m
    s = HyperplaneCandidate(zero, zero, zero, -1)
    assert tuple(search._chamber_coordinates(s)) == unit[-1]


def assert_refused(columns, y, d, h):
    with pytest.raises(RuntimeError, match="multipliers") as exc:
        search._implied(columns, y, d, h)
    assert not isinstance(exc.value, KronkitError)


def test_drop_check_proves_the_first_m3_drop_and_refuses_mutations(m3_system):
    kept = set(committed_system(3).nontrivial)
    dropped = next(e for e in m3_system.nontrivial if e not in kept)
    columns, a_eq, b_eq = first_turn_lp(m3_system, dropped)
    lp = solve_lp(a_eq, b_eq)
    assert lp.status == "optimal"
    x = lp.x[:-1]  # the multipliers y, without s
    search._implied(columns, x, lp.d, dropped.h)  # raises unless they prove the drop
    i = next(i for i, v in enumerate(x) if v)
    for bad in (x[i] + 1, -x[i]):
        assert_refused(columns, x[:i] + (bad,) + x[i + 1 :], lp.d, dropped.h)
    # add a kernel vector of seven unused columns: Σ yᵢHᵢ = d·H still holds,
    # so only the sign check can refuse the negative entries it brings (the
    # chamber coordinates are unimodular, so they have the same kernel)
    unused = [j for j, v in enumerate(x) if v == 0]
    for subset in combinations(unused, 7):
        rows = zip(*(search._chamber_coordinates(columns[j])[:-1] for j in subset))
        v = kernel_vector_if_unique([list(r) for r in rows])
        if v is not None:
            break
    y = list(x)
    for j, vj in zip(subset, v if min(v) < 0 else [-vj for vj in v]):
        y[j] += vj
    assert min(y) < 0
    assert_refused(columns, y, lp.d, dropped.h)


def test_drop_check_keeps_a_facet_on_its_own_optimum(m3_system):
    facet = m3_system.nontrivial[0]
    assert facet in committed_system(3).nontrivial
    columns, a_eq, b_eq = first_turn_lp(m3_system, facet)
    assert solve_lp(a_eq, b_eq).status == "infeasible"
    # without the z row, Σ yᵢHᵢ = H_e alone is feasible, and _implied
    # refuses its y: Σ yᵢzᵢ falls short of z_e
    lp = solve_lp(a_eq[:-1], b_eq[:-1])
    assert lp.status == "optimal"
    x = lp.x[:-1]
    assert sum(y * c.z for y, c in zip(x, columns)) < lp.d * facet.h.z
    assert_refused(columns, x, lp.d, facet.h)


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


def test_witness_rank_three_exact_route_on_the_diagonal():
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


# Certify panel instances (perfbench) that free supports decide.  At m = 4
# the panel holds 25 instances of the form (λ, λ, λ); these are its 11
# distinct λ.
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
# inside (kron = 1) but on no free support of the fixed order; the scaled
# routes decide them, the first in a face and the second on all of [3]³
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


def test_exact_route_misses_are_left_to_the_scaled_route():
    for triple in FREE_SUPPORT_MISSES:
        assert search._exact_witness(triple_instance(triple)) is None
    assert search._exact_witness(inst([2], [2], [1, 1], 2)) is None


@pytest.mark.parametrize(
    "triple",
    [((5, 3), (5, 3), (5, 2, 1)), ((8, 4), (7, 5), (8, 2, 2))],
    ids=triple_id,
)
def test_witness_scaled_route(triple):
    # inside, missed by every free support, reached by the plain scaling;
    # the stop sits at a quarter of the verifier's threshold, not at a
    # fixed gap², which k = 12 needs
    target = triple_instance(triple)
    assert search._exact_witness(target) is None
    cert = search_witness(target, seed=0)
    assert cert is not None and verify_membership(target, cert).accepted


def test_scaled_route_miss_makes_one_start(monkeypatch):
    # an m = 4 point that no free support reaches and no system covers: one
    # plain scaling runs from the seeded start and stops at the pass cap
    starts = passes = 0
    scale, scaling_pass = search.scale, scaling._pass

    def counted_scale(*args):
        nonlocal starts
        starts += 1
        return scale(*args)

    def counted_pass(*args):
        nonlocal passes
        passes += 1
        return scaling_pass(*args)

    monkeypatch.setattr(search, "scale", counted_scale)
    monkeypatch.setattr(scaling, "_pass", counted_pass)
    target = inst([4, 4, 1], [7, 2], [5, 2, 1, 1], 9)
    assert search._exact_witness(target) is None
    assert search_witness(target, seed=0) is None
    assert starts == 1
    assert 0 < passes <= scaling.MAX_PASSES


def test_m4_panel_miss_scales_at_its_own_threshold(monkeypatch):
    # threshold²/4 at m = 4, k = 9 is below 3·10⁻⁴², beyond any float64
    # gap²; the integer scaling still runs, on all of [4]³, to that stop
    target = inst([4, 4, 1], [7, 2], [5, 2, 1, 1], 9)
    stop = accept_threshold2(4, 9) / 4
    assert stop < Fraction(3, 10**42)
    calls = []
    scale = search.scale

    def recorded(rows, k, h, seed, bits, given):
        calls.append((rows, h, given))
        return scale(rows, k, h, seed, bits, given)

    monkeypatch.setattr(search, "scale", recorded)
    assert search_witness(target, seed=0) is None
    zero = (0, 0, 0, 0)
    assert calls == [(
        ((4, 4, 1, 0), (7, 2, 0, 0), (5, 2, 1, 1)),
        HyperplaneCandidate(zero, zero, zero, 0),
        stop,
    )]


def on_level_set(cert, h):
    on, _ = split_weights(h, cert.m)
    return set(cert.entries) <= set(on)


def test_face_route_decides_a_facet_point():
    # the certify instance that the plain scaling leaves undecided
    target = triple_instance(FREE_SUPPORT_MISSES[0])
    face = HyperplaneCandidate((-2, 1, 1), (2, -1, -1), (-2, 1, 1), -2)
    assert search._scan(target, committed_system(3)) == (None, [face])
    cert = search_witness(target, seed=0)
    assert cert is not None and verify_membership(target, cert).accepted
    assert on_level_set(cert, face)


def assert_witness_digest(tmp_path, triple, digest, fresh_runs):
    # the bytes of find-witness --seed 0, from this process and from fresh
    # ones: the scaling runs in integers, so no platform enters them
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(triple_instance(triple).to_json()), encoding="utf-8")
    out = tmp_path / "w.json"
    assert main(["find-witness", str(path), "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = "import sys; from kronkit.cli import main; sys.exit(main(sys.argv[1:]))"
    for i in range(fresh_runs):
        fresh = tmp_path / f"fresh{i}.json"
        subprocess.run(
            [sys.executable, "-c", run, "find-witness", str(path), "--seed", "0",
             "--out", str(fresh)],
            env=env, capture_output=True, timeout=120, check=True,
        )
        assert fresh.read_bytes() == out.read_bytes()


def test_plain_route_witness_is_unchanged(tmp_path):
    assert_witness_digest(
        tmp_path, FREE_SUPPORT_MISSES[1],
        "3a9c8b8c82af97380fdbc12cb9648648cac314da8335595e6cb6d508abc42460", 2,
    )


def test_face_route_witness_is_unchanged(tmp_path):
    # decided in the face ((−2,1,1), (2,−1,−1), (−2,1,1), z = −2)
    assert_witness_digest(
        tmp_path, FREE_SUPPORT_MISSES[0],
        "899dc0aaab243f1019fe0e55a6077bd6375043bc938692ef14911fd712e0d155", 1,
    )


def test_positivity_elements_open_no_face(monkeypatch):
    # λ_A[3] = λ_B[3] = 0 is tight on two positivity elements only
    target = triple_instance(FREE_SUPPORT_MISSES[1])
    rows = target.padded_rows()
    tight = [e.h for e in committed_system(3).nontrivial
             if e.h.pair_instance(rows) == target.k * e.h.z]
    assert len(tight) == 2
    assert all(sum(map(any, h.blocks)) == 1 for h in tight)
    hyperplanes = []
    scale = search.scale

    def recorded(rows, k, h, *args):
        hyperplanes.append(h)
        return scale(rows, k, h, *args)

    monkeypatch.setattr(search, "scale", recorded)
    assert search_witness(target, seed=0) is not None
    # only the plain route ran: the zero hyperplane, whose level set is [3]³
    assert hyperplanes == [HyperplaneCandidate((0, 0, 0), (0, 0, 0), (0, 0, 0), 0)]


def refuse_scaling(*args):
    raise AssertionError("the scaling ran")


def test_m_override_scales_at_the_largest_height(monkeypatch):
    # decided at m = 3 by the plain route; with "m": 4 the scaling still
    # runs on [3]³, in the faces of the m = 3 system, and the vector is
    # embedded in [4]³ at m = 4's precision
    target = inst([5, 3], [5, 3], [5, 2, 1], 8, m=4)
    assert search._exact_witness(target) is None
    ranks = []
    scale = search.scale

    def recorded(rows, k, h, *args):
        ranks.append((len(rows[0]), h.m))
        return scale(rows, k, h, *args)

    monkeypatch.setattr(search, "scale", recorded)
    cert = search_witness(target, seed=0)
    assert cert is not None and cert.m == 4
    assert verify_membership(target, cert).accepted
    assert all(max(idx) <= 3 for idx in cert.entries)
    assert ranks and set(ranks) == {(3, 3)}


def test_m_override_outside_its_height_scales_nothing(monkeypatch):
    # an m = 3 element cuts the point off, though no rank inequality does;
    # at m = 4 there is no system to answer with, but the rank-3 element,
    # read once, still rules out every witness
    reads = count_system_reads(monkeypatch)
    monkeypatch.setattr(search, "scale", refuse_scaling)
    target = inst([5, 1], [4, 1, 1], [3, 3], 6, m=4)
    assert search._rank_inequalities_hold(target)
    assert decide(target, seed=0) is None
    assert reads == [3]
    # where a rank inequality fails, only the system of rank m is read
    reads.clear()
    assert decide(inst([5, 1], [5, 1], [3, 2, 1], 6, m=4), seed=0) is None
    assert reads == [4]


@pytest.mark.parametrize(
    "target",
    [inst([2], [1, 1], [2], 2), inst([5, 1], [5, 1], [3, 3], 6, m=3)],
    ids=["height rule", "outside HSS"],
)
def test_scaled_route_skipped_at_rank_two(monkeypatch, target):
    # at r ≤ 2 a rank inequality fails or the exact route decides, so no
    # scaling runs
    monkeypatch.setattr(search, "scale", refuse_scaling)
    monkeypatch.setattr(scaling, "_pass", refuse_scaling)
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


def test_rank_inequality_at_the_heights_returns_before_any_lp(monkeypatch):
    # a = h_B, b = h_C: Σ_{i>h_B·h_C} λ_A[i] ≤ 0 fails, as h_A > h_B·h_C.
    # λ_B pure forces equal A and C spectra; 145 infeasible LPs before this
    def refuse(*args):
        raise AssertionError("an LP ran")

    monkeypatch.setattr(search, "solve_lp", refuse)
    assert search_witness(inst([1] * 12, [12], [11, 1], 12), seed=0) is None


def test_rank_inequality_at_the_heights_fails_only_where_kron_vanishes():
    # the inequality at a = h_Y, b = h_Z fails iff h_X > h_Y·h_Z
    fired = 0
    for k in range(1, 9):
        shapes = [p for p in partitions(k) if len(p) <= 3]
        for triple in product(shapes, repeat=3):
            low, mid, high = sorted(map(len, triple))
            if high > low * mid:
                fired += 1
                assert kron_coeff(*(parse_young(lam) for lam in triple)) == 0
    assert fired > 0


def test_rank_inequality_below_the_heights_returns_before_any_lp(monkeypatch):
    # a = h_B = 3, b = h_C − 1 = 3: Σ_{i>9} λ_A[i] = 3 ≤ λ_C[4] = 1 fails.
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


def test_rank_inequality_below_the_heights_fails_only_where_kron_vanishes():
    # λ_X uniform of height h_Y·h_Z: at a = h_Y, b = h_Z − 1 the inequality
    # reads k/h_Z ≤ λ_Z[h_Z], which fails unless λ_Z is uniform, and at
    # a = h_Y − 1, b = h_Z it fails unless λ_Y is
    fired = 0
    for k in range(1, 9):
        shapes = partitions(k)
        for triple in product(shapes, repeat=3):
            if uniform_rule_fires(triple):
                fired += 1
                assert kron_coeff(*(parse_young(lam) for lam in triple)) == 0
                assert search_witness(inst(*triple, k)) is None
    assert fired > 0


def test_rank_inequalities_fail_only_where_kron_vanishes():
    # every failure is a proof that no state exists, so kron must be 0
    triples = failed = 0
    for k in range(1, 10):
        shapes = [p for p in partitions(k) if len(p) <= 4]
        for triple in product(shapes, repeat=3):
            triples += 1
            if not search._rank_inequalities_hold(inst(*triple, k)):
                failed += 1
                assert kron_coeff(*(parse_young(lam) for lam in triple)) == 0, triple
    assert (triples, failed) == (11644, 3567)


def test_rank_inequalities_at_height_two_are_hss():
    for triple, k in qubit_triples(10):
        assert search._rank_inequalities_hold(inst(*triple, k)) == hss(triple), triple


def test_rank_inequalities_cover_the_height_and_uniform_rules():
    # the rules the check replaced: h_X > h_Y·h_Z, and a uniform λ_X of
    # height h_Y·h_Z with λ_Y or λ_Z not uniform
    def height_rule_fires(triple):
        low, mid, high = sorted(map(len, triple))
        return high > low * mid

    fired = 0
    for k in range(1, 9):
        for triple in product(partitions(k), repeat=3):
            if height_rule_fires(triple) or uniform_rule_fires(triple):
                fired += 1
                assert not search._rank_inequalities_hold(inst(*triple, k)), triple
    assert fired > 0


def test_decide_never_scales_at_height_two(monkeypatch):
    # a rank inequality fails, or the exact route decides, at every point
    monkeypatch.setattr(search, "scale", refuse_scaling)
    points = 0
    for triple, k in qubit_triples(12):
        if triple[0] >= triple[1] >= triple[2]:
            points += 1
            decide(inst(*triple, k), seed=0)
    assert points == 335


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
    # every relabelling up to m = 4: the diagonal and m·((m−1)!)² Latin
    # supports, 12 at m = 3 and 144 at m = 4
    counts = [sum(1 for _ in search.free_supports(m)) for m in (1, 2, 3, 4, 12)]
    assert counts == [1, 3, 13, 145, search.MAX_FREE_SUPPORTS]
    assert counts[1:4] == [1 + m * factorial(m - 1) ** 2 for m in (2, 3, 4)]


def free_supports_by_dropping_repeats(m):
    """Reference order: the diagonal, then every (σ, τ, c) in lexicographic
    order with repeated sets dropped, up to the cap."""
    diagonal = tuple((i, i, i) for i in range(1, m + 1))
    out, seen = [diagonal], {diagonal}
    for sigma in permutations(range(m)):
        for tau in permutations(range(m)):
            for c in range(m):
                if len(out) == search.MAX_FREE_SUPPORTS:
                    return out
                support = tuple(sorted(
                    (sigma[i] + 1, tau[j] + 1, (c - i - j) % m + 1)
                    for i in range(m)
                    for j in range(m)
                ))
                if support not in seen:
                    seen.add(support)
                    out.append(support)
    return out


def test_free_supports_list_each_shift_class_once():
    for m in range(1, 13):
        assert list(search.free_supports(m)) == free_supports_by_dropping_repeats(m)


def test_exact_witness_rows_are_the_transposed_weight_vectors(monkeypatch):
    # every LP infeasible, so _exact_witness tries each support up to the
    # cap; the rows are not all equal, so the diagonal is skipped and every
    # Latin support takes one LP
    calls = []

    def record(a_eq, b_eq):
        calls.append((a_eq, b_eq))
        return LPResult("infeasible", None, 1)

    monkeypatch.setattr(search, "solve_lp", record)
    for r in range(2, 6):
        calls.clear()
        rows = (2,) + (1,) * (r - 1)
        point = inst(rows, rows, (3,) + (1,) * (r - 2), r + 1)
        assert search._exact_witness(point) is None
        supports = free_supports_by_dropping_repeats(r)[1:]
        assert len(calls) == len(supports)
        padded = [v for d in point.diagrams for v in d.padded(r)]
        for (a_eq, b_eq), support in zip(calls, supports):
            columns = [weight_vector(s, r) for s in support]
            assert a_eq == [list(col) for col in zip(*columns)]
            assert b_eq == padded


REJECT = Verdict(Decision.REJECT, Reason.OUT_OF_THRESHOLD)


@pytest.mark.parametrize(
    "triple", [((2, 1), (2, 1), (2, 1)), FREE_SUPPORT_M3[0]], ids=triple_id
)
def test_a_rejected_exact_witness_raises(triple, monkeypatch):
    # required_bits makes every truncated exact witness verify, on the
    # diagonal (three equal rows) and on a Latin support alike: a rejection
    # is a bug, not a miss to pass on
    target = triple_instance(triple)
    assert search._exact_witness(target) is not None
    monkeypatch.setattr(search, "verify_membership", lambda *args: REJECT)
    with pytest.raises(RuntimeError, match="rejects the exact witness") as exc:
        search._exact_witness(target)
    assert not isinstance(exc.value, KronkitError)


def diagonal_lp_witness(point):
    """The diagonal's certificate as its LP gives it: x/d, amplitudes
    √(x/(k·d)) truncated to required_bits."""
    r, bits = point.height, required_bits(point.m, point.k)
    support = tuple((i, i, i) for i in range(1, r + 1))
    a_eq = [[int(s[x] == i) for s in support] for x in range(3) for i in range(1, r + 1)]
    lp = solve_lp(a_eq, [v for d in point.diagrams for v in d.padded(r)])
    assert lp.status == "optimal"
    return MembershipCertificate(point.m, {
        s: GaussianRational(search._dyadic_sqrt(x, point.k * lp.d, bits))
        for s, x in zip(support, lp.x)
    })


EQUAL_ROWS = [
    ((1,), 1, None),
    ((2, 1), 3, None),  # k = 3 is no square: truncated amplitudes
    ((1, 1), 2, None),
    ((4, 1), 5, 4),
    ((9, 4, 1, 1), 15, None),
    ((5, 3, 2), 10, 6),
    ((2**499, 2**499), 2**500, None),
]


@pytest.mark.parametrize("rows, k, m", EQUAL_ROWS, ids=lambda v: str(v)[:20])
def test_equal_rows_take_the_diagonal_lps_witness_without_an_lp(rows, k, m, monkeypatch):
    point = inst(rows, rows, rows, k, m)
    expected = diagonal_lp_witness(point)
    assert verify_membership(point, expected).accepted

    def refuse(a_eq, b_eq):
        raise AssertionError("an LP ran for three equal rows")

    monkeypatch.setattr(search, "solve_lp", refuse)
    cert = search._exact_witness(point)
    assert cert == expected and cert.to_json() == expected.to_json()


@pytest.mark.parametrize(
    "rows_a, rows_b, rows_c, k",
    [((1, 1), (1, 1), (2,), 2), ((2, 1), (2, 1), (1, 1, 1), 3), ((3, 1), (2, 2), (2, 1, 1), 4)],
)
def test_unequal_rows_solve_no_diagonal_lp(rows_a, rows_b, rows_c, k, monkeypatch):
    # a Latin support has r² entries, so its LP has r² columns; the
    # diagonal's would have r
    point = inst(rows_a, rows_b, rows_c, k)
    columns = []

    def record(a_eq, b_eq):
        columns.append(len(a_eq[0]))
        return solve_lp(a_eq, b_eq)

    monkeypatch.setattr(search, "solve_lp", record)
    search._exact_witness(point)
    assert columns and set(columns) == {point.height**2}


def rank_elements(m):
    """The distinct traceless, primitive (H, z) of Σ_{i>ab} λ_X[i] ≤
    Σ_{j>a} λ_Y[j] + Σ_{l>b} λ_Z[l], for each party X and a, b ≥ 1, ab < m."""
    out = []
    for x in range(3):
        y, z = (p for p in range(3) if p != x)
        for a, b in product(range(1, m), repeat=2):
            if a * b >= m:
                continue
            blocks = [None] * 3
            blocks[y] = [int(j > a) for j in range(1, m + 1)]
            blocks[z] = [int(l > b) for l in range(1, m + 1)]
            blocks[x] = [-int(i > a * b) for i in range(1, m + 1)]
            level = -sum(sum(v) for v in blocks)
            blocks = [[m * e - sum(v) for e in v] for v in blocks]
            g = gcd(*(e for v in blocks for e in v), level)
            h = HyperplaneCandidate(
                *(tuple(e // g for e in v) for v in blocks), level // g
            )
            if h not in out:
                out.append(h)
    return out


def test_rank_elements_lie_in_the_committed_systems():
    for m, count in ((2, 3), (3, 9)):
        committed = {e.h for e in committed_system(m).nontrivial}
        elements = rank_elements(m)
        assert len(elements) == count
        assert set(elements) <= committed
        assert all(check_admissible(h, m) and check_trace(h, m) for h in elements)
    assert set(rank_elements(2)) == {e.h for e in committed_system(2).nontrivial}


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
    system = committed_system(3)
    on_face = set()
    for triple, cert in member:
        target = triple_instance(triple)
        if search._exact_witness(target) is None and any(
            on_level_set(cert, h) for h in search._scan(target, system)[1]
        ):
            on_face.add(triple)
    assert (len(triples), len(nonmember), len(member)) == (390, 132, 258)
    assert undecided == []
    assert on_face == SLICE_FACE_POINTS


def test_decide_searches_when_the_violated_element_is_refused(monkeypatch):
    # an outside point: its violated element is the answer, a committed
    # certificate that the verifier accepts; a refusal is a bug, so decide
    # raises where it once searched on and answered None
    outside = inst([2], [2], [1, 1], 2)
    assert isinstance(decide(outside), RessayreCertificate)
    refused = Verdict(Decision.REJECT, Reason.DETERMINANT_VANISHES)
    monkeypatch.setattr(search, "verify_nonmembership", lambda *args: refused)
    with pytest.raises(RuntimeError, match="refuses the committed cut") as exc:
        decide(outside)
    assert not isinstance(exc.value, KronkitError)


def count_system_reads(monkeypatch):
    reads = []

    def counted(m):
        reads.append(m)
        return committed_system(m)

    monkeypatch.setattr(search, "committed_system", counted)
    return reads


def test_decide_reads_the_system_once_after_an_exact_miss(monkeypatch):
    # the face route takes the system that the facet check already read
    reads = count_system_reads(monkeypatch)
    target = triple_instance(FREE_SUPPORT_MISSES[0])
    cert = decide(target, seed=0)
    assert cert is not None and verify_membership(target, cert).accepted
    assert reads == [3]


def test_decide_reads_no_system_when_the_exact_route_decides(monkeypatch):
    reads = count_system_reads(monkeypatch)
    target = triple_instance(FREE_SUPPORT_M3[3])
    cert = search._exact_witness(target)
    assert cert is not None and decide(target, seed=0) == cert
    assert reads == []


@pytest.mark.parametrize(
    "rank, kmax, m, points, undecided, digest",
    [
        (2, 9, 3, 130, 0,
         "d8cd19de08145e156bcd1f04a580b29c0bf4d327aadbc3a9920965fcbe505065"),
        (3, 7, 4, 205, 69,
         "3342272991b373f35806f7b0c8cfd7d8274e835936403fa795e8d71bce2afa1c"),
        (2, 7, 4, 62, 22,
         "923849f458a777da961c26eeb00a82ae627820723652eb705baab8f540f66340"),
    ],
    ids=["r2-m3", "r3-m4", "r2-m4"],
)
def test_m_override_sweep_is_unchanged(monkeypatch, rank, kmax, m, points, undecided,
                                       digest):
    # decide's answers under an override, one JSON line each, pinned by their
    # digest; each point reads at most one committed system
    reads = count_system_reads(monkeypatch)
    sha = hashlib.sha256()
    answers = []
    for triple in rank_triples(rank, kmax):
        reads.clear()
        cert = decide(inst(*triple, sum(triple[0]), m=m), seed=0)
        assert len(reads) <= 1, triple
        answers.append(cert)
        sha.update(json.dumps(None if cert is None else cert.to_json()).encode() + b"\n")
    assert (len(answers), answers.count(None)) == (points, undecided)
    assert sha.hexdigest() == digest


def test_search_witness_scales_no_point_a_facet_puts_outside(monkeypatch):
    # λ_C[2] + λ_C[3] = 3 > λ_A[2] + λ_B[2] = 2 fails a rank inequality, so
    # no LP or scaling runs, and a committed m = 3 element proves the point
    # outside
    reads = count_system_reads(monkeypatch)
    monkeypatch.setattr(search, "scale", refuse_scaling)
    outside = inst([5, 1], [5, 1], [3, 2, 1], 6)
    assert search_witness(outside, seed=0) is None
    assert isinstance(decide(outside, seed=0), RessayreCertificate)
    assert reads == [3, 3]


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

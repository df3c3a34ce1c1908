import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kronkit.diagrams import KronInstance, make_instance, parse_young
from kronkit.errors import KronkitError
from kronkit.ressayre import (
    Decision,
    Reason,
    RessayreCertificate,
    Verdict,
    build_det_matrix,
    check_admissible,
    check_trace,
    eval_determinant,
    min_gap,
    siegel_bound,
    verify_nonmembership,
)
from kronkit.search import committed_system, find_point
from kronkit.weights import (
    HyperplaneCandidate,
    negative_roots,
    negative_roots_on,
    split_weights,
    weight_vector,
    weights,
)

H_WORKED = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -1)
H_ZERO = HyperplaneCandidate((0, 0), (0, 0), (0, 0), 0)
POOL = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "verify_pool.json"
# kronkit.weights is the weights() function; the module is reached this way
WEIGHTS_MODULE = sys.modules["kronkit.weights"]


def inst_2211():
    return make_instance(parse_young([2]), parse_young([2]), parse_young([1, 1]), 2)


def inst_ones():
    lam = parse_young([1, 1])
    return make_instance(lam, lam, lam, 2)


def random_candidate(rng, m, z_range=4):
    blocks = []
    for _ in range(3):
        vals = [rng.randint(-3, 3) for _ in range(m - 1)]
        blocks.append(tuple(vals + [-sum(vals)]))
    return HyperplaneCandidate(*blocks, rng.randint(-z_range, z_range))


def naive_det(mat):
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        term = mat[0][j] * naive_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_check_admissible_examples():
    assert check_admissible(H_WORKED, 2) is True
    assert check_admissible(H_ZERO, 2) is False  # rank 4, not 3
    far = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), 5)
    assert check_admissible(far, 2) is False  # empty level set


def test_check_admissible_requires_traceless():
    with pytest.raises(KronkitError, match="component A of H sums to 1, not 0"):
        check_admissible(HyperplaneCandidate((1, 0), (0, 0), (0, 0), 0), 2)


def test_check_trace_examples():
    assert check_trace(H_WORKED, 2) is True  # 1 = 1
    assert check_trace(H_ZERO, 2) is True  # 0 = 0
    low = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -3)
    assert check_trace(low, 2) is False  # nothing below the minimum, 1 root


def test_build_det_matrix_worked():
    mat = build_det_matrix(H_WORKED, 2)
    assert mat.n == 1 and mat.n_slots == 3
    assert mat.entries == ((0,),)  # slot of φ=(1,1,1), first on-level weight
    assert split_weights(H_WORKED, 2)[1] == ((1, 1, 2),)  # the one row
    assert negative_roots_on(H_WORKED, 2) == ((2, 2, 1),)  # e_2 − e_1 in block C


def test_build_det_matrix_empty():
    # strictly positive pairing everywhere: nothing below, no negative roots
    h = HyperplaneCandidate((0, 0), (0, 0), (0, 0), -1)
    mat = build_det_matrix(h, 2)
    assert mat.n == 0 and mat.n_slots == 0
    assert eval_determinant(mat, ()) == 1


def test_build_det_matrix_not_square():
    # the orientation flip of the worked element is lopsided: one weight
    # below the level but two negatively-pairing roots
    flipped = HyperplaneCandidate((1, -1), (1, -1), (-1, 1), -1)
    with pytest.raises(KronkitError, match="1 below-level weights vs 2 negative roots"):
        build_det_matrix(flipped, 2)


def test_build_det_matrix_two_by_two():
    h = HyperplaneCandidate((1, -1), (1, -1), (0, 0), 0)
    assert check_admissible(h, 2) and check_trace(h, 2)
    mat = build_det_matrix(h, 2)
    assert mat.n == 2 and mat.n_slots == 4
    assert mat.entries == ((0, 2), (1, 3))
    # det = p0·p3 − p1·p2 by construction
    assert eval_determinant(mat, (1, 1, 1, 1)) == 0
    assert eval_determinant(mat, (2, 3, 1, 5)) == 2 * 5 - 3 * 1


def test_det_matrix_slots_match_vector_differences():
    # entry (ω, α) is the slot of the weight with vector ω − α, if on the level
    rng = random.Random(59)
    m, squares = 3, 0
    for _ in range(200):
        h = random_candidate(rng, m)
        if not check_trace(h, m):
            continue
        squares += 1
        mat = build_det_matrix(h, m)
        on_vectors = [weight_vector(w, m) for w in split_weights(h, m)[0]]
        for w, row in zip(split_weights(h, m)[1], mat.entries):
            for (block, i, j), slot in zip(negative_roots_on(h, m), row):
                diff = weight_vector(w, m)
                diff[block * m + i - 1] -= 1
                diff[block * m + j - 1] += 1
                assert slot == (on_vectors.index(diff) if diff in on_vectors else None)
    assert squares > 10


def test_eval_determinant_examples():
    mat = build_det_matrix(H_WORKED, 2)
    assert eval_determinant(mat, (1, 0, 0)) == 1
    assert eval_determinant(mat, (0, 5, 7)) == 0
    with pytest.raises(KronkitError, match="evaluation point has length 2, expected 3"):
        eval_determinant(mat, (1, 0))


def test_eval_determinant_matches_cofactor_oracle():
    rng = random.Random(59)
    checked = 0
    while checked < 40:
        h = random_candidate(rng, 2)
        try:
            mat = build_det_matrix(h, 2)
        except KronkitError as exc:
            assert "negative roots" in str(exc)
            continue
        if not 1 <= mat.n <= 4:
            continue
        checked += 1
        p = tuple(rng.randint(0, 8) for _ in range(mat.n_slots))
        numeric = [
            [0 if slot is None else p[slot] for slot in row]
            for row in mat.entries
        ]
        assert eval_determinant(mat, p) == naive_det(numeric)


def lagrange_eval(points, values, t):
    """Exact Lagrange interpolation through (points, values) evaluated at t."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(points, values)):
        term = Fraction(yi)
        for j, xj in enumerate(points):
            if i != j:
                term *= Fraction(t - xj, xi - xj)
        total += term
    return total


def test_determinant_degree_bound():
    # restricted to any line, the determinant has degree ≤ its dimension
    rng = random.Random(61)
    checked = 0
    while checked < 15:
        h = random_candidate(rng, 2)
        try:
            mat = build_det_matrix(h, 2)
        except KronkitError as exc:
            assert "negative roots" in str(exc)
            continue
        if mat.n == 0:
            continue
        checked += 1
        q = [rng.randint(-3, 3) for _ in range(mat.n_slots)]
        r = [rng.randint(0, 8) for _ in range(mat.n_slots)]

        def along_line(t):
            return eval_determinant(
                mat, tuple(qi * t + ri for qi, ri in zip(q, r))
            )

        base_points = list(range(mat.n + 1))
        base_values = [along_line(t) for t in base_points]
        for t_extra in (mat.n + 1, mat.n + 2):
            assert along_line(t_extra) == lagrange_eval(
                base_points, base_values, t_extra
            )


def test_verify_nonmembership_worked_accept():
    cert = RessayreCertificate(H_WORKED, (1, 0, 0))
    verdict = verify_nonmembership(inst_2211(), cert)
    assert verdict.accepted and verdict.reason is None


def test_verify_nonmembership_rejections():
    cert = RessayreCertificate(H_WORKED, (1, 0, 0))
    v = verify_nonmembership(inst_ones(), cert)
    assert v.decision is Decision.REJECT
    assert v.reason is Reason.INEQUALITY_NOT_VIOLATED

    zero_cert = RessayreCertificate(H_ZERO, ())
    v = verify_nonmembership(inst_2211(), zero_cert)
    assert v.reason is Reason.NOT_ADMISSIBLE

    vanishing = RessayreCertificate(H_WORKED, (0, 5, 7))
    v = verify_nonmembership(inst_2211(), vanishing)
    assert v.reason is Reason.DETERMINANT_VANISHES


def test_verify_nonmembership_shape_mismatch():
    lam = parse_young([1, 1, 1])
    inst3 = make_instance(lam, lam, lam, 3)
    cert = RessayreCertificate(H_WORKED, (1, 0, 0))
    with pytest.raises(KronkitError, match="certificate rank 2 does not match"):
        verify_nonmembership(inst3, cert)


def test_verify_nonmembership_wrong_p_length_is_malformed():
    cert = RessayreCertificate(H_WORKED, (1, 0))
    with pytest.raises(KronkitError, match="evaluation point has length 2, expected 3"):
        verify_nonmembership(inst_2211(), cert)


def pool_nonmembers():
    items = json.loads(POOL.read_text(encoding="utf-8"))["items"]
    return [
        (KronInstance.from_json(item["instance"]),
         RessayreCertificate.from_json(item["certificate"]),
         item["expected"])
        for item in items
        if item["kind"] == "nonmember"
    ]


def test_pool_nonmember_verdicts():
    nonmembers = pool_nonmembers()
    assert len(nonmembers) == 60
    # every outcome of the verifier at both ranks the pool holds
    outcomes = {(inst.m, expected) for inst, _, expected in nonmembers}
    assert len(outcomes) == 10
    for inst, cert, expected in nonmembers:
        assert str(verify_nonmembership(inst, cert)) == expected


def fraction_rank(rows):
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in rows[rank:] if r[c] != 0), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows.insert(rank, pivot)
        for r in rows[rank + 1 :]:
            factor = r[c] / pivot[c]
            r[:] = [x - factor * y for x, y in zip(r, pivot)]
        rank += 1
    return rank


def reference_verdict(inst, h, p):
    """The four checks of the verifier, each straight from its definition."""
    m = h.m
    level = {w: sum(b[t - 1] for b, t in zip(h.blocks, w)) - h.z for w in weights(m)}
    on = [w for w in weights(m) if level[w] == 0]
    below = [w for w in weights(m) if level[w] < 0]
    # the (3m+1)-row matrix with a column (φ_vec; −1) per on-level weight
    columns = [weight_vector(w, m) + [-1] for w in on]
    if fraction_rank(columns) != 3 * (m - 1):
        return "Reject(NotAdmissible)"
    roots = [
        (b, i, j)
        for b, i, j in negative_roots(m)
        if h.blocks[b][i - 1] < h.blocks[b][j - 1]
    ]
    if len(roots) != len(below):
        return "Reject(TraceMismatch)"
    on_vectors = [weight_vector(w, m) for w in on]
    matrix = []
    for w in below:
        row = []
        for b, i, j in roots:
            diff = weight_vector(w, m)
            diff[b * m + i - 1] -= 1
            diff[b * m + j - 1] += 1
            row.append(p[on_vectors.index(diff)] if diff in on_vectors else 0)
        matrix.append(row)
    if naive_det(matrix) == 0:
        return "Reject(DeterminantVanishes)"
    rows = inst.padded_rows()
    pairing = sum(x * y for b, lam in zip(h.blocks, rows) for x, y in zip(b, lam))
    if pairing < inst.k * h.z:
        return "Accept"
    return "Reject(InequalityNotViolated)"


def evaluation_points(rng, h, m):
    """A ``find_point`` point (any point when the count fails) and a mutation.

    The mutation sets one seeded coordinate to 0, which makes a determinant
    of one slot vanish.
    """
    n_slots = len(split_weights(h, m)[0])
    found = find_point(h, m) if check_trace(h, m) else None
    if found is None:
        found = tuple(rng.randint(0, m**3) for _ in range(n_slots))
    mutated = list(found)
    if mutated:
        mutated[rng.randrange(n_slots)] = 0
    return [found, tuple(mutated)]


def differential_corpus():
    """(candidate, point, instance) triples at m = 2 and m = 3, seeded."""
    rng = random.Random(30)
    instances = {2: [], 3: []}
    for inst, _, _ in pool_nonmembers():
        if inst not in instances[inst.m]:
            instances[inst.m].append(inst)
    # every traceless H at m = 2 with entries in [−2, 2], z in [−3, 3]
    span = range(-2, 3)
    candidates = [
        HyperplaneCandidate((a, -a), (b, -b), (c, -c), z)
        for a in span for b in span for c in span for z in range(-3, 4)
    ]
    # the committed m = 3 facets, their negations, and seeded random ones
    facets = [e.h for e in committed_system(3).nontrivial]
    candidates += facets + [h.negated() for h in facets]
    candidates += [
        random_candidate(rng, 3, z_range=3) for _ in range(300 - 2 * len(facets))
    ]
    for h in candidates:
        for p in evaluation_points(rng, h, h.m):
            for inst in rng.sample(instances[h.m], 3):
                yield h, p, inst


def test_verifier_matches_the_reference_verdicts():
    seen = set()
    checked = 0
    for h, p, inst in differential_corpus():
        # a fresh candidate per check, as a certificate read from a file is
        h = HyperplaneCandidate(*h.blocks, h.z)
        verdict = str(verify_nonmembership(inst, RessayreCertificate(h, p)))
        assert verdict == reference_verdict(inst, h, p), (h, p, inst)
        seen.add((h.m, verdict))
        checked += 1
    assert checked == (875 + 300) * 2 * 3
    outcomes = {
        "Accept", "Reject(NotAdmissible)", "Reject(TraceMismatch)",
        "Reject(DeterminantVanishes)", "Reject(InequalityNotViolated)",
    }
    assert seen == {(m, outcome) for m in (2, 3) for outcome in outcomes}


def count_splits(monkeypatch):
    calls = []
    split = WEIGHTS_MODULE._level_split

    def spy(h):
        calls.append(h)
        return split(h)

    monkeypatch.setattr(WEIGHTS_MODULE, "_level_split", spy)
    return calls


def test_one_verification_splits_once(monkeypatch):
    calls = count_splits(monkeypatch)
    # a fresh candidate: H_WORKED may already hold its split from other tests
    cert = RessayreCertificate(
        HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -1), (1, 0, 0)
    )
    # all four checks run: admissible, trace, determinant, inequality
    assert verify_nonmembership(inst_2211(), cert).accepted
    assert calls == [cert.h]


def test_equal_candidates_are_split_apart(monkeypatch):
    calls = count_splits(monkeypatch)
    obj = {"H": [[-1, 1], [-1, 1], [1, -1]], "z": -1}
    first = HyperplaneCandidate.from_json(obj)
    second = HyperplaneCandidate.from_json(obj)
    assert first == second
    for h in (first, second, first):
        assert split_weights(h, 2)[0] == ((1, 1, 1), (1, 2, 2), (2, 1, 2))
    assert len(calls) == 2


def test_split_and_roots_are_the_stored_tuples():
    # callers only read them, so each call returns the object's own tuples,
    # which cannot be changed in place
    h = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -1)
    split, roots = split_weights(h, 2), negative_roots_on(h, 2)
    assert split == (((1, 1, 1), (1, 2, 2), (2, 1, 2)), ((1, 1, 2),))
    assert roots == ((2, 2, 1),)
    assert split_weights(h, 2) is split and negative_roots_on(h, 2) is roots


def test_scale_invariance_of_final_inequality():
    cert = RessayreCertificate(H_WORKED, (1, 0, 0))
    for l in (1, 2, 3, 5):
        lam = parse_young([2 * l])
        lam_c = parse_young([l, l])
        scaled = make_instance(lam, lam, lam_c, 2 * l)
        assert verify_nonmembership(scaled, cert).accepted


def test_admissibility_is_orientation_symmetric():
    rng = random.Random(67)
    for m in (2, 3):
        for _ in range(40):
            h = random_candidate(rng, m)
            assert check_admissible(h, m) == check_admissible(h.negated(), m)


def test_verdict_reject_requires_reason():
    with pytest.raises(ValueError):
        Verdict(Decision.REJECT)
    assert str(Verdict(Decision.ACCEPT)) == "Accept"
    assert (
        str(Verdict(Decision.REJECT, Reason.TRACE_MISMATCH))
        == "Reject(TraceMismatch)"
    )


def test_siegel_bound_values():
    assert siegel_bound(1) == 64
    assert siegel_bound(2) == 262144
    assert siegel_bound(3) == 5159780352
    assert siegel_bound(3) == 12**9


def test_min_gap_values():
    assert min_gap(2, 2) == Fraction(1, 33554432)
    assert min_gap(2, 2) == Fraction(1, 2**25)
    assert min_gap(1, 1) == Fraction(1, 256)
    assert min_gap(2, 1) == Fraction(1, 16777216)


def test_certificate_json_round_trip():
    cert = RessayreCertificate(H_WORKED, (1, 0, 0))
    obj = cert.to_json()
    assert obj == {"H": [[-1, 1], [-1, 1], [1, -1]], "z": -1, "p": [1, 0, 0]}
    assert RessayreCertificate.from_json(obj) == cert


def test_certificate_refuses_non_integer_values():
    # each would pass the verifier if built: the determinant is 1.9 or 1
    with pytest.raises(KronkitError, match="expected an integer, got 1.9"):
        RessayreCertificate(H_WORKED, (1.9, 0, 0))
    with pytest.raises(KronkitError, match="expected an integer, got True"):
        RessayreCertificate(H_WORKED, (True, False, False))
    with pytest.raises(KronkitError, match="expected an integer, got -1.0"):
        RessayreCertificate(HyperplaneCandidate((-1.0, 1.0), (-1, 1), (1, -1), -1), (1, 0, 0))
    with pytest.raises(KronkitError, match="expected an integer, got 1.9"):
        RessayreCertificate.from_json({**H_WORKED.to_json(), "p": [1.9, 0, 0]})
    with pytest.raises(KronkitError, match="p must be a list, got int"):
        RessayreCertificate.from_json({**H_WORKED.to_json(), "p": 1})

import random
from fractions import Fraction

import pytest

from kronkit.diagrams import make_instance, parse_young
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
from kronkit.weights import HyperplaneCandidate, split_weights, weight_vector

H_WORKED = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -1)
H_ZERO = HyperplaneCandidate((0, 0), (0, 0), (0, 0), 0)


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
    assert mat.row_weights == ((1, 1, 2),)
    assert mat.col_roots == ((2, 2, 1),)  # e_2 − e_1 in block C


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
        for w, row in zip(mat.row_weights, mat.entries):
            for (block, i, j), slot in zip(mat.col_roots, row):
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

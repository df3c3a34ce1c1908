import random

import pytest

from kronkit.errors import KronkitError
from kronkit.intlinalg import integer_rank
from kronkit.weights import (
    HyperplaneCandidate,
    affine_rank,
    negative_roots,
    negative_roots_on,
    split_weights,
    weight_vector,
    weights,
)

# the worked rank-2 hyperplane used throughout the suite
H_WORKED = HyperplaneCandidate((-1, 1), (-1, 1), (1, -1), -1)
H_FLIPPED = HyperplaneCandidate((1, -1), (1, -1), (-1, 1), -1)


def random_candidate(rng, m, z_range=4):
    blocks = []
    for _ in range(3):
        vals = [rng.randint(-3, 3) for _ in range(m - 1)]
        blocks.append(tuple(vals + [-sum(vals)]))
    return HyperplaneCandidate(*blocks, rng.randint(-z_range, z_range))


def test_weights_counts_and_order():
    assert weights(1) == [(1, 1, 1)]
    ws = weights(2)
    assert len(ws) == 8
    assert ws[0] == (1, 1, 1) and ws[-1] == (2, 2, 2)
    assert len(weights(3)) == 27
    # strictly increasing lexicographic order
    assert weights(3) == sorted(set(weights(3)))


def test_weights_cap():
    assert len(weights(12)) == 12**3
    with pytest.raises(KronkitError, match="m=13 exceeds the weight materialization"):
        weights(13)


def test_weight_vector_blocks():
    assert weight_vector(weights(3)[0], 3) == [1, 0, 0, 1, 0, 0, 1, 0, 0]
    assert weight_vector((2, 3, 1), 3) == [0, 1, 0, 0, 0, 1, 1, 0, 0]
    for w in weights(2):
        vec = weight_vector(w, 2)
        assert sum(vec[0:2]) == 1 and sum(vec[2:4]) == 1 and sum(vec[4:6]) == 1


def test_negative_roots_counts():
    assert negative_roots(1) == []
    assert negative_roots(2) == [(0, 2, 1), (1, 2, 1), (2, 2, 1)]
    assert negative_roots(3)[:3] == [(0, 2, 1), (0, 3, 1), (0, 3, 2)]
    assert len(negative_roots(3)) == 9
    assert len(negative_roots(5)) == 3 * 5 * 4 // 2


def test_split_weights_worked_example():
    on, below = split_weights(H_WORKED, 2)
    assert on == ((1, 1, 1), (1, 2, 2), (2, 1, 2))
    assert below == ((1, 1, 2),)


def test_split_weights_zero_h():
    zero = HyperplaneCandidate((0, 0), (0, 0), (0, 0), 0)
    on, below = split_weights(zero, 2)
    assert len(on) == 8 and not below
    one = HyperplaneCandidate((0, 0), (0, 0), (0, 0), 1)
    on, below = split_weights(one, 2)
    assert len(below) == 8 and not on
    minus_one = HyperplaneCandidate((0, 0), (0, 0), (0, 0), -1)
    assert split_weights(minus_one, 2) == ((), ())  # all eight above


def test_split_sizes_partition_everything():
    rng = random.Random(41)
    for m in (1, 2, 3):
        for _ in range(40):
            h = random_candidate(rng, m)
            on, below = split_weights(h, m)
            assert set(on).isdisjoint(below)
            assert set(on) | set(below) <= set(weights(m))


def test_negative_roots_on_worked_example():
    assert negative_roots_on(H_WORKED, 2) == ((2, 2, 1),)  # C
    # and the sign-flipped candidate selects the complementary pair
    assert negative_roots_on(H_FLIPPED, 2) == ((0, 2, 1), (1, 2, 1))  # A, B
    zero = HyperplaneCandidate((0, 0), (0, 0), (0, 0), 0)
    assert negative_roots_on(zero, 2) == ()


def test_negative_roots_on_enforces_the_weight_cap():
    zero = (0,) * 13
    with pytest.raises(KronkitError, match="m=13 exceeds the weight materialization"):
        negative_roots_on(HyperplaneCandidate(zero, zero, zero, 0), 13)


def test_hyperplane_refuses_non_integer_values():
    for blocks, z, bad in [
        (((-1.0, 1.0), (-1, 1), (1, -1)), -1, "-1.0"),
        (((-1, 1), (-1, 1), (1, -1)), -1.5, "-1.5"),
        (((False, False), (-1, 1), (1, -1)), -1, "False"),
        (((-1, 1), (-1, 1), (1, -1)), True, "True"),
    ]:
        with pytest.raises(KronkitError, match=f"expected an integer, got {bad}"):
            HyperplaneCandidate(*blocks, z)


def test_negative_roots_on_negation_partition():
    rng = random.Random(43)
    for m in (2, 3):
        for _ in range(40):
            h = random_candidate(rng, m)
            neg = set(negative_roots_on(h, m))
            pos = set(negative_roots_on(h.negated(), m))
            nonzero = {
                (b, i, j)
                for b, i, j in negative_roots(m)
                if h.blocks[b][i - 1] != h.blocks[b][j - 1]
            }
            assert neg.isdisjoint(pos)
            assert neg | pos == nonzero


def root_vector(root, m):
    block, i, j = root
    v = [0] * (3 * m)
    v[block * m + i - 1] = 1
    v[block * m + j - 1] = -1
    return v


def test_pairings_match_naive_dot_products():
    rng = random.Random(47)
    for m in (2, 3):
        for _ in range(30):
            h = random_candidate(rng, m)
            hv = [v for block in h.blocks for v in block]
            dot = lambda vec: sum(a * b for a, b in zip(vec, hv))
            on, below = split_weights(h, m)
            ws = weights(m)
            assert on == tuple(w for w in ws if dot(weight_vector(w, m)) == h.z)
            assert below == tuple(w for w in ws if dot(weight_vector(w, m)) < h.z)
            assert negative_roots_on(h, m) == tuple(
                r for r in negative_roots(m) if dot(root_vector(r, m)) < 0
            )


def test_affine_rank_examples():
    assert affine_rank(weights(2), 2) == 4
    assert affine_rank(weights(2)[:1], 2) == 1
    on, _ = split_weights(H_WORKED, 2)
    assert affine_rank(on, 2) == 3
    assert affine_rank([], 2) == 0


def test_affine_rank_permutation_and_duplication_invariant():
    rng = random.Random(53)
    base = weights(2)
    for _ in range(30):
        s = rng.sample(base, rng.randint(1, 8))
        r = affine_rank(s, 2)
        shuffled = s[:]
        rng.shuffle(shuffled)
        assert affine_rank(shuffled, 2) == r
        assert affine_rank(s + [rng.choice(s)], 2) == r


def reference_affine_rank(s, m):
    return integer_rank([weight_vector(w, m) + [-1] for w in s])


def test_affine_rank_matches_full_matrix_rank():
    base = weights(2)
    for mask in range(1 << len(base)):
        s = [w for bit, w in enumerate(base) if mask >> bit & 1]
        assert affine_rank(s, 2) == reference_affine_rank(s, 2)
    rng = random.Random(59)
    for m in (3, 4):
        ws = weights(m)
        subsets = [[], ws[:1], ws[-1:], ws]
        subsets += [rng.sample(ws, rng.randint(1, len(ws))) for _ in range(150)]
        subsets += [rng.sample(ws, rng.randint(2, 3 * m)) for _ in range(150)]
        for s in subsets:
            assert affine_rank(s, m) == reference_affine_rank(s, m)


def test_split_and_roots_refuse_another_rank():
    with pytest.raises(KronkitError, match="blocks of length 2, expected m=3"):
        split_weights(H_WORKED, 3)
    with pytest.raises(KronkitError, match="blocks of length 2, expected m=1"):
        negative_roots_on(H_WORKED, 1)


def test_traceless_validation():
    with pytest.raises(KronkitError, match="component A of H sums to 1, not 0"):
        HyperplaneCandidate((1, 0), (0, 0), (0, 0), 0)


def test_blocks_of_another_length_are_refused():
    with pytest.raises(KronkitError, match="component B has length 3, expected 2"):
        HyperplaneCandidate((-1, 1), (-1, 0, 1), (1, -1), 0)
    with pytest.raises(KronkitError, match="component C has length 1, expected 2"):
        HyperplaneCandidate((-1, 1), (-1, 1), (0,), 0)


def test_hyperplane_json_round_trip():
    obj = H_WORKED.to_json()
    assert obj == {"H": [[-1, 1], [-1, 1], [1, -1]], "z": -1}
    assert list(obj) == ["H", "z"]
    assert HyperplaneCandidate.from_json(obj) == H_WORKED
    with pytest.raises(KronkitError, match="exactly three components"):
        HyperplaneCandidate.from_json({"H": [[-1, 1], [-1, 1]], "z": -1})
    with pytest.raises(KronkitError, match="component A of H sums to 2, not 0"):
        HyperplaneCandidate.from_json({"H": [[1, 1], [-1, 1], [1, -1]], "z": -1})

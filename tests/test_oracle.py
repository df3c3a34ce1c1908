import math
import random

import pytest

from kronkit.diagrams import make_instance, parse_young
from kronkit.errors import KronkitError
from kronkit.oracle import (
    centralizer_order,
    kron_coeff,
    mn_character,
    partitions,
    semigroup_member,
)


def conjugate(lam):
    """Transpose of a partition, computed column by column."""
    if not lam:
        return ()
    return tuple(sum(1 for r in lam if r > j) for j in range(lam[0]))


def hook_dim(lam):
    """Irreducible dimension via the hook length formula — an independent
    route to χ_λ(identity)."""
    cols = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return math.factorial(sum(lam)) // hooks


def Y(rows):
    return parse_young(rows)


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    for n, count in enumerate(expected):
        parts = list(partitions(n))
        assert len(parts) == count
        assert len(set(parts)) == count
        for p in parts:
            assert sum(p) == n
            assert all(a >= b for a, b in zip(p, p[1:]))


def test_partitions_max_part():
    assert list(partitions(4, 2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_centralizer_orders():
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((3,)) == 3
    assert centralizer_order(()) == 1


def test_class_sizes_partition_the_group():
    # the class sizes k!/z_μ are integers that sum to k!
    for k in range(1, 8):
        total = 0
        for mu in partitions(k):
            size, rem = divmod(math.factorial(k), centralizer_order(mu))
            assert rem == 0
            total += size
        assert total == math.factorial(k)


def test_trivial_and_sign_characters():
    for k in range(1, 7):
        for mu in partitions(k):
            mu_d = parse_young(mu)
            assert mn_character(parse_young([k]), mu_d) == 1
            sign = (-1) ** (k - len(mu))
            assert mn_character(parse_young([1] * k), mu_d) == sign


def test_s3_character_table():
    std = parse_young([2, 1])
    assert mn_character(std, parse_young([1, 1, 1])) == 2
    assert mn_character(std, parse_young([2, 1])) == 0
    assert mn_character(std, parse_young([3])) == -1


def test_s4_character_samples():
    assert mn_character(parse_young([2, 2]), parse_young([1, 1, 1, 1])) == 2
    assert mn_character(parse_young([2, 2]), parse_young([2, 2])) == 2
    assert mn_character(parse_young([2, 2]), parse_young([4])) == 0
    assert mn_character(parse_young([3, 1]), parse_young([1, 1, 1, 1])) == 3
    assert mn_character(parse_young([3, 1]), parse_young([2, 1, 1])) == 1
    assert mn_character(parse_young([3, 1]), parse_young([4])) == -1


def test_dimensions_match_hook_length_formula():
    for k in range(1, 8):
        identity = parse_young([1] * k)
        for lam in partitions(k):
            assert mn_character(parse_young(lam), identity) == hook_dim(lam)


def test_sum_of_squared_dimensions():
    for k in range(1, 8):
        identity = parse_young([1] * k)
        total = sum(
            mn_character(parse_young(lam), identity) ** 2
            for lam in partitions(k)
        )
        assert total == math.factorial(k)


def test_column_orthogonality():
    for k in range(1, 7):
        parts = [parse_young(p) for p in partitions(k)]
        for mu in parts:
            for nu in parts:
                total = sum(
                    mn_character(lam, mu) * mn_character(lam, nu)
                    for lam in parts
                )
                if mu == nu:
                    assert total == centralizer_order(mu.rows)
                else:
                    assert total == 0


def test_character_box_count_mismatch():
    with pytest.raises(KronkitError, match="has 3 boxes but cycle type"):
        mn_character(parse_young([2, 1]), parse_young([2, 2]))


def test_multiplicity_frozen_values():
    assert kron_coeff(Y([1, 1]), Y([1, 1]), Y([2])) == 1
    assert kron_coeff(Y([2]), Y([2]), Y([1, 1])) == 0
    assert kron_coeff(Y([2]), Y([2]), Y([2])) == 1
    assert kron_coeff(Y([2, 1]), Y([2, 1]), Y([2, 1])) == 1
    assert kron_coeff(Y([1, 1]), Y([1, 1]), Y([1, 1])) == 0
    assert kron_coeff(Y([2, 2]), Y([2, 2]), Y([2, 2])) == 1


def test_multiplicity_with_trivial_row_is_kronecker_delta():
    for k in range(1, 7):
        parts = [parse_young(p) for p in partitions(k)]
        triv = parse_young([k])
        for lam in parts:
            for mu in parts:
                expected = 1 if lam == mu else 0
                assert kron_coeff(lam, mu, triv) == expected


def test_multiplicity_with_sign_row_transposes():
    for k in range(1, 7):
        parts = list(partitions(k))
        sign = parse_young([1] * k)
        for lam in parts:
            for mu in parts:
                expected = 1 if conjugate(lam) == mu else 0
                assert kron_coeff(parse_young(lam), parse_young(mu), sign) == expected


def test_multiplicity_permutation_invariance():
    rng = random.Random(71)
    for _ in range(25):
        k = rng.randint(2, 6)
        parts = list(partitions(k))
        a, b, c = (parse_young(rng.choice(parts)) for _ in range(3))
        g = kron_coeff(a, b, c)
        assert g >= 0
        assert kron_coeff(b, a, c) == g
        assert kron_coeff(c, b, a) == g
        assert kron_coeff(a, c, b) == g


def test_multiplicity_invariant_under_double_transpose():
    rng = random.Random(73)
    for _ in range(20):
        k = rng.randint(2, 6)
        parts = list(partitions(k))
        a, b, c = (rng.choice(parts) for _ in range(3))
        g = kron_coeff(Y(a), Y(b), Y(c))
        assert kron_coeff(Y(conjugate(a)), Y(conjugate(b)), Y(c)) == g


def test_multiplicity_box_count_mismatch():
    with pytest.raises(KronkitError, match="must have equal box counts"):
        kron_coeff(Y([2]), Y([2]), Y([3]))


def test_semigroup_member_immediate():
    inst = make_instance(Y([2, 1]), Y([2, 1]), Y([2, 1]), 3)
    assert semigroup_member(inst, l_max=2) == 1


def test_semigroup_member_needs_stretching():
    lam = Y([1, 1])
    inst = make_instance(lam, lam, lam, 2)
    assert semigroup_member(inst, l_max=1) is None
    assert semigroup_member(inst, l_max=2) == 2


def test_semigroup_member_unknown_outside():
    inst = make_instance(Y([2]), Y([2]), Y([1, 1]), 2)
    assert semigroup_member(inst, l_max=4) is None


def test_semigroup_member_cap():
    lam = Y([1, 1])
    inst = make_instance(lam, lam, lam, 2)
    with pytest.raises(KronkitError, match="needs 14 boxes, cap is 12"):
        semigroup_member(inst, l_max=7)
    assert semigroup_member(inst, l_max=7, cap=14) == 2

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from kronkit.intlinalg import (
    det_bareiss,
    integer_rank,
    kernel_vector_if_unique,
)
from kronkit.weights import weight_vector, weights


def naive_det(mat):
    """Cofactor expansion — independent oracle for small matrices."""
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


def fraction_rref(mat):
    """Plain Gauss–Jordan elimination over Fraction — independent oracle.

    Returns the reduced rows and the pivot columns."""
    a = [[Fraction(v) for v in row] for row in mat]
    n_rows, n_cols = len(a), len(a[0])
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        piv = next((i for i in range(r, n_rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [v / a[r][c] for v in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c] != 0:
                coef = a[i][c]
                a[i] = [x - coef * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def fraction_rank(mat):
    return len(fraction_rref(mat)[1])


def fraction_kernel(mat):
    """Reference kernel: free coordinate 1 in the reduced echelon form, then
    scaled to a primitive integer vector (so the free coordinate is > 0)."""
    a, pivots = fraction_rref(mat)
    n_cols = len(a[0])
    if n_cols - len(pivots) != 1:
        return None
    free = next(c for c in range(n_cols) if c not in pivots)
    x = [Fraction(0)] * n_cols
    x[free] = Fraction(1)
    for r, c in enumerate(pivots):
        x[c] = -a[r][free]
    scale = lcm(*(q.denominator for q in x))
    ints = [int(q * scale) for q in x]
    g = gcd(*ints)
    return [v // g for v in ints]


def test_det_matches_cofactor_oracle():
    rng = random.Random(23)
    for n in (1, 2, 3, 4):
        for _ in range(60):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            assert det_bareiss(mat) == naive_det(mat)


def test_det_empty_and_singular():
    assert det_bareiss([]) == 1
    assert det_bareiss([[2, 4], [1, 2]]) == 0
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])


def test_det_big_entries_exact():
    # entries big enough that float determinants would be garbage
    big = 10**30
    mat = [[big, big - 1], [big + 1, big]]
    assert det_bareiss(mat) == big * big - (big - 1) * (big + 1)  # = 1


def test_rank_matches_fraction_oracle():
    rng = random.Random(29)
    for _ in range(120):
        n_rows = rng.randint(1, 6)
        n_cols = rng.randint(1, 6)
        mat = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(n_rows)]
        assert integer_rank(mat) == fraction_rank(mat)


def test_rank_degenerate_shapes():
    assert integer_rank([]) == 0
    assert integer_rank([[0, 0], [0, 0]]) == 0
    assert integer_rank([[1, 2], [2, 4], [3, 6]]) == 1


def test_kernel_unique_simple():
    # x + y + z = 0, x − z = 0 → kernel spanned by (1, −2, 1)
    v = kernel_vector_if_unique([[1, 1, 1], [1, 0, -1]])
    assert v is not None
    assert sorted(map(abs, v)) == [1, 1, 2]
    assert v[0] + v[1] + v[2] == 0 and v[0] == v[2]


def test_kernel_none_when_full_rank_or_big():
    assert kernel_vector_if_unique([[1, 0], [0, 1]]) is None  # trivial kernel
    assert kernel_vector_if_unique([[1, 1, 1]]) is None  # 2-dimensional


def test_kernel_vector_is_primitive_and_in_kernel():
    rng = random.Random(31)
    found = 0
    for _ in range(200):
        n = rng.randint(2, 5)
        mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n - 1)]
        v = kernel_vector_if_unique(mat)
        if v is None:
            continue
        found += 1
        for row in mat:
            assert sum(a * b for a, b in zip(row, v)) == 0
        g = 0
        for x in v:
            g = gcd(g, x)
        assert g == 1
    assert found > 50  # the generator hits plenty of corank-1 systems


def test_kernel_matches_fraction_reference_exactly():
    # equal as vectors, sign included, not merely up to scale
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 7)
        mat = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n - 1)]
        if rng.random() < 0.3:  # a dependent row keeps the corank at most 1
            mat.append([u + v for u, v in zip(mat[0], mat[-1])])
        assert kernel_vector_if_unique(mat) == fraction_kernel(mat)


def test_kernel_matches_fraction_reference_on_rank_three_systems():
    # the systems enumeration solves: six weight incidences H·φ − z in the
    # free coordinates of a traceless H, where H_X[m] = −Σ_{i<m} H_X[i]
    m = 3
    weight_rows = []
    for w in weights(m):
        e = weight_vector(w, m)
        free = [e[b * m + i] - e[b * m + m - 1] for b in range(3) for i in range(m - 1)]
        weight_rows.append(free + [-1])
    rng = random.Random(43)
    hits = 0
    for _ in range(400):
        subset = rng.sample(range(m**3), 3 * (m - 1))
        mat = [weight_rows[i] for i in subset]
        v = kernel_vector_if_unique(mat)
        assert v == fraction_kernel(mat)
        hits += v is not None
    assert hits > 100

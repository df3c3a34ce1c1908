import itertools
import random
from fractions import Fraction

import pytest

from kronkit import exactlp
from kronkit.exactlp import solve_lp


def solve_square(rows, rhs):
    """Exact solve of a square system by Gaussian elimination, or None."""
    n = len(rows)
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return None
        a[c], a[piv] = a[piv], a[c]
        a[c] = [v / a[c][c] for v in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                coef = a[i][c]
                a[i] = [x - coef * y for x, y in zip(a[i], a[c])]
    return [a[i][n] for i in range(n)]


def vertex_enum_min(c, a_ub, b_ub):
    """Brute-force LP oracle: minimum of c·x over all feasible vertices."""
    n = len(c)
    best = None
    for subset in itertools.combinations(range(len(a_ub)), n):
        point = solve_square([a_ub[i] for i in subset], [b_ub[i] for i in subset])
        if point is None:
            continue
        feasible = all(
            sum(r * x for r, x in zip(row, point)) <= b
            for row, b in zip(a_ub, b_ub)
        )
        if not feasible:
            continue
        value = sum(ci * xi for ci, xi in zip(c, point))
        if best is None or value < best:
            best = value
    return best


def optimum(c, res):
    """c·x at the solution x/d of an optimal result."""
    return Fraction(sum(ci * xi for ci, xi in zip(c, res.x)), res.d)


def point(res):
    """The solution x/d of an optimal result."""
    return tuple(Fraction(xi, res.d) for xi in res.x)


def slack_form(c, a_ub, b_ub):
    """Standard form of min c·x, a_ub x ≤ b_ub, x ≥ 0: one slack per row."""
    rows = [
        list(row) + [1 if j == i else 0 for j in range(len(a_ub))]
        for i, row in enumerate(a_ub)
    ]
    return list(c) + [0] * len(a_ub), rows, list(b_ub)


def test_known_bounded_lp():
    # min −x−y subject to x + s1 = 3, y + s2 = 2, x + y + s3 = 4 → −4
    c = [-1, -1, 0, 0, 0]
    a_eq = [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]]
    res = solve_lp(c, a_eq, [3, 2, 4])
    assert res.status == "optimal"
    assert optimum(c, res) == -4
    assert sum(point(res)[:2]) == 4


def test_equality_constrained_lp():
    # min x subject to x + y = 1 → 0 at (0,1)
    c = [Fraction(1), Fraction(0)]
    res = solve_lp(c, [[1, 1]], [1])
    assert res.status == "optimal" and optimum(c, res) == 0
    assert point(res) == (0, 1)


def test_redundant_equation_is_dropped():
    # the second row is twice the first; its artificial cannot leave the basis
    res = solve_lp([1, 2], [[1, 1], [2, 2]], [1, 2])
    assert res.status == "optimal" and optimum([1, 2], res) == 1
    assert point(res) == (1, 0)


def test_negative_drive_out_pivot(monkeypatch):
    # the third row is the sum of the others; phase 1 ends with the second
    # and third artificials basic, the second leaves through the one nonzero
    # real entry of its row, −2, and the third row is dropped as zero
    pivots = []
    real_pivot = exactlp._pivot

    def spy(tab, basis, row, col, d):
        pivots.append(tab[row][col])
        return real_pivot(tab, basis, row, col, d)

    monkeypatch.setattr(exactlp, "_pivot", spy)
    res = solve_lp([3, -2], [[-2, -1], [2, 0], [0, -1]], [-1, 1, 0])
    assert min(pivots) < -1
    assert res.status == "optimal" and optimum([3, -2], res) == Fraction(3, 2)
    assert point(res) == (Fraction(1, 2), 0)


def test_non_integral_coefficient_is_rejected():
    for c, a_eq, b_eq in (
        ([Fraction(1, 2), 0], [[1, 1]], [1]),
        ([1, 0], [[Fraction(3, 2), 1]], [1]),
        ([1, 0], [[1, 1]], [0.5]),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            solve_lp(c, a_eq, b_eq)


def test_unbounded_lp():
    # min −x subject to x − s = 0: x can grow forever
    res = solve_lp([Fraction(-1), 0], [[1, -1]], [0])
    assert res.status == "unbounded"


def test_infeasible_lp():
    # x + s = −1 has no nonnegative solution
    res = solve_lp([Fraction(1), 0], [[1, 1]], [-1])
    assert res.status == "infeasible"


def test_exact_rational_answer():
    # min x subject to 3x − s = 1 → exactly 1/3, no float drift
    res = solve_lp([Fraction(1), 0], [[3, -1]], [1])
    assert res.status == "optimal" and optimum([1, 0], res) == Fraction(1, 3)
    assert res.x == (1, 0) and res.d == 3  # integer numerators over d


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(2, 3)
        # box 0 ≤ x ≤ 5 keeps everything bounded with vertices
        a_ub = [[0] * n for _ in range(2 * n)]
        b_ub = []
        for i in range(n):
            a_ub[2 * i][i] = 1
            a_ub[2 * i + 1][i] = -1
            b_ub += [5, 0]
        for _ in range(rng.randint(1, 3)):  # random extra cuts
            a_ub.append([rng.randint(-3, 3) for _ in range(n)])
            b_ub.append(rng.randint(1, 10))
        c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        expected = vertex_enum_min(c, a_ub, b_ub)
        res = solve_lp(*slack_form(c, a_ub, b_ub))
        if expected is None:
            assert res.status == "infeasible"
        else:
            assert res.status == "optimal"
            assert optimum(c, res) == expected

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from kronkit import exactlp, search
from kronkit.exactlp import solve_lp
from kronkit.search import FacetSystem, reduce_irredundant

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
# pivots of the 114 → 39 reduction under Bland's rule alone, with every row
# started on an artificial
BLAND_REDUCTION_PIVOTS = 5011


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


@pytest.mark.parametrize(
    "c, a_eq, b_eq",
    [
        ([1], [[1, 1]], [1]),  # a row longer than c
        ([1, 1, 1], [[1, 1]], [1]),  # a row shorter than c
        ([1, 1], [[1, 1], [1, 0]], [1]),  # fewer right-hand sides than rows
        ([1, 1], [[1, 1]], [1, 2]),  # more right-hand sides than rows
    ],
)
def test_wrong_shape_is_rejected(c, a_eq, b_eq):
    with pytest.raises(ValueError, match="entries"):
        solve_lp(c, a_eq, b_eq)


class PivotLog:
    """Spies on ``_simplex`` and ``_pivot``: checks each entering column
    against the pricing rule and counts the pivots, in all and by kind.

    Inside ``_simplex`` the last tableau row is the objective over every
    priced column, and the right-hand side is last.  A pivot outside it
    drives an artificial out of the basis, and no rule applies to it.
    """

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(
            ("total", "dantzig", "bland", "degenerate", "rules_differ"), 0
        )
        self.starts = []  # (n_cols, basis) at the start of each _simplex
        self.inside = self.after_degenerate = False
        real_simplex, real_pivot = exactlp._simplex, exactlp._pivot

        def simplex(tab, basis, n_cols, d):
            assert n_cols == len(tab[-1]) - 1
            self.starts.append((n_cols, list(basis)))
            self.inside, self.after_degenerate = True, False
            try:
                return real_simplex(tab, basis, n_cols, d)
            finally:
                self.inside = False

        def pivot(tab, basis, row, col, d):
            if self.inside:
                self.check(tab[-1][:-1], col)
                self.after_degenerate = tab[row][-1] == 0
            self.counts["total"] += 1
            self.counts["degenerate"] += tab[row][-1] == 0
            return real_pivot(tab, basis, row, col, d)

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        monkeypatch.setattr(exactlp, "_pivot", pivot)

    def check(self, obj, col):
        first = min(j for j, v in enumerate(obj) if v < 0)
        most = min(range(len(obj)), key=obj.__getitem__)
        self.counts["rules_differ"] += obj[first] != obj[most]
        if self.after_degenerate:
            assert col == first
            self.counts["bland"] += 1
        else:
            assert obj[col] == obj[most] < 0
            self.counts["dantzig"] += 1


def test_pricing_on_the_first_turn_reduce_lps(monkeypatch):
    # the LPs reduce_irredundant solves on the committed 114-element system
    # before any drop, as tests/test_search.py's first_turn_lp builds them
    text = (FIXTURES / "facets_m3.json").read_text(encoding="utf-8")
    system = FacetSystem.from_json(json.loads(text))
    log = PivotLog(monkeypatch)
    for element in system.nontrivial:
        columns = [e.h for e in system.nontrivial if e is not element]
        columns += system.chamber
        a_eq = list(zip(*(search._free(h) for h in columns)))
        solve_lp([-h.z for h in columns], a_eq, search._free(element.h))
    counts = log.counts
    assert counts["degenerate"] > 0 and counts["bland"] > 0
    assert counts["dantzig"] > counts["bland"]
    # the two rules pick different columns often enough to tell them apart
    assert counts["rules_differ"] > 0


def test_reduction_takes_at_most_half_the_bland_pivots(monkeypatch):
    text = (FIXTURES / "facets_m3.json").read_text(encoding="utf-8")
    system = FacetSystem.from_json(json.loads(text))
    log = PivotLog(monkeypatch)
    assert len(reduce_irredundant(system).nontrivial) == 39
    assert log.counts["total"] <= BLAND_REDUCTION_PIVOTS // 2


def test_degenerate_lps_match_vertex_enumeration(monkeypatch):
    # many cuts through one vertex v of the box make it degenerate; half the
    # objectives are minimized at v, so the simplex has to pivot there
    rng = random.Random(11)
    log = PivotLog(monkeypatch)
    n = 4
    for trial in range(8):
        v = [rng.randint(0, 5) for _ in range(n)]
        a_ub, b_ub = [], []
        for i in range(n):
            a_ub += [[int(j == i) for j in range(n)], [-int(j == i) for j in range(n)]]
            b_ub += [5, 0]
        cuts = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(4, 5))]
        for a in cuts:
            a_ub.append(a)
            b_ub.append(sum(ai * vi for ai, vi in zip(a, v)))
        if trial % 2:
            c = [rng.randint(-4, 4) for _ in range(n)]
        else:
            c = [-sum(col) for col in zip(*cuts[:n])]
        expected = vertex_enum_min(c, a_ub, b_ub)
        res = solve_lp(*slack_form(c, a_ub, b_ub))
        assert res.status == "optimal"
        assert optimum(c, res) == expected
    assert log.counts["degenerate"] > 0 and log.counts["bland"] > 0


def test_phase_one_starts_on_unit_columns(monkeypatch):
    # both slacks are unit columns: no artificial, and phase 1 pivots nowhere
    log = PivotLog(monkeypatch)
    res = solve_lp([-1, -1, 0, 0], [[1, 1, 1, 0], [-1, 2, 0, 1]], [3, 1])
    assert log.starts[0] == (4, [2, 3])
    assert res.status == "optimal" and optimum([-1, -1, 0, 0], res) == -3


def test_phase_one_refuses_a_negated_unit_column(monkeypatch):
    # b₂ < 0 negates row 2, so its slack becomes −e₂ and row 2 starts on
    # the artificial, column 4; row 1 still starts on its slack
    log = PivotLog(monkeypatch)
    res = solve_lp([1, 1, 0, 0], [[1, 1, 1, 0], [-1, 2, 0, 1]], [3, -1])
    assert log.starts[0] == (5, [2, 4])
    assert res.status == "optimal" and optimum([1, 1, 0, 0], res) == 1
    assert point(res)[:2] == (1, 0)

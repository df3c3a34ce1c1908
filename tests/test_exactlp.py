import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from kronkit import exactlp, search
from kronkit.diagrams import make_instance, parse_young
from kronkit.exactlp import solve_lp
from kronkit.search import FacetSystem, reduce_irredundant

FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"
# pivots of the 114 → 39 reduction in chamber coordinates under the current
# pricing and start (BENCH_lp.json); a change to any of the three that costs
# more pivots fails here
REDUCTION_PIVOTS = 357


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


def vertex_enum_feasible(a_ub, b_ub):
    """Brute-force oracle: whether a_ub x ≤ b_ub has a feasible vertex.

    The systems below contain a box, so they are empty or have a vertex.
    """
    n = len(a_ub[0])
    for subset in itertools.combinations(range(len(a_ub)), n):
        point = solve_square([a_ub[i] for i in subset], [b_ub[i] for i in subset])
        if point is not None and all(
            sum(r * x for r, x in zip(row, point)) <= b
            for row, b in zip(a_ub, b_ub)
        ):
            return True
    return False


def assert_solves(a_eq, b_eq, res):
    """res is feasible, and its x/d solves A x = b, x ≥ 0 exactly."""
    assert res.status == "optimal" and res.d > 0
    assert len(res.x) == len(a_eq[0]) and min(res.x) >= 0
    for row, b in zip(a_eq, b_eq):
        assert sum(a * x for a, x in zip(row, res.x)) == res.d * b


def point(res):
    """The solution x/d of a feasible result."""
    return tuple(Fraction(xi, res.d) for xi in res.x)


def slack_form(a_ub, b_ub):
    """Standard form of a_ub x ≤ b_ub, x ≥ 0: one slack per row."""
    rows = [
        list(row) + [1 if j == i else 0 for j in range(len(a_ub))]
        for i, row in enumerate(a_ub)
    ]
    return rows, list(b_ub)


def box(n):
    """0 ≤ x ≤ 5 in n variables, as rows of a_ub x ≤ b_ub."""
    a_ub, b_ub = [], []
    for i in range(n):
        a_ub += [[int(j == i) for j in range(n)], [-int(j == i) for j in range(n)]]
        b_ub += [5, 0]
    return a_ub, b_ub


def test_known_bounded_lp():
    # x + s1 = 3, y + s2 = 2, x + y + s3 = 4: the slacks solve it at once
    a_eq = [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [1, 1, 0, 0, 1]]
    res = solve_lp(a_eq, [3, 2, 4])
    assert_solves(a_eq, [3, 2, 4], res)
    assert point(res) == (0, 0, 3, 2, 4)


def test_equality_constrained_lp():
    # x + y = 1: x is the row's unit column, so the answer is (1, 0)
    res = solve_lp([[1, 1]], [1])
    assert_solves([[1, 1]], [1], res)
    assert point(res) == (1, 0)


@pytest.mark.parametrize("value", [Fraction(1), 2.0, True, np.int64(1)])
def test_integral_non_int_coefficient_is_refused(value):
    # nothing is converted: only a plain int is a coefficient, in A and in b
    for a_eq, b_eq in (([[value, 1]], [1]), ([[1, 1]], [value])):
        with pytest.raises(ValueError, match="not an integer"):
            solve_lp(a_eq, b_eq)


def test_redundant_equation_is_dropped():
    # the second row is twice the first; its artificial stays basic at 0
    res = solve_lp([[1, 1], [2, 2]], [1, 2])
    assert_solves([[1, 1], [2, 2]], [1, 2], res)
    assert point(res) == (1, 0)


def test_non_integral_coefficient_is_rejected():
    for a_eq, b_eq in (
        ([[Fraction(3, 2), 1]], [1]),
        ([[1, 1]], [0.5]),
        ([[1, 1]], [Fraction(1, 2)]),
    ):
        with pytest.raises(ValueError, match="not an integer"):
            solve_lp(a_eq, b_eq)


def test_infeasible_lp():
    # x + s = −1 has no nonnegative solution
    res = solve_lp([[1, 1]], [-1])
    assert res.status == "infeasible" and res.x is None


def test_exact_rational_answer():
    # 3x − s = 1 → exactly x = 1/3, no float drift
    res = solve_lp([[3, -1]], [1])
    assert_solves([[3, -1]], [1], res)
    assert res.x == (1, 0) and res.d == 3  # integer numerators over d


def test_random_lps_match_vertex_enumeration():
    rng = random.Random(37)
    seen = set()
    for _ in range(40):
        n = rng.randint(2, 3)
        a_ub, b_ub = box(n)
        for _ in range(rng.randint(1, 3)):  # random extra cuts, some infeasible
            a_ub.append([rng.randint(-3, 3) for _ in range(n)])
            b_ub.append(rng.randint(-10, 10))
        expected = vertex_enum_feasible(a_ub, b_ub)
        a_eq, b_eq = slack_form(a_ub, b_ub)
        res = solve_lp(a_eq, b_eq)
        if expected:
            assert_solves(a_eq, b_eq, res)
        else:
            assert res.status == "infeasible"
        seen.add(expected)
    assert seen == {True, False}


@pytest.mark.parametrize(
    "a_eq, b_eq",
    [
        ([[1, 1], [1]], [1, 1]),  # a row shorter than the first
        ([[1], [1, 1]], [1, 1]),  # a row longer than the first
        ([[1, 1], [1, 0]], [1]),  # fewer right-hand sides than rows
        ([[1, 1]], [1, 2]),  # more right-hand sides than rows
    ],
)
def test_wrong_shape_is_rejected(a_eq, b_eq):
    with pytest.raises(ValueError, match="entries"):
        solve_lp(a_eq, b_eq)


class PivotLog:
    """Spies on ``_simplex`` and ``_pivot``: checks each pivot against
    Bland's rule and counts the pivots, in all and by kind.

    Inside ``_simplex`` the last tableau row is the objective over every
    priced column, and the right-hand side is last.  ``rules_differ``
    counts the pivots where Dantzig's rule (the most negative reduced cost)
    would price another value, ``ties`` those where more than one row has
    the lowest ratio.
    """

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(
            ("total", "degenerate", "rules_differ", "ties"), 0
        )
        self.starts = []  # (priced columns, basis) at the start of each _simplex
        real_simplex, real_pivot = exactlp._simplex, exactlp._pivot

        def simplex(tab, basis):
            self.starts.append((len(tab[-1]) - 1, list(basis)))
            return real_simplex(tab, basis)

        def pivot(tab, basis, row, col, d):
            self.check(tab, basis, row, col)
            self.counts["total"] += 1
            self.counts["degenerate"] += tab[row][-1] == 0
            return real_pivot(tab, basis, row, col, d)

        monkeypatch.setattr(exactlp, "_simplex", simplex)
        monkeypatch.setattr(exactlp, "_pivot", pivot)

    def check(self, tab, basis, row, col):
        obj = tab[-1][:-1]
        # entering: the lowest index with a negative reduced cost
        assert col == min(j for j, v in enumerate(obj) if v < 0)
        self.counts["rules_differ"] += obj[col] != min(obj)
        # leaving: the lowest ratio, ties to the lowest basic index
        ratios = {
            i: Fraction(r[-1], r[col]) for i, r in enumerate(tab[:-1]) if r[col] > 0
        }
        low = min(ratios.values())
        tied = [i for i, ratio in ratios.items() if ratio == low]
        assert row == min(tied, key=basis.__getitem__)
        self.counts["ties"] += len(tied) > 1


def first_turn_lp(system, element):
    """The Farkas system reduce_irredundant solves for element before any
    drop, in chamber coordinates, as tests/test_search.py's first_turn_lp
    builds it: the H of each column but s, then A and b, the z row and s
    last."""
    columns = [e.h for e in system.nontrivial if e is not element]
    columns += system.chamber
    s_col = (0,) * (3 * system.m - 3) + (1,)
    a_eq = list(zip(*map(search._chamber_coordinates, columns), s_col))
    return columns, a_eq, search._chamber_coordinates(element.h)


def enumerated_m3():
    """The committed 114-element m = 3 enumeration."""
    text = (FIXTURES / "facets_m3.json").read_text(encoding="utf-8")
    return FacetSystem.from_json(json.loads(text))


def test_pricing_on_the_first_turn_reduce_lps(monkeypatch):
    # the Farkas systems reduce_irredundant solves on the committed
    # 114-element system before any drop
    system = enumerated_m3()
    log = PivotLog(monkeypatch)
    for element in system.nontrivial:
        _, a_eq, b_eq = first_turn_lp(system, element)
        res = solve_lp(a_eq, b_eq)
        if res.status == "optimal":
            assert_solves(a_eq, b_eq, res)
    counts = log.counts
    assert counts["degenerate"] > 0 and counts["ties"] > 0
    # Bland's and Dantzig's rules price different columns often enough to
    # tell them apart
    assert counts["rules_differ"] > 0


def test_chamber_implied_elements_drop_with_no_pivot(monkeypatch):
    # c(H_e) ≥ 0 in chamber coordinates: r·H_e ≥ z_e holds on the whole
    # chamber, and every row of the first-turn system starts on a chamber
    # column or s, with no artificial to drive out
    system = enumerated_m3()
    implied = [
        e for e in system.nontrivial if min(search._chamber_coordinates(e.h)) >= 0
    ]
    assert len(implied) == 21
    log = PivotLog(monkeypatch)
    for element in implied:
        columns, a_eq, b_eq = first_turn_lp(system, element)
        res = solve_lp(a_eq, b_eq)
        n_cols, basis = log.starts[-1]
        assert n_cols == len(a_eq[0]) and max(basis) < n_cols
        assert_solves(a_eq, b_eq, res)
        search._implied(columns, res.x[:-1], res.d, element.h)  # raises if no proof
    assert log.counts["total"] == 0
    kept = set(reduce_irredundant(system).nontrivial)
    assert not kept.intersection(implied)


def test_reduction_takes_at_most_the_farkas_pivots(monkeypatch):
    system = enumerated_m3()
    log = PivotLog(monkeypatch)
    assert len(reduce_irredundant(system).nontrivial) == 39
    assert log.counts["total"] <= REDUCTION_PIVOTS


def test_degenerate_lps_match_vertex_enumeration(monkeypatch):
    # many cuts through one vertex v of the box make the system degenerate
    # there; v is feasible, and cuts with a·v < 0 start on artificials
    rng = random.Random(11)
    log = PivotLog(monkeypatch)
    n = 4
    for _ in range(8):
        v = [rng.randint(0, 5) for _ in range(n)]
        a_ub, b_ub = box(n)
        cuts = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(4, 5))]
        for a in cuts:
            a_ub.append(a)
            b_ub.append(sum(ai * vi for ai, vi in zip(a, v)))
        assert vertex_enum_feasible(a_ub, b_ub)
        a_eq, b_eq = slack_form(a_ub, b_ub)
        assert_solves(a_eq, b_eq, solve_lp(a_eq, b_eq))
    assert log.counts["degenerate"] > 0 and log.counts["ties"] > 0


def test_phase_one_starts_on_unit_columns(monkeypatch):
    # both slacks are unit columns: no artificial, and phase 1 pivots nowhere
    log = PivotLog(monkeypatch)
    a_eq = [[1, 1, 1, 0], [-1, 2, 0, 1]]
    res = solve_lp(a_eq, [3, 1])
    assert log.starts == [(4, [2, 3])]
    assert log.counts["total"] == 0
    assert_solves(a_eq, [3, 1], res)
    assert point(res) == (0, 0, 3, 1)


def test_phase_one_refuses_a_negated_unit_column(monkeypatch):
    # b₂ < 0 negates row 2, so its slack becomes −e₂ and row 2 starts on
    # the artificial, basic index 4; row 1 still starts on its slack.  The
    # artificial has no column: only the 4 real columns are priced
    log = PivotLog(monkeypatch)
    a_eq = [[1, 1, 1, 0], [-1, 2, 0, 1]]
    res = solve_lp(a_eq, [3, -1])
    assert log.starts == [(4, [2, 4])]
    assert_solves(a_eq, [3, -1], res)
    assert point(res)[:2] == (1, 0)


def free_support_lps(triple):
    """The LPs ``search._exact_witness`` solves for triple, one per free
    support in order, built as it builds them: a row per block entry, a
    column per support entry."""
    inst = make_instance(*(parse_young(lam) for lam in triple), sum(triple[0]))
    r = inst.height
    b_eq = [v for d in inst.diagrams for v in d.padded(r)]
    rows = [(x, i) for x in range(3) for i in range(1, r + 1)]
    return [
        ([[int(s[x] == i) for s in support] for x, i in rows], b_eq)
        for support in search.free_supports(r)
    ]


@pytest.mark.parametrize(
    "triple, supports, feasible",
    [
        (((5, 1, 1), (4, 3), (4, 3)), (2, 4), {4: (3, 2, 0, 0, 1, 0, 1, 0, 0)}),
        (
            ((2, 1), (1, 1, 1), (2, 1)),
            (1, 2, 3, 4, 5, 6, 10),
            {10: (1, 1, 0, 0, 0, 1, 0, 0, 0)},
        ),
    ],
)
def test_witness_lps_where_an_artificial_could_reenter(
    monkeypatch, triple, supports, feasible
):
    # every row starts on an artificial.  Given a column each, an artificial
    # that had left the basis enters it again on each of these supports;
    # with none, only the 9 real columns are priced, and the answers are
    # the same as with them
    lps = free_support_lps(triple)
    log = PivotLog(monkeypatch)
    for index in supports:
        a_eq, b_eq = lps[index]
        res = solve_lp(a_eq, b_eq)
        assert log.starts[-1] == (9, list(range(9, 18)))
        if index in feasible:
            assert_solves(a_eq, b_eq, res)
            assert point(res) == feasible[index]
        else:
            assert res.status == "infeasible"
    assert len(log.starts) == len(supports)

"""Exact rational feasibility in standard form: is there x ≥ 0 with A x = b?

Phase 1 of the primal simplex, and nothing else.  It decides redundancy of
inequalities and exact membership witnesses at desk scale, with no
floating-point tolerance and no external solver.  The problems are tiny (a
few rows, a few dozen columns), so a dense tableau is adequate.

Each row, normalized to b ≥ 0, starts on a real column that is that row's
unit vector, where one exists (the chamber columns and s of the reduction
LPs are such columns), and on an artificial otherwise.  An artificial has
no column, only a basic index, n + k for the k-th such row, so one that
leaves the basis never comes back.  The phase-1 row is minus the sum of
their rows: the simplex minimizes their sum, which is never negative, so
the ratio test always finds a leaving row.  Any x ≥ 0 with A x = b, with
every artificial at 0, is a point of this restricted problem, so the
minimum is 0 iff the system is feasible.  Then every artificial still
basic is 0, and x is read straight off the basis.  The statuses are
``"optimal"`` (feasible, with that basic solution) and ``"infeasible"``.

Pricing is Bland's rule (Math. Oper. Res. 1977) on every pivot, which rules
out cycling: see ``_simplex``.

Coefficients must be plain ints, the rule of ``scalars.json_int``: any other
value, an integral float, a bool or a ``Fraction`` too, raises ``ValueError``.
The tableau holds ints over one common denominator d = det B > 0 of the
basis B (Edmonds' integer pivoting), so each pivot divides exactly by
Sylvester's identity.  The returned :class:`LPResult` keeps that form:
integer numerators x over d.

``search._exact_witness`` asks for x ≥ 0 on a free support whose block sums
are the three diagrams.

``search.reduce_irredundant`` asks whether r·H_e ≥ z_e is implied by
r·H_i ≥ z_i and the three block sums Σ_X r = 1.  Any y ≥ 0 and μ with
Σ yᵢHᵢ + Σ μ_X·1_X = H_e and Σ yᵢzᵢ + Σ μ_X ≥ z_e prove it, and when those
constraints have a common point some such y, μ exist (the affine Farkas
lemma; Schrijver, Theory of Linear and Integer Programming, §7.1).  Every
H is blockwise traceless, so summing block X gives m·μ_X = 0, and the last
coordinate of each block is implied by the others.  That leaves y ≥ 0 and
s ≥ 0 with Σ yᵢHᵢ = H_e on each block but its last entry and
Σ yᵢzᵢ − s = z_e.  The system is posed in chamber coordinates
(``search._chamber_coordinates``): each block becomes its partial sums
P_i = h_1 + … + h_i, i < m, and the z row is negated.  That map is
unimodular, so the solutions are the same, and there the chamber inequality
r_{X,i} ≥ r_{X,i+1} is the unit column e_{X,i} and s is +e_z.  Phase 1 needs
an artificial only in a row where P_i of H_e is negative, or in the z row
when z_e > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

Row = Sequence[int]
Tableau = list[list[int]]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" (feasible) | "infeasible"
    x: tuple[int, ...] | None  # numerators of the basic solution x/d
    d: int  # det B > 0, the tableau's denominator


def _pivot(tab: Tableau, basis: list[int], row: int, col: int, d: int) -> int:
    """Pivot on (row, col) over denominator d; return the new d, the pivot.

    The ratio test picks only positive pivots, so d stays positive.  A row
    that is 0 in the pivot column is only rescaled by p/d, and is left as it
    is when p = d.
    """
    prow = tab[row]
    p = prow[col]
    for i, r in enumerate(tab):
        if i == row:
            continue
        coef = r[col]
        if coef:
            tab[i] = [(p * a - coef * b) // d for a, b in zip(r, prow)]
        elif p != d:
            tab[i] = [p * a // d for a in r]
    basis[row] = col
    return p


def _simplex(tab: Tableau, basis: list[int]) -> int:
    """Minimize the last tableau row, a sum of artificials; return d.

    The tableau starts over d = 1 and holds the real columns only, so an
    artificial is never priced and never enters.  Every pivot follows
    Bland's rule: the entering column is the lowest index with a negative
    reduced cost, and the leaving row is the lowest ratio, ties broken by
    the lowest basic index.

    This terminates.  No artificial comes back, so a cycle would keep the
    same artificials basic throughout and run on one fixed column set, and
    Bland's rule never cycles on a fixed column set.
    """
    d = 1
    while True:
        col = next((j for j, v in enumerate(tab[-1][:-1]) if v < 0), None)
        if col is None:
            return d
        row = None
        for i, r in enumerate(tab[:-1]):
            a = r[col]
            if a > 0:  # ratio r[-1]/a against the best, cross-multiplied
                b = r[-1]
                if row is not None:
                    lhs, rhs = b * best_a, best_b * a
                if row is None or lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row, best_b, best_a = i, b, a
        d = _pivot(tab, basis, row, col, d)


def solve_lp(a_eq: Sequence[Row], b_eq: Row) -> LPResult:
    """Exact phase-1 simplex: is there x ≥ 0 with A x = b, and which?

    Raises ``ValueError`` on a coefficient that is not a plain int (nothing
    is converted), on rows of A of unequal length, and when b and A differ
    in length.
    """
    n_rows = len(a_eq)
    if len(b_eq) != n_rows:
        raise ValueError(f"b has {len(b_eq)} entries for {n_rows} rows of A")
    n = len(a_eq[0]) if a_eq else 0
    for i, arow in enumerate(a_eq):
        if len(arow) != n:
            raise ValueError(f"row {i} of A has {len(arow)} entries for {n} columns")

    rows = [[*arow, b] for arow, b in zip(a_eq, b_eq)]
    for v in chain.from_iterable(rows):
        if type(v) is not int:
            raise ValueError(f"LP coefficient {v!r} is not an integer")
    rows = [[-v for v in row] if row[-1] < 0 else row for row in rows]  # b ≥ 0

    # a real column that is +eᵢ starts row i's basis; every other row starts
    # on an artificial of its own, basic index n + k for the k-th, no column
    unit = {}
    for j, column in zip(range(n), zip(*rows)):
        if column.count(0) == n_rows - 1 and 1 in column:
            unit.setdefault(column.index(1), j)
    art = {i: n + k for k, i in enumerate(i for i in range(n_rows) if i not in unit)}
    basis = [unit[i] if i in unit else art[i] for i in range(n_rows)]

    # minimize the sum of artificials: minus the sum of their rows
    phase1 = [0] * (n + 1)
    for i in art:
        phase1 = [a - b for a, b in zip(phase1, rows[i])]
    tab: Tableau = [*rows, phase1]
    d = _simplex(tab, basis)
    if tab[-1][-1] != 0:
        return LPResult("infeasible", None, d)
    value = {var: row[-1] for row, var in zip(tab, basis)}
    return LPResult("optimal", tuple(value.get(j, 0) for j in range(n)), d)

"""Exact rational linear programming in standard form.

A small two-phase primal simplex.  It exists so that redundancy of
inequalities and exact membership witnesses can be decided at desk scale —
no floating-point tolerances, no external solver.  Problem sizes here are
tiny (a few rows, a few dozen columns), so the dense tableau is perfectly
adequate.

The entering column has the most negative reduced cost (Dantzig's rule).
After a degenerate pivot Bland's rule (Math. Oper. Res. 1977) picks both
columns until a pivot lowers the objective again, which rules out cycling:
see ``_simplex``.  Phase 1 starts each row on a real column that is that
row's unit vector once b ≥ 0, where one exists, and on an artificial
otherwise; the chamber columns of the reduction LPs are such columns.

Coefficients must be integers (a rational of integral value is accepted,
any other value raises ``ValueError``).  The tableau holds ints over one
common denominator d = |det B| of the basis B (Edmonds' integer pivoting),
so each pivot divides exactly by Sylvester's identity.  The returned
:class:`LPResult` keeps that form: integer numerators x over d.

Solves::

    minimize    c · x
    subject to  A x = b
                x ≥ 0

and reports one of the statuses ``"optimal"``, ``"unbounded"``,
``"infeasible"``.

``search._exact_witness`` solves a feasibility problem (objective
0): x ≥ 0 on a free support whose block sums are the three diagrams.

``search.reduce_irredundant`` solves the dual of "is
r·H_e ≥ z_e implied by r·H_i ≥ z_i and the three block sums Σ_X r = 1?".
The primal minimizes r·H_e; its dual maximizes Σ yᵢzᵢ + Σ μ_X over y ≥ 0,
μ free, with Σ yᵢHᵢ + Σ μ_X·1_X = H_e.  Every H is blockwise traceless, so
summing block X of that equation gives m·μ_X = 0, and the last coordinate
of each block is implied by the others.  That leaves: minimize −z·y subject
to Σ yᵢHᵢ = H_e on the 3(m−1) free coordinates of H (``search._free``, each
block but its last entry), y ≥ 0.  By LP duality this is
optimal exactly when the primal is, and its optimum at the returned y/d is
−Σ yᵢzᵢ/d = −(primal minimum), so e is redundant iff the status is
``"optimal"`` and Σ yᵢzᵢ ≥ d·z_e.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Row = Sequence[int]
Tableau = list[list[int]]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    x: tuple[int, ...] | None  # numerators of the basic solution x/d
    d: int  # |det B|, the tableau's denominator


def _integer(v) -> int:
    if int(v) != v:
        raise ValueError(f"LP coefficient {v} is not an integer")
    return int(v)


def _pivot(tab: Tableau, basis: list[int], row: int, col: int, d: int) -> int:
    """Pivot on (row, col) over denominator d; return the new d, which is |pivot|.

    A row that is 0 in the pivot column is only rescaled by p/d, and is left
    as it is when p = d.
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
    if p < 0:
        tab[:] = [[-v for v in r] for r in tab]
    return abs(p)


def _simplex(tab: Tableau, basis: list[int], n_cols: int, d: int) -> tuple[str, int]:
    """Minimize the last tableau row; return the status and d.

    The entering column is the one with the most negative reduced cost
    (Dantzig's rule, the lowest index among ties).  After a degenerate pivot,
    one whose leaving row has right-hand side 0, Bland's rule picks the
    entering column (the lowest index with a negative reduced cost) until a
    pivot is non-degenerate again.  The leaving row is always the lowest
    ratio, ties broken by the lowest basic index, as Bland's rule has it.

    This terminates.  A non-degenerate pivot strictly lowers the objective,
    so no basis recurs across one.  Every pivot of a degenerate streak but
    its first is Bland's, so a streak that returned to a basis would go on
    by Bland's rule alone from that basis, and Bland's rule never cycles.
    """
    bland = False
    while True:
        obj = tab[-1]
        if bland:
            col = next((j for j in range(n_cols) if obj[j] < 0), None)
        else:
            negative = (j for j in range(n_cols) if obj[j] < 0)
            col = min(negative, key=obj.__getitem__, default=None)
        if col is None:
            return "optimal", d
        row = None
        for i in range(len(tab) - 1):
            a = tab[i][col]
            if a > 0:  # ratio tab[i][-1]/a against the best, cross-multiplied
                if row is not None:
                    lhs, rhs = tab[i][-1] * tab[row][col], tab[row][-1] * a
                if row is None or lhs < rhs or (lhs == rhs and basis[i] < basis[row]):
                    row = i
        if row is None:
            return "unbounded", d
        bland = tab[row][-1] == 0
        d = _pivot(tab, basis, row, col, d)


def solve_lp(c: Row, a_eq: Sequence[Row], b_eq: Row) -> LPResult:
    """Exact two-phase simplex for min c·x subject to A x = b, x ≥ 0.

    Raises ``ValueError`` on a non-integer coefficient, on a row of A whose
    length is not ``len(c)``, and when b and A differ in length.
    """
    c = [_integer(v) for v in c]
    n = len(c)
    n_rows = len(a_eq)
    if len(b_eq) != n_rows:
        raise ValueError(f"b has {len(b_eq)} entries for {n_rows} rows of A")
    for i, arow in enumerate(a_eq):
        if len(arow) != n:
            raise ValueError(f"row {i} of A has {len(arow)} entries for {n} columns")

    # normalize to b ≥ 0
    rows = []
    for arow, b in zip(a_eq, b_eq):
        sign = -1 if b < 0 else 1
        rows.append([sign * _integer(v) for v in arow] + [sign * _integer(b)])

    # a real column that is +eᵢ starts row i's basis; every other row starts
    # on an artificial of its own
    unit = {}
    for j in range(n):
        nonzero = [i for i in range(n_rows) if rows[i][j]]
        if len(nonzero) == 1 and rows[nonzero[0]][j] == 1:
            unit.setdefault(nonzero[0], j)
    art = {i: n + k for k, i in enumerate(i for i in range(n_rows) if i not in unit)}
    basis = [unit[i] if i in unit else art[i] for i in range(n_rows)]
    width = n + len(art)
    tab: Tableau = [
        row[:n] + [int(art.get(i) == j) for j in range(n, width)] + row[n:]
        for i, row in enumerate(rows)
    ]

    # phase 1: minimize the sum of artificials, priced out on their rows
    phase1 = [0] * n + [1] * len(art) + [0]
    for i in art:
        phase1 = [a - b for a, b in zip(phase1, tab[i])]
    tab.append(phase1)
    status, d = _simplex(tab, basis, width, 1)
    if status != "optimal" or tab[-1][-1] != 0:
        return LPResult("infeasible", None, d)
    tab.pop()

    # drive any residual artificial variables out of the basis; a row where
    # none can leave is zero on every real column, i.e. a redundant equation
    for i in range(n_rows):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                d = _pivot(tab, basis, i, col, d)
    live = [i for i in range(n_rows) if basis[i] < n]
    tab = [tab[i][:n] + tab[i][-1:] for i in live]
    basis = [basis[i] for i in live]

    # phase 2 with the real objective, scaled by d like every other row
    obj = [d * v for v in c] + [0]
    for row, var in zip(tab, basis):
        if c[var]:
            obj = [a - c[var] * b for a, b in zip(obj, row)]
    tab.append(obj)
    status, d = _simplex(tab, basis, n, d)
    if status == "unbounded":
        return LPResult("unbounded", None, d)
    x = [0] * n
    for row, var in zip(tab, basis):
        x[var] = row[-1]
    return LPResult("optimal", tuple(x), d)

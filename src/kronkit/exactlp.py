"""Exact rational linear programming in standard form.

A small two-phase primal simplex over :class:`fractions.Fraction`, with
Bland's anti-cycling rule.  It exists so that redundancy of inequalities can
be decided exactly at desk scale — no floating-point tolerances, no external
solver.  Problem sizes here are tiny (a few rows, a few dozen columns), so
the dense tableau is perfectly adequate.

Solves::

    minimize    c · x
    subject to  A x = b
                x ≥ 0

and reports one of the statuses ``"optimal"``, ``"unbounded"``,
``"infeasible"``.

Its one caller, ``search.reduce_irredundant``, solves the dual of "is
r·H_e ≥ z_e implied by r·H_i ≥ z_i and the three block sums Σ_X r = 1?".
The primal minimizes r·H_e; its dual maximizes Σ yᵢzᵢ + Σ μ_X over y ≥ 0,
μ free, with Σ yᵢHᵢ + Σ μ_X·1_X = H_e.  Every H is blockwise traceless, so
summing block X of that equation gives m·μ_X = 0, and the last coordinate
of each block is implied by the others.  That leaves: minimize −z·y subject
to Σ yᵢHᵢ = H_e on 3(m−1) coordinates, y ≥ 0.  By LP duality this is
optimal exactly when the primal is, with value −(primal minimum), so e is
redundant iff the status is ``"optimal"`` and −value ≥ z_e.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Row = Sequence[Fraction]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Fraction | None
    x: tuple[Fraction, ...] | None


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            coef = r[col]
            tab[i] = [a - coef * b for a, b in zip(r, tab[row])]
    basis[row] = col


def _simplex(tab: list[list[Fraction]], basis: list[int], n_cols: int) -> str:
    """Minimize the objective stored in the last tableau row; Bland's rule."""
    while True:
        obj = tab[-1]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return "optimal"
        best_ratio: Fraction | None = None
        row = None
        for i in range(len(tab) - 1):
            if tab[i][col] > 0:
                ratio = tab[i][-1] / tab[i][col]
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[row])
                ):
                    best_ratio = ratio
                    row = i
        if row is None:
            return "unbounded"
        _pivot(tab, basis, row, col)


def solve_lp(c: Row, a_eq: Sequence[Row], b_eq: Row) -> LPResult:
    """Exact two-phase simplex for min c·x subject to A x = b, x ≥ 0."""
    n = len(c)
    n_rows = len(a_eq)

    # normalize to b ≥ 0, then add one artificial per row
    tab: list[list[Fraction]] = []
    for i, (arow, b) in enumerate(zip(a_eq, b_eq)):
        sign = -1 if b < 0 else 1
        art = [Fraction(0)] * n_rows
        art[i] = Fraction(1)
        tab.append([Fraction(sign * v) for v in arow] + art + [Fraction(sign * b)])
    basis = [n + i for i in range(n_rows)]

    # phase 1: minimize the sum of artificials
    width = n + n_rows
    phase1 = [Fraction(0)] * n + [Fraction(1)] * n_rows + [Fraction(0)]
    for row in tab:  # price out the artificial basis
        phase1 = [a - b for a, b in zip(phase1, row)]
    tab.append(phase1)
    status = _simplex(tab, basis, width)
    if status != "optimal" or tab[-1][-1] != 0:
        return LPResult("infeasible", None, None)
    tab.pop()

    # drive any residual artificial variables out of the basis; a row where
    # none can leave is zero on every real column, i.e. a redundant equation
    for i in range(n_rows):
        if basis[i] >= n:
            col = next((j for j in range(n) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    live = [i for i in range(n_rows) if basis[i] < n]
    tab = [tab[i][:n] + tab[i][-1:] for i in live]
    basis = [basis[i] for i in live]

    # phase 2 with the real objective
    obj = [Fraction(v) for v in c] + [Fraction(0)]
    for row, var in zip(tab, basis):
        coef = obj[var]
        if coef != 0:
            obj = [a - coef * b for a, b in zip(obj, row)]
    tab.append(obj)
    if _simplex(tab, basis, n) == "unbounded":
        return LPResult("unbounded", None, None)
    x = [Fraction(0)] * n
    for row, var in zip(tab, basis):
        x[var] = row[-1]
    value = sum((Fraction(ci) * xi for ci, xi in zip(c, x)), Fraction(0))
    return LPResult("optimal", value, tuple(x))

"""Exact linear algebra over the integers.

Everything here is fraction-free Bareiss-style elimination: intermediate
entries are integer minors of the input, every division is exact, and neither
a rational nor a float is built anywhere.  Ranks, determinants and
one-dimensional kernels of the small structured matrices used elsewhere all
come from the same echelon routine.
"""

from __future__ import annotations

from math import gcd

IntMatrix = list[list[int]]


def row_echelon_ff(mat: IntMatrix) -> tuple[IntMatrix, list[int], int]:
    """Fraction-free row echelon form.

    Returns ``(echelon, pivot_cols, sign)`` where ``sign`` tracks row swaps.
    The input is not modified.  Entries of the echelon form are (up to sign)
    minors of the input bordered by the pivot rows/columns, so the exact
    integer divisions below never truncate.
    """
    a = [list(row) for row in mat]
    n_rows = len(a)
    n_cols = len(a[0]) if n_rows else 0
    pivot_cols: list[int] = []
    r = 0
    prev = 1
    sign = 1
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = None
        for i in range(r, n_rows):
            if a[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            sign = -sign
        row_r = a[r]
        piv = row_r[c]
        for i in range(r + 1, n_rows):
            row_i = a[i]
            coef = row_i[c]
            # (piv·x − 0·y) / prev is x itself when piv = prev
            if coef == 0 and piv == prev:
                continue
            row_i[c] = 0
            for j in range(c + 1, n_cols):
                row_i[j] = (piv * row_i[j] - coef * row_r[j]) // prev
        prev = piv
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols, sign


def integer_rank(mat: IntMatrix) -> int:
    """Exact rank over ℚ of an integer matrix."""
    _, pivot_cols, _ = row_echelon_ff(mat)
    return len(pivot_cols)


def det_bareiss(mat: IntMatrix) -> int:
    """Exact determinant of a square integer matrix; empty matrix gives 1."""
    n = len(mat)
    if n == 0:
        return 1
    if any(len(row) != n for row in mat):
        raise ValueError("determinant of a non-square matrix")
    ech, pivot_cols, sign = row_echelon_ff(mat)
    if len(pivot_cols) < n:
        return 0
    return sign * ech[n - 1][n - 1]


def kernel_vector_if_unique(mat: IntMatrix) -> list[int] | None:
    """Primitive generator of the kernel when the nullity is exactly one.

    ``mat`` rows are equations over the unknown vector.  Returns ``None``
    whenever the kernel is trivial or has dimension greater than one.  The
    free coordinate of the returned generator is positive.

    The free coordinate starts at |D|, where D is the last Bareiss pivot, the
    r×r minor on the pivot rows and columns.  By Cramer's rule every pivot
    coordinate is then an integer, so back-substitution divides exactly.
    """
    if not mat:
        return None
    n_cols = len(mat[0])
    ech, pivot_cols, _ = row_echelon_ff(mat)
    rank = len(pivot_cols)
    if n_cols - rank != 1:
        return None
    (free_col,) = set(range(n_cols)).difference(pivot_cols)
    x = [0] * n_cols
    x[free_col] = abs(ech[rank - 1][pivot_cols[-1]]) if rank else 1
    for t in range(rank - 1, -1, -1):
        p = pivot_cols[t]
        row = ech[t]
        acc = sum(row[j] * x[j] for j in range(p + 1, n_cols) if row[j])
        x[p] = -acc // row[p]
    g = gcd(*x)
    return [v // g for v in x]

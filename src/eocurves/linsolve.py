"""Exact linear algebra: fraction-free Gaussian elimination.

Rows are cleared to integers, eliminated by the Bareiss one-step scheme
(all intermediate divisions exact), and back-substituted with Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import OverdeterminedMismatch, SingularMatrix
from .rationals import over_common_denominator


def _integer_rows(matrix: Sequence[Sequence[Fraction]],
                  rhs: Sequence[Fraction]) -> list[list[int]]:
    return [over_common_denominator([Fraction(x) for x in (*row, b)])[1]
            for row, b in zip(matrix, rhs)]


def solve_overdetermined(matrix: Sequence[Sequence[Fraction]],
                         rhs: Sequence[Fraction]) -> list[Fraction]:
    """Solve a consistent square or overdetermined system exactly.

    Requires full column rank (else SingularMatrix); any equation that the
    unique solution of the pivot rows fails raises OverdeterminedMismatch.
    The Bareiss divisions are exact for every row below the pivot, so the
    extra rows stay integral too.
    """
    m = len(matrix)
    if m == 0:
        return []
    n = len(matrix[0])
    if any(len(row) != n for row in matrix) or len(rhs) != m:
        raise ValueError("ragged matrix or rhs of the wrong length")
    if m < n:
        raise ValueError("fewer equations than unknowns")
    a = _integer_rows(matrix, rhs)
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, m) if a[i][k] != 0), None)
        if pivot_row is None:
            raise SingularMatrix(f"rank-deficient at column {k}")
        a[k], a[pivot_row] = a[pivot_row], a[k]
        for i in range(k + 1, m):
            for j in range(k + 1, n + 1):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    # the rows below the pivot block must have vanished entirely
    for i in range(n, m):
        if a[i][n] != 0:
            raise OverdeterminedMismatch(f"inconsistent equation {i}")
    x = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        s = Fraction(a[i][n])
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x

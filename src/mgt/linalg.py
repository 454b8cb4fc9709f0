"""Exact linear algebra for weighted-Laplacian systems.

The reduced Laplacian is scaled to an integer matrix and eliminated with
fraction-free (Bareiss) Gaussian elimination, so no gcd work happens inside the
O(n^3) loop. One fraction-free back-substitution serves every solve: it yields
integer numerators over the determinant, and Fractions appear only in results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


def bareiss_forward(m: list[list[int]], n: int) -> None:
    """In-place fraction-free forward elimination of an n-row augmented matrix.

    Works for symmetric positive definite left blocks, where diagonal pivots
    never vanish; all divisions are exact.
    """
    width = len(m[0])
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv == 0:
            raise ZeroDivisionError("zero pivot in SPD elimination")
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (piv * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = piv


def solve_spd(matrix: list[list[int]], rhs_cols: Sequence[Sequence[int]]) -> list[list[Fraction]]:
    """Solve an SPD integer system for several right-hand sides."""
    n = len(matrix)
    aug = [list(matrix[i]) + [col[i] for col in rhs_cols] for i in range(n)]
    cols, det = _solve_augmented(aug, n)
    return [[Fraction(yi, det) for yi in y] for y in cols]


def _solve_augmented(aug: list[list[int]], n: int) -> tuple[list[list[int]], int]:
    """(solution numerators per right-hand column, determinant) of an augmented matrix.

    Back substitution is also fraction-free: after Bareiss elimination the last
    pivot is the determinant d, every solution has it as common denominator,
    and every intermediate division is exact.
    """
    bareiss_forward(aug, n)
    det = aug[n - 1][n - 1]
    cols: list[list[int]] = []
    for col in range(n, len(aug[0])):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = aug[i]
            s = det * row[col]
            for j in range(i + 1, n):
                if row[j]:
                    s -= row[j] * y[j]
            y[i] = s // row[i]
        cols.append(y)
    return cols, det


def laplacian_int(vcount: int, edges, ground: int = 0) -> tuple[list[list[int]], int, list[int]]:
    """Integer-scaled reduced Laplacian of a multigraph with rational lengths.

    Conductance of an edge is 1/length; self-loops contribute nothing. Returns
    (matrix, D, index) where matrix = D * L_reduced and index maps vertex id to
    matrix row (ground omitted).
    """
    index = [-1] * vcount
    k = 0
    for v in range(vcount):
        if v != ground:
            index[v] = k
            k += 1
    scale = 1
    for a, b, length in edges:
        if a != b:
            scale = lcm(scale, length.numerator)
    n = vcount - 1
    m = [[0] * n for _ in range(n)]
    for a, b, length in edges:
        if a == b:
            continue
        c = length.denominator * (scale // length.numerator)
        ia, ib = index[a], index[b]
        if ia >= 0:
            m[ia][ia] += c
        if ib >= 0:
            m[ib][ib] += c
        if ia >= 0 and ib >= 0:
            m[ia][ib] -= c
            m[ib][ia] -= c
    return m, scale, index


def green_numden(vcount: int, edges, ground: int = 0) -> tuple[list[list[int]], int]:
    """Inverse reduced Laplacian as integer numerators over one denominator.

    Returns (N, d) with G[y][z] = N[y][z]/d, zero on the ground row/column.
    Effective resistance falls out as r(y,z) = (N[y][y] + N[z][z] - 2 N[y][z])/d.
    """
    if vcount == 1:
        return [[0]], 1
    m, scale, index = laplacian_int(vcount, edges, ground)
    n = vcount - 1
    aug = [list(m[i]) + [scale if i == j else 0 for j in range(n)] for i in range(n)]
    cols, det = _solve_augmented(aug, n)
    num = [[0] * vcount for _ in range(vcount)]
    for v in range(vcount):
        iv = index[v]
        if iv < 0:
            continue
        col = cols[iv]
        for w in range(vcount):
            iw = index[w]
            if iw >= 0:
                num[w][v] = col[iw]
    return num, det


def green_matrix(vcount: int, edges, ground: int = 0) -> list[list[Fraction]]:
    num, den = green_numden(vcount, edges, ground)
    return [[Fraction(x, den) for x in row] for row in num]


def resistance_from_green(green: list[list[Fraction]], y: int, z: int) -> Fraction:
    return green[y][y] + green[z][z] - 2 * green[y][z]

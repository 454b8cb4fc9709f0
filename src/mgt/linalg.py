"""Exact linear algebra for weighted-Laplacian systems.

The reduced Laplacian is scaled to an integer matrix and eliminated with
fraction-free (Bareiss) Gaussian elimination, so no gcd work happens inside the
O(n^3) loop. Fractions appear only in results.

The Green matrix (``green_numden``) is made scale-free first. The common
content c = gcd(length numerators) / lcm(length denominators) is divided out,
since G(Gamma) = c G(Gamma/c), and each row i is scaled by D_i, the lcm of the
integer lengths at vertex i alone, so the determinant carries no power of a
global lcm. The scaled matrix is a positive row scaling of a symmetric one:
each Bareiss entry below the diagonal is the mirrored entry times D_i/D_k, so
the forward pass reads and updates only the upper triangle. The eliminated
identity right-hand side is zero right of its diagonal, so the symmetric
inverse follows by back-substitution from that triangle alone, one half
mirrored into the other; it skips the zeros of the triangle. A dense matrix
costs about n^3/2 big-integer multiply-adds in all.

``green_numden`` is the only exact solve in mgt: the cached per-graph
context and the oracles that solve a deleted or sampled graph anew all call it.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence


def bareiss_forward(m: list[list[int]], n: int, scales: Sequence[int]) -> None:
    """In-place fraction-free forward elimination of an n x n matrix.

    m holds the upper triangle of a symmetric positive definite matrix with
    row i multiplied by ``scales[i] > 0``; its lower triangle is never read.
    Diagonal pivots never vanish and all divisions are exact. The entry below
    the diagonal that row i needs at step k is the mirrored m[k][i] times
    scales[i]/scales[k]. m[n-1][n-1] ends as the determinant.
    """
    prev = 1
    for k in range(n):
        row_k = m[k]
        piv = row_k[k]
        if piv == 0:
            raise ZeroDivisionError("zero pivot in SPD elimination")
        s_k = scales[k]
        for i in range(k + 1, n):
            row_i = m[i]
            factor = row_k[i] * scales[i] // s_k
            row_i[i:] = [(piv * x - factor * y) // prev for x, y in zip(row_i[i:], row_k[i:])]
        prev = piv


def _back_substitute(m: list[list[int]], n: int, scales: Sequence[int]) -> list[list[int]]:
    """det * A^-1 as full rows, from ``bareiss_forward`` on diag(scales) A.

    Eliminating the right-hand side diag(scales) with the same steps would
    leave row i zero right of the diagonal and scales[i] times the previous
    pivot on it (column j stays zero above row j), so that right-hand side is
    never formed. From the bottom row up, row i of the symmetric inverse needs
    right of its diagonal only the rows below it, completed by mirroring, and
    its diagonal entry then needs only row i itself. Each division is exact,
    and zero entries of the triangle cost nothing.
    """
    det = m[n - 1][n - 1]
    y = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = m[i]
        acc = [0] * (n - i - 1)
        for k in range(i + 1, n):
            u = row[k]
            if u:
                acc = [a - u * b for a, b in zip(acc, y[k][i + 1:])]
        piv = row[i]
        y_i = y[i]
        y_i[i + 1:] = right = [a // piv for a in acc]
        diag = det * scales[i] * (m[i - 1][i - 1] if i else 1)
        y_i[i] = (diag - sum([u * v for u, v in zip(row[i + 1:], right)])) // piv
        for k in range(i + 1, n):
            y[k][i] = y_i[k]
    return y


def green_numden(vcount: int, edges) -> tuple[list[list[int]], int]:
    """Inverse reduced Laplacian as integer numerators over one denominator.

    Returns (N, d) with G[y][z] = N[y][z]/d, grounded at vertex 0 (zero row
    and column). Effective resistance falls out as
    r(y,z) = (N[y][y] + N[z][z] - 2 N[y][z])/d.
    """
    if vcount == 1:
        return [[0]], 1
    n = vcount - 1
    lines = [(a - 1, b - 1, length.numerator, length.denominator)  # row -1: the ground
             for a, b, length in edges if a != b]
    content_num = gcd(*[p for _, _, p, _ in lines])
    content_den = lcm(*[q for _, _, _, q in lines])
    # Lengths over the content c = content_num/content_den: coprime integers.
    ints = [(a, b, p * content_den // (q * content_num)) for a, b, p, q in lines]
    scales = [1] * n
    for a, b, w in ints:
        if a >= 0:
            scales[a] = lcm(scales[a], w)
        if b >= 0:
            scales[b] = lcm(scales[b], w)
    m = [[0] * n for _ in range(n)]  # the upper triangle of diag(scales) L_reduced
    for a, b, w in ints:
        if a >= 0:
            m[a][a] += scales[a] // w
        if b >= 0:
            m[b][b] += scales[b] // w
        if a >= 0 and b >= 0:
            a, b = min(a, b), max(a, b)
            m[a][b] -= scales[a] // w
    bareiss_forward(m, n, scales)
    num = [[0] * vcount]
    num += [[0] + [content_num * v for v in row] for row in _back_substitute(m, n, scales)]
    return num, content_den * m[n - 1][n - 1]


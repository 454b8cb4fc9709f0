"""Exact linear algebra for weighted-Laplacian systems.

The reduced Laplacian is scaled to an integer matrix and eliminated with
fraction-free (Bareiss) Gaussian elimination, so no gcd work happens inside the
elimination loop. Fractions appear only in results.

The Green matrix (``green_numden``) is made scale-free first. The common
content c = gcd(length numerators) / lcm(length denominators) is divided out,
since G(Gamma) = c G(Gamma/c), and each row i is scaled by D_i, the lcm of the
integer lengths at vertex i alone, so the determinant carries no power of a
global lcm. The scaled matrix is a positive row scaling of a symmetric one:
each Bareiss entry below the diagonal is the mirrored entry times D_i/D_k, so
the forward pass reads and updates only the upper triangle. The eliminated
identity right-hand side is zero right of its diagonal, so the symmetric
inverse follows by back-substitution from that triangle alone, one half
mirrored into the other.

The rows are numbered in a fill-reducing order: fewest neighbours off the
ground first, ties in vertex order (a static minimum degree). A vertex of
the series chains that the graph operations build then adds at most one new
coupling when it is eliminated, and a hub goes last. A symmetric permutation
changes neither the determinant nor G, so (N, d) are the same integers in any
order. Step k of the forward pass updates only the rows that row k couples
(m[k][i] != 0); a skipped row catches up on its next update by one exact
division (see ``bareiss_forward``). Back-substitution writes N in one pass,
straight into vertex order and with the content folded into its right-hand
side.

Cost model: most factorizations are small (the identity suite's graphs have
at most 8 vertices), where a row slice, a ``zip`` or a temporary row costs
more than the integer arithmetic it feeds, so both passes work entry by
entry. The forward pass costs one multiply-add per entry of each coupled row
at each step, and back-substitution one per nonzero of the triangle's row i
for each entry (i, j >= i) of N: O(n^2) on a chain, about n^3/6 and n^3/3 on
a complete graph. On such small inputs the set-up (the lengths as integers,
the content and row scales, the matrix, the zero counts and the reordering)
costs about as much as both passes: 48-53% of the time over the 1 945
multi-vertex factorizations of the benchmark's seed-1 ``corpus`` and
``ladder`` op lists. So it reads each length once (``as_integer_ratio``) and
copies the matrix only when the order moves a row.

``green_numden`` is the only exact solve in mgt: the cached per-graph
context and the oracles that solve a deleted or sampled graph anew all call it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence


def bareiss_forward(m: list[list[int]], n: int, scales: Sequence[int]) -> None:
    """In-place fraction-free forward elimination of an n x n matrix.

    m holds the upper triangle of a symmetric positive definite matrix with
    row i multiplied by ``scales[i] > 0``; its lower triangle is never read.
    Diagonal pivots never vanish and all divisions are exact. The entry below
    the diagonal that row i needs at step k is the mirrored m[k][i] times
    scales[i]/scales[k]. Where it is zero, step k would only multiply row i
    by piv_k/piv_(k-1), so row i is left alone. The skipped factors
    telescope: a row last updated at the step with pivot q is brought current
    by prev/q, folded into its next update as one exact division, because
    every Bareiss entry is an integer minor. Each row is current when it
    pivots, so the triangle ends as in a dense pass and m[n-1][n-1] as the
    determinant.
    """
    prev = 1
    at = [1] * n  # the pivot of the last step that updated each row
    for k in range(n):
        row_k = m[k]
        q = at[k]
        if q != prev:
            for j in range(k, n):
                row_k[j] = row_k[j] * prev // q
        piv = row_k[k]
        if piv == 0:
            raise ZeroDivisionError("zero pivot in SPD elimination")
        s_k = scales[k]
        for i in range(k + 1, n):
            u = row_k[i]
            if u:
                row_i = m[i]
                factor = u * scales[i] // s_k
                q = at[i]
                a, b, c = piv * prev, factor * q, q * prev
                for j in range(i, n):
                    row_i[j] = (a * row_i[j] - b * row_k[j]) // c
                at[i] = piv
        prev = piv


def _back_substitute(m: list[list[int]], n: int, scales: Sequence[int], ids: Sequence[int],
                     content: int) -> list[list[int]]:
    """content * det * A^-1 by vertex id, from ``bareiss_forward`` on diag(scales) A.

    Row i of m is vertex ids[i]; row and column 0, the ground, stay zero.
    Eliminating the right-hand side content * diag(scales) with the same steps
    would leave row i zero right of the diagonal and content * scales[i] times
    the previous pivot on it, so it is never formed. From the bottom row up,
    entry (i, j > i) is one sum over the nonzeros m[i][k], k > i, of entries
    (k, j) already found, written with its mirror; the diagonal entry is the
    same sum over the entries (k, i) just written. Each division is exact.
    """
    det = m[n - 1][n - 1]
    num = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n - 1, -1, -1):
        row = m[i]
        piv = row[i]
        v = ids[i]
        num_v = num[v]
        coupled = []  # (row of num for vertex ids[k], m[i][k]) over the nonzeros, k > i
        for k in range(i + 1, n):
            u = row[k]
            if u:
                coupled.append((num[ids[k]], u))
        for j in range(i + 1, n):
            w = ids[j]
            acc = 0
            for num_k, u in coupled:
                acc -= u * num_k[w]
            num_v[w] = num[w][v] = acc // piv
        acc = content * det * scales[i] * (m[i - 1][i - 1] if i else 1)
        for num_k, u in coupled:  # num_k[v] was just written: the inverse is symmetric
            acc -= u * num_k[v]
        num_v[v] = acc // piv
    return num


def _scaled_lengths(n: int, edges):
    """The set-up of ``green_numden``: each non-loop edge as (a - 1, b - 1, w), row -1
    being the ground, with w its length over the content c = content_num/content_den
    (coprime integers), each row's scale (the lcm of its w), the length
    numerators, and content_num and content_den."""
    lines = [(a - 1, b - 1, p, q)
             for a, b, length in edges if a != b for p, q in (length.as_integer_ratio(),)]
    _, _, nums, dens = zip(*lines)
    content_num, content_den = gcd(*nums), lcm(*dens)
    ints = []
    scales = [1] * n
    for a, b, p, q in lines:
        w = p * content_den // (q * content_num)
        ints.append((a, b, w))
        if a >= 0:
            scales[a] = lcm(scales[a], w)
        if b >= 0:
            scales[b] = lcm(scales[b], w)
    return ints, scales, nums, content_num, content_den


def kirchhoff_ratio(vcount: int, edges) -> Fraction:
    """kappa / d, for the d that ``green_numden`` returns on the same input.

    kappa is the graph's Kirchhoff number: the sum over spanning trees T of
    prod(ld_e, e in T) prod(ln_e, e not in T), over the non-loop edges of lengths
    ln_e/ld_e. kappa times G is an integer matrix, each entry a sum over spanning
    2-forests in the same way, so ``circuit.KirchhoffState`` can carry G through
    length changes with every division exact. With L_red the reduced Laplacian,
    det L_red = kappa / prod(ln_e); the scaled matrix has determinant
    prod(scales) (c_num/c_den)^n det L_red, and d is c_den times it, so
    kappa / d = prod(ln_e) c_den^(n-1) / (prod(scales) c_num^n).
    """
    if vcount == 1:
        return Fraction(1)
    n = vcount - 1
    _, scales, nums, content_num, content_den = _scaled_lengths(n, edges)
    return Fraction(prod(nums) * content_den ** (n - 1), prod(scales) * content_num ** n)


def green_numden(vcount: int, edges) -> tuple[list[list[int]], int]:
    """Inverse reduced Laplacian as integer numerators over one denominator.

    Returns (N, d) with G[y][z] = N[y][z]/d, grounded at vertex 0 (zero row
    and column). Effective resistance falls out as
    r(y,z) = (N[y][y] + N[z][z] - 2 N[y][z])/d.
    """
    if vcount == 1:
        return [[0]], 1
    n = vcount - 1
    ints, scales, _, content_num, content_den = _scaled_lengths(n, edges)
    m = [[0] * n for _ in range(n)]  # diag(scales) L_reduced, both triangles
    for a, b, w in ints:
        if a < 0:
            m[b][b] += scales[b] // w
        elif b < 0:
            m[a][a] += scales[a] // w
        else:
            s_a, s_b = scales[a] // w, scales[b] // w
            row_a, row_b = m[a], m[b]
            row_a[a] += s_a
            row_a[b] -= s_a
            row_b[b] += s_b
            row_b[a] -= s_b
    # Fill-reducing order: fewest neighbours off the ground (most zeros) first.
    zeros = [row.count(0) for row in m]
    order = sorted(range(n), key=zeros.__getitem__, reverse=True)
    if order != list(range(n)):  # a stable sort moves nothing iff the counts never rise
        m = [[row[j] for j in order] for row in [m[i] for i in order]]
        scales = [scales[i] for i in order]
    bareiss_forward(m, n, scales)
    num = _back_substitute(m, n, scales, [v + 1 for v in order], content_num)
    return num, content_den * m[n - 1][n - 1]

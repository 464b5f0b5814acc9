"""Dense congruence diagonalization over Q, kept as the oracle for the
fraction-free ``twoquadrics.exactmath.gram_diagonalize``, and the identity
matrix the tests build on.

``gram_diagonalize`` here works on Fractions and carries the congruence
transform along: every symmetric column operation rewrites a full row and
column of the matrix and a full column of ``t``.  It applies the same pivot
rule as the library routine, so the two diagonals agree entry for entry.
"""

from fractions import Fraction


def identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def gram_diagonalize(g):
    """Returns ``(diag, t)`` with ``t^T * g * t`` equal to ``diag`` as a
    diagonal matrix.  Pivot rule: the first nonzero diagonal entry at or
    below the current position; if the remaining diagonal is zero, the
    first nonzero off-diagonal entry (row-major) is folded onto the
    diagonal first."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    t = identity(n)

    def sym_col_add(i, j, c):
        for r_ in a:
            r_[i] += c * r_[j]
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for r_ in t:
            r_[i] += c * r_[j]

    def sym_swap(i, j):
        for r_ in a:
            r_[i], r_[j] = r_[j], r_[i]
        a[i], a[j] = a[j], a[i]
        for r_ in t:
            r_[i], r_[j] = r_[j], r_[i]

    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][i]), None)
        if pivot is None:
            pair = next(
                (
                    (i, j)
                    for i in range(k, n)
                    for j in range(i + 1, n)
                    if a[i][j]
                ),
                None,
            )
            if pair is None:
                break
            sym_col_add(pair[0], pair[1], Fraction(1))
            pivot = pair[0]
        if pivot != k:
            sym_swap(pivot, k)
        for r in range(k + 1, n):
            if a[r][k]:
                sym_col_add(r, k, -a[r][k] / a[k][k])
    return [a[i][i] for i in range(n)], t

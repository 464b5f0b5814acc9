"""Dense congruence diagonalization over Q, kept as the oracle for the
fraction-free ``twoquadrics.exactmath.gram_diagonalize``, and the small
dense helpers the tests build on: the identity, the transpose, a
matrix-vector product and an integer kernel basis from the Smith form.

``gram_diagonalize`` here works on Fractions and carries the congruence
transform along: every symmetric column operation rewrites a full row and
column of the matrix and a full column of ``t``.  It applies the same pivot
rule as the library routine, so the two diagonals agree entry for entry.
"""

from fractions import Fraction

from twoquadrics.exactmath import smith_normal_form


def identity(n):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def integer_kernel_basis(m):
    """Basis of the integer kernel {x in Z^cols : m*x = 0}, via SNF."""
    cols = len(m[0])
    diag, _, right = smith_normal_form(m)
    kernel_cols = [j for j in range(cols) if j >= len(diag) or diag[j] == 0]
    return [[right[i][j] for i in range(cols)] for j in kernel_cols]


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

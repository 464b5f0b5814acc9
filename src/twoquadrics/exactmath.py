"""Exact scalar arithmetic and exact linear algebra over Q, F_p and Z.

Scalars are plain ``int`` and ``fractions.Fraction``.  Matrices are
row-major lists of lists holding every entry, zeros included; ``mat_mul``
and back-substitution skip the zero entries, so a product with a sparse
factor costs about one step per nonzero pair.  The determinant and the
congruence diagonal of a rational matrix are computed fraction-free: the
matrix is scaled to integers and Bareiss elimination keeps every
intermediate value an integer.  All pivot choices are the lowest
admissible index, so every routine is deterministic and its output
reproducible bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

Vec = list[Fraction]
Mat = list[list[Fraction]]


def mat_mul(a, b):
    """Exact product ``a * b`` that skips zero entries of either factor.

    Each nonzero ``a[i][k]`` is multiplied only into the nonzero entries of
    row k of ``b``, so the cost is the number of such nonzero pairs rather
    than rows * inner * columns.  Every output entry starts from a zero of
    the product's type, ``0 * a[0][0] * b[0][0]``: an all-zero entry of a
    Fraction product is ``Fraction(0)``, of an int product ``0``, as the
    dense sum gives them.
    """
    if len(a[0]) != len(b):
        raise ValueError("inner dimensions do not match")
    zero = 0 * a[0][0] * b[0][0]
    cols = len(b[0])
    b_nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [zero] * cols
        for x, b_row in zip(row, b_nonzero):
            if x:
                for j, y in b_row:
                    acc[j] += x * y
        out.append(acc)
    return out


def _check_rect(m) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise ValueError("ragged matrix")
    return rows, cols


def det(m: Mat) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Each row is first scaled to integer entries; Bareiss then keeps every
    intermediate value an integer, with the interior division always exact.
    """
    rows, cols = _check_rect(m)
    if rows != cols:
        raise ValueError("determinant of a non-square matrix")
    n = rows
    if n == 0:
        return Fraction(1)
    scale = 1
    work: list[list[int]] = []
    for row in m:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        work.append([x.numerator * (mult // x.denominator) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot_row = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            sign = -sign
        top = work[k][k + 1 :]
        p = work[k][k]
        for row in work[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(x * p - f * y) // prev for x, y in zip(row[k + 1 :], top)]
        prev = p
    return Fraction(sign * work[n - 1][n - 1], scale)


def echelon(m, p=None):
    """Row echelon form by forward elimination, with its pivot columns.

    Works over F_p, on the entries reduced mod the prime ``p``, when ``p``
    is given, and over Q, on Fraction entries, otherwise.  The pivot is the
    first nonzero entry at or below the current row.  Pivot rows are
    neither normalized nor cleared above: ``rank`` needs only the pivot
    count, and ``kernel_basis`` and ``solve_exact`` back-substitute.
    """
    work = [list(row) for row in m] if p is None else [[x % p for x in row] for row in m]
    n_rows = len(work)
    pivots: list[int] = []
    r = 0
    for c in range(len(work[0]) if work else 0):
        pivot_row = next((i for i in range(r, n_rows) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        top = work[r]
        if p is None:
            for i in range(r + 1, n_rows):
                if work[i][c]:
                    f = work[i][c] / top[c]
                    work[i] = [x - f * y for x, y in zip(work[i], top)]
        else:
            inv = pow(top[c], p - 2, p)
            for i in range(r + 1, n_rows):
                if work[i][c]:
                    f = work[i][c] * inv % p
                    work[i] = [(x - f * y) % p for x, y in zip(work[i], top)]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return work, pivots


def rank(m, p=None) -> int:
    """Rank over the field of the entries, or over F_p when ``p`` is given."""
    _check_rect(m)
    return len(echelon(m, p)[1])


def _back_substitute(work, pivots, x, p=None):
    """Set the pivot coordinates of ``x`` so that every echelon row
    annihilates it; the other coordinates stay as given."""
    zero = x[0] - x[0]
    for row, c in zip(reversed(work[: len(pivots)]), reversed(pivots)):
        s = -sum((row[j] * x[j] for j in range(c + 1, len(x)) if row[j]), zero)
        x[c] = s / row[c] if p is None else s * pow(row[c], p - 2, p) % p
    return x


def kernel_basis(m, p=None) -> list[list]:
    """Basis of the right null space; one vector per free column, with 1
    there and 0 at the other free columns."""
    _, cols = _check_rect(m)
    if not cols:
        return []
    work, pivots = echelon(m, p)
    zero = m[0][0] - m[0][0] if p is None else 0
    basis = []
    for free in range(cols):
        if free not in pivots:
            v = [zero] * cols
            v[free] = zero + 1
            basis.append(_back_substitute(work, pivots, v, p))
    return basis


def solve_exact(a, b):
    """One exact solution of a*x = b, or None if the system is inconsistent."""
    rows, cols = _check_rect(a)
    work, pivots = echelon([list(row) + [b[i]] for i, row in enumerate(a)])
    if cols in pivots:
        return None
    # the right-hand side enters as a last unknown fixed at -1
    x = _back_substitute(work, pivots, [Fraction(0)] * cols + [Fraction(-1)])
    return x[:cols]


def _unit_rows(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def smith_normal_form(m) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Smith normal form over Z.

    Returns ``(diag, left, right)`` with ``left * m * right`` diagonal,
    the diagonal entries nonnegative and each dividing the next, and both
    transforms unimodular.  Pivot selection takes the smallest nonzero
    absolute value, lowest position on ties, so the transforms are
    deterministic.
    """
    rows, cols = _check_rect(m)
    a = [[int(x) for x in row] for row in m]
    left = _unit_rows(rows)
    right = _unit_rows(cols)

    def row_add(i, j, q):
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        left[i] = [x + q * y for x, y in zip(left[i], left[j])]

    def col_add(i, j, q):
        for r_ in a:
            r_[i] += q * r_[j]
        for r_ in right:
            r_[i] += q * r_[j]

    for s in range(min(rows, cols)):
        while True:
            best = None
            for i in range(s, rows):
                for j in range(s, cols):
                    v = abs(a[i][j])
                    if v and (best is None or v < abs(a[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            bi, bj = best
            if bi != s:
                a[s], a[bi] = a[bi], a[s]
                left[s], left[bi] = left[bi], left[s]
            if bj != s:
                for r_ in a:
                    r_[s], r_[bj] = r_[bj], r_[s]
                for r_ in right:
                    r_[s], r_[bj] = r_[bj], r_[s]
            if a[s][s] < 0:
                a[s] = [-x for x in a[s]]
                left[s] = [-x for x in left[s]]
            pivot = a[s][s]
            for i in range(s + 1, rows):
                if a[i][s]:
                    row_add(i, s, -(a[i][s] // pivot))
            for j in range(s + 1, cols):
                if a[s][j]:
                    col_add(j, s, -(a[s][j] // pivot))
            if any(a[i][s] for i in range(s + 1, rows)) or any(
                a[s][j] for j in range(s + 1, cols)
            ):
                continue  # remainders appeared; the pivot shrank, go again
            culprit = next(
                (
                    i
                    for i in range(s + 1, rows)
                    if any(a[i][j] % pivot for j in range(s + 1, cols))
                ),
                None,
            )
            if culprit is None:
                break
            row_add(s, culprit, 1)
        if all(
            a[i][j] == 0 for i in range(s, rows) for j in range(s, cols)
        ):
            break
    diag = [a[i][i] for i in range(min(rows, cols))]
    return diag, left, right


def gram_diagonalize(g: Mat) -> list[Fraction]:
    """Diagonal of a congruence diagonalization of a symmetric matrix over Q.

    Pivot rule: the first nonzero diagonal entry at or below the current
    position; if the remaining diagonal is zero, the first nonzero
    off-diagonal entry (row-major) is folded onto the diagonal first.
    Ties always break toward the lowest index.  The elimination is
    fraction-free (symmetric Bareiss) on the integer matrix s*g, s the lcm
    of the denominators: after step k the live block holds pivot_k times
    the Schur complement, every division is exact, and the k-th diagonal
    entry is pivot_k / (pivot_{k-1} * s).
    """
    rows, cols = _check_rect(g)
    if rows != cols:
        raise ValueError("gram matrix must be square")
    n = rows
    for i in range(n):
        for j in range(i + 1, n):
            if g[i][j] != g[j][i]:
                raise ValueError("gram matrix must be symmetric")
    s = lcm(*(x.denominator for row in g for x in row))
    a = [[x.numerator * (s // x.denominator) for x in row] for row in g]
    diag = [Fraction(0)] * n
    prev = 1
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
            i, j = pair
            for row in a[k:]:
                row[i] += row[j]
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            pivot = i
        if pivot != k:
            for row in a[k:]:
                row[pivot], row[k] = row[k], row[pivot]
            a[pivot], a[k] = a[k], a[pivot]
        top = a[k]
        p = top[k]
        diag[k] = Fraction(p, prev * s)
        for row in a[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(p * x - f * y) // prev for x, y in zip(row[k + 1 :], top[k + 1 :])]
        prev = p
    return diag


def signature(diag) -> tuple[int, int, int]:
    """Counts of (positive, negative, zero) entries."""
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg

"""Linear-algebra model of the degenerate fiber of the quadric-pencil
family.

The special fiber is glued from two smooth pieces meeting along a divisor:
a quadric component carrying classes {h1, beta} in its middle cohomology,
and a blown-up quadric component whose middle cohomology splits into
{h2, theta} from the base and {hz, z_1..z_{m+1}} from the center of the
blow-up.  Middle cohomology of the glued fiber is the kernel of the
difference-of-restrictions map gamma to the divisor, computed here
over the six-block basis.  The intersection pairing descends from the
component tables with a sign flip on the blow-up block, and the whole
package restricts to the middle cohomology of the smooth fiber by an
explicit rational matrix with at most one nonzero entry per column.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import Mat, kernel_basis, rank


# Top intersection numbers of the components, the same in every dimension.
COMPONENT_VOLUME = 2  # integral of omega^m over either quadric piece
DIVISOR_VOLUME = 2  # integral of omega^(m-1) over the divisor
CENTER_VOLUME = 4  # integral of omega^(m-2) over the blow-up center
BETA_SELF = 1
THETA_SELF = 1
Z_SELF = 1  # z_i are normalized to self-intersection +1


def _require_fiber_dimension(m: int) -> None:
    if m % 2 or m < 4:
        raise ValueError("the fiber model requires even dimension at least 4")


def fiber_basis_labels(m: int) -> tuple[str, ...]:
    """Order of the six blocks: quadric piece, blown-up piece, center."""
    _require_fiber_dimension(m)
    return ("h1", "beta", "h2", "theta", "hz") + tuple(
        f"z{i}" for i in range(1, m + 2)
    )


class FiberClass:
    """Element of the direct sum of the two components' middle cohomology,
    with rational coefficients over the six-block basis."""

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: tuple[Fraction, ...]):
        self.m = m
        self.coeffs = coeffs


def restriction_to_divisor(m: int) -> dict[str, Fraction]:
    """Coefficient of omega_D^{m/2} in the divisor restriction of each
    basis class."""
    table = {lbl: Fraction(0) for lbl in fiber_basis_labels(m)}
    table["h1"] = Fraction(1)
    table["h2"] = Fraction(1)
    table["hz"] = Fraction(2)
    return table


def gamma_matrix(m: int) -> Mat:
    """Matrix of gamma(a, b) = a|_D - b|_D over the six-block basis;
    the quadric piece spans the first two coordinates."""
    table = restriction_to_divisor(m)
    labels = fiber_basis_labels(m)
    row = []
    for idx, lbl in enumerate(labels):
        sign = 1 if idx < 2 else -1
        row.append(sign * table[lbl])
    return [row]


def pairing_diagonal(m: int) -> list[int]:
    """Intersection pairing over the six-block basis, which is diagonal:
    block-diagonal over the components, with the center block entering
    with a minus sign."""
    _require_fiber_dimension(m)
    return [
        COMPONENT_VOLUME,  # h1
        BETA_SELF,  # beta
        COMPONENT_VOLUME,  # h2
        THETA_SELF,  # theta
        -CENTER_VOLUME,  # hz
    ] + [-Z_SELF] * (m + 1)  # z_i


def mv_kernel_labels(m: int) -> tuple[str, ...]:
    return ("h1+h2", "h1+hz-h2", "beta", "theta") + tuple(
        f"z{i}" for i in range(1, m + 2)
    )


def mv_kernel(m: int) -> list[FiberClass]:
    """Named basis of the kernel of gamma, verified against the computed
    null space: the span is checked to coincide before returning.  The
    classes are built by coordinate index from one read of the labels."""
    labels = fiber_basis_labels(m)
    at = {lbl: k for k, lbl in enumerate(labels)}
    zero, one = Fraction(0), Fraction(1)

    def named_class(*terms):
        coeffs = [zero] * len(labels)
        for lbl, c in terms:
            coeffs[at[lbl]] = c
        return FiberClass(m, tuple(coeffs))

    named = [
        named_class(("h1", one), ("h2", one)),
        named_class(("h1", one), ("hz", one), ("h2", -one)),
        named_class(("beta", one)),
        named_class(("theta", one)),
    ] + [named_class((f"z{i}", one)) for i in range(1, m + 2)]
    gamma = gamma_matrix(m)
    nullity = len(gamma[0]) - rank(gamma)
    support = [(k, g) for k, g in enumerate(gamma[0]) if g]
    for v in named:
        if sum(g * v.coeffs[k] for k, g in support):
            raise ArithmeticError("named class does not lie in the kernel")
    named_rows = [list(v.coeffs) for v in named]
    if rank(named_rows) != len(named) or len(named) != nullity:
        raise ArithmeticError("named classes do not span the kernel")
    return named


def fiber_gram_on_kernel(m: int) -> Mat:
    """Pairing matrix restricted to the named kernel basis.

    The pairing is diagonal, so coordinate k adds x_k * y_k * d_k to the
    entry of each two classes x, y that are both nonzero at k.  That is one
    product per such pair, linear in m in all: only the coordinates h1 and
    h2 are nonzero on more than one named class.
    """
    basis = mv_kernel(m)
    n = len(basis)
    zero = Fraction(0)
    gram = [[zero] * n for _ in range(n)]
    for k, d in enumerate(pairing_diagonal(m)):
        support = [(i, v.coeffs[k]) for i, v in enumerate(basis) if v.coeffs[k]]
        for i, x in support:
            row = gram[i]
            for j, y in support:
                row[j] += x * y * d
    return gram


def x_basis_labels(m: int) -> tuple[str, ...]:
    return ("omega",) + tuple(f"e{i}" for i in range(1, m + 4))


def x_middle_gram(m: int) -> Mat:
    """Pairing on the smooth fiber in the basis omega, e_1 .. e_{m+3}:
    the first m+1 primitive classes square to -1, the last two to +1."""
    n = m + 4
    g = [[Fraction(0)] * n for _ in range(n)]
    g[0][0] = Fraction(4)
    for i in range(1, m + 2):
        g[i][i] = Fraction(-1)
    g[m + 2][m + 2] = Fraction(1)
    g[m + 3][m + 3] = Fraction(1)
    return g


class RestrictionMap:
    """Restriction from the glued-fiber middle cohomology to the smooth
    fiber, as a matrix over the named kernel basis."""

    __slots__ = ("m", "matrix", "source_labels", "target_labels")

    def __init__(
        self,
        m: int,
        matrix: tuple[tuple[Fraction, ...], ...],  # (m+4) x (m+5)
        source_labels: tuple[str, ...],
        target_labels: tuple[str, ...],
    ):
        self.m = m
        self.matrix = matrix
        self.source_labels = source_labels
        self.target_labels = target_labels

    def kernel(self) -> list[list[Fraction]]:
        return kernel_basis(self.matrix)

    def is_pairing_preserving(self) -> bool:
        """Bilinear compatibility: transpose(M) * G_X * M must reproduce the
        fiber Gram on the kernel basis.  Specialization of cohomology is a
        map of rational vector spaces, so the form is bilinear: z_i squares
        to -1 because its image e_i does, and the sign of a column does not
        show."""
        mt = self.matrix
        from .exactmath import mat_mul

        lhs = mat_mul(list(zip(*mt)), mat_mul(x_middle_gram(self.m), mt))
        return lhs == fiber_gram_on_kernel(self.m)


def restriction_map(m: int) -> RestrictionMap:
    """The diagonal restriction matrix: h1+h2 goes to omega, h1+hz-h2 dies,
    beta and theta hit the two +1 classes, and each z_i maps to the
    corresponding -1 class e_i."""
    _require_fiber_dimension(m)
    source = mv_kernel_labels(m)
    target = x_basis_labels(m)
    n_rows, n_cols = m + 4, m + 5
    zero, one = Fraction(0), Fraction(1)
    mat = [[zero] * n_cols for _ in range(n_rows)]
    mat[0][0] = one  # h1+h2 -> omega
    mat[m + 2][2] = one  # beta -> e_{m+2}
    mat[m + 3][3] = one  # theta -> e_{m+3}
    for i in range(1, m + 2):
        mat[i][3 + i] = one  # z_i -> e_i
    return RestrictionMap(
        m, tuple(tuple(row) for row in mat), source, target
    )


def x1_restriction(insertion_index: int, m: int) -> tuple[Fraction, Fraction]:
    """Restriction of the chosen preimage of e_i to the quadric piece, as
    (h1, beta) coordinates: only e_{m+2} survives."""
    if not 1 <= insertion_index <= m + 3:
        raise ValueError(f"insertion index must lie in 1..{m + 3}")
    if insertion_index == m + 2:
        return (Fraction(0), Fraction(1))
    return (Fraction(0), Fraction(0))

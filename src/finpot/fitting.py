"""Fitting decomposition of a finite square matrix, and its lift to the
invariant core of a certified operator.

For a square M over Q or a number field, the ambient space splits as
W = im(M^e) and U = ker(M^e), both M-invariant, with M invertible on W and
nilpotent on U, for any e at or beyond the first exponent where the ranks of
the powers M^0 = I, M, M^2, ... stop falling; that first exponent is the
nilpotency order of M on U.  The decomposition is unique; traces and
determinants of 1 + M reduce to the W block.  Only tate_trace, the ast
route of det_routes and the `ast` CLI verb use the split; the other
determinant functions read the certificate block directly.

No power of M is formed.  A chain of restrictions to the image keeps the
pivot columns B of M^k, its reduced echelon rows S with pivots L, and A,
with M^k = B S and M B = B A.  With A = C R, C the pivot columns P of A
and R its reduced echelon rows, M^(k+1) = (B C)(R S) with R S reduced and
pivots L[P], and rank M^(k+1) = rank A; so each step sets B, S, A, L to
B C, R S, R C, L[P], and the first A of full rank ends the chain at k = e.
B is the core basis and A the core block; the nil basis N is the kernel
of S with N[F] = I, F the free columns, and the nil block is rows F of M N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFinitePotentError
from .matrices import _kernel_vectors, identity, mat_mul, reduced_echelon
from .operators import Certificate, FinitePotentOperator, certify_finite_potent
from .scalars import scalar_is_zero


@dataclass
class ASTDecomposition:
    """Invariant splitting of a finite space under a matrix.

    core_basis / nil_basis are column vectors in the ambient coordinates;
    core_matrix / nil_matrix are the restrictions of the map to those bases.
    ambient_indices, when set, names the basis indices of the ambient block
    inside the Z-indexed space (used by the operator-level lift).
    """

    core_basis: list
    nil_basis: list
    core_matrix: list
    nil_matrix: list
    nil_degree: int
    ambient_indices: tuple = ()

    @property
    def core_dim(self) -> int:
        return len(self.core_basis)

    @property
    def nil_dim(self) -> int:
        return len(self.nil_basis)


def fitting(matrix) -> ASTDecomposition:
    """Split the ambient space into the invertible core and nilpotent part,
    restricting M to its image until the restriction A is invertible: one
    reduced echelon form a step, M B = B A and M^k = B S throughout (see the
    module docstring), and e steps, the nilpotency order of M on U."""
    d = len(matrix)
    basis, rows, pivots, e = identity(d), identity(d), list(range(d)), 0
    block = [list(row) for row in matrix]
    piv, red = reduced_echelon(block)
    while len(piv) < len(block):
        cols = [[row[c] for c in piv] for row in block]
        basis, rows, block = mat_mul(basis, cols), mat_mul(red, rows), mat_mul(red, cols)
        pivots, e = [pivots[c] for c in piv], e + 1
        piv, red = reduced_echelon(block)
    core_cols = [list(col) for col in zip(*basis)]
    nil_cols = _kernel_vectors(pivots, rows, d)
    free_rows = [row for i, row in enumerate(matrix) if i not in pivots]
    nil_matrix = mat_mul(free_rows, [[v[i] for v in nil_cols] for i in range(d)])
    nil_power = nil_matrix
    for _ in range(e - 1):
        nil_power = mat_mul(nil_power, nil_matrix)
    if any(not scalar_is_zero(x) for row in nil_power for x in row):
        raise NotFinitePotentError("U block is not nilpotent")
    return ASTDecomposition(core_cols, nil_cols, block, nil_matrix, e)


def lift_ast(phi: FinitePotentOperator) -> ASTDecomposition:
    """AST decomposition of the whole space for a certified operator.

    The certificate core carries all invertible content; the tail only ever
    adds to the nilpotent part, so the lifted core is the Fitting core of
    the certificate matrix, tagged with its basis indices.
    """
    cert: Certificate = certify_finite_potent(phi)
    ast = fitting([list(row) for row in cert.matrix])
    ast.ambient_indices = cert.indices
    return ast


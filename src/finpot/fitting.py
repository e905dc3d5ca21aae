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
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFinitePotentError
from .matrices import (
    column_space_basis,
    det,
    identity,
    kernel_basis,
    mat_mul,
    rank,
    solve_columns,
)
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


def _images(matrix, cols):
    """The columns M v for v in cols, from one mat_mul."""
    return list(zip(*mat_mul(matrix, [list(row) for row in zip(*cols)])))


def fitting(matrix) -> ASTDecomposition:
    """Split the ambient space into the invertible core and nilpotent part.

    Takes powers of M until the rank stops falling: at the first e with
    rank M^(e+1) = rank M^e, W = im(M^e), U = ker(M^e) and e is the
    nilpotency order of M on U.  Bases come out of the elimination kernel in
    matrices.
    """
    d = len(matrix)
    power, r, e = identity(d), d, 0
    nxt = matrix
    while (r_next := rank(nxt)) < r:
        power, r, e = nxt, r_next, e + 1
        nxt = mat_mul(nxt, matrix)
    core_cols = column_space_basis(power)
    nil_cols = kernel_basis(power)
    if len(core_cols) + len(nil_cols) != d:
        raise NotFinitePotentError("rank-nullity failure in fitting")
    core_matrix = solve_columns(core_cols, _images(matrix, core_cols))
    nil_matrix = solve_columns(nil_cols, _images(matrix, nil_cols))
    if scalar_is_zero(det(core_matrix)):
        raise NotFinitePotentError("core block came out singular")
    nil_power = nil_matrix
    for _ in range(e - 1):
        nil_power = mat_mul(nil_power, nil_matrix)
    if any(not scalar_is_zero(x) for row in nil_power for x in row):
        raise NotFinitePotentError("U block is not nilpotent")
    return ASTDecomposition(core_cols, nil_cols, core_matrix, nil_matrix, e)


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


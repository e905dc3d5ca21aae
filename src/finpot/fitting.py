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

Both bases and both blocks come from one reduced echelon form R of M^e,
with pivot columns P and free columns F.  The core basis is C = M^e[:, P]
and M^e = C R; since M commutes with M^e, M C = M^e M[:, P] = C (R M[:, P]),
so the core block is R M[:, P].  The nil basis N is the kernel of R with
N[F] = I, so M N = N Y gives the nil block Y as rows F of M N.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotFinitePotentError
from .matrices import _kernel_vectors, det, identity, mat_mul, rank, reduced_echelon
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
    """Split the ambient space into the invertible core and nilpotent part.

    Takes powers of M until the rank stops falling: at the first e with
    rank M^(e+1) = rank M^e, W = im(M^e), U = ker(M^e) and e is the
    nilpotency order of M on U.  Bases and blocks come out of the reduced
    echelon form of M^e (see the module docstring).
    """
    d = len(matrix)
    power, r, e = identity(d), d, 0
    nxt = matrix
    while (r_next := rank(nxt)) < r:
        power, r, e = nxt, r_next, e + 1
        nxt = mat_mul(nxt, matrix)
    pivots, reduced = reduced_echelon(power)
    core_cols = [[row[c] for row in power] for c in pivots]
    nil_cols = _kernel_vectors(pivots, reduced, d)
    core_matrix = mat_mul(reduced, [[row[c] for c in pivots] for row in matrix])
    free_rows = [row for i, row in enumerate(matrix) if i not in pivots]
    nil_matrix = mat_mul(free_rows, [[v[i] for v in nil_cols] for i in range(d)])
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


"""Route independence: a small deterministic fault in one kernel must break
some cross-check that the library runs between two routes.  Each test
injects its fault with monkeypatch and asserts that the check it names now
fails."""

from finpot.determinants import det_one_plus, restrict_scalars
from finpot.operators import FinitePotentOperator as FPO
from finpot.parsing import parse_rational_function as P
from finpot.places import Place
from finpot.residues import Compression, residue_classical, residue_tate
from finpot.scalars import NumberField, field_norm
from finpot.symbols import cocycle, cocycle_via_operators


def test_reduction_table_fault_breaks_the_norm_check(monkeypatch):
    """Q(i) with the reduction table of i * i = -2 is Q(sqrt -2), a wrong
    but self-consistent field for every product and regular matrix.  The
    norm reads the modulus x^2 + 1 and not the table, so restriction of
    scalars no longer gives the field norm of det(1 + phi), here
    det = -1 + 2i: 9 from the restricted operator against N(-1 + 2i) = 5."""
    field = NumberField([1, 0, 1])
    monkeypatch.setattr(field, "_table", ([[(0, -2)]], 1))
    i = field.generator()
    phi = FPO.from_entries([(0, 0, i), (0, 1, 1), (1, 1, i)])
    d = det_one_plus(phi)
    assert not d.is_rational()
    assert det_one_plus(restrict_scalars(phi)) != field_norm(d)


def test_commutator_columns_fault_breaks_the_residue_and_cocycle_checks(monkeypatch):
    """Compression.commutator on one column fewer than the proved bound
    cut + max(n_f, n_g) drops the Hankel products' last column.  At
    f = 1/t^2 + t, g = 1/t + t^2 that column holds the whole commutator, so
    the trace reads 0 against the residue 1, and the cocycle's determinant
    route leaves the residue route.  A g without its t^2 term leaves the
    column zero and would not catch the fault."""
    f, g, at_zero = P("1/t^2 + t"), P("1/t + t^2"), Place.at_zero()
    assert residue_tate(f, g) == residue_classical(f, g, at_zero) == 1
    assert cocycle_via_operators(f, g) == cocycle(f, g, at_zero)
    columns = Compression._columns
    monkeypatch.setattr(Compression, "_columns", lambda self, other: columns(self, other)[:-1])
    assert residue_tate(f, g) == 0
    assert cocycle_via_operators(f, g) != cocycle(f, g, at_zero)

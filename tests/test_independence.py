"""Route independence: a small deterministic fault in one kernel must break
some cross-check that the library runs between two routes.  Each test
injects its fault with monkeypatch and asserts that the check it names now
fails."""

from finpot.determinants import det_one_plus, restrict_scalars
from finpot.operators import FinitePotentOperator as FPO
from finpot.scalars import NumberField, field_norm


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

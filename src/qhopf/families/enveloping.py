"""Enveloping algebras of the two 2-dimensional Lie algebras.

Both have PBW basis y^a x^b (a, b >= 0), keyed by the index (a, b),
with x and y primitive.  The abelian case is the polynomial Hopf
algebra, a lattice family (`LatticeProvider`) whose lattice point is
the index (a, b) itself, with no twist (q = 1).  The nonabelian one has
[x, y] = y, so x y^a = y^a (x + a) and monomials straighten through
ordinary binomials.  Its `_multiply_raw` is stated at y-exponent 0
only, and the base moves that row by y^a (`HopfProvider._product`).
y is primitive here, not a grouplike unit, so Delta(y^a x^b) is no
move of Delta(x^b): both families state every coproduct but Delta(1),
and the bialgebra scan proves every pair on its own (`qhopf.verify`).
Both state S(g) = -g on the generators; the base derives every other S.
"""

from __future__ import annotations

from math import comb

from qhopf.elements import Lin, lin_from_pairs
from qhopf.families.base import HopfProvider, LatticeProvider


_LETTERS = (("y", False, None), ("x", False, None))


def _primitive_coproduct(self, i) -> Lin:
    # both families' `_coproduct_raw`:
    # Delta(y^a x^b) = sum (a choose r)(b choose k) y^(a-r) x^(b-k) ox y^r x^k
    a, b = i
    pairs = []
    for r in range(a + 1):
        ca = comb(a, r)
        for k in range(b + 1):
            pairs.append((((a - r, b - k), (r, k)), ca * comb(b, k)))
    return lin_from_pairs(pairs)


def _primitive_antipode(self, i) -> Lin:
    # both families' `_antipode_raw`: S(g) = -g for a primitive generator g
    return self.basis_el(i, -1)


class EnvAbelian(LatticeProvider):
    letters = _LETTERS
    twist = 0
    _coproduct_raw = _primitive_coproduct
    _antipode_raw = _primitive_antipode

    def __init__(self, params):
        super().__init__(level=1)
        self.params = params

    def oracle_rules(self):
        return [(("x", "y"), [(self.one_scalar(), ("y", "x"))])]


class EnvNonabelian(HopfProvider):
    letters = _LETTERS
    _coproduct_raw = _primitive_coproduct
    _antipode_raw = _primitive_antipode

    def __init__(self, params):
        super().__init__(level=1)
        self.params = params

    def _multiply_raw(self, i, j):
        # x^b y^c = y^c (x + c)^b; i = (0, b), the base moves the row
        # by y^a
        (_, b), (c, d) = i, j
        pairs = [((c, k + d), comb(b, k) * c ** (b - k)) for k in range(b + 1)]
        return lin_from_pairs(pairs)

    def oracle_rules(self):
        one = self.one_scalar()
        return [
            (("x", "y"), [(one, ("y", "x")), (one, ("y",))]),
        ]

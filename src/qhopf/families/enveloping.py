"""Enveloping algebras of the two 2-dimensional Lie algebras.

Both have PBW basis y^a x^b (a, b >= 0) with x and y primitive.  The
abelian case is the polynomial Hopf algebra; the nonabelian one has
[x, y] = y, so x y^a = y^a (x + a) and monomials straighten through
ordinary binomials.
"""

from __future__ import annotations

from math import comb

from qhopf.elements import Lin, lin_from_pairs
from qhopf.families.base import HopfProvider
from qhopf.params import EnvAbelianParams, EnvNonabelianParams


class _Enveloping(HopfProvider):
    def __init__(self, params):
        super().__init__(level=1)
        self.params = params

    def unit_index(self):
        return (0, 0)

    def _coproduct_raw(self, i):
        a, b = i
        pairs = []
        for r in range(a + 1):
            ca = comb(a, r)
            for k in range(b + 1):
                pairs.append((((a - r, b - k), (r, k)), ca * comb(b, k)))
        return lin_from_pairs(pairs)

    def counit_basis(self, i):
        return self.scalar(1 if i == (0, 0) else 0)

    def basis_box(self, window):
        w = window
        return [(a, b) for a in range(w + 1) for b in range(w + 1)]

    def unit_monomials(self, bound):
        return [(0, 0)]

    def generators(self):
        return [("y", (1, 0)), ("x", (0, 1))]

    def index_factors(self, i):
        a, b = i
        return [("y", a), ("x", b)]


class EnvAbelian(_Enveloping):
    def __init__(self, params: EnvAbelianParams):
        super().__init__(params)

    def _multiply_raw(self, i, j):
        (a, b), (c, d) = i, j
        return Lin.basis((a + c, b + d), self.one_scalar())

    def _antipode_raw(self, i):
        a, b = i
        return Lin.basis(i, self.scalar((-1) ** (a + b)))

    def oracle_rules(self):
        return [(("x", "y"), [(self.one_scalar(), ("y", "x"))])]


class EnvNonabelian(_Enveloping):
    def __init__(self, params: EnvNonabelianParams):
        super().__init__(params)

    def _multiply_raw(self, i, j):
        # x^b y^c = y^c (x + c)^b
        (a, b), (c, d) = i, j
        pairs = [
            ((a + c, k + d), comb(b, k) * c ** (b - k)) for k in range(b + 1)
        ]
        return lin_from_pairs(pairs)

    def _antipode_raw(self, i):
        # S(y^a x^b) = (-x)^b (-y)^a = (-1)^(a+b) x^b y^a
        a, b = i
        sign = (-1) ** (a + b)
        pairs = [((a, k), sign * comb(b, k) * a ** (b - k)) for k in range(b + 1)]
        return lin_from_pairs(pairs)

    def oracle_rules(self):
        one = self.one_scalar()
        return [
            (("x", "y"), [(one, ("y", "x")), (one, ("y",))]),
        ]

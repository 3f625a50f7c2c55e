"""The A family: k<x^(pm 1), y> with x y = q y x.

x is grouplike, y is skew primitive with Delta(y) = y ox 1 + x^n ox y.
Basis monomials are y^a x^b (a >= 0, b in Z), keyed by the index
(a, b), and multiply by

    (y^a x^b)(y^c x^d) = q^(b c) y^(a+c) x^(b+d).

So A is a twisted monoid algebra on a lattice (`LatticeProvider`): the
lattice point of y^a x^b is its index (a, b) itself, and the twist is
q: its omega exponent e_q for a root of unity q = omega^(e_q) (q = +-1
included), else the rational q, whose powers q^(b c) are memoized per
exponent b c.  `_product` is derived from that statement.  The point
is the index, so it is one to one and the zero-only bialgebra pass's
lattice keys at a root of unity are the index keys themselves; at a
rational q the pass reads A by index.

Coproducts of powers of y run through the skew binomial theorem with
ratio q^n, since (x^n ox y)(y ox 1) = q^n (y ox 1)(x^n ox y):

    Delta(y^a x^b) = sum_r (a choose r)_(q^n) y^(a-r) x^(n r + b) ox y^r x^b,

each coefficient kept in its Gauss-polynomial form (`skew_binomial_forms`).
"""

from __future__ import annotations

from fractions import Fraction

from qhopf.families.base import FormLin, LatticeProvider, PowCache
from qhopf.params import AParams
from qhopf.qcombinat import skew_binomial_forms


class FamilyA(LatticeProvider):
    letters = (("y", False, None), ("x", True, None))

    def __init__(self, params: AParams):
        super().__init__(level=params.q.min_level())
        self.params = params
        self.n = params.n
        self.q = params.q.to_cyclo(self.level)
        self.qpow = PowCache(self.q)
        self._skew_cache: dict[int, list] = {}
        if self.q in self._roots:
            self.twist = self._roots.index(self.q)
        else:
            self.twist = Fraction(params.q.rational)

    def _skew(self, a: int) -> list:
        hit = self._skew_cache.get(a)
        if hit is None:
            hit = skew_binomial_forms(a, self.qpow(self.n))
            self._skew_cache[a] = hit
        return hit

    def _coproduct_raw(self, i):
        a, b = i
        return FormLin.of(
            (((a - r, self.n * r + b), (r, b)), c, pairs)
            for r, c, pairs in self._skew(a)
        )

    def _antipode_raw(self, i):
        # S(y^a x^b) = x^(-b) (-x^(-n) y)^a
        a, b = i
        s_y = self.mul(self.basis_el((0, -self.n)), self.basis_el((1, 0))).scale(
            self.scalar(-1)
        )
        out = self.el_pow(s_y, a)
        return self.mul(self.basis_el((0, -b)), out)

    def oracle_rules(self):
        one = self.one_scalar()
        return [
            (("x", "X"), [(one, ())]),
            (("X", "x"), [(one, ())]),
            (("x", "y"), [(self.q, ("y", "x"))]),
            (("X", "y"), [(self.qpow(-1), ("y", "X"))]),
        ]

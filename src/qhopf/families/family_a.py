"""The A family: k<x^(pm 1), y> with x y = q y x.

x is grouplike, y is skew primitive with Delta(y) = y ox 1 + x^n ox y.
Basis monomials are y^a x^b (a >= 0, b in Z), keyed by the index
(a, b), and multiply by

    (y^a x^b)(y^c x^d) = q^(b c) y^(a+c) x^(b+d).

So A is a twisted monoid algebra on a lattice: the lattice point of
y^a x^b is its index (a, b) itself, and the twist is q: its omega
exponent e_q for a root of unity q = omega^(e_q) (q = +-1 included),
else the rational q, whose powers q^(b c) are memoized per exponent
b c.  x is a unit, so the base reads the point at x^0 only and takes
b as its v (`LatticeProvider`).

A is the one-y-letter case (m = (1,)) of `SkewPrimitiveProvider`,
which states Delta(y^a), S(y) = -x^(-n) y and the rewriting rules; the
base moves Delta(y^a) along the unit x and derives every other S:

    Delta(y^a x^b) = sum_r (a choose r)_(q^n) y^(a-r) x^(n r + b) ox y^r x^b.
"""

from __future__ import annotations

from fractions import Fraction

from qhopf.families.base import SkewPrimitiveProvider
from qhopf.params import AParams


class FamilyA(SkewPrimitiveProvider):
    letters = (("y", False, None), ("x", True, None))
    mm = (1,)

    def __init__(self, params: AParams):
        super().__init__(params, params.q.min_level())
        if self.q in self._roots:
            self.twist = self._roots.index(self.q)
        else:
            self.twist = Fraction(params.q.rational)

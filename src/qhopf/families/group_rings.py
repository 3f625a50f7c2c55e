"""Group algebras of the two infinite groups of rank two.

GroupZ2 is the Laurent polynomial ring on two commuting grouplikes: a
lattice family (`LatticeProvider`) whose lattice point is the index
(a, b) itself, with no twist (q = 1).  GroupZSemiZ is the group algebra
of <x, y | x y x^-1 = y^-1>; its monomials y^a x^b multiply by
(y^a x^b)(y^c x^d) = y^(a + (-1)^b c) x^(b+d), and every monomial is
grouplike.

Indices are pairs (a, b) for y^a x^b with a, b in Z: both letters are
units, so the base derives every coproduct and antipode from the
letters, and neither class states Delta or S.
"""

from __future__ import annotations

from qhopf.families.base import HopfProvider, LatticeProvider


# both letters are grouplike units, and so is every basis monomial
_LETTERS = (("y", True, None), ("x", True, None))


class GroupZ2(LatticeProvider):
    letters = _LETTERS
    twist = 0

    def __init__(self, params):
        super().__init__(level=1)
        self.params = params

    def oracle_rules(self):
        one = self.one_scalar()
        eps = [(one, ())]
        rules = [
            (("y", "Y"), eps),
            (("Y", "y"), eps),
            (("x", "X"), eps),
            (("X", "x"), eps),
        ]
        for xl in ("x", "X"):
            for yl in ("y", "Y"):
                rules.append(((xl, yl), [(one, (yl, xl))]))
        return rules


class GroupZSemiZ(HopfProvider):
    letters = _LETTERS

    def __init__(self, params):
        super().__init__(level=1)
        self.params = params

    def _product(self, i, j):
        (a, b), (c, d) = i, j
        c = c if b % 2 == 0 else -c
        return (((a + c, b + d), 0, 1),)

    def oracle_rules(self):
        one = self.one_scalar()
        eps = [(one, ())]
        flip = {"y": "Y", "Y": "y"}
        rules = [
            (("y", "Y"), eps),
            (("Y", "y"), eps),
            (("x", "X"), eps),
            (("X", "x"), eps),
        ]
        for xl in ("x", "X"):
            for yl in ("y", "Y"):
                rules.append(((xl, yl), [(one, (flip[yl], xl))]))
        return rules

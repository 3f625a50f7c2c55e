"""The B family: coupled power subalgebras of a skew Laurent extension.

Inside k[y][x^(pm 1); sigma] with sigma(y) = q y, take the subalgebra
generated by x^(pm 1) and the powers y_i = y^(m_i), where m = p_1...p_s
and m_i = m / p_i.  The defining relations are

    x y_i = q^(m_i) y_i x,    y_i y_j = y_j y_i,    y_i^(p_i) = y_j^(p_j),

x is grouplike and each y_i is skew primitive with
Delta(y_i) = y_i ox 1 + x^(m_i n) ox y_i.  That Hopf structure is the
one A has, with s y-letters: `SkewPrimitiveProvider` states it on the
y-letters, and the base derives the rest.  This module states the
carried basis.

Basis monomials are y^d x^b = y_1^(d_1) ... y_s^(d_s) x^b, keyed by the
flat exponent tuple (d_1, ..., d_s, b), canonical when d_i < p_i for
i >= 2 (d_1 unbounded).  The total y-degree mu(d) = sum m_i d_i is
injective on canonical tuples; a raw tuple renormalizes by the carry
d_i -= p_i, d_1 += p_1, which preserves mu because m_i p_i = m = m_1 p_1.

Two monomials multiply inside k[y][x^(pm 1); sigma], where y^d is
y^mu(d) and x^b y^mu = q^(b mu) y^mu x^b:

    (y^d x^b)(y^d' x^b') = q^(b mu(d')) y^(d+d') x^(b+b').

So B is a twisted monoid algebra on a lattice: the lattice point of
y^d x^b is (mu(d), b), and the twist is q = omega^qe.  `lattice_index`
inverts it: the canonical y-tuple of degree mu has d_i = mu m_i^-1 mod
p_i for i >= 2 (every other m_j is 0 mod p_i, and m_i is a unit mod p_i
since the p_i are pairwise coprime), and then d_1 = (mu - sum_(i >= 2)
m_i d_i) / m_1.  This is the one canonical tuple of degree mu, which is
what makes mu injective on canonical tuples.  The tuple is memoized
per degree, so the memory grows with the degrees met, not with the
indices or their pairs.
"""

from __future__ import annotations

from operator import mul

from qhopf.families.base import SkewPrimitiveProvider
from qhopf.params import BParams


class FamilyB(SkewPrimitiveProvider):
    def __init__(self, params: BParams):
        self.letters = tuple(
            (f"y{i + 1}", False, None if i == 0 else cap - 1)
            for i, cap in enumerate(params.p[1:])
        ) + (("x", True, None),)
        super().__init__(params, params.root_target())
        self.s = len(params.p) - 1
        self.pp = params.p[1:]  # (p_1, ..., p_s)
        m = 1
        for x in self.pp:
            m *= x
        self.mm = tuple(m // x for x in self.pp)  # (m_1, ..., m_s)
        self.twist = self.q.unit  # q = omega^twist
        # m_i^-1 mod p_i for i >= 2, and mu -> canonical y-tuple
        self._inverses = tuple(pow(m, -1, p) for m, p in zip(self.mm, self.pp))
        self._canon_d: dict[int, tuple[int, ...]] = {}

    def mu(self, d) -> int:
        """Total y-degree; an index's x-exponent is ignored."""
        return sum(map(mul, self.mm, d))

    def lattice(self, i):
        return self.mu(i), i[-1]

    def lattice_index(self, u, v):
        d = self._canon_d.get(u)
        if d is None:
            d = [0] * self.s
            rest = u
            for k in range(1, self.s):
                d[k] = u * self._inverses[k] % self.pp[k]
                rest -= self.mm[k] * d[k]
            d[0] = rest // self.mm[0]
            d = self._canon_d[u] = tuple(d)
        return d + (v,)

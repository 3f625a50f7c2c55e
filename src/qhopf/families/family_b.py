"""The B family: coupled power subalgebras of a skew Laurent extension.

Inside k[y][x^(pm 1); sigma] with sigma(y) = q y, take the subalgebra
generated by x^(pm 1) and the powers y_i = y^(m_i), where m = p_1...p_s
and m_i = m / p_i.  The defining relations are

    x y_i = q^(m_i) y_i x,    y_i y_j = y_j y_i,    y_i^(p_i) = y_j^(p_j),

x is grouplike and each y_i is skew primitive with
Delta(y_i) = y_i ox 1 + x^(m_i n) ox y_i.

Basis monomials are y^d x^b = y_1^(d_1) ... y_s^(d_s) x^b, keyed by the
flat exponent tuple (d_1, ..., d_s, b), canonical when d_i < p_i for
i >= 2 (d_1 unbounded).  The total y-degree mu(d) = sum m_i d_i is
injective on canonical tuples; a raw tuple renormalizes by the carry
d_i -= p_i, d_1 += p_1, which preserves mu because m_i p_i = m = m_1 p_1.

Two monomials multiply inside k[y][x^(pm 1); sigma], where y^d is
y^mu(d) and x^b y^mu = q^(b mu) y^mu x^b:

    (y^d x^b)(y^d' x^b') = q^(b mu(d')) y^(d+d') x^(b+b').

So B is a twisted monoid algebra on a lattice (`LatticeProvider`): the
lattice point of y^d x^b is (mu(d), b), and the twist is q = omega^qe.
`lattice_index` inverts it: the canonical y-tuple of degree mu has
d_i = mu m_i^-1 mod p_i for i >= 2 (every other m_j is 0 mod p_i, and
m_i is a unit mod p_i since the p_i are pairwise coprime), and then
d_1 = (mu - sum_(i >= 2) m_i d_i) / m_1.  This is the one canonical
tuple of degree mu, which is what makes mu injective on canonical
tuples; `canon` reads it too.  The zero-only bialgebra pass checks
lattice_index(*lattice(i)) == i on every index it codes.  The tuple is
memoized per degree, so the memory grows with the degrees met, not
with the indices or their pairs.

The coproduct of a monomial is assembled by tensor multiplication of
the closed forms for Delta(y_i)^(d_i); each of those is a skew
binomial expansion with ratio q^(m_i^2 n), because

    (x^(m_i n) ox y_i)(y_i ox 1) = q^(m_i^2 n) (y_i ox 1)(x^(m_i n) ox y_i).

The products run in the exponent form from the Gauss polynomials of
`skew_binomial_forms`, so each coefficient of Delta(y^d x^b) keeps a
product of Gauss forms in Q[C_N]; it is reduced once, and dropped if it
vanishes.
"""

from __future__ import annotations

from operator import mul

from qhopf.elements import Lin
from qhopf.families.base import FormLin, LatticeProvider, PowCache
from qhopf.params import BParams
from qhopf.qcombinat import skew_binomial_forms


class FamilyB(LatticeProvider):
    def __init__(self, params: BParams):
        ell = params.root_target()
        super().__init__(level=ell)
        self.params = params
        self.n = params.n
        self.ell = ell
        self.s = len(params.p) - 1
        self.pp = params.p[1:]  # (p_1, ..., p_s)
        m = 1
        for x in self.pp:
            m *= x
        self.m = m
        self.mm = tuple(m // x for x in self.pp)  # (m_1, ..., m_s)
        self.q = params.q.to_cyclo(ell)
        self.qpow = PowCache(self.q)
        # skew ratio for Delta(y_i) powers
        self._ratios = tuple(self.qpow(self.mm[i] ** 2 * self.n) for i in range(self.s))
        self._ypow_cop_cache: dict[tuple[int, int], FormLin] = {}
        self.twist = self.q.unit  # q = omega^twist
        # m_i^-1 mod p_i for i >= 2, and mu -> canonical y-tuple
        self._inverses = tuple(pow(m, -1, p) for m, p in zip(self.mm, self.pp))
        self._canon_d: dict[int, tuple[int, ...]] = {}
        self.letters = tuple(
            (f"y{i + 1}", False, None if i == 0 else cap - 1)
            for i, cap in enumerate(self.pp)
        ) + (("x", True, None),)

    # -- index bookkeeping ----------------------------------------------

    def canon(self, d) -> tuple[int, ...]:
        """The canonical y-exponents of d's degree; entries past the s-th
        (the x-exponent of an index) pass through."""
        d = tuple(d)
        return self.lattice_index(self.mu(d), 0)[:-1] + d[self.s :]

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

    def _yi_index(self, i: int, k: int):
        d = [0] * (self.s + 1)
        d[i] = k
        return self.canon(d)

    def _x_index(self, e: int):
        return (0,) * self.s + (e,)

    # -- structure constants ---------------------------------------------

    def _cop_ypow(self, i: int, k: int) -> FormLin:
        """Delta(y_i)^k = sum_r (k choose r)_(ratio_i) y_i^(k-r) x^(m_i n r) ox y_i^r."""
        key = (i, k)
        hit = self._ypow_cop_cache.get(key)
        if hit is None:
            step = self.mm[i] * self.n
            yi = self._yi_index
            # y_i^(k-r) x^(step r) is already in normal order
            hit = self._ypow_cop_cache[key] = FormLin.of(
                ((yi(i, k - r)[:-1] + (step * r,), yi(i, r)), c, pairs)
                for r, c, pairs in skew_binomial_forms(k, self._ratios[i])
            )
        return hit

    def _coproduct_raw(self, i):
        d, b = i[:-1], i[-1]
        out = Lin.basis((self._x_index(b), self._x_index(b)), self.one_scalar())
        for pos in range(self.s - 1, -1, -1):
            if d[pos]:
                table = self.table()
                self.t2_mul(self._cop_ypow(pos, d[pos]), out, into=table)
                out = self.form_lin(table)
        return out

    def _antipode_raw(self, i):
        # S(y^d x^b) = x^(-b) S(y_s)^(d_s) ... S(y_1)^(d_1),
        # with S(y_i) = -x^(-m_i n) y_i
        d, b = i[:-1], i[-1]
        out = self.basis_el(self._x_index(-b))
        for pos in range(self.s - 1, -1, -1):
            if d[pos]:
                s_y = self.mul(
                    self.basis_el(self._x_index(-self.mm[pos] * self.n)),
                    self.basis_el(self._yi_index(pos, 1)),
                ).scale(self.scalar(-1))
                out = self.mul(out, self.el_pow(s_y, d[pos]))
        return out

    # -- rewriting oracle -----------------------------------------------------

    def oracle_rules(self):
        one = self.one_scalar()
        ynames = [name for name, _, _ in self.letters[: self.s]]
        rules = [
            (("x", "X"), [(one, ())]),
            (("X", "x"), [(one, ())]),
        ]
        for i, yn in enumerate(ynames):
            rules.append((("x", yn), [(self.qpow(self.mm[i]), (yn, "x"))]))
            rules.append((("X", yn), [(self.qpow(-self.mm[i]), (yn, "X"))]))
        for i in range(self.s):
            for j in range(i + 1, self.s):
                rules.append(
                    ((ynames[j], ynames[i]), [(one, (ynames[i], ynames[j]))])
                )
        for i in range(1, self.s):
            rules.append(
                (
                    (ynames[i],) * self.pp[i],
                    [(one, (ynames[0],) * self.pp[0])],
                )
            )
        return rules

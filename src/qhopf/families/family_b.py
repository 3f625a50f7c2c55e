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

So mu and b alone fix the product: its scalar is q^(b mu(d')), and its
index is the one canonical y-tuple of degree mu(d) + mu(d') followed by
the x-exponent b + b'.  `_product` keeps (mu, b) per index and the
canonical y-tuple per degree, so its memory grows with the indices it
meets, not with the pairs of them.

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

from qhopf.elements import Index, Lin
from qhopf.families.base import FormLin, HopfProvider, PowCache
from qhopf.params import BParams
from qhopf.qcombinat import skew_binomial_forms


class FamilyB(HopfProvider):
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
        # q = omega^qe; index -> (mu, b, qe * b), and mu -> canonical d
        self._qe = self.q.unit
        self._mu_b: dict[Index, tuple[int, int, int]] = {}
        self._canon_d: dict[int, tuple[int, ...]] = {}
        self.letters = tuple(
            (f"y{i + 1}", False, None if i == 0 else cap - 1)
            for i, cap in enumerate(self.pp)
        ) + (("x", True, None),)

    # -- index bookkeeping ----------------------------------------------

    def canon(self, d) -> tuple[int, ...]:
        """Carry the y-exponents of d into canonical range; entries past
        the s-th (the x-exponent of an index) pass through."""
        d = list(d)
        for i in range(1, self.s):
            cap = self.pp[i]
            if d[i] >= cap:
                k, d[i] = divmod(d[i], cap)
                d[0] += k * self.pp[0]
        return tuple(d)

    def mu(self, d) -> int:
        """Total y-degree; an index's x-exponent is ignored."""
        return sum(m * e for m, e in zip(self.mm, d))

    def _yi_index(self, i: int, k: int):
        d = [0] * (self.s + 1)
        d[i] = k
        return self.canon(d)

    def _x_index(self, e: int):
        return (0,) * self.s + (e,)

    # -- structure constants ---------------------------------------------

    def _product(self, i, j):
        mu_b = self._mu_b
        mi, bi, ei = mu_b.get(i) or self._fill_mu_b(i)
        mj, bj, _ = mu_b.get(j) or self._fill_mu_b(j)
        mu = mi + mj
        d = self._canon_d.get(mu)
        if d is None:
            d = self._canon_d[mu] = self.canon(x + y for x, y in zip(i[:-1], j))
        return ((d + (bi + bj,), ei * mj % self.omega_order, 1),)

    def _fill_mu_b(self, i):
        b = i[-1]
        hit = self._mu_b[i] = (self.mu(i), b, self._qe * b)
        return hit

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

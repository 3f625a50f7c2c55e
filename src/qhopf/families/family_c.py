"""The C family and its one-parameter lift.

Basis monomials are y^a x^b with a in Z, b >= 0, keyed by the index
(a, b), inside the Ore extension k[y^(pm 1)][x; sigma, delta] with

    x y = q y x + y^n - y,

i.e. sigma(y) = q y and delta(y) = y^n - y.  C(n) is the case q = 1;
the lift keeps q free.  The classifier's fold (`builder._fold_lift`)
sends CLift(n, 1) to C(n) and, for q != 1, CLift(n, q) to
A(n-1, q^-1), so `isomorphic` calls those pairs isomorphic.  The
instances contradict the inverse scalar: their skew-primitive spectra
match A(n-1, q), not A(n-1, q^-1) (ROADMAP defect A, item 10; for
example CLift(3, z4) is called isomorphic to A(2, z4^3)).

Hopf structure: y is grouplike, Delta(x) = x ox y^(n-1) + 1 ox x,
eps(x) = 0, S(y) = y^-1, S(x) = -x y^(1-n).

Products are computed by induction on the x-exponent: the memoized
`_move(b, a)` straightens x^b y^a using the sigma-derivation
rule x f(y) = sigma(f) x + delta(f), extended to negative powers via
delta(y^-1) = -q^-1 (y^(n-2) - y^-1).  `_multiply_raw` is stated at
y-exponent 0 only, x^b (y^c x^d) = (x^b y^c) x^d; y leads every normal
word, so the base moves that row by y^a for every other
(`HopfProvider._product`).  y is also a grouplike unit, so the base
builds Delta(y^a x^b) from Delta(x^b) = Delta(x^(b-1)) Delta(x), which
`_coproduct_raw` states, and S(y^a x^b) = S(x)^b y^-a from S(x), which
`_antipode_raw` states; the bialgebra scan proves each pair once per
power of y (`qhopf.verify`).
"""

from __future__ import annotations

from qhopf.elements import Lin, acc, lin_from_pairs
from qhopf.families.base import HopfProvider, PowCache
from qhopf.params import CLiftParams, CParams
from qhopf.scalars import Cyclo


class FamilyC(HopfProvider):
    letters = (("y", True, None), ("x", False, None))

    def __init__(self, params: CParams | CLiftParams):
        super().__init__(level=params.q.min_level())
        self.params = params
        self.n = params.n
        self.q = params.q.to_cyclo(self.level)
        self.qpow = PowCache(self.q)
        self._delta_cache: dict[int, dict[int, Cyclo]] = {0: {}}
        self._move_cache: dict[tuple[int, int], Lin] = {}

    # -- Ore data ---------------------------------------------------------

    def _delta(self, c: int) -> dict[int, Cyclo]:
        """delta(y^c) as a Laurent polynomial {exponent: coeff}, filled
        outward from the nearest cached exponent (no recursion)."""
        cache = self._delta_cache
        hit = cache.get(c)
        if hit is not None:
            return hit
        step = 1 if c > 0 else -1
        start = c
        while start - step not in cache:
            start -= step
        s = self.qpow(step)
        # delta(y^step) = d (y^(n-1+step) - y^step)
        d = self.one_scalar() if step > 0 else -s
        for k in range(start, c + step, step):
            # delta(y^k) = sigma(y^step) delta(y^(k-step)) + delta(y^step) y^(k-step)
            out: dict[int, Cyclo] = {}
            for e, v in cache[k - step].items():
                acc(out, e + step, v * s)
            acc(out, self.n + k - 1, d)
            acc(out, k, -d)
            cache[k] = out
        return cache[c]

    def _move(self, b: int, a: int) -> Lin:
        """x^b y^a as a Lin over basis monomials, filled upward from the
        nearest cached power of x (no recursion)."""
        cache = self._move_cache
        hit = cache.get((b, a))
        if hit is not None:
            return hit
        start = b
        while start > 0 and (start - 1, a) not in cache:
            start -= 1
        for k in range(start, b + 1):
            if k == 0:
                cache[(k, a)] = Lin.basis((a, 0), self.one_scalar())
                continue
            terms: dict = {}
            for (c, e), v in cache[(k - 1, a)].terms.items():
                # x (y^c x^e) = q^c y^c x^(e+1) + delta(y^c) x^e
                acc(terms, (c, e + 1), v * self.qpow(c))
                for t, w in self._delta(c).items():
                    acc(terms, (t, e), v * w)
            cache[(k, a)] = Lin(terms)
        return cache[(b, a)]

    # -- structure constants ------------------------------------------------

    def _multiply_raw(self, i, j):
        # x^b (y^c x^d) = (x^b y^c) x^d; i = (0, b), the base moves the
        # row by y^a
        (_, b), (c, d) = i, j
        return self._move(b, c).map_keys(lambda key: (key[0], key[1] + d))

    def _coproduct_raw(self, i):
        # i = (0, b), b >= 1: Delta(x^b) = Delta(x^(b-1)) Delta(x) with
        # Delta(x) = x ox y^(n-1) + 1 ox x; the base moves it by y^a
        cop_x = lin_from_pairs(
            [(((0, 1), (self.n - 1, 0)), 1), (((0, 0), (0, 1)), 1)], self.level
        )
        return self.t2_mul(HopfProvider.coproduct_basis(self, (0, i[1] - 1)), cop_x)

    def _antipode_raw(self, i):
        # S(x) = -x y^(1-n); the base derives every other S
        return self._move(1, 1 - self.n).scale(self.scalar(-1))

    # -- rewriting oracle --------------------------------------------------------

    def oracle_rules(self):
        one = self.one_scalar()
        qinv = self.qpow(-1)
        n = self.n
        # y^(n-2) needs the inverse letter when n = 1
        low = ("y",) * (n - 2) if n >= 2 else ("Y",) * (2 - n)
        return [
            (("y", "Y"), [(one, ())]),
            (("Y", "y"), [(one, ())]),
            (
                ("x", "y"),
                [(self.q, ("y", "x")), (one, ("y",) * n), (-one, ("y",))],
            ),
            (
                ("x", "Y"),
                [
                    (qinv, ("Y", "x")),
                    (qinv, ("Y",)),
                    (-qinv, low),
                ],
            ),
        ]

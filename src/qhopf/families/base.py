"""Provider interface: a Hopf algebra presented through its basis.

Every basis monomial is a product of powers of the algebra generators
in a fixed order, so a basis index is the tuple of those exponents.  A
provider states:

    letters                (name, unit, cap) per index slot: a unit
                           letter is grouplike, with exponents in Z and
                           counit 1; any other letter has counit 0 and
                           exponents 0..cap (cap None: unbounded)
    _product(i, j)         e_i * e_j = sum r * omega^e * e_k  as
                           ((k, e, r), ...), the kernels' view
    _multiply_raw(i, j)    e_i * e_j        as a Lin over indices
    _coproduct_raw(i)      Delta(e_i)       as a Lin over index pairs
    _antipode_raw(i)       S(e_i)           as a Lin over indices
    oracle_rules()         the defining relations, oriented for rewriting

A family states one of `_product` and `_multiply_raw`; the base class
derives the other (below).  A stated `_product` has one term.  A
`LatticeProvider` states neither: its `_product` is derived from a
lattice point per index and a twist.

Derived here from `letters`, never restated per family:

    unit_index()           the all-zero index
    counit_basis(i)        1 iff every non-unit exponent is 0, else 0
    basis_box(w)           exponents in [-w, w] for units, else [0, min(w, cap)]
    unit_monomials(w)      the same, with every non-unit exponent 0
    generators()           (name, index) per letter, then name^-1 after
                           each unit letter
    index_factors(i)       the letter names zipped with the exponents

A letter g of a rule spells generator g and G spells g^-1.  Derived
from the rules and the factorisation:

    presentation()         each rule read as a relation (tangent space,
                           comodule quotient check)
    index_to_word(i)       index_factors spelled in letters (rewriting
                           oracle)

Everything else (bilinear extension, tensor products, iterated
coproducts) is generic and lives here.  Structure constants are
memoized per instance; all verification windows re-use them.

The kernels (`mul`, `coproduct`, `t2_mul`, `cop_left`, `cop_right`)
accumulate, then finish once.  A kernel table maps each output key to
a dict exponent -> rational, the exponent form of `qhopf.scalars`: the
kernels read their operands' coefficients as terms r * omega^e of
Q[C_N], multiply by adding exponents, and add per exponent.  `finish`
reduces each key once, modulo the level's cyclotomic polynomial, into
one reduced Cyclo, and only then drops the keys that vanish.  With
`into=table` a kernel adds into a caller's table (`table()`) instead,
so an axiom residual lhs - rhs is one table: the caller passes a
negated operand for the right side.

The kernels (`mul`, `t2_mul`, and the bialgebra residual of
`qhopf.verify`) read a product only through `_product(i, j)`, as terms
(k, e, r) with e reduced mod N = lcm(2, level) and r a nonzero int or
Fraction.  Five families are skew-Laurent monomial algebras (GroupZ2,
GroupZSemiZ, EnvAbelian, A and B): two basis monomials multiply to one
monomial times a scalar, and `_multiply_raw` is derived from that one
term (the reduced r * omega^e: a shared root of unity when r = 1).
Four of them are twisted monoid algebras on a lattice
(`LatticeProvider`): GroupZ2, EnvAbelian, A and B state a lattice point
(u, v) per index and a twist q, and their `_product` is derived from
that statement.  A and B also share their coproduct, antipode and
rewriting rules (`SkewPrimitiveProvider`): every y-letter is skew
primitive over the grouplike x, and A is the one-y-letter case.
GroupZSemiZ states its one term itself.  C, CLift and EnvNonabelian
multiply into polynomials and state `_multiply_raw`; their `_product`
is its exponent form, memoized per pair.

Structure constants are cached once per index.  `multiply_basis` is a
memo of the Lins `_multiply_raw` returns, which the kernels never read.
A coproduct entry is a `FormLin`: the Lin that `coproduct_basis` hands
out, plus the form the kernels read.  A family may return a FormLin
from `_coproduct_raw` whose form is not the reduced coefficients'
(`SkewPrimitiveProvider` keeps the products of the Gauss polynomials
of `qhopf.qcombinat`); any other Lin is converted once, at its fill.
Negating a FormLin negates each rational of its form, so a negated
coproduct keeps its form.  A Lin always holds reduced, nonzero Cyclos.
`coproduct_residues` reads a coproduct's form once more, through the
level's zero map, for the zero-only bialgebra pass of `qhopf.verify`;
a lattice family with a root-of-unity twist keys that view by lattice
points.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from fractions import Fraction
from itertools import product

from qhopf.elements import Index, Lin
from qhopf.qcombinat import skew_binomial_forms
from qhopf.scalars import (
    Cyclo,
    exponent_form,
    reduce_exponents,
    reduce_forms,
    roots_of_unity,
    zero_map,
)


class Presentation:
    """Generators and defining relations, for tangent-space work.

    Each relation is a linear combination sum_t c_t * w_t == 0 of words
    w_t (tuples of generator names) with scalar coefficients c_t.
    """

    __slots__ = ("gens", "counit", "relations")

    def __init__(
        self,
        gens: tuple[str, ...],
        counit: dict[str, Cyclo],
        relations: list[list[tuple[Cyclo, tuple[str, ...]]]] | None = None,
    ):
        self.gens = gens
        self.counit = counit
        self.relations = [] if relations is None else relations


def _spell(word: tuple[str, ...]) -> tuple[str, ...]:
    """Rule letters as generator names: G is g^-1."""
    return tuple(f"{a.lower()}^-1" if a[0].isupper() else a for a in word)


class FormLin(Lin):
    """A Lin that carries an exponent form of its coefficients: (key,
    pairs) per term, the pairs (e, r) summing to the term's coefficient
    modulo the cyclotomic polynomial.  Its negation is a FormLin;
    other derived Lins (sums, relabellings) are plain Lins."""

    __slots__ = ("form",)

    def __init__(self, terms: dict, form: tuple):
        super().__init__(terms)
        self.form = form

    @staticmethod
    def of(triples) -> FormLin:
        """From (key, reduced coefficient, pairs) triples."""
        triples = list(triples)
        terms = {k: c for k, c, _ in triples}
        return FormLin(terms, tuple((k, p) for k, _, p in triples))

    def __neg__(self) -> FormLin:
        form = tuple((k, tuple((e, -r) for e, r in p)) for k, p in self.form)
        return FormLin({k: -v for k, v in self.terms.items()}, form)


class PowCache:
    """Memoized integer powers of a fixed nonzero scalar."""

    def __init__(self, base: Cyclo):
        self.base = base
        self._cache: dict[int, Cyclo] = {0: Cyclo.one(base.level), 1: base}

    def __call__(self, e: int) -> Cyclo:
        hit = self._cache.get(e)
        if hit is None:
            hit = self.base**e
            self._cache[e] = hit
        return hit


class HopfProvider(ABC):
    """Base class for family providers."""

    level: int
    params: object
    letters: tuple[tuple[str, bool, int | None], ...]

    def __init__(self, level: int):
        self.level = level
        self._roots = roots_of_unity(level)
        self.omega_order = len(self._roots)  # N = lcm(2, level)
        self._one = Cyclo.one(level)
        self._zero = Cyclo.zero(level)
        self._mul_cache: dict[tuple[Index, Index], Lin] = {}
        self._product_cache: dict[tuple[Index, Index], tuple] = {}
        self._cop_cache: dict[Index, FormLin] = {}
        self._residue_cache: dict[Index, tuple] = {}
        self._anti_cache: dict[Index, Lin] = {}

    # -- family-specific structure constants ---------------------------

    def _product(self, i: Index, j: Index) -> tuple:
        # the exponent form of a stated `_multiply_raw`, per pair
        key = (i, j)
        hit = self._product_cache.get(key)
        if hit is None:
            form = exponent_form(self.level, self._multiply_raw(i, j).terms)
            hit = self._product_cache[key] = tuple(
                (k, e, r) for k, pairs in form for e, r in pairs
            )
        return hit

    def _multiply_raw(self, i: Index, j: Index) -> Lin:
        # a stated `_product` is one term (a monomial family)
        ((k, e, r),) = self._product(i, j)
        return Lin({k: self.omega_scalar(e, r)})

    @abstractmethod
    def _coproduct_raw(self, i: Index) -> Lin: ...

    @abstractmethod
    def _antipode_raw(self, i: Index) -> Lin: ...

    @abstractmethod
    def oracle_rules(self) -> list[tuple[tuple[str, ...], list]]:
        """The defining relations oriented for rewriting, as
        (pattern, [(coeff, replacement), ...]); the normal words are the
        `index_to_word`s."""

    # -- derived from the letters -------------------------------------------

    def unit_index(self) -> Index:
        return (0,) * len(self.letters)

    def counit_basis(self, i: Index) -> Cyclo:
        for (_, unit, _), e in zip(self.letters, i):
            if e and not unit:
                return self._zero
        return self._one

    def _box(self, w: int, units_only: bool) -> list[Index]:
        ranges = []
        for _, unit, cap in self.letters:
            if unit:
                ranges.append(range(-w, w + 1))
            elif units_only:
                ranges.append((0,))
            else:
                ranges.append(range((w if cap is None else min(w, cap)) + 1))
        return list(product(*ranges))

    def basis_box(self, window: int) -> list[Index]:
        """All basis indices with exponents bounded by the window, sorted."""
        return self._box(window, units_only=False)

    def unit_monomials(self, bound: int) -> list[Index]:
        """Monomials in the invertible generators, exponents in [-bound, bound]."""
        return self._box(bound, units_only=True)

    def generators(self) -> list[tuple[str, Index]]:
        out = []
        for pos, (name, unit, _) in enumerate(self.letters):
            for e in ((1, -1) if unit else (1,)):
                idx = [0] * len(self.letters)
                idx[pos] = e
                out.append((name if e == 1 else f"{name}^-1", tuple(idx)))
        return out

    def index_factors(self, i: Index) -> list[tuple[str, int]]:
        """Factor a basis monomial as ordered generator powers."""
        return [(name, e) for (name, _, _), e in zip(self.letters, i)]

    # -- derived from the rules and the factorisation ---------------------

    def presentation(self) -> Presentation:
        """Each rule pattern -> sum c_t w_t read as pattern - sum c_t w_t = 0."""
        one = self.one_scalar()
        relations = [
            [(one, _spell(pat))] + [(-c, _spell(rep)) for c, rep in rhs]
            for pat, rhs in self.oracle_rules()
        ]
        gens = self.generators()
        return Presentation(
            gens=tuple(name for name, _ in gens),
            counit={name: self.counit_basis(idx) for name, idx in gens},
            relations=relations,
        )

    def index_to_word(self, i: Index) -> tuple[str, ...]:
        """`index_factors` spelled in rule letters."""
        word: tuple[str, ...] = ()
        for g, e in self.index_factors(i):
            word += (g,) * e if e >= 0 else (g.upper(),) * -e
        return word

    # -- memoized views -------------------------------------------------

    def multiply_basis(self, i: Index, j: Index) -> Lin:
        key = (i, j)
        hit = self._mul_cache.get(key)
        if hit is None:
            hit = self._mul_cache[key] = self._multiply_raw(i, j)
        return hit

    def coproduct_basis(self, i: Index) -> FormLin:
        hit = self._cop_cache.get(i)
        if hit is None:
            hit = self._cop_cache[i] = self.as_form_lin(self._coproduct_raw(i))
        return hit

    def coproduct_residues(self, i: Index) -> tuple | None:
        """Delta(e_i) through the zero map of the level (`zero_map`):
        ((key, h(coefficient), L1 of its form) per term, the sum of the
        L1s), or None when some term's form has a non-integer rational
        at a level above 2.  Kept per index beside the form it was read
        from, and read again if that form is replaced."""
        form = self.coproduct_basis(i).form
        hit = self._residue_cache.get(i)
        if hit is not None and hit[0] is form:
            return hit[1]
        view = self._residue_view(form)
        self._residue_cache[i] = form, view
        return view

    def _residue_view(self, form) -> tuple | None:
        residue = zero_map(self.level).residue
        terms = []
        total = 0
        for key, pairs in form:
            hl = residue(pairs)
            if hl is None:
                return None
            terms.append((key, *hl))
            total += hl[1]
        return tuple(terms), total

    def lattice_exponent(self) -> int | None:
        """qe when e_i e_j = omega^(qe v_i u_j) e_k is read off lattice
        points (`LatticeProvider`), so that `coproduct_residues` keys
        its terms by lattice points; None here."""
        return None

    def antipode_basis(self, i: Index) -> Lin:
        hit = self._anti_cache.get(i)
        if hit is None:
            hit = self._antipode_raw(i)
            self._anti_cache[i] = hit
        return hit

    # -- scalars ----------------------------------------------------------

    def scalar(self, value) -> Cyclo:
        if isinstance(value, Cyclo):
            return value
        if value == 1:
            return self._one
        return Cyclo.from_fraction(Fraction(value), self.level)

    def one_scalar(self) -> Cyclo:
        return self._one

    def omega_scalar(self, e: int, r) -> Cyclo:
        """r * omega^e, reduced, for e in [0, N)."""
        if r == 1:
            return self._roots[e]
        return reduce_exponents(self.level, {0: {e: r}})[0]

    def _form(self, el: Lin):
        # the (key, pairs) terms a kernel reads: a FormLin's own form,
        # any other Lin's reduced coefficients
        if el.__class__ is FormLin:
            return el.form
        return exponent_form(self.level, el.terms)

    def as_form_lin(self, el: Lin) -> FormLin:
        """el with the form the kernels read; its negation keeps the
        form's exponents (a root of unity's negation moves its exponent
        by N/2, so -el's terms would not cancel el's before folding)."""
        if el.__class__ is FormLin:
            return el
        return FormLin(el.terms, tuple(exponent_form(self.level, el.terms)))

    def table(self, el: Lin | None = None) -> defaultdict:
        """A kernel table, key -> {exponent: rational}, holding el."""
        out: defaultdict = defaultdict(dict)
        if el is not None:
            for k, pairs in self._form(el):
                out[k] = dict(pairs)
        return out

    def finish(self, table: dict) -> Lin:
        """The Lin of a kernel table: each key reduced once."""
        return Lin(reduce_exponents(self.level, table))

    def form_lin(self, table: dict) -> FormLin:
        """The FormLin of a kernel table: each key reduced once, those
        that vanish dropped, the others keeping their terms with the
        exponents folded mod N (not shortened to the reduced value)."""
        return FormLin.of(reduce_forms(self.level, table))

    # -- generic element operations ----------------------------------------

    def one_el(self) -> Lin:
        return Lin.basis(self.unit_index(), self.one_scalar())

    def basis_el(self, i: Index, coeff=1) -> Lin:
        return Lin.basis(i, self.scalar(coeff))

    def mul(self, a: Lin, b: Lin, *, into: dict | None = None):
        out = self.table() if into is None else into
        product = self._product
        bt = self._form(b)
        for i, cp in self._form(a):
            for j, dp in bt:
                for k, es, rs in product(i, j):
                    slot = out[k]
                    for ec, rc in cp:
                        for ed, rd in dp:
                            e = ec + ed + es
                            slot[e] = slot.get(e, 0) + rc * rd * rs
        if into is None:
            return self.finish(out)

    def el_pow(self, a: Lin, k: int) -> Lin:
        if k < 0:
            raise ValueError("element powers need k >= 0")
        out = self.one_el()
        for _ in range(k):
            out = self.mul(out, a)
        return out

    def coproduct(self, el: Lin, *, into: dict | None = None):
        return self._delta_into(el, lambda i: ((), i, ()), into)

    # -- tensors ------------------------------------------------------------

    def tensor2(self, a: Lin, b: Lin) -> Lin:
        bt = b.terms.items()
        return Lin({(i, j): c * d for i, c in a.terms.items() for j, d in bt})

    def t2_mul(self, s: Lin, t: Lin, *, into: dict | None = None):
        """Componentwise product of 2-tensors."""
        out = self.table() if into is None else into
        product = self._product
        tt = self._form(t)
        for (i, j), cp in self._form(s):
            for (k, l), dp in tt:
                right = product(j, l)
                for a, ea, ra in product(i, k):
                    for b, eb, rb in right:
                        slot = out[a, b]
                        e1, r1 = ea + eb, ra * rb
                        for ec, rc in cp:
                            for ed, rd in dp:
                                e = e1 + ec + ed
                                slot[e] = slot.get(e, 0) + r1 * rc * rd
        if into is None:
            return self.finish(out)

    def t2_pow(self, s: Lin, k: int) -> Lin:
        if k < 0:
            raise ValueError("nonnegative powers only")
        u = self.unit_index()
        out = Lin.basis((u, u), self.one_scalar())
        for _ in range(k):
            out = self.t2_mul(out, s)
        return out

    def cop_right(self, t: Lin, *, into: dict | None = None):
        """(id (x) Delta) applied to a 2-tensor."""
        return self._delta_into(t, lambda ij: (ij[:1], ij[1], ()), into)

    def cop_left(self, t: Lin, *, into: dict | None = None):
        """(Delta (x) id) applied to a 2-tensor."""
        return self._delta_into(t, lambda ij: ((), ij[0], ij[1:]), into)

    def _delta_into(self, t: Lin, split, into: dict | None):
        # Delta of one leg of each key: split(key) = (legs before, the
        # leg, legs after)
        out = self.table() if into is None else into
        cop = self.coproduct_basis
        for key, cp in self._form(t):
            head, i, tail = split(key)
            for kl, dp in cop(i).form:
                slot = out[head + kl + tail]
                for ec, rc in cp:
                    for ed, rd in dp:
                        e = ec + ed
                        slot[e] = slot.get(e, 0) + rc * rd
        if into is None:
            return self.finish(out)

    # -- display --------------------------------------------------------------

    def index_str(self, i: Index) -> str:
        bits = []
        for name, e in self.index_factors(i):
            if e == 0:
                continue
            bits.append(name if e == 1 else f"{name}^{e}")
        return "*".join(bits) if bits else "1"

    def el_str(self, el: Lin) -> str:
        return el.describe(self.index_str)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} level={self.level}>"


class LatticeProvider(HopfProvider):
    """A twisted monoid algebra on a lattice.

    Each basis index i has a lattice point lattice(i) = (u, v), one to
    one on the indices, and two monomials multiply by

        e_i e_j = q^(v_i u_j) e_k,   k = lattice_index(u_i + u_j, v_i + v_j).

    A family states `lattice` (by default the index (a, b) itself), its
    inverse `lattice_index` on the points of indices, and `twist`: an
    int qe for q = omega^qe, or a rational q (a Fraction) other than
    +-1.  `_product` is derived here from that statement, once for every
    such family, and `_multiply_raw` from `_product` as for any one-term
    product.

    With an int twist the zero-only pass of `qhopf.verify` reads the
    statement itself (`lattice_exponent`): `coproduct_residues` keeps
    each term as (u_a, v_a, u_b, v_b, h, L1), its legs' lattice points
    in place of the index pair.  Every leg a coded there is checked to
    satisfy lattice_index(*lattice(a)) == a, and a leg that fails leaves
    the view None, so the pass declines every pair that reads it.
    """

    twist: int | Fraction

    def __init__(self, level: int):
        super().__init__(level)
        self._twist_powers: dict[int, int | Fraction] = {}

    def lattice(self, i: Index) -> tuple[int, int]:
        return i

    def lattice_index(self, u: int, v: int) -> Index:
        return (u, v)

    def _product(self, i: Index, j: Index) -> tuple:
        ui, vi = self.lattice(i)
        uj, vj = self.lattice(j)
        k = self.lattice_index(ui + uj, vi + vj)
        twist = self.twist
        if twist.__class__ is int:
            return ((k, twist * vi * uj % self.omega_order, 1),)
        return ((k, 0, self._rational_power(vi * uj)),)

    def _rational_power(self, m: int) -> int | Fraction:
        # q^m for a rational twist, an int when it is one, per exponent
        hit = self._twist_powers.get(m)
        if hit is None:
            hit = self.twist**m
            if hit.denominator == 1:
                hit = hit.numerator
            self._twist_powers[m] = hit
        return hit

    def lattice_exponent(self) -> int | None:
        """The twist's omega exponent, unless the twist is rational or a
        subclass states its own `_product` (which the pass then reads)."""
        twist = self.twist
        if twist.__class__ is int and type(self)._product is LatticeProvider._product:
            return twist
        return None

    def _residue_view(self, form) -> tuple | None:
        view = super()._residue_view(form)
        if view is None or self.lattice_exponent() is None:
            return view
        lattice, index = self.lattice, self.lattice_index
        terms = []
        for (a, b), h, l1 in view[0]:
            pa, pb = lattice(a), lattice(b)
            if index(*pa) != a or index(*pb) != b:
                return None
            terms.append((*pa, *pb, h, l1))
        return tuple(terms), view[1]


class SkewPrimitiveProvider(LatticeProvider):
    """The Hopf structure the A and B families share.

    Both live in the skew Laurent extension k[y][x^(pm 1); sigma] with
    sigma(y) = q y: their letters are y-letters y_1, ..., y_s, each a
    power y_i = y^(m_i), then the grouplike unit x, and every basis
    monomial is y^d x^b = y_1^(d_1) ... y_s^(d_s) x^b with index
    (d_1, ..., d_s, b).  A is the case s = 1, m = (1,).  On lattice
    points y_i^k x^e is at (m_i k, e), so lattice_index(m_i k, e) is its
    canonical index.  Each y-letter is skew primitive,

        Delta(y_i) = y_i ox 1 + x^(m_i n) ox y_i,

    and since (x^(m_i n) ox y_i)(y_i ox 1) equals
    q^(m_i^2 n) (y_i ox 1)(x^(m_i n) ox y_i), the skew binomial theorem
    gives

        Delta(y_i)^k = sum_r (k choose r)_(q^(m_i^2 n))
                             y_i^(k-r) x^(m_i n r) ox y_i^r,

    each coefficient kept in its Gauss-polynomial form
    (`skew_binomial_forms`).  Delta(y^d) is Delta(y_1)^(d_1) ...
    Delta(y_s)^(d_s), memoized per y-part d: with one nonzero letter it
    is that letter's power itself, else one `t2_mul` of its first
    letter's power and the rest, whose form keeps the products of the
    Gauss forms (`form_lin`).  x^b is grouplike and
    last in normal order, so Delta(y^d x^b) is Delta(y^d) with b added
    to the x-exponent of both legs, coefficients and forms unchanged.

    A family states `letters` (the y-letters, then x), `mm`, the level,
    the lattice and the twist; here `params` gives n and q.
    """

    mm: tuple[int, ...]

    def __init__(self, params, level: int):
        super().__init__(level)
        self.params = params
        self.n = params.n
        self.q = params.q.to_cyclo(level)
        self.qpow = PowCache(self.q)
        self._cop_y: dict[tuple[int, ...], FormLin] = {}
        self._s_y: dict[tuple[int, ...], Lin] = {}

    def _coproduct_y(self, d: tuple[int, ...]) -> FormLin:
        """Delta(y^d) for a y-part d, memoized: Delta of its first
        letter's power times Delta of the rest."""
        hit = self._cop_y.get(d)
        if hit is not None:
            return hit
        used = [pos for pos, k in enumerate(d) if k]
        if len(used) > 1:
            cut = used[0] + 1
            head = d[:cut] + (0,) * (len(d) - cut)
            rest = (0,) * cut + d[cut:]
            table = self.table()
            self.t2_mul(self._coproduct_y(head), self._coproduct_y(rest), into=table)
            hit = self.form_lin(table)
        else:
            pos = used[0] if used else 0
            k, m = d[pos], self.mm[pos]
            at = self.lattice_index
            hit = FormLin.of(
                ((at(m * (k - r), m * self.n * r), at(m * r, 0)), c, pairs)
                for r, c, pairs in skew_binomial_forms(k, self.qpow(m * m * self.n))
            )
        self._cop_y[d] = hit
        return hit

    def _coproduct_raw(self, i):
        cop = self._coproduct_y(i[:-1])
        b = i[-1]
        if not b:
            return cop
        return FormLin.of(
            ((l[:-1] + (l[-1] + b,), r[:-1] + (r[-1] + b,)), cop.terms[l, r], pairs)
            for (l, r), pairs in cop.form
        )

    def _antipode_y(self, d: tuple[int, ...]) -> Lin:
        """S(y^d) = S(y_s)^(d_s) ... S(y_1)^(d_1) for a y-part d,
        memoized, with S(y_i) = -x^(-m_i n) y_i."""
        hit = self._s_y.get(d)
        if hit is not None:
            return hit
        at = self.lattice_index
        hit = self.one_el()
        for pos in range(len(self.mm) - 1, -1, -1):
            if d[pos]:
                m = self.mm[pos]
                s_y = self.mul(
                    self.basis_el(at(0, -m * self.n)), self.basis_el(at(m, 0))
                ).scale(self.scalar(-1))
                hit = self.mul(hit, self.el_pow(s_y, d[pos]))
        self._s_y[d] = hit
        return hit

    def _antipode_raw(self, i):
        # S is an anti-homomorphism: S(y^d x^b) = x^(-b) S(y^d)
        x_neg_b = self.basis_el(self.lattice_index(0, -i[-1]))
        return self.mul(x_neg_b, self._antipode_y(i[:-1]))

    def oracle_rules(self):
        # x y_i = q^(m_i) y_i x, the y-letters commute, and a capped
        # letter's power y_i^(cap + 1) is rewritten to its canonical word
        one = self.one_scalar()
        ys = tuple(zip(self.letters[:-1], self.mm))
        rules = [
            (("x", "X"), [(one, ())]),
            (("X", "x"), [(one, ())]),
        ]
        for (name, _, _), m in ys:
            rules.append((("x", name), [(self.qpow(m), (name, "x"))]))
            rules.append((("X", name), [(self.qpow(-m), (name, "X"))]))
        for pos, ((low, _, _), _) in enumerate(ys):
            for (high, _, _), _ in ys[pos + 1 :]:
                rules.append(((high, low), [(one, (low, high))]))
        for (name, _, cap), m in ys:
            if cap is not None:
                word = self.index_to_word(self.lattice_index(m * (cap + 1), 0))
                rules.append(((name,) * (cap + 1), [(one, word)]))
        return rules

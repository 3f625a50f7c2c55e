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
    _multiply_raw(i, j)    e_i * e_j        as a Lin over indices, for
                           i of lead exponent i_0 = 0 only
    _coproduct_raw(i)      Delta(e_i)       as a Lin over index pairs,
                           for i != 0 whose unit end exponents are 0
    _antipode_raw(g)       S(g)             as a Lin over indices, for
                           a non-unit generator g only
    oracle_rules()         the defining relations, oriented for rewriting

A family states one of `_product` and `_multiply_raw`; the base class
derives `_product` from a stated `_multiply_raw` (below).  A stated
`_product` has one term.  A `LatticeProvider` states neither: its
`_product` is derived from a lattice point per index and a twist.

Derived here from `letters`, never restated per family:

    unit_index()           the all-zero index
    counit_basis(i)        1 iff every non-unit exponent is 0, else 0
    basis_box(w)           exponents in [-w, w] for units, else [0, min(w, cap)]
    unit_monomials(w)      the same, with every non-unit exponent 0
    generators()           (name, index) per letter, then name^-1 after
                           each unit letter
    index_factors(i)       the letter names zipped with the exponents
    coproduct_basis(i)     Delta(1) = 1 ox 1, and Delta(e_i) moved
                           along a unit end letter (below)
    end_model(i)           the index e_i stands for along the end
                           letter of `moves_pairs()` (the guard, below)
    end_move(i, b)         i with that letter's exponent moved by b
    antipode_basis(i)      S(e_i) from S on the non-unit generators

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

The kernels (`mul`, `t2_mul`, and the bialgebra residuals of
`qhopf.verify`) read a product only through `_product(i, j)`, as terms
(k, e, r) with e reduced mod N = lcm(2, level) and r a nonzero int or
Fraction.  Five families are skew-Laurent monomial algebras (GroupZ2,
GroupZSemiZ, EnvAbelian, A and B): two basis monomials multiply to one
monomial times a scalar.  Four of them are twisted monoid algebras on a
lattice (`LatticeProvider`): GroupZ2, EnvAbelian, A and B state a
lattice point (u, v) per index and a twist q, and their `_product` is
derived from that statement, along a unit last letter from its x^0
part (below).  A and B also share their coproduct, antipode and
rewriting rules (`SkewPrimitiveProvider`): every y-letter is skew
primitive over the grouplike x, and A is the one-y-letter case.
GroupZSemiZ states its one term itself.  C, CLift and EnvNonabelian
multiply into polynomials and state `_multiply_raw` at lead exponent
i_0 = 0 only.  Their first letter y leads every normal word, so

    e_i e_j = y^(i_0) (e_i' e_j),   i' = i with i_0 set to 0,

and y^(i_0) e_k is e_k with its first exponent moved by i_0.  The base
`_product` is the exponent form of `_multiply_raw` on the lead-zero
row and that row with each key's first exponent moved by i_0 on every
other, memoized per pair.  It reads the lead-zero row through
`HopfProvider._product` itself, so a subclass that overrides `_product`
at one pair changes that pair alone.  `moves_lead()` is whether a
provider's products are all so derived.

Coproducts are moved the same way, along either grouplike end letter.
When the first letter y is a unit (GroupZ2, GroupZSemiZ, C and CLift),
y^a is grouplike, so

    Delta(e_i) = (y^(i_0) ox y^(i_0)) Delta(e_i'),

and `coproduct_basis` builds Delta(e_i) for i_0 != 0 from the
lead-zero entry, read through `HopfProvider.coproduct_basis` itself,
with both legs' first exponent moved by i_0 in the terms and in the
form.  When the last letter x is a unit (GroupZ2, GroupZSemiZ, A and
B), it ends every normal word, and Delta(e_r x^b) = Delta(e_r)
(x^b ox x^b) is built the same way from the entry of last exponent 0,
both legs' last exponent moved by b.  The base states Delta(1) = 1 ox 1,
so `_coproduct_raw` is called once per other index whose unit end
exponents are 0 (never in a group algebra).  One rule (`_move_slot`)
names the letter an entry is built along.  `moves_pairs()` names the
end letter along which a provider's products and coproducts are all
moved, with none of `_product`, `coproduct_basis`, `counit_basis` and
`antipode_basis` overridden: "lead" for the base `_product` and a unit
first letter (C, CLift), "tail" for `LatticeProvider._product` and a
unit last letter (GroupZ2, A, B).  It is the one switch of every reuse
along an end letter.

The guard.  Write i = m + b, m with that letter's exponent 0 (the
model).  `end_model(i)` names m when Delta(e_i) is Delta(e_m) with both
legs moved by b, term for term and form for form (i when b = 0), else
None; `qhopf.verify` and `qhopf.comodule` read it, adding only their
own conditions.  A cached entry is compared with the model's moved
(`_is_moved`): a form assigned by hand, or another entry in its place,
fails.  An uncached entry that `coproduct_basis` builds off m along
this very letter is that move by construction: m is named, nothing is
built.  Any other entry is built and compared (GroupZ2's y^a x^b,
a != 0, built along the lead while `moves_pairs()` is "tail").

Antipodes are derived from the letters: S is an anti-homomorphism, so
`antipode_basis` reads S(e_r g^k) = S(g^k) S(e_r), g^k the last nonzero
letter power, with S(g^k) = g^-k for a unit letter g and S(g) S(g^(k-1))
otherwise, through `HopfProvider.antipode_basis` itself; `_antipode_raw`
is called once per non-unit generator.

Structure constants are cached once per index.  `multiply_basis` is a
memo of Lins, which the kernels never read: the terms of `_product`
reduced (one term: the reduced r * omega^e, a shared root of unity when
r = 1).  So `_multiply_raw` runs once per lead-zero pair, and the
rewriting oracle, which checks `multiply_basis`, checks the very
product the kernels read.
A coproduct entry is a `FormLin`: the Lin that `coproduct_basis` hands
out, plus the form the kernels read.  A family may return a FormLin
from `_coproduct_raw` whose form is not the reduced coefficients'
(`SkewPrimitiveProvider` keeps the products of the Gauss polynomials
of `qhopf.qcombinat`); any other Lin is converted once, at its fill.
Negating a FormLin negates each rational of its form, so a negated
coproduct keeps its form.  A Lin always holds reduced, nonzero Cyclos.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict
from fractions import Fraction
from functools import cached_property
from itertools import product

from qhopf.elements import Index, Lin
from qhopf.qcombinat import skew_binomial_forms
from qhopf.scalars import (
    Cyclo,
    exponent_form,
    reduce_exponents,
    reduce_forms,
    roots_of_unity,
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


def _moved(key: Index, slot: int, by: int) -> Index:
    # the key with its exponent at `slot` moved by `by`: y^by e_key for
    # slot 0, when the first letter y leads every normal word, and
    # e_key x^by for the last slot, when the last letter x ends it
    if slot:
        return (*key[:slot], key[slot] + by, *key[slot + 1 :])
    return (key[0] + by, *key[1:])  # the lead move of every C product fill


def _is_moved(form: tuple, base: tuple, slot: int, by: int) -> bool:
    # whether the coproduct form `form` is `base` with both legs moved
    # by `by` at `slot`, term for term and form for form: the entry that
    # `coproduct_basis` builds off the end-zero one
    return len(form) == len(base) and all(
        key == (_moved(l, slot, by), _moved(r, slot, by)) and pairs == want
        for (key, pairs), ((l, r), want) in zip(form, base)
    )


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
        self._anti_cache: dict[Index, Lin] = {}

    # -- family-specific structure constants ---------------------------

    def _product(self, i: Index, j: Index) -> tuple:
        # the exponent form of a stated `_multiply_raw`, per pair: the
        # family states the row of lead exponent 0, and every other row
        # is read off it through this method (never an override), each
        # key's first exponent moved by i_0
        key = (i, j)
        hit = self._product_cache.get(key)
        if hit is None:
            lead = i[0]
            if lead:
                row = HopfProvider._product(self, (0, *i[1:]), j)
                hit = tuple((_moved(k, 0, lead), e, r) for k, e, r in row)
            else:
                form = exponent_form(self.level, self._multiply_raw(i, j).terms)
                hit = tuple((k, e, r) for k, pairs in form for e, r in pairs)
            self._product_cache[key] = hit
        return hit

    def moves_lead(self) -> bool:
        """Whether every product is the base `_product`: a stated
        `_multiply_raw` row of lead exponent 0, moved by i_0."""
        return type(self)._product is HopfProvider._product

    def moves_pairs(self) -> str | None:
        """The end letter along which every product and coproduct is
        its end-zero entry moved, with `coproduct_basis`, `counit_basis`
        and `antipode_basis` the base's: "lead" when `moves_lead()`
        holds and the first letter is a unit, "tail" for
        `LatticeProvider._product` and a unit last letter, else None."""
        cls = type(self)
        if (
            cls.coproduct_basis is not HopfProvider.coproduct_basis
            or cls.counit_basis is not HopfProvider.counit_basis
            or cls.antipode_basis is not HopfProvider.antipode_basis
        ):
            return None
        if self.moves_lead() and self.letters[0][1]:
            return "lead"
        if cls._product is LatticeProvider._product and self.letters[-1][1]:
            return "tail"
        return None

    def _coproduct_raw(self, i: Index) -> Lin:
        """Delta(e_i), for i != 0 with both unit end exponents 0."""
        raise NotImplementedError(f"{type(self).__name__} states no coproduct")

    def _antipode_raw(self, i: Index) -> Lin:
        """S(e_i), for i the index of a non-unit generator."""
        raise NotImplementedError(f"{type(self).__name__} states no antipode")

    @abstractmethod
    def oracle_rules(self) -> list[tuple[tuple[str, ...], list]]:
        """The defining relations oriented for rewriting, as
        (pattern, [(coeff, replacement), ...]); the normal words are the
        `index_to_word`s."""

    # -- derived from the letters -------------------------------------------

    def unit_index(self) -> Index:
        return (0,) * len(self.letters)

    @cached_property
    def _counit_slots(self) -> tuple[int, ...]:
        # the positions of the non-unit letters
        return tuple(pos for pos, (_, unit, _) in enumerate(self.letters) if not unit)

    def counit_basis(self, i: Index) -> Cyclo:
        for pos in self._counit_slots:
            if i[pos]:
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
        """e_i e_j as a Lin: the terms of `_product`, reduced."""
        key = (i, j)
        hit = self._mul_cache.get(key)
        if hit is None:
            terms = self._product(i, j)
            if len(terms) == 1:
                ((k, e, r),) = terms
                hit = Lin({k: self.omega_scalar(e, r)})
            else:
                table = self.table()
                for k, e, r in terms:
                    slot = table[k]
                    slot[e] = slot.get(e, 0) + r
                hit = self.finish(table)
            self._mul_cache[key] = hit
        return hit

    def coproduct_basis(self, i: Index) -> FormLin:
        hit = self._cop_cache.get(i)
        if hit is None:
            slot = self._move_slot(i)
            if slot is not None:
                # Delta(y^a e_r) = (y^a ox y^a) Delta(e_r) for a unit first
                # letter y, else Delta(e_r x^b) = Delta(e_r) (x^b ox x^b)
                # for a unit last letter x: the entry of exponent 0 there,
                # read through this method (never an override), both legs
                # moved; the move is one to one, so no key merges
                by = i[slot]
                row = HopfProvider.coproduct_basis(self, _moved(i, slot, -by))
                terms, form = {}, []
                for (a, b), pairs in row.form:
                    key = _moved(a, slot, by), _moved(b, slot, by)
                    terms[key] = row.terms[a, b]
                    form.append((key, pairs))
                hit = FormLin(terms, tuple(form))
            elif any(i):
                hit = self.as_form_lin(self._coproduct_raw(i))
            else:
                u = self.unit_index()
                hit = self.as_form_lin(Lin.basis((u, u), self._one))
            self._cop_cache[i] = hit
        return hit

    def _move_slot(self, i: Index) -> int | None:
        # the slot `coproduct_basis` builds Delta(e_i) along, or None
        if i[0] and self.letters[0][1]:
            return 0
        if i[-1] and self.letters[-1][1]:
            return len(i) - 1
        return None

    def end_slot(self) -> int | None:
        """The slot of the end letter that `moves_pairs()` names."""
        end = self.moves_pairs()
        return None if end is None else 0 if end == "lead" else len(self.letters) - 1

    def end_model(self, i: Index) -> Index | None:
        """The model e_i stands for, or None: the module docstring's guard."""
        slot = self.end_slot()
        if slot is None:
            return None
        by = i[slot]
        if not by:
            return i
        model = _moved(i, slot, -by)
        hit = self._cop_cache.get(i)
        if hit is None:
            if self._move_slot(i) == slot:
                return model
            hit = HopfProvider.coproduct_basis(self, i)
        base = HopfProvider.coproduct_basis(self, model)
        return model if _is_moved(hit.form, base.form, slot, by) else None

    def end_move(self, i: Index, by: int) -> Index:
        """i with the exponent of the end letter of `moves_pairs()` moved
        by `by`: e_m's leg k stands for e_(m+b)'s leg `end_move(k, b)`
        when `end_model` names m."""
        return _moved(i, self.end_slot(), by)

    def antipode_basis(self, i: Index) -> Lin:
        hit = self._anti_cache.get(i)
        if hit is None:
            # S(e_r g^k) = S(g^k) S(e_r), g^k the last nonzero letter
            # power of i; entries are read through this method (never
            # an override)
            pos = len(i) - 1
            while pos >= 0 and not i[pos]:
                pos -= 1
            if pos < 0:
                hit = self.one_el()
            elif any(i[:pos]):
                power = (0,) * pos + i[pos:]
                rest = i[:pos] + (0,) * (len(i) - pos)
                s_power = HopfProvider.antipode_basis(self, power)
                hit = self.mul(s_power, HopfProvider.antipode_basis(self, rest))
            elif self.letters[pos][1]:
                # S(g^k) = g^-k for a unit letter g
                hit = Lin.basis(tuple(-e for e in i), self._one)
            elif i[pos] == 1:
                hit = self._antipode_raw(i)
            else:
                # S(g^k) = S(g) S(g^(k-1)), each power read from the memo
                # or filled in turn, lowest first (no recursion)
                pre, post = i[:pos], i[pos + 1 :]
                hit = s_g = HopfProvider.antipode_basis(self, pre + (1,) + post)
                for e in range(2, i[pos] + 1):
                    power = pre + (e,) + post
                    below, hit = hit, self._anti_cache.get(power)
                    if hit is None:
                        hit = self._anti_cache[power] = self.mul(s_g, below)
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

    A family states `letters` before this class's `__init__` runs,
    `lattice` (by default the index (a, b) itself), its inverse
    `lattice_index` on the points of indices, and `twist`: an
    int qe for q = omega^qe, or a rational q (a Fraction) other than
    +-1.  `_product` is derived here from that statement, once for every
    such family, and `multiply_basis` reads it.

    When the last letter x is a unit (GroupZ2, A and B), it is grouplike
    and ends every normal word, and its exponent is the point's v:
    `point(e x^b)` is (u, b) with u read off `lattice` at x-exponent 0,
    and the index at (u, v) is the y-part of `lattice_index(u, 0)`
    followed by v.  So `_product` reads the statement at x^0 only, and

        (e x^b)(e' x^c) = q^(b u') (e e') x^(b+c),   u' = u of e',

    holds for every stated lattice; `qhopf.verify` proves pairs once
    per pair of y-parts on it, and each per-index axiom once per
    y-part.
    """

    twist: int | Fraction

    def __init__(self, level: int):
        super().__init__(level)
        self._twist_powers: dict[int, int | Fraction] = {}
        self._points: dict[Index, tuple[int, int]] = {}
        self._y_parts: dict[int, Index] = {}
        # whether the last letter is a unit, whose exponent is v: a
        # plain attribute, since `_product` reads it on every call and
        # a cached_property read costs several times more
        self._x_is_v = self.letters[-1][1]

    def lattice(self, i: Index) -> tuple[int, int]:
        return i

    def lattice_index(self, u: int, v: int) -> Index:
        return (u, v)

    def point(self, i: Index) -> tuple[int, int]:
        """The lattice point `_product` reads for e_i, memoized."""
        hit = self._points.get(i)
        if hit is None:
            if self._x_is_v:
                hit = self.lattice((*i[:-1], 0))[0], i[-1]
            else:
                hit = self.lattice(i)
            self._points[i] = hit
        return hit

    def _product(self, i: Index, j: Index) -> tuple:
        points = self._points
        pi, pj = points.get(i), points.get(j)
        if pi is None:
            pi = self.point(i)
        if pj is None:
            pj = self.point(j)
        (ui, vi), (uj, vj) = pi, pj
        u = ui + uj
        if self._x_is_v:
            head = self._y_parts.get(u)
            if head is None:
                head = self._y_parts[u] = self.lattice_index(u, 0)[:-1]
            k = head + (vi + vj,)
        else:
            k = self.lattice_index(u, vi + vj)
        twist = self.twist
        if twist.__class__ is int:
            return ((k, twist * vi * uj % self.omega_order, 1),)
        return ((k, 0, self._rational_power(vi * uj)),)

    def x_is_central(self) -> bool:
        """Whether q = 1: an int twist (q's omega exponent) of 0 mod N."""
        twist = self.twist
        return twist.__class__ is int and not twist % self.omega_order

    def round_trips(self) -> bool:
        """Whether the unit's point has u = 0 and each u that `_product`
        met or read off an operand round trips through lattice_index(u, 0)."""
        point, at = self.point, self.lattice_index
        if point(self.unit_index())[0]:
            return False
        met = set(self._y_parts).union(u for u, _ in self._points.values())
        return all(point(at(u, 0))[0] == u for u in met)

    def _rational_power(self, m: int) -> int | Fraction:
        # q^m for a rational twist, an int when it is one, per exponent
        hit = self._twist_powers.get(m)
        if hit is None:
            hit = self.twist**m
            if hit.denominator == 1:
                hit = hit.numerator
            self._twist_powers[m] = hit
        return hit


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
    Delta(y_s)^(d_s): with one nonzero letter it is that letter's power
    itself, else one `t2_mul` of the entries of its first letter's power
    and the rest, whose form keeps the products of the Gauss forms
    (`form_lin`).  S(y_i) = -x^(-m_i n) y_i.  The base moves Delta(y^d)
    along the unit x to Delta(y^d x^b) and derives every other S.

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

    def _coproduct_raw(self, i):
        # i = (d, 0), d != 0: the base moves the entry by x^b
        used = [pos for pos, k in enumerate(i) if k]
        if len(used) > 1:
            # Delta of the first letter's power times Delta of the rest
            cut = used[0] + 1
            head = i[:cut] + (0,) * (len(i) - cut)
            rest = (0,) * cut + i[cut:]
            table = self.table()
            cop = HopfProvider.coproduct_basis
            self.t2_mul(cop(self, head), cop(self, rest), into=table)
            return self.form_lin(table)
        (pos,) = used
        k, m = i[pos], self.mm[pos]
        at = self.lattice_index
        return FormLin.of(
            ((at(m * (k - r), m * self.n * r), at(m * r, 0)), c, pairs)
            for r, c, pairs in skew_binomial_forms(k, self.qpow(m * m * self.n))
        )

    def _antipode_raw(self, i):
        # S(y_i) = -x^(-m_i n) y_i for the generator y_i
        m = self.mm[i.index(1)]
        x_neg = self.basis_el(self.lattice_index(0, -m * self.n), -1)
        return self.mul(x_neg, self.basis_el(i))

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

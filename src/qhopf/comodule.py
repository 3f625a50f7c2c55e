"""Comodule structure over a monomial Hopf quotient.

A quotient spec sends each generator to 0 or a power of t, landing in
k[t^{+-1}] (t grouplike) or k[t] (t primitive), so pi of a basis
monomial is 0 or t^n and is read as its t-degree n.  That is enough for
every quotient used here, and it keeps the well-definedness checks
finite: relations must map to zero and the coproduct/counit must
commute with the projection on generators, both verified at
construction time.

From a valid spec the two coactions

    rho = (id ox pi) Delta        lam = (pi ox id) Delta

decompose every element by t-exponent.  For Laurent quotients the
exponents give commuting left/right gradings; for polynomial quotients
the t^1 coefficients are derivations delta_r, delta_l whose divided
powers recover the full coaction (checked, not assumed).

A `Coaction` computes rho and lam of each basis element once, by
regrouping the terms of `coproduct_basis` by the t-degree of one leg,
and keeps them for the life of the instance (one command); the
coactions of an element, its degrees, the counit collapse and the
bigrade sum all read those tables.  The bicomodule check is one
residual per element,

    (pi ox id ox pi)((Delta ox id) Delta - (id ox Delta) Delta),

accumulated in the exponent form of `qhopf.scalars` from the
coproducts' forms, and reduced once per key by the provider's `finish`,
as the axiom checks of `qhopf.verify` are.

The box sweep (`box_verdicts`) proves the bicomodule residual, the
counit collapse and the bigrade decomposition once per model index
along the grouplike end letter g that `HopfProvider.moves_pairs()`
names ("lead": g the first letter, C and CLift; "tail": g the last,
GroupZ2, A and B), as `qhopf.verify` proves its per-index checks.
Write i = m + b for the index m with g-exponent 0 (the model) and
g-exponent b; the base builds Delta(e_(k+b)) as Delta(e_k) with both
legs moved by b, for every k.  Reuse needs three conditions:

- pi(g) = t^c, read off the quotient spec at each sweep, with c = 0
  for a polynomial quotient;
- `HopfProvider.end_model(i)` names m (the guard is stated in
  `qhopf.families.base`; `qhopf.verify` reads it too);
- the model passed.

pi reads the letters one by one, so pi(e_(k+b)) = pi(e_k) t^(cb) for
every k, and the image of g is never 0, so the move neither adds nor
removes a zero image (and never a negative t-exponent where c = 0).
So rho(e_i) is rho(e_m) with each kept leg moved by b and each
t-degree by cb, and so is lam(e_i), each coefficient and form kept;
the kept legs' coproducts are moved too.  The residual of e_i is the
model's with each key (n2, k, n1) moved to (n2 + cb, k + b, n1 + cb),
its coefficients unchanged; the collapses of `counit_recovers` and
`decomposes` are the model's with their keys moved, since every degree
counts (Laurent) or c = 0 keeps degree 0 at degree 0 (polynomial).
Each move is one to one on keys, so each check holds on e_i exactly
when it holds on e_m.  Any other index, and each index whose model
fails, is checked on its own.  A form assigned by hand to an entry
that is only ever read as a kept leg is not read by its index.

`strong_grading(n, w)` first walks the box products H_-n x H_n: a
product with one term c e_k (c != 0, as a Lin holds it) puts e_k in
their span, and once every basis index of the box's H_0 is so covered
the span contains H_0.  Otherwise the answer is the Echelon's, over
all the products, so a False is always the Echelon's.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qhopf.elements import Lin, acc
from qhopf.families.base import HopfProvider
from qhopf.families.builder import family
from qhopf.linalg import Echelon, kernel_of_map
from qhopf.scalars import Cyclo


class QuotientError(ValueError):
    pass


class QuotientSpec:
    """Images of the generators under the quotient map.

    kind is "laurent" or "poly"; images maps each base generator name
    (no inverse names) to None for zero or to k for the power t^k.
    """

    def __init__(self, kind: str, images: dict):
        if kind not in ("laurent", "poly"):
            raise QuotientError(f"unknown quotient kind {kind!r}")
        self.kind = kind
        self.images = dict(images)

    def degree(self, name: str, e: int) -> int | None:
        """The t-degree of pi(name^e), or None where it is 0."""
        if e == 0:
            return 0
        k = self.images.get(name)
        if k is None:
            if e < 0:
                raise QuotientError(f"negative power of {name} with zero image")
            return None
        if self.kind == "poly" and k * e < 0:
            raise QuotientError(f"negative t-exponent for {name}^{e}")
        return k * e


def default_quotient(alg: HopfProvider) -> QuotientSpec:
    """The built-in quotient for the instance's family, from the family
    table: every generator goes to 0 or to a power of t."""
    found = family(alg.params).quotient(alg.params)
    if found is None:
        raise QuotientError(
            "no built-in quotient: a nontrivial twist leaves no monomial collapse"
        )
    return QuotientSpec(*found)


class Coaction:
    """rho/lam machinery for one algebra instance and one quotient.

    Every coaction is read from per-index tables, each filled on first
    use and kept on the instance: the t-degree of pi of a basis index,
    rho and lam of a basis element as {n: Lin}, the same two coactions
    in exponent form (for the bicomodule residual), and the
    rho-grading of a window box.
    """

    def __init__(self, alg: HopfProvider, spec: QuotientSpec):
        self.alg = alg
        self.spec = spec
        self._pi_cache: dict = {}
        # per side (0: lam, pi on the left leg; 1: rho, on the right)
        self._coactions: tuple[dict, dict] = ({}, {})
        self._coaction_forms: tuple[dict, dict] = ({}, {})
        self._gradings: dict = {}
        self._check_algebra_map()
        self._check_coalgebra_map()

    # -- the projection pi ------------------------------------------

    def pi_index(self, idx) -> int | None:
        """n where pi(e_idx) = t^n, or None where pi(e_idx) = 0."""
        try:
            return self._pi_cache[idx]
        except KeyError:
            pass
        n = 0
        for name, e in self.alg.index_factors(idx):
            k = self.spec.degree(name, e)
            if k is None:
                n = None
                break
            n += k
        self._pi_cache[idx] = n
        return n

    # -- construction-time validation --------------------------------

    def _check_algebra_map(self):
        gens = dict(self.alg.generators())
        for rel in self.alg.presentation().relations:
            total: dict = {}
            for coeff, word in rel:
                degrees = [self.pi_index(gens[name]) for name in word]
                if None not in degrees:
                    acc(total, sum(degrees), coeff)
            if total:
                raise QuotientError("a defining relation does not map to zero")

    def _bar_coproduct(self, k: int | None) -> dict:
        # Delta(t^k) as {(i, j): coefficient of t^i ox t^j}
        if k is None:
            return {}
        if self.spec.kind == "laurent":
            return {(k, k): self.alg.one_scalar()}
        return {(j, k - j): self.alg.scalar(math.comb(k, j)) for j in range(k + 1)}

    def _bar_counit(self, k: int | None) -> Cyclo:
        # eps(t^k): 1 in every degree (Laurent) or in degree 0 (polynomial)
        hit = k is not None if self.spec.kind == "laurent" else k == 0
        return self.alg.scalar(1 if hit else 0)

    def _check_coalgebra_map(self):
        pi = self.pi_index
        for name, idx in self.alg.generators():
            k = pi(idx)
            two_sided: dict = {}
            for (i, j), c in self.alg.coproduct_basis(idx).terms.items():
                if (m := pi(i)) is not None and (n := pi(j)) is not None:
                    acc(two_sided, (m, n), c)
            if two_sided != self._bar_coproduct(k):
                raise QuotientError(f"coproduct does not descend on {name}")
            if not (self.alg.counit_basis(idx) - self._bar_counit(k)).is_zero():
                raise QuotientError(f"counit does not descend on {name}")

    # -- the coactions ------------------------------------------------

    def _basis_coaction(self, idx, side: int) -> dict:
        """rho (side 1) or lam (side 0) of e_idx as {n: component}: the
        terms of Delta(e_idx) grouped by the t-degree of pi on one leg,
        the other leg kept."""
        cache = self._coactions[side]
        hit = cache.get(idx)
        if hit is None:
            out: dict = {}
            for legs, d in self.alg.coproduct_basis(idx).terms.items():
                n = self.pi_index(legs[side])
                if n is not None:
                    acc(out.setdefault(n, {}), legs[1 - side], d)
            hit = cache[idx] = {n: Lin(comp) for n, comp in out.items() if comp}
        return hit

    def _coact(self, h: Lin, side: int) -> dict:
        terms = h.terms
        if len(terms) == 1:
            ((idx, c),) = terms.items()
            if c.is_one():
                # the table itself, not a copy
                return self._basis_coaction(idx, side)
        out: dict = {}
        for idx, c in terms.items():
            for n, comp in self._basis_coaction(idx, side).items():
                slot = out.setdefault(n, {})
                for k, d in comp.terms.items():
                    acc(slot, k, c * d)
        return {n: Lin(comp) for n, comp in out.items() if comp}

    def rho(self, h: Lin) -> dict:
        """h as sum of components ox t^n; returns {n: component}."""
        return dict(self._coact(h, 1))

    def lam(self, h: Lin) -> dict:
        """h as sum of t^n ox components; returns {n: component}."""
        return dict(self._coact(h, 0))

    def _collapse(self, h: Lin, side: int, every_degree: bool) -> Lin:
        """The bar counit on the coaction's t leg: every degree counts 1
        (Laurent) or only degree 0 does (polynomial)."""
        comps = self._coact(h, side)
        if not every_degree:
            return comps.get(0, Lin({}))
        if len(comps) == 1:
            return next(iter(comps.values()))
        total = Lin({})
        for comp in comps.values():
            total = total + comp
        return total

    def _coaction_form(self, idx, side: int) -> tuple:
        """_basis_coaction in exponent form, unreduced: ((kept leg, n),
        pairs) per term, regrouped from the coproduct's form."""
        cache = self._coaction_forms[side]
        hit = cache.get(idx)
        if hit is None:
            out: dict = {}
            for legs, pairs in self.alg.coproduct_basis(idx).form:
                n = self.pi_index(legs[side])
                if n is not None:
                    slot = out.setdefault((legs[1 - side], n), {})
                    for e, r in pairs:
                        slot[e] = slot.get(e, 0) + r
            hit = cache[idx] = tuple(
                (key, pairs)
                for key, slot in out.items()
                if (pairs := tuple((e, r) for e, r in slot.items() if r))
            )
        return hit

    # -- gradings (Laurent quotients) ---------------------------------

    def rho_degree(self, idx) -> int:
        comps = self._basis_coaction(idx, 1)
        if len(comps) != 1:
            raise QuotientError("basis monomial is not rho-homogeneous")
        return next(iter(comps))

    def lam_degree(self, idx) -> int:
        comps = self._basis_coaction(idx, 0)
        if len(comps) != 1:
            raise QuotientError("basis monomial is not lam-homogeneous")
        return next(iter(comps))

    def bigrade(self, h: Lin) -> dict:
        """Decompose into {(lam-degree, rho-degree): component}."""
        out: dict = {}
        for n, comp in self.rho(h).items():
            for m, comp2 in self.lam(comp).items():
                if not comp2.is_zero():
                    out[(m, n)] = out.get((m, n), Lin({})) + comp2
        return {k: v for k, v in out.items() if not v.is_zero()}

    def coactions_compatible(self, h: Lin) -> bool:
        """Bicomodule axiom: rho-then-lam agrees with lam-then-rho on h.

        The residual (lam ox id) rho(h) - (id ox rho) lam(h), which is
        (pi ox id ox pi)((Delta ox id) Delta - (id ox Delta) Delta)(h),
        is one kernel table (t-exponent, basis index, t-exponent) ->
        {exponent: rational}, each key reduced once by `finish`."""
        alg = self.alg
        forms = self._coaction_form
        table = alg.table()
        for idx, hp in alg.table(h).items():
            for sign, first, second in ((1, 1, 0), (-1, 0, 1)):
                # sign +1: lam of rho's kept leg; -1: rho of lam's
                for (a, n1), p1 in forms(idx, first):
                    p = [(eh + e1, sign * rh * r1) for eh, rh in hp.items() for e1, r1 in p1]
                    for (b, n2), p2 in forms(a, second):
                        slot = table[(n2, b, n1) if sign == 1 else (n1, b, n2)]
                        for e1, r1 in p:
                            for e2, r2 in p2:
                                e = e1 + e2
                                slot[e] = slot.get(e, 0) + r1 * r2
        return alg.finish(table).is_zero()

    def box_verdicts(self, window: int) -> dict:
        """Whether each check holds on every basis element of the window
        box: `bicomodule_compatible`, `counit_collapse`, and for a
        Laurent quotient `decomposition`.  An index whose model passes
        (the module docstring) takes its verdict; the others are
        computed, in box order, until one fails."""
        checks = {
            "bicomodule_compatible": self.coactions_compatible,
            "counit_collapse": self.counit_recovers,
        }
        if self.spec.kind == "laurent":
            checks["decomposition"] = self.decomposes
        box = self.alg.basis_box(window)
        models = self._models(box)
        return {name: self._holds(check, box, models) for name, check in checks.items()}

    def _models(self, box) -> dict:
        """index -> its `end_model` for each index of the box off its
        model that has one; empty when `moves_pairs()` names no end
        letter or pi of the end letter rules the reuse out."""
        alg = self.alg
        slot = alg.end_slot()
        if slot is None:
            return {}
        c = self.spec.images.get(alg.letters[slot][0])
        if c is None or (c and self.spec.kind == "poly"):
            return {}
        return {i: m for i in box if (m := alg.end_model(i)) not in (None, i)}

    def _holds(self, check, box, models: dict) -> bool:
        # each model's verdict is computed once and taken by its moves
        basis_el = self.alg.basis_el
        verdicts: dict = {}
        for i in box:
            model = models.get(i, i)
            ok = verdicts.get(model)
            if ok is None:
                ok = verdicts[model] = check(basis_el(model))
            if not ok and (model == i or not check(basis_el(i))):
                return False
        return True

    def decomposes(self, h: Lin) -> bool:
        """The bigrade components sum back to h (a grading statement,
        meaningful for Laurent quotients where the bar counit sums all
        degrees): collapsing both t legs, every degree counted, returns
        h."""
        return self._collapse(self._collapse(h, 1, True), 0, True) == h

    def counit_recovers(self, h: Lin) -> bool:
        """Coaction counit axiom: collapsing the bar leg returns h."""
        every = self.spec.kind == "laurent"
        return all(self._collapse(h, side, every) == h for side in (1, 0))

    def _grading(self, window: int) -> dict:
        # the window box by rho-degree, once per window
        hit = self._gradings.get(window)
        if hit is None:
            hit = {}
            for idx in self.alg.basis_box(window):
                hit.setdefault(self.rho_degree(idx), []).append(idx)
            self._gradings[window] = hit
        return hit

    def strong_grading(self, n: int, window: int) -> bool:
        """Window check that H_{-n} H_n spans H_0 (right grading)."""
        if self.spec.kind != "laurent":
            raise QuotientError("strong grading applies to Laurent quotients")
        by_degree = self._grading(window)
        lows, highs, zeros = (by_degree.get(d, []) for d in (-n, n, 0))
        return self._covers(lows, highs, zeros) or self._spans(lows, highs, zeros)

    def _covers(self, lows, highs, zeros) -> bool:
        """Whether the one-term products e_u e_v (u in lows, v in highs)
        hit every index of zeros; products are read until they do."""
        want = set(zeros)
        mul = self.alg.multiply_basis
        for u in lows:
            for v in highs:
                if not want:
                    return True
                terms = mul(u, v).terms
                if len(terms) == 1:
                    want.discard(next(iter(terms)))
        return not want

    def _spans(self, lows, highs, zeros) -> bool:
        # the Echelon of every product e_u e_v contains each e_h, h in zeros
        ech = Echelon()
        for u in lows:
            for v in highs:
                ech.insert(dict(self.alg.multiply_basis(u, v).terms))
        one = self.alg.one_scalar()
        return all(ech.contains({h: one}) for h in zeros)

    # -- derivations (polynomial quotients) ---------------------------

    def delta_r(self, h: Lin) -> Lin:
        if self.spec.kind != "poly":
            raise QuotientError("delta_r applies to polynomial quotients")
        return self.rho(h).get(1, Lin({}))

    def delta_l(self, h: Lin) -> Lin:
        if self.spec.kind != "poly":
            raise QuotientError("delta_l applies to polynomial quotients")
        return self.lam(h).get(1, Lin({}))

    def taylor_matches(self, h: Lin, upto: int = 6) -> bool:
        """rho's t^k coefficient must equal delta_r^k(h) / k!."""
        comps = self.rho(h)
        dk = h
        for k in range(1, upto + 1):
            dk = self.delta_r(dk)
            inv_fact = Cyclo.from_fraction(
                Fraction(1, math.factorial(k)), self.alg.level
            )
            if comps.get(k, Lin({})) != dk.scale(inv_fact):
                return False
        return True

    # -- coinvariants --------------------------------------------------

    def _coinvariants(self, window: int, side: int) -> list[Lin]:
        """Kernel basis of rho(h) - h ox 1 (side 1) or lam(h) - 1 ox h
        (side 0) on the window span, keyed (index, n) on the right and
        (n, index) on the left: the key order fixes the basis found."""
        alg = self.alg
        minus_one = Cyclo.zero(alg.level) - alg.one_scalar()

        def key(idx, n):
            return (idx, n) if side else (n, idx)

        def image(e):
            vec: dict = {}
            for n, comp in self._coact(alg.basis_el(e), side).items():
                for idx, c in comp.terms.items():
                    acc(vec, key(idx, n), c)
            acc(vec, key(e, 0), minus_one)
            return vec

        box = alg.basis_box(window)
        return [Lin(k) for k in kernel_of_map(box, image, alg.level)]

    def right_coinvariants(self, window: int) -> list[Lin]:
        """Kernel basis of rho(h) - h ox 1 on the window span."""
        return self._coinvariants(window, 1)

    def left_coinvariants(self, window: int) -> list[Lin]:
        """Kernel basis of lam(h) - 1 ox h on the window span."""
        return self._coinvariants(window, 0)

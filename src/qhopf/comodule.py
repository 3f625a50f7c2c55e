"""Comodule structure over a monomial Hopf quotient.

A quotient spec sends each generator to 0, 1, or a scalar multiple of a
power of t, landing in k[t^{+-1}] (t grouplike) or k[t] (t primitive).
That is enough for every quotient used here, and it keeps the
well-definedness checks finite: relations must map to zero and the
coproduct/counit must commute with the projection on generators, both
verified at construction time.

From a valid spec the two coactions

    rho = (id ox pi) Delta        lam = (pi ox id) Delta

decompose every element by t-exponent.  For Laurent quotients the
exponents give commuting left/right gradings; for polynomial quotients
the t^1 coefficients are derivations delta_r, delta_l whose divided
powers recover the full coaction (checked, not assumed).

A `Coaction` computes rho and lam of each basis element once, from
`coproduct_basis` and `pi_index`, and keeps them for the life of the
instance (one command); the coactions of an element, its degrees, the
counit collapse and the bigrade sum all read those tables.  The
bicomodule check is one residual per element,

    (pi ox id ox pi)((Delta ox id) Delta - (id ox Delta) Delta),

accumulated in the exponent form of `qhopf.scalars` from the
coproducts' forms and pi's, and reduced once per key by the provider's
`finish`, as the axiom checks of `qhopf.verify` are.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qhopf.elements import Lin, acc
from qhopf.families.base import HopfProvider
from qhopf.families.builder import family
from qhopf.linalg import Echelon, kernel_of_map
from qhopf.scalars import Cyclo, exponent_form


class QuotientError(ValueError):
    pass


# polynomial-in-t values are sparse dicts exponent -> Cyclo


def _pol_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        acc(out, k, v)
    return out


def _pol_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for i, c in a.items():
        for j, d in b.items():
            acc(out, i + j, c * d)
    return out


class QuotientSpec:
    """Images of the generators under the quotient map.

    kind is "laurent" or "poly"; images maps each base generator name
    (no inverse names) to None for zero or (coeff, exponent) for a
    monomial coeff * t^exponent.
    """

    def __init__(self, kind: str, images: dict):
        if kind not in ("laurent", "poly"):
            raise QuotientError(f"unknown quotient kind {kind!r}")
        self.kind = kind
        self.images = dict(images)

    def mono_pow(self, name: str, e: int, level: int):
        if e == 0:
            return {0: Cyclo.one(level)}
        img = self.images.get(name)
        if img is None:
            if e < 0:
                raise QuotientError(f"negative power of {name} with zero image")
            return {}
        c, k = img
        if self.kind == "poly" and k * e < 0:
            raise QuotientError(f"negative t-exponent for {name}^{e}")
        return {k * e: c ** e}


def default_quotient(alg: HopfProvider) -> QuotientSpec:
    """The built-in quotient for the instance's family, from the family
    table: every generator goes to 0 or to a power of t."""
    found = family(alg.params).quotient(alg.params)
    if found is None:
        raise QuotientError(
            "no built-in quotient: a nontrivial twist leaves no monomial collapse"
        )
    kind, images = found
    one = Cyclo.one(alg.level)
    return QuotientSpec(
        kind, {name: None if k is None else (one, k) for name, k in images.items()}
    )


class Coaction:
    """rho/lam machinery for one algebra instance and one quotient.

    Every coaction is read from per-index tables, each filled on first
    use and kept on the instance: pi of a basis index, rho and lam of a
    basis element as {n: Lin}, the same two coactions in exponent form
    (for the bicomodule residual), and the rho-grading of a window box.
    """

    def __init__(self, alg: HopfProvider, spec: QuotientSpec):
        self.alg = alg
        self.spec = spec
        self._pi_cache: dict = {}
        self._pi_forms: dict = {}
        # per side (0: lam, pi on the left leg; 1: rho, on the right)
        self._coactions: tuple[dict, dict] = ({}, {})
        self._coaction_forms: tuple[dict, dict] = ({}, {})
        self._gradings: dict = {}
        self._check_algebra_map()
        self._check_coalgebra_map()

    # -- the projection pi ------------------------------------------

    def _letter_image(self, name: str) -> dict:
        base, neg = (name[:-3], True) if name.endswith("^-1") else (name, False)
        return self.spec.mono_pow(base, -1 if neg else 1, self.alg.level)

    def pi_index(self, idx) -> dict:
        cached = self._pi_cache.get(idx)
        if cached is not None:
            return cached
        out = {0: self.alg.one_scalar()}
        for name, e in self.alg.index_factors(idx):
            out = _pol_mul(out, self.spec.mono_pow(name, e, self.alg.level))
            if not out:
                break
        self._pi_cache[idx] = out
        return out

    def _pi_form(self, idx) -> list:
        # pi(e_idx) as (t-exponent, pairs) terms of Q[C_N]
        hit = self._pi_forms.get(idx)
        if hit is None:
            hit = self._pi_forms[idx] = exponent_form(self.alg.level, self.pi_index(idx))
        return hit

    # -- construction-time validation --------------------------------

    def _check_algebra_map(self):
        pres = self.alg.presentation()
        for rel in pres.relations:
            total: dict = {}
            for coeff, word in rel:
                term = {0: coeff}
                for name in word:
                    term = _pol_mul(term, self._letter_image(name))
                total = _pol_add(total, term)
            if total:
                raise QuotientError("a defining relation does not map to zero")

    def _bar_coproduct(self, pol: dict) -> dict:
        out: dict = {}
        for k, c in pol.items():
            if self.spec.kind == "laurent":
                acc(out, (k, k), c)
            else:
                for j in range(k + 1):
                    acc(out, (j, k - j), c * math.comb(k, j))
        return out

    def _bar_counit(self, pol: dict) -> Cyclo:
        if self.spec.kind == "laurent":
            total = Cyclo.zero(self.alg.level)
            for c in pol.values():
                total = total + c
            return total
        return pol.get(0, Cyclo.zero(self.alg.level))

    def _check_coalgebra_map(self):
        for name, idx in self.alg.generators():
            img = self._letter_image(name)
            two_sided: dict = {}
            for (i, j), c in self.alg.coproduct_basis(idx).terms.items():
                for m, cm in self.pi_index(i).items():
                    for n, cn in self.pi_index(j).items():
                        acc(two_sided, (m, n), c * cm * cn)
            if two_sided != self._bar_coproduct(img):
                raise QuotientError(f"coproduct does not descend on {name}")
            if not (self.alg.counit_basis(idx) - self._bar_counit(img)).is_zero():
                raise QuotientError(f"counit does not descend on {name}")

    # -- the coactions ------------------------------------------------

    def _basis_coaction(self, idx, side: int) -> dict:
        """rho (side 1) or lam (side 0) of e_idx as {n: component}: pi
        applied to one leg of Delta(e_idx), the other leg kept."""
        cache = self._coactions[side]
        hit = cache.get(idx)
        if hit is None:
            out: dict = {}
            for legs, d in self.alg.coproduct_basis(idx).terms.items():
                kept = legs[1 - side]
                for n, cn in self.pi_index(legs[side]).items():
                    acc(out.setdefault(n, {}), kept, d * cn)
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
        pairs) per term, from the coproduct's form and pi's."""
        cache = self._coaction_forms[side]
        hit = cache.get(idx)
        if hit is None:
            out: dict = {}
            for legs, dp in self.alg.coproduct_basis(idx).form:
                kept = legs[1 - side]
                for n, pp in self._pi_form(legs[side]):
                    slot = out.setdefault((kept, n), {})
                    for ed, rd in dp:
                        for ep, rp in pp:
                            e = ed + ep
                            slot[e] = slot.get(e, 0) + rd * rp
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
        ech = Echelon()
        for u in by_degree.get(-n, []):
            for v in by_degree.get(n, []):
                ech.insert(dict(self.alg.multiply_basis(u, v).terms))
        one = self.alg.one_scalar()
        return all(ech.contains({h: one}) for h in by_degree.get(0, []))

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

    def right_coinvariants(self, window: int) -> list[Lin]:
        """Kernel basis of rho(h) - h ox 1 on the window span."""
        box = self.alg.basis_box(window)
        one = self.alg.one_scalar()

        def image(e):
            vec: dict = {}
            for n, comp in self.rho(self.alg.basis_el(e)).items():
                for idx, c in comp.terms.items():
                    acc(vec, (idx, n), c)
            acc(vec, (e, 0), Cyclo.zero(self.alg.level) - one)
            return vec

        return [Lin(k) for k in kernel_of_map(box, image, self.alg.level)]

    def left_coinvariants(self, window: int) -> list[Lin]:
        box = self.alg.basis_box(window)
        one = self.alg.one_scalar()

        def image(e):
            vec: dict = {}
            for n, comp in self.lam(self.alg.basis_el(e)).items():
                for idx, c in comp.terms.items():
                    acc(vec, (n, idx), c)
            acc(vec, (0, e), Cyclo.zero(self.alg.level) - one)
            return vec

        return [Lin(k) for k in kernel_of_map(box, image, self.alg.level)]

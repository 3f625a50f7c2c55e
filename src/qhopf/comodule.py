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
    """rho/lam machinery for one algebra instance and one quotient."""

    def __init__(self, alg: HopfProvider, spec: QuotientSpec):
        self.alg = alg
        self.spec = spec
        self._pi_cache: dict = {}
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

    def rho(self, h: Lin) -> dict:
        """h as sum of components ox t^n; returns {n: component}."""
        out: dict = {}
        for idx, c in h.terms.items():
            for (i, j), d in self.alg.coproduct_basis(idx).terms.items():
                for n, cn in self.pi_index(j).items():
                    comp = out.setdefault(n, {})
                    acc(comp, i, c * d * cn)
        return {n: Lin(comp) for n, comp in out.items() if comp}

    def lam(self, h: Lin) -> dict:
        out: dict = {}
        for idx, c in h.terms.items():
            for (i, j), d in self.alg.coproduct_basis(idx).terms.items():
                for n, cn in self.pi_index(i).items():
                    comp = out.setdefault(n, {})
                    acc(comp, j, c * d * cn)
        return {n: Lin(comp) for n, comp in out.items() if comp}

    # -- gradings (Laurent quotients) ---------------------------------

    def rho_degree(self, idx) -> int:
        comps = self.rho(self.alg.basis_el(idx))
        if len(comps) != 1:
            raise QuotientError("basis monomial is not rho-homogeneous")
        return next(iter(comps))

    def lam_degree(self, idx) -> int:
        comps = self.lam(self.alg.basis_el(idx))
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
        """Bicomodule axiom: rho-then-lam agrees with lam-then-rho on h."""
        left: dict = {}
        for n, comp in self.rho(h).items():
            for m, c2 in self.lam(comp).items():
                if not c2.is_zero():
                    left[(m, n)] = c2
        right: dict = {}
        for m, comp in self.lam(h).items():
            for n, c2 in self.rho(comp).items():
                if not c2.is_zero():
                    right[(m, n)] = c2
        return left == right

    def decomposes(self, h: Lin) -> bool:
        """The bigrade components sum back to h (a grading statement,
        meaningful for Laurent quotients where the bar counit sums all
        degrees)."""
        total = Lin({})
        for comp in self.bigrade(h).values():
            total = total + comp
        return (total - h).is_zero()

    def counit_recovers(self, h: Lin) -> bool:
        """Coaction counit axiom: collapsing the bar leg returns h."""
        if self.spec.kind == "laurent":
            right = Lin({})
            for comp in self.rho(h).values():
                right = right + comp
            left = Lin({})
            for comp in self.lam(h).values():
                left = left + comp
        else:
            right = self.rho(h).get(0, Lin({}))
            left = self.lam(h).get(0, Lin({}))
        return (right - h).is_zero() and (left - h).is_zero()

    def strong_grading(self, n: int, window: int) -> bool:
        """Window check that H_{-n} H_n spans H_0 (right grading)."""
        if self.spec.kind != "laurent":
            raise QuotientError("strong grading applies to Laurent quotients")
        box = self.alg.basis_box(window)
        by_degree: dict = {}
        for idx in box:
            by_degree.setdefault(self.rho_degree(idx), []).append(idx)
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

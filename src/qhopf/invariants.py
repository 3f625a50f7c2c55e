"""Isomorphism invariants and the isomorphism decision procedure.

Two layers:

* instance-level: computations on a built provider (commutativity,
  cocommutativity, grouplike profile, tangent-space dimension at the
  counit).  `distinguish` compares these; a reported difference proves
  non-isomorphism, absence is inconclusive.

* parameter-level: `canonicalize` / `isomorphic` decide equality of
  canonical forms after folding the known family coincidences.  This
  layer is authoritative for the classified families.

Commutativity and cocommutativity are decided on the generators: the
product is associative and Delta and its flip are algebra maps, so both
are facts about the whole algebra.  For every w >= 1 they equal the
window scans over `basis_box(w)`, the tests' second route, as that box
holds every generator: a unit letter ranges over [-w, w] and every cap
is at least 1.  A commutative H needs no grouplike pair products.

Everything parameter-level is a lookup in the family table,
`qhopf.families.builder.FAMILIES`: the fold behind `iso_key`,
`canonicalize`, `family_tag` and the rules `isomorphic` cites, and the
facts behind `gldim_class`, `abelianization_goldie_rank` and
`ext1_dimension`.  Global dimension is metadata there, not computed.

One convention deserves a warning.  The classifier folds the degree-one
Ore instance (zero derivation) onto the trivial skew-Laurent pair
(1, 1), following the classification's stated coincidence list.  The
instance-level layer does not fully agree: the degree-one Ore instance
is cocommutative (its non-grouplike generator is primitive) while the
(1, 1) skew-Laurent instance is not, so `distinguish` separates the two
built instances even though `isomorphic` reports their parameters
equivalent.  The honest coalgebra match for the degree-one Ore instance
is the degree-zero pair (0, 1); both layers are kept as they are so the
discrepancy stays visible.
"""

from __future__ import annotations

from fractions import Fraction

from qhopf.elements import flip2
from qhopf.families import HopfProvider
from qhopf.families.builder import facts, fold
# bench/tracer.py wraps qhopf.invariants.pi_degree_and_io by this name
from qhopf.families.builder import pi_degree_and_io  # noqa: F401
from qhopf.linalg import span_rank
from qhopf.params import FamilyParams, Record, params_str
from qhopf.scalars import Cyclo
from qhopf.verify import find_grouplikes


# -- instance-level checks ---------------------------------------------


def is_commutative(alg: HopfProvider) -> bool:
    gens = [i for _, i in alg.generators()]
    return all(
        alg.multiply_basis(g, h) == alg.multiply_basis(h, g)
        for pos, g in enumerate(gens)
        for h in gens[pos + 1 :]
    )


def is_cocommutative(alg: HopfProvider) -> bool:
    for _, g in alg.generators():
        t = alg.coproduct_basis(g)
        if flip2(t) != t:
            return False
    return True


def grouplike_profile(
    alg: HopfProvider, bound: int = 3, commutative: bool = False
) -> tuple[int, bool]:
    """(lattice rank, abelian?) of the grouplikes found within the bound;
    a True `commutative`, H's verdict, answers the second entry."""
    gls = find_grouplikes(alg, bound)
    vectors = []
    for g in gls:
        vec = {
            name: Cyclo.from_fraction(Fraction(e))
            for name, e in alg.index_factors(g)
            if e
        }
        if vec:
            vectors.append(vec)
    rank = span_rank(vectors)
    abelian = commutative or all(
        alg.multiply_basis(g, h) == alg.multiply_basis(h, g)
        for pos, g in enumerate(gls)
        for h in gls[pos + 1 :]
    )
    return rank, abelian


def _linearize_word(alg: HopfProvider, counit, word) -> tuple[Cyclo, dict]:
    """Constant and t-linear part of prod(eps(g) + t_g) over the word."""
    const = alg.one_scalar()
    lin: dict[str, Cyclo] = {}
    for name in word:
        e = counit[name]
        lin = {m: c * e for m, c in lin.items()}
        lin[name] = lin.get(name, alg.scalar(0)) + const
        const = const * e
    return const, {m: c for m, c in lin.items() if not c.is_zero()}


def ext1_from_instance(alg: HopfProvider) -> int:
    """Tangent-space dimension at the counit, from the presentation.

    Substitute g -> eps(g) + t_g into each defining relation, keep the
    t-linear part; the answer is #generators minus the rank of the
    resulting linear system.  Every relation must have zero constant
    term (the counit kills it), asserted here.
    """
    pres = alg.presentation()
    rows = []
    for rel in pres.relations:
        const = alg.scalar(0)
        row: dict[str, Cyclo] = {}
        for coeff, word in rel:
            c, lin = _linearize_word(alg, pres.counit, word)
            const = const + coeff * c
            for name, v in lin.items():
                cur = row.get(name, alg.scalar(0)) + coeff * v
                if cur.is_zero():
                    row.pop(name, None)
                else:
                    row[name] = cur
        if not const.is_zero():
            raise AssertionError("relation does not vanish under the counit")
        if row:
            rows.append(row)
    return len(pres.gens) - span_rank(rows)


# -- parameter-level lookups in the family table ------------------------


def ext1_dimension(params: FamilyParams) -> int:
    """Tangent-space dimension read off the table (2 iff commutative);
    `ext1_from_instance` computes it from the presentation."""
    return _param_invariants(params, iso_key(params)).ext1_dim


def gldim_class(params: FamilyParams) -> str:
    """'infinite' for the carried-basis family, 'finite_2' otherwise."""
    return facts(params).gldim


def abelianization_goldie_rank(params: FamilyParams) -> tuple:
    """(rank, quotient label) for the commutator quotient; rank None
    marks a commutative instance."""
    return facts(params).abelianization


def iso_key(params: FamilyParams) -> FamilyParams:
    """Canonical parameters with the cross-family coincidences folded."""
    return fold(params)[0]


def canonicalize(params: FamilyParams) -> FamilyParams:
    """Canonical representative within the parameters' own family: the
    iso key when the fold stays in the family, else the parameters."""
    key = iso_key(params)
    return key if type(key) is type(params) else params


def family_tag(params: FamilyParams) -> str:
    """Family label with the lift coincidences folded in."""
    return iso_key(params).family


def _param_invariants(params: FamilyParams, key: FamilyParams) -> InvariantVector:
    """Invariant vector derived from parameters alone (for explanations);
    `key` is their `iso_key`, which a caller that has folded them has."""
    f = facts(params)
    commutative = f.abelianization[0] is None
    return InvariantVector(
        is_commutative=commutative,
        is_cocommutative=f.cocommutative,
        grouplike_rank=f.grouplike_rank,
        grouplike_abelian=f.grouplike_abelian,
        ext1_dim=2 if commutative else 1,
        gldim_finite=f.gldim == "finite_2",
        abelianization_goldie_rank=f.abelianization,
        family_tag=key.family,
    )


def isomorphic(p1: FamilyParams, p2: FamilyParams) -> tuple[bool, str]:
    """Decide isomorphism of two parameter sets, with an explanation.

    True iff the canonical folded keys agree.  Explanations cite the
    fold rules that fired, or name the first differing parameter-level
    invariant for a false pair.
    """
    (k1, rules1), (k2, rules2) = fold(p1), fold(p2)
    if k1 == k2:
        rules = list(dict.fromkeys(rules1 + rules2)) or ["identical canonical parameters"]
        return True, "; ".join(rules)
    v1, v2 = _param_invariants(p1, k1), _param_invariants(p2, k2)
    for (name, a), (_, b) in zip(v1.fields(), v2.fields()):
        if a != b:
            return False, f"distinguished by {name}: {a} != {b}"
    return False, (
        "same family, different canonical parameters: "
        f"{params_str(k1)} vs {params_str(k2)}"
    )


# -- instance-level invariant vector -----------------------------------


class InvariantVector(Record):
    """The invariants in a fixed order: `fields()` lists them, equality
    compares them in that order."""

    __slots__ = ("is_commutative", "is_cocommutative", "grouplike_rank",
                 "grouplike_abelian", "ext1_dim", "gldim_finite",
                 "abelianization_goldie_rank", "family_tag")

    def fields(self):
        return list(zip(self.__slots__, self._values))

    def to_json(self):
        rank, quotient = self.abelianization_goldie_rank
        out = dict(self.fields())
        out["abelianization_goldie_rank"] = {"rank": rank, "quotient": quotient}
        return out


def invariant_vector(alg: HopfProvider, bound: int = 3) -> InvariantVector:
    # gldim, abelianization and family tag come from the family table;
    # the grouplikes are searched on the window, the rest is computed
    commutative = is_commutative(alg)
    rank, abelian = grouplike_profile(alg, bound, commutative)
    table = _param_invariants(alg.params, iso_key(alg.params))
    return InvariantVector(
        is_commutative=commutative,
        is_cocommutative=is_cocommutative(alg),
        grouplike_rank=rank,
        grouplike_abelian=abelian,
        ext1_dim=ext1_from_instance(alg),
        gldim_finite=table.gldim_finite,
        abelianization_goldie_rank=table.abelianization_goldie_rank,
        family_tag=table.family_tag,
    )


def distinguish(alg1: HopfProvider, alg2: HopfProvider, bound: int = 3):
    """Name of the first differing instance-level invariant, or None.

    A returned name proves the instances are non-isomorphic.  None is
    inconclusive here; the parameter-level decision is authoritative.
    """
    v1 = invariant_vector(alg1, bound)
    v2 = invariant_vector(alg2, bound)
    for (name, a), (_, b) in zip(v1.fields(), v2.fields()):
        if a != b:
            return name
    return None

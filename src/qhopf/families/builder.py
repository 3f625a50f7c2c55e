"""The family table: everything qhopf knows per family, one row each.

`FAMILIES` maps each parameter class to a `Family` row; other modules
look families up here instead of testing parameter classes or family
names.  Row callables take the parameters and call module functions
(`pi_degree_and_io`) by their global names, so a rebound global is seen
by every row.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from qhopf.families.base import HopfProvider
from qhopf.families.enveloping import EnvAbelian, EnvNonabelian
from qhopf.families.family_a import FamilyA
from qhopf.families.family_b import FamilyB
from qhopf.families.family_c import FamilyC
from qhopf.families.group_rings import GroupZ2, GroupZSemiZ
from qhopf.params import (
    AParams,
    BParams,
    CLiftParams,
    CParams,
    EnvAbelianParams,
    EnvNonabelianParams,
    FamilyParams,
    GroupZ2Params,
    GroupZSemiZParams,
    ParamError,
    ScalarSpec,
)


class Facts:
    """Parameter-level invariants, read off the classification.

    abelianization is (Goldie rank, label) of the commutator quotient,
    rank None on a commutative algebra; labels use neutral variable
    names so coinciding instances get equal values.  gldim is metadata:
    the carried-basis relations y_i^(p_i) = y_1^(p_1) cut out a singular
    monomial curve, every other family extends a smooth ring.
    """

    __slots__ = ("cocommutative", "grouplike_rank", "grouplike_abelian",
                 "abelianization", "gldim")

    def __init__(self, cocommutative: bool, grouplike_rank: int,
                 grouplike_abelian: bool, abelianization: tuple,
                 gldim: str = "finite_2"):
        self.cocommutative = cocommutative
        self.grouplike_rank = grouplike_rank
        self.grouplike_abelian = grouplike_abelian
        self.abelianization = abelianization
        self.gldim = gldim


def _unfolded(params) -> tuple:
    return params, ()


def _no_pi(params) -> None:
    return None


class Family:
    """One row of the family table."""

    __slots__ = ("provider", "facts", "quotient", "fold", "pi")

    def __init__(self, provider: type, facts: Callable, quotient: Callable,
                 fold: Callable = _unfolded, pi: Callable = _no_pi):
        # what `build` instantiates
        self.provider = provider
        # params -> Facts
        self.facts = facts
        # params -> (kind, {generator: t-exponent, None for 0}) of the default
        # quotient onto k[t^(pm 1)] ("laurent") or k[t] ("poly"), or None
        self.quotient = quotient
        # params -> (canonical iso key, texts of the coincidence rules that fired)
        self.fold = fold
        # params -> PI data for the report: exact numbers, "infinite" where no
        # polynomial identity holds, None (omitted) otherwise
        self.pi = pi


def pi_degree_and_io(params: FamilyParams) -> tuple[int, int]:
    """(PI degree, integral order) for a carried-basis instance."""
    if not isinstance(params, BParams):
        raise ParamError("PI degree formula applies to the B family only")
    ell = params.root_target()
    heads = params.p[1:]
    s = len(heads)
    m = math.prod(heads)
    d = ell + m * (s - 1) - sum(m // pi for pi in heads)
    return ell, ell // math.gcd(d, ell)


def _fold_a(p: AParams) -> tuple:
    # (n, q) and (-n, q^-1) give the same algebra; at n = 0 the two
    # scalars are tied, broken by the fixed total order on scalars
    if p.n < 0:
        return AParams(-p.n, p.q.inverse()), ("degree sign flip (n, q) ~ (-n, q^-1)",)
    if p.n == 0 and p.q.inverse().sort_key() < p.q.sort_key():
        return AParams(0, p.q.inverse()), ("degree-zero inverse-scalar symmetry q ~ q^-1",)
    return p, ()


def _fold_c(p: CParams) -> tuple:
    # classifier convention, not endorsed by the instance layer: see the
    # notes in qhopf.invariants
    if p.n == 1:
        rule = ("degree-one Ore instance (zero derivation) folds onto the"
                " trivial skew-Laurent pair (1, 1)")
        return AParams(1, ScalarSpec.from_rational(1)), (rule,)
    return p, ()


def _fold_lift(p: CLiftParams) -> tuple:
    if p.q.is_one():
        return CParams(p.n), ("trivial-twist lift equals the Ore-derivation family",)
    rule = ("lift collapse onto the skew-Laurent family, one degree down"
            " with inverse scalar")
    return AParams(p.n - 1, p.q.inverse()), (rule,)


def _ore_collapse(n: int) -> tuple:
    # the Ore relation collapses to y^(n-1) = 1, and t^k - 1 is
    # squarefree in characteristic 0: k = n - 1 distinct roots
    return n - 1, ("k[t]" if n == 2 else f"k[t]^{n - 1}")


_GROUP_QUOTIENT = ("laurent", {"y": 0, "x": 1})
_ENV_QUOTIENT = ("poly", {"y": None, "x": 1})
_ORE_QUOTIENT = ("poly", {"y": 0, "x": 1})


FAMILIES: dict[type, Family] = {
    GroupZ2Params: Family(
        GroupZ2,
        facts=lambda p: Facts(True, 2, True, (None, "k[t,t^-1,u,u^-1]")),
        quotient=lambda p: _GROUP_QUOTIENT,
    ),
    GroupZSemiZParams: Family(
        GroupZSemiZ,
        # x y x^-1 = y^-1 forces y^2 = 1 in the quotient: two roots
        facts=lambda p: Facts(True, 2, False, (2, "k[t,t^-1]^2")),
        quotient=lambda p: _GROUP_QUOTIENT,
    ),
    EnvAbelianParams: Family(
        EnvAbelian,
        facts=lambda p: Facts(True, 0, True, (None, "k[t,u]")),
        quotient=lambda p: _ENV_QUOTIENT,
    ),
    EnvNonabelianParams: Family(
        EnvNonabelian,
        facts=lambda p: Facts(True, 0, True, (1, "k[t]")),
        quotient=lambda p: _ENV_QUOTIENT,
        pi=lambda p: "infinite",
    ),
    AParams: Family(
        FamilyA,
        facts=lambda p: Facts(
            p.n == 0, 1, True,
            (None, "k[t,t^-1,u]") if p.q.is_one() else (1, "k[t,t^-1]"),
        ),
        quotient=lambda p: ("laurent", {"y": None, "x": 1}),
        fold=_fold_a,
        # a scalar of infinite order leaves no polynomial identity
        pi=lambda p: "infinite" if p.q.root_order() is None else None,
    ),
    BParams: Family(
        FamilyB,
        # x y_i = q^(m_i) y_i x with q^(m_i) != 1 and x a unit kills every y_i
        facts=lambda p: Facts(False, 1, True, (1, "k[t,t^-1]"), gldim="infinite"),
        quotient=lambda p: (
            "laurent", {**{f"y{i}": None for i in range(1, len(p.p))}, "x": 1}
        ),
        pi=lambda p: dict(zip(("pi_degree", "integral_order"), pi_degree_and_io(p))),
    ),
    CParams: Family(
        FamilyC,
        # n = 1: zero derivation, already commutative, nothing collapses
        facts=lambda p: Facts(
            p.n == 1, 1, True, (None, "k[t,t^-1,u]") if p.n == 1 else _ore_collapse(p.n)
        ),
        quotient=lambda p: _ORE_QUOTIENT,
        fold=_fold_c,
        # n = 1 is commutative, hence trivially PI: omitted like the
        # other commutative families
        pi=lambda p: "infinite" if p.n > 1 else None,
    ),
    CLiftParams: Family(
        FamilyC,
        # (1-q) x = y^(n-1) - 1 with y a unit: x is eliminated when q != 1
        facts=lambda p: Facts(
            False, 1, True, _ore_collapse(p.n) if p.q.is_one() else (1, "k[t,t^-1]")
        ),
        # a nontrivial twist forces the whole algebra to collapse, so it
        # admits no monomial quotient
        quotient=lambda p: _ORE_QUOTIENT if p.q.is_one() else None,
        fold=_fold_lift,
        pi=lambda p: "infinite" if p.q.is_one() or p.q.root_order() is None else None,
    ),
}


def family(params: FamilyParams) -> Family:
    row = FAMILIES.get(type(params))
    if row is None:
        raise ParamError(f"no builder for {type(params).__name__}")
    return row


def build(params: FamilyParams) -> HopfProvider:
    return family(params).provider(params)


def fold(params: FamilyParams) -> tuple:
    return family(params).fold(params)


def facts(params: FamilyParams) -> Facts:
    return family(params).facts(params)

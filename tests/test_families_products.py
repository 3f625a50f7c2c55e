"""Structure constants against hand-computed products, plus window
associativity for every family."""

import random

import pytest

from qhopf.elements import Lin, lin_from_pairs
from qhopf.families import build
from qhopf.params import CParams, parse_params
from qhopf.scalars import Cyclo, exponent_form


def alg_of(spec):
    return build(parse_params(spec))


def test_group_z2_is_the_lattice():
    alg = alg_of({"family": "GroupZ2"})
    assert alg.multiply_basis((2, -1), (-3, 4)) == lin_from_pairs([((-1, 3), 1)])
    assert alg.multiply_basis((1, 0), (0, 1)) == alg.multiply_basis((0, 1), (1, 0))


def test_group_semidirect_conjugation():
    # x y x^-1 = y^-1: passing x across y^c flips the sign of c
    alg = alg_of({"family": "GroupZSemiZ"})
    assert alg.multiply_basis((0, 1), (1, 0)) == lin_from_pairs([((-1, 1), 1)])
    assert alg.multiply_basis((0, 2), (1, 0)) == lin_from_pairs([((1, 2), 1)])
    assert alg.multiply_basis((2, 1), (3, -1)) == lin_from_pairs([((-1, 0), 1)])


def test_enveloping_abelian_is_polynomial():
    alg = alg_of({"family": "EnvAbelian"})
    assert alg.multiply_basis((1, 2), (2, 1)) == lin_from_pairs([((3, 3), 1)])


def test_enveloping_nonabelian_straightening():
    # [x, y] = y, ordered basis y^a x^b
    alg = alg_of({"family": "EnvNonabelian"})
    assert alg.multiply_basis((0, 1), (1, 0)) == lin_from_pairs(
        [((1, 1), 1), ((1, 0), 1)]
    )
    # x^2 y = y x^2 + 2 y x + y
    assert alg.multiply_basis((0, 2), (1, 0)) == lin_from_pairs(
        [((1, 2), 1), ((1, 1), 2), ((1, 0), 1)]
    )


def test_skew_laurent_product():
    # (y^a x^b)(y^c x^d) = q^(bc) y^(a+c) x^(b+d)
    alg = alg_of({"family": "A", "n": 2, "q": {"order": 5, "power": 1}})
    got = alg.multiply_basis((1, 2), (3, 1))
    assert got == lin_from_pairs([((4, 3), Cyclo.zeta(5, 6))], level=5)
    assert alg.multiply_basis((0, -1), (0, 1)) == lin_from_pairs(
        [((0, 0), 1)], level=5
    )


def test_carried_basis_power_carry():
    alg = alg_of(
        {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}}
    )
    assert alg.canon((0, 3)) == (2, 0)
    assert alg.canon((1, 4)) == (3, 1)
    # y2^2 * y2 carries into y1^2
    assert alg.multiply_basis((0, 2, 0), (0, 1, 0)) == lin_from_pairs(
        [((2, 0, 0), 1)], level=6
    )
    # x y1 = q^(m_1) y1 x with m_1 = 3, and zeta_6^3 = -1
    y1 = (1, 0, 0)
    x = (0, 0, 1)
    assert alg.multiply_basis(x, y1) == lin_from_pairs(
        [((1, 0, 1), -1)], level=6
    )


def test_ore_derivation_products():
    alg = alg_of({"family": "C", "n": 3})
    # x^2 y = y x^2 + 2 y^3 x - 2 y x + 3 y^5 - 4 y^3 + y
    assert alg.multiply_basis((0, 2), (1, 0)) == lin_from_pairs(
        [((1, 2), 1), ((3, 1), 2), ((1, 1), -2), ((5, 0), 3), ((3, 0), -4), ((1, 0), 1)]
    )
    # x y^-1 = y^-1 x + y^-1 - y^(n-2)
    assert alg.multiply_basis((0, 1), (-1, 0)) == lin_from_pairs(
        [((-1, 1), 1), ((-1, 0), 1), ((1, 0), -1)]
    )
    assert alg.multiply_basis((-1, 0), (1, 0)) == lin_from_pairs([((0, 0), 1)])


def test_ore_straightening_past_deep_powers_of_y():
    """x y^c needs delta(y^c), built from delta(y^(c -+ 1)); powers far
    beyond the interpreter's recursion limit must still straighten.
    At q = 1, delta is a derivation: delta(y^c) = c (y^(c+1) - y^c)."""
    alg = build(CParams(2))
    for c in (2000, -2000):
        assert alg.multiply_basis((0, 1), (c, 0)) == lin_from_pairs(
            [((c, 1), 1), ((c + 1, 0), c), ((c, 0), -c)]
        )


def test_twisted_lift_product():
    alg = alg_of({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}})
    # x y = q y x + y^3 - y
    assert alg.multiply_basis((0, 1), (1, 0)) == lin_from_pairs(
        [((1, 1), Cyclo.zeta(4)), ((3, 0), 1), ((1, 0), -1)], level=4
    )


SMALL_INSTANCES = [
    {"family": "GroupZ2"},
    {"family": "GroupZSemiZ"},
    {"family": "EnvAbelian"},
    {"family": "EnvNonabelian"},
    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    {"family": "A", "n": 0, "q": 2},
    {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}},
    {"family": "C", "n": 3},
    {"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
]


@pytest.mark.parametrize("spec", SMALL_INSTANCES, ids=lambda s: s["family"])
def test_associativity_on_window(spec):
    alg = alg_of(spec)
    box = alg.basis_box(2)
    if len(box) <= 15:
        triples = [(a, b, c) for a in box for b in box for c in box]
    else:
        rng = random.Random(11)
        triples = [tuple(rng.choice(box) for _ in range(3)) for _ in range(300)]
    for a, b, c in triples:
        left = alg.mul(alg.multiply_basis(a, b), alg.basis_el(c))
        right = alg.mul(alg.basis_el(a), alg.multiply_basis(b, c))
        assert left == right, (a, b, c)


@pytest.mark.parametrize("spec", SMALL_INSTANCES, ids=lambda s: s["family"])
def test_unit_is_neutral(spec):
    alg = alg_of(spec)
    e = alg.unit_index()
    for idx in alg.basis_box(2):
        assert alg.multiply_basis(e, idx) == alg.basis_el(idx)
        assert alg.multiply_basis(idx, e) == alg.basis_el(idx)


TAGGED_PRODUCT_SPECS = [
    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}},
    {"family": "B", "n": 7, "p": [1, 3, 5], "q": {"order": 105, "power": 1}},
]


@pytest.mark.parametrize("spec", TAGGED_PRODUCT_SPECS, ids=lambda s: s["family"])
def test_q_power_structure_constants_arrive_tagged(spec):
    """Every product structure constant of A and B is a power of q, and
    the scalar layer must recognise it as a root of unity: untagged, the
    products stay right but take the slow convolution path."""
    alg = alg_of(spec)
    box = alg.basis_box(2)
    coeffs = [
        c for i in box for j in box for _, c in alg.multiply_basis(i, j).terms.items()
    ]
    assert coeffs and all(c.unit is not None for c in coeffs)
    assert len({c.unit for c in coeffs}) > 2  # more than +-1 occurs


# the families whose first letter y or last letter x is a unit, so y^a
# or x^b is grouplike
UNIT_END_SPECS = {
    "C(3)": {"family": "C", "n": 3},
    "CLift(3, z4)": {"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
    "GroupZ2": {"family": "GroupZ2"},
    "GroupZSemiZ": {"family": "GroupZSemiZ"},
    "A(2, z3)": {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    "B(1, 1, 2, 3, z6)": {
        "family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}
    },
}


@pytest.mark.parametrize("spec", UNIT_END_SPECS.values(), ids=list(UNIT_END_SPECS))
def test_coproducts_off_lead_zero_are_the_lead_zero_rows_moved(spec):
    """The base builds Delta(e_i) for i_0 = a != 0 by moving the
    lead-zero entry Delta(e_r), r = (0, i_1, ...), when the first letter
    y is a unit, and else for a last exponent b != 0 by moving
    Delta(e_r), r = (..., 0), when the last letter x is a unit.  A second
    provider computes (y^a ox y^a) Delta(e_r) or Delta(e_r) (x^b ox x^b)
    by `t2_mul` instead: on box(3) both agree, and the form the kernels
    read reduces to the same coefficients (for a unit first letter it is
    those coefficients' own form).  Delta(1) = 1 ox 1 is the base's, and
    `_coproduct_raw` is called once per other index whose unit end
    exponents are 0, and at no other index."""
    alg, ref = alg_of(spec), alg_of(spec)
    (_, lead_unit, _), *_, (_, tail_unit, _) = alg.letters
    assert lead_unit or tail_unit
    assert alg.moves_pairs() == {
        "C": "lead", "CLift": "lead", "GroupZ2": "tail", "A": "tail", "B": "tail"
    }.get(spec["family"])
    stated, raw = [], alg._coproduct_raw

    def spied(i):
        stated.append(i)
        return raw(i)

    alg._coproduct_raw = spied
    one = ref.one_scalar()
    unit = alg.unit_index()
    box = alg.basis_box(3)
    for i in box:
        if lead_unit and i[0]:
            y_a = (i[0], *unit[1:])
            want = ref.t2_mul(
                Lin.basis((y_a, y_a), one), ref.coproduct_basis((0, *i[1:]))
            )
        elif tail_unit and i[-1]:
            x_b = (*unit[:-1], i[-1])
            want = ref.t2_mul(
                ref.coproduct_basis((*i[:-1], 0)), Lin.basis((x_b, x_b), one)
            )
        elif i == unit:
            want = Lin.basis((unit, unit), one)
        else:
            want = ref.coproduct_basis(i)
        got = alg.coproduct_basis(i)
        assert got == want, i
        assert alg.finish(alg.table(got)) == want, i
        if lead_unit:
            assert dict(got.form) == dict(exponent_form(alg.level, want.terms)), i
    assert sorted(stated) == sorted(
        i
        for i in box
        if i != unit and not (lead_unit and i[0]) and not (tail_unit and i[-1])
    )

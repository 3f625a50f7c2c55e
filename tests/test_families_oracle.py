"""Closed-form structure constants against the free-algebra rewriting
oracle.

The rewriter never sees the closed-form coefficients (it only knows the
oriented defining relations), so agreement on random products is a
genuine two-route check of every family's multiplication.  The same
rules are the presentation, so they must also vanish in the algebra."""

import random

import pytest

from conftest import VALID_CORPUS, build_instance
from qhopf.elements import Lin
from qhopf.families import build
from qhopf.families.rewriter import agree_on_product, normal_form, oracle_multiply
from qhopf.params import parse_params
from qhopf.verify import find_grouplikes

INSTANCES = [
    {"family": "GroupZ2"},
    {"family": "GroupZSemiZ"},
    {"family": "EnvAbelian"},
    {"family": "EnvNonabelian"},
    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    {"family": "A", "n": 3, "q": 2},
    {"family": "A", "n": 0, "q": -1},
    {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}},
    {"family": "B", "n": 2, "p": [1, 2, 3], "q": {"order": 12, "power": 1}},
    {"family": "C", "n": 2},
    {"family": "C", "n": 4},
    {"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
    {"family": "CLift", "n": 2, "q": 1},
]


def label(spec):
    from qhopf.params import params_str

    return params_str(parse_params(spec))


@pytest.mark.parametrize("spec", INSTANCES, ids=label)
def test_random_products_match_rewriter(spec):
    """Random products of box(3).  C, CLift and EnvNonabelian state only
    the row of lead exponent 0, and the base moves it by y^(i_0) for
    every other row; 30 more draws come from those rows."""
    alg = build(parse_params(spec))
    box = alg.basis_box(3)
    rng = random.Random(2024)
    pairs = [(rng.choice(box), rng.choice(box)) for _ in range(60)]
    moved = alg.moves_lead()
    assert moved == (spec["family"] in ("C", "CLift", "EnvNonabelian"))
    if moved:
        rows = [i for i in box if i[0]]
        pairs += [(rng.choice(rows), rng.choice(box)) for _ in range(30)]
    for i, j in pairs:
        assert agree_on_product(alg, i, j), (i, j)


@pytest.mark.parametrize("spec", INSTANCES, ids=label)
def test_generator_words_normalize_to_their_index(spec):
    """Generator words and the words of every window-box index are
    already normal forms of the rules.  Window 3 reaches past B's cap
    p_2 - 1 = 2 on y2, so an uncapped letter would show."""
    alg = build(parse_params(spec))
    one = alg.one_scalar()
    for name, idx in alg.generators():
        got = oracle_multiply(alg, alg.unit_index(), idx)
        assert got == {alg.index_to_word(idx): one}, name
    rules = alg.oracle_rules()
    for idx in alg.basis_box(3):
        word = alg.index_to_word(idx)
        assert normal_form([(word, one)], rules, alg.level) == {word: one}, idx


def test_rewriting_is_confluent_on_a_hard_case():
    """Same product pushed through the rules from two different word
    orders must land on one normal form."""
    alg = build(parse_params({"family": "C", "n": 3}))
    rules = alg.oracle_rules()
    word_a = alg.index_to_word((0, 2)) + alg.index_to_word((1, 0))
    one = alg.one_scalar()
    direct = normal_form([(word_a, one)], rules, alg.level)
    # associate differently: x * (x y)
    inner = normal_form([(("x", "y"), one)], rules, alg.level)
    staged = normal_form(
        [(("x",) + w, c) for w, c in inner.items()], rules, alg.level
    )
    assert direct == staged


@pytest.mark.parametrize("name", VALID_CORPUS)
def test_presentation_relations_hold_in_the_algebra(name):
    alg = build_instance(name)
    pres = alg.presentation()
    index_of = dict(alg.generators())
    assert pres.gens == tuple(index_of)
    assert pres.relations
    for rel in pres.relations:
        total, at_counit = Lin(), alg.scalar(0)
        for coeff, word in rel:
            assert set(word) <= set(index_of), word
            term, eps = alg.one_el(), coeff
            for name in word:
                term = alg.mul(term, alg.basis_el(index_of[name]))
                eps = eps * pres.counit[name]
            total = total + term.scale(coeff)
            at_counit = at_counit + eps
        assert total.is_zero(), rel
        assert at_counit.is_zero(), rel


@pytest.mark.parametrize("name", VALID_CORPUS)
def test_unit_letters_span_the_grouplikes(name):
    """The monomials in the unit letters are exactly the grouplike ones,
    which checks each letter's unit flag against the coproduct: no unit
    monomial fails to be grouplike, and no other box monomial is one."""
    alg = build_instance(name)
    units = alg.unit_monomials(2)
    assert find_grouplikes(alg, 2) == units
    one = alg.one_scalar()
    grouplike = [
        m
        for m in alg.basis_box(2)
        if alg.coproduct_basis(m) == Lin.basis((m, m), one)
    ]
    assert grouplike == units

"""Sparse linear-combination container."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from qhopf.elements import Lin, acc, flip2, lin_from_pairs
from qhopf.scalars import Cyclo


def test_acc_drops_exact_zeros():
    table: dict = {}
    acc(table, "a", Cyclo.one(1))
    acc(table, "a", -Cyclo.one(1))
    assert table == {}
    acc(table, "b", Cyclo.zero(1))
    assert table == {}


def test_zero_coefficient_basis_is_empty():
    assert Lin.basis((0, 0), Cyclo.zero(3)).is_zero()
    e = Lin.basis((0, 0), Cyclo.one(3))
    assert (e - e).is_zero()
    assert len(e) == 1


def test_add_sub_scale():
    a = lin_from_pairs([((1,), 2), ((2,), 1)])
    b = lin_from_pairs([((1,), -2), ((3,), 5)])
    assert a + b == lin_from_pairs([((2,), 1), ((3,), 5)])
    assert a - a == Lin()
    assert (-a) + a == Lin()
    assert a.scale(Cyclo.from_fraction(Fraction(1, 2))) == lin_from_pairs(
        [((1,), 1), ((2,), Fraction(1, 2))]
    )
    assert a.scale(Cyclo.zero(1)).is_zero()


def test_map_keys_merges_collisions():
    a = lin_from_pairs([((0,), 1), ((1,), 2)])
    merged = a.map_keys(lambda k: ("all",))
    assert merged == lin_from_pairs([(("all",), 3)])
    cancel = lin_from_pairs([((0,), 1), ((1,), -1)]).map_keys(lambda k: ("all",))
    assert cancel.is_zero()


def test_flip2():
    t = lin_from_pairs([(("a", "b"), 2), (("c", "c"), 1)])
    assert flip2(t) == lin_from_pairs([(("b", "a"), 2), (("c", "c"), 1)])
    assert flip2(flip2(t)) == t


def test_describe_is_deterministic():
    t = lin_from_pairs([((2, 0), -1), ((0, 1), 3), ((1, 1), 1)])
    assert t.describe() == "3*(0, 1) + (1, 1) - (2, 0)"
    assert Lin().describe() == "0"


def test_support_and_coeff():
    a = lin_from_pairs([((3,), 4), ((1,), 1)])
    assert a.support() == [(1,), (3,)]
    assert a.terms[(3,)] == Cyclo.from_fraction(4)
    assert (9,) not in a.terms


pairs_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(-4, 4)), max_size=8
).map(lambda items: lin_from_pairs([((k,), c) for k, c in items]))


@given(pairs_strategy, pairs_strategy, pairs_strategy)
def test_vector_space_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + Lin() == a
    assert (a - b) + b == a

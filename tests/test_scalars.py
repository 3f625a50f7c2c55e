"""Exact cyclotomic arithmetic, cross-checked against sympy's polynomial
reduction and the standard identities."""

import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given
from hypothesis import strategies as st

from qhopf.scalars import (
    Cyclo,
    ScalarError,
    _galois_chain,
    common_level,
    cyclotomic_polynomial,
    euler_phi,
    exponent_form,
    reduce_exponents,
    reduce_forms,
    zero_map,
)


def test_cyclotomic_frozen_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    phi105 = cyclotomic_polynomial(105)
    assert len(phi105) == euler_phi(105) + 1 == 49
    # smallest index whose coefficient leaves {-1, 0, 1}
    assert phi105[7] == -2


@pytest.mark.parametrize("n", list(range(1, 31)) + [105])
def test_cyclotomic_against_sympy(n):
    x = sympy.Symbol("x")
    coeffs = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
    assert cyclotomic_polynomial(n) == tuple(int(c) for c in reversed(coeffs))


def test_euler_phi_against_sympy():
    for n in range(1, 61):
        assert euler_phi(n) == int(sympy.totient(n))


def test_order_of_unity():
    assert Cyclo.one(12).order_of_unity() == 1
    assert (-Cyclo.one(1)).order_of_unity() == 2
    assert Cyclo.zeta(12).order_of_unity() == 12
    assert Cyclo.zeta(12, 8).order_of_unity() == 3
    assert (Cyclo.zeta(12) + 1).order_of_unity() is None
    assert Cyclo.from_fraction(Fraction(2), 5).order_of_unity() is None


def test_zeta_power_arithmetic():
    z = Cyclo.zeta(105)
    assert Cyclo.zeta(105, 3) * Cyclo.zeta(105, 4) == Cyclo.zeta(105, 7)
    assert z ** 105 == 1
    assert z ** -3 == z.inv() ** 3


def test_rational_coercion():
    z = Cyclo.zeta(5)
    assert z * 2 - z == z
    assert z * Fraction(1, 3) * 3 == z
    half = Cyclo.from_fraction(Fraction(1, 2), 5)
    assert half + half == 1
    assert half.as_fraction() == Fraction(1, 2)
    assert not half.is_zero() and half.is_rational()


def test_cross_level_requires_explicit_lift():
    a, b = Cyclo.zeta(3), Cyclo.zeta(4)
    with pytest.raises(ScalarError):
        a * b
    with pytest.raises(ScalarError):
        a + b
    assert a.lift(12) * b.lift(12) == Cyclo.zeta(12, 7)
    la, lb = common_level(a, b)
    assert la.level == lb.level == 12
    assert la * lb == Cyclo.zeta(12, 7)


def test_product_matches_sympy_reduction_oracle():
    """Random products at level 15, reduced independently by sympy."""
    rng = random.Random(7)
    x = sympy.Symbol("x")
    level = 15
    phi = sympy.Poly(sympy.cyclotomic_poly(level, x), x)
    deg = euler_phi(level)
    for _ in range(12):
        u = [rng.randint(-5, 5) for _ in range(deg)]
        v = [rng.randint(-5, 5) for _ in range(deg)]
        mine = Cyclo.from_coeffs(level, u) * Cyclo.from_coeffs(level, v)
        rem = (sympy.Poly(list(reversed(u)), x) * sympy.Poly(list(reversed(v)), x)) % phi
        want = [Fraction(0)] * deg
        for e, c in enumerate(reversed(rem.all_coeffs())):
            want[e] = Fraction(int(c.p), int(c.q))
        assert mine.coeffs() == tuple(want)


coeff12 = st.lists(st.integers(-9, 9), min_size=4, max_size=4)
coeff6 = st.lists(st.integers(-9, 9), min_size=2, max_size=2)


@given(coeff12, coeff12, coeff12)
def test_ring_axioms_level_12(u, v, w):
    a, b, c = (Cyclo.from_coeffs(12, t) for t in (u, v, w))
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a - a == Cyclo.zero(12)


@given(coeff12)
def test_inverse_roundtrip_level_12(u):
    a = Cyclo.from_coeffs(12, u)
    assume(not a.is_zero())
    assert (a * a.inv()).is_one()
    assert a / a == 1


@given(coeff6, coeff6)
def test_lift_is_a_ring_embedding(u, v):
    a, b = Cyclo.from_coeffs(6, u), Cyclo.from_coeffs(6, v)
    assert (a + b).lift(12) == a.lift(12) + b.lift(12)
    assert (a * b).lift(12) == a.lift(12) * b.lift(12)
    assert (a == b) == (a.lift(12) == b.lift(12))


# -- roots of unity: the unit tag and its fast paths ----------------------

UNIT_LEVELS = (4, 12, 15, 105)


def _sympy_reduce(level, poly):
    """Coefficients of poly mod Phi_level, computed by sympy."""
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(level, x), x)
    rem = sympy.Poly(poly, x) % phi
    want = [Fraction(0)] * euler_phi(level)
    for e, c in enumerate(reversed(rem.all_coeffs())):
        want[e] = Fraction(int(c.p), int(c.q))
    return tuple(want)


def _sympy_unit(level, sign, k):
    x = sympy.Symbol("x")
    return _sympy_reduce(level, sign * x**k)


def _sympy_product(level, u, v):
    x = sympy.Symbol("x")
    pu = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(u))
    pv = sum(sympy.Rational(c.numerator, c.denominator) * x**i for i, c in enumerate(v))
    return _sympy_reduce(level, sympy.expand(pu * pv))


def _signed_zeta(level, sign, k):
    z = Cyclo.zeta(level, k)
    return z if sign == 1 else -z


@pytest.mark.parametrize("level", UNIT_LEVELS)
def test_unit_products_match_sympy_reduction_oracle(level):
    """unit * unit, unit * dense and dense * unit, reduced independently."""
    rng = random.Random(level)
    deg = euler_phi(level)
    for _ in range(6):
        s1, k1 = rng.choice((1, -1)), rng.randrange(-level, 2 * level)
        s2, k2 = rng.choice((1, -1)), rng.randrange(-level, 2 * level)
        a, b = _signed_zeta(level, s1, k1), _signed_zeta(level, s2, k2)
        assert a.coeffs() == _sympy_unit(level, s1, k1 % level)
        assert a.unit is not None and b.unit is not None
        prod = a * b
        assert prod.coeffs() == _sympy_unit(level, s1 * s2, (k1 + k2) % level)
        assert prod.unit is not None

        dense = Cyclo.from_coeffs(
            level, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(deg)]
        )
        assert dense.unit is None and not dense.is_zero()
        want = _sympy_product(level, a.coeffs(), dense.coeffs())
        assert (a * dense).coeffs() == want
        assert (dense * a).coeffs() == want
        assert (a * dense).unit is None


@pytest.mark.parametrize("level", UNIT_LEVELS)
def test_units_reached_any_way_carry_the_tag(level):
    """Negation, sums, powers and inverses all land on tagged values that
    equal the freshly built vector, tag included."""
    rng = random.Random(100 + level)
    for _ in range(8):
        a, b = rng.randrange(level), rng.randrange(level)
        za, zb = Cyclo.zeta(level, a), Cyclo.zeta(level, b)
        via_sum = (za + zb) - zb
        negated = -za
        powered = Cyclo.zeta(level) ** a
        inverse = za.inv()
        assert via_sum == za and via_sum.unit == za.unit
        assert negated.coeffs() == _sympy_unit(level, -1, a)
        assert powered == za and powered.unit == za.unit
        assert inverse.coeffs() == _sympy_unit(level, 1, (level - a) % level)
        assert (inverse * za).is_one()
        assert za ** -3 == Cyclo.zeta(level, -3 * a)
        for v in (via_sum, negated, powered, inverse, -negated * zb):
            fresh = Cyclo(level, v.num, v.den)
            assert fresh == v and hash(fresh) == hash(v) and fresh.unit == v.unit


def test_unit_tag_is_canonical():
    built = -Cyclo.zeta(12, 5)
    from_vector = Cyclo(12, built.num)
    assert built == from_vector
    assert built.unit == from_vector.unit == 11  # -zeta_12^5 = zeta_12^11
    assert Cyclo.one(12).unit == 0 and (-Cyclo.one(12)).unit == 6
    # odd level: omega = -zeta_15^8 generates the 30 roots of unity
    assert Cyclo.zeta(15).unit == 2 and (-Cyclo.zeta(15, 8)).unit == 1
    assert len({Cyclo.zeta(15, k).unit for k in range(15)}) == 15
    # not roots of unity: a scaled root, a sum, a non-integral value
    assert (Cyclo.zeta(12) * 3).unit is None
    assert (Cyclo.zeta(12) + 1).unit is None
    assert Cyclo.from_fraction(Fraction(1, 2), 12).unit is None
    # plain Q carries no tag
    assert Cyclo.one(1).unit is None and Cyclo.zeta(2).unit is None


def test_level_one_fast_path_normalises():
    a = Cyclo.from_fraction(Fraction(6, 4))
    b = Cyclo.from_fraction(Fraction(-2, 3))
    assert a * b == Cyclo.from_fraction(-1)
    assert (a * b).den == 1
    assert a + b == Cyclo.from_fraction(Fraction(5, 6))
    assert a + (-a) == Cyclo.zero() and (a - a).den == 1
    assert a * 0 == 0 and (a * 0).den == 1


def test_integral_sums_at_level_12():
    """Sums of two denominator-1 values skip renormalising but still
    land on the canonical zero and on tagged roots of unity."""
    z = Cyclo.zeta(12)
    a = Cyclo(12, [1, 2, 0, 0])
    cancelled = a + Cyclo(12, [-1, -2, 0, 0])
    assert cancelled == Cyclo.zero(12) and hash(cancelled) == hash(Cyclo.zero(12))
    assert cancelled.den == 1 and cancelled.unit is None
    landed = (z + 1) + Cyclo.from_fraction(-1, 12)
    assert landed == z and landed.unit == z.unit
    # zeta^3 - zeta = zeta^5, since Phi_12 = x^4 - x^2 + 1
    assert (Cyclo.zeta(12, 3) + -z).unit == Cyclo.zeta(12, 5).unit


@pytest.mark.parametrize("level", (1, 2, 4, 12, 105))
def test_zero_and_one_are_shared(level):
    deg = euler_phi(level)
    for make, vec in ((Cyclo.zero, [0] * deg), (Cyclo.one, [1] + [0] * (deg - 1))):
        first = make(level)
        assert make(level) is first
        fresh = Cyclo(level, vec)
        assert first == fresh and hash(first) == hash(fresh)
        assert first.unit == fresh.unit


def _pairs(level, c):
    """The (exponent, rational) pairs of one scalar."""
    ((_, pairs),) = exponent_form(level, {"c": c})
    return pairs


def _add_product(slot, p, q):
    for e, r in p:
        for f, s in q:
            slot[e + f] = slot.get(e + f, 0) + r * s


@pytest.mark.parametrize("level", (1, 2, 4, 12, 105))
def test_accumulation_form_sums_like_cyclo(level):
    """Products summed in the exponent form reduce to the Cyclo sum;
    a cancelled entry reduces to nothing."""
    rng = random.Random(level)
    deg = euler_phi(level)
    values = [
        Cyclo(level, [rng.randint(-4, 4) for _ in range(deg)], rng.choice([1, 1, 2, 6]))
        for _ in range(12)
    ] + [Cyclo.zeta(level, 5), -Cyclo.zeta(level, 3)]
    table: dict = {"sum": {}, "gone": {}, "gone_unit": {}}
    want = Cyclo.zero(level)
    for a, b in zip(values, values[1:]):
        _add_product(table["sum"], _pairs(level, a), _pairs(level, b))
        want = want + a * b
    one = _pairs(level, Cyclo.one(level))
    for key, v in (("gone", values[0]), ("gone_unit", values[-1])):
        _add_product(table[key], _pairs(level, v), one)
        _add_product(table[key], _pairs(level, -v), one)
    for v in values:
        assert reduce_exponents(level, {"a": dict(_pairs(level, v))}) == (
            {"a": v} if v else {}
        )
    out = reduce_exponents(level, table)
    assert list(out) == (["sum"] if want else [])
    for c in out.values():
        fresh = Cyclo(level, list(c.num), c.den)
        assert c == want == fresh and hash(c) == hash(fresh) and c.unit == fresh.unit
    if deg == 1:
        ((_, three),) = _pairs(level, Cyclo.from_fraction(3, level))
        assert type(three) is int and three == 3
        assert _pairs(level, Cyclo.from_fraction(Fraction(3, 2), level)) == (
            (0, Fraction(3, 2)),
        )
    else:
        assert _pairs(level, values[-1]) == ((values[-1].unit, 1),)


def test_reduce_forms_keeps_folded_terms():
    """At level 3 (N = 6) a key keeps its own terms, folded mod 6 with
    zeros dropped, beside its reduced value; 1 + omega^2 + omega^4, the
    cube roots of unity, vanishes and is dropped."""
    table = {"a": {0: 1, 6: 1, 3: 0, 8: 2}, "gone": {0: 1, 2: 1, 4: 1}}
    ((key, value, pairs),) = reduce_forms(3, table)
    assert key == "a" and pairs == ((0, 2), (2, 2))
    assert value == 2 + 2 * Cyclo.zeta(3)  # omega = -zeta^2, so omega^2 = zeta
    assert {"a": value} == reduce_exponents(3, {"a": dict(pairs)})


@pytest.mark.parametrize("level, changed", ((12, 2), (105, 41)))
def test_cyclotomic_relation_vanishes_only_when_reduced(level, changed):
    """The terms a_k zeta^k of Phi_level(zeta) = 0 sit at distinct
    exponents of Q[C_N], so nothing cancels before the reduction; after
    it the key is gone.  With one term changed by a non-integer rational,
    that key is the one survivor, equal to the Cyclo sum."""
    coeffs = cyclotomic_polynomial(level)
    if level == 105:
        assert coeffs[7] == coeffs[41] == -2
    table: dict = {"phi": {}, "scaled": {}, "changed": {}}
    want = Cyclo.zero(level)
    for k, a in enumerate(coeffs):
        if not a:
            continue
        e = Cyclo.zeta(level, k).unit
        b = a + Fraction(1, 3) if k == changed else a
        for key, r in (("phi", a), ("scaled", a * Fraction(5, 7)), ("changed", b)):
            table[key][e] = table[key].get(e, 0) + r
        want = want + Cyclo.zeta(level, k) * Cyclo.from_fraction(b, level)
    terms = sum(1 for a in coeffs if a)
    assert all(len(slot) == terms for slot in table.values())
    assert reduce_exponents(level, table) == {"changed": want}
    assert want == Cyclo.zeta(level, changed) * Cyclo.from_fraction(Fraction(1, 3), level)


@pytest.mark.parametrize("level", (1, 12, 105))
def test_pickle_round_trip(level):
    deg = euler_phi(level)
    dense = Cyclo(level, [(3 * i + 1) % 7 - 3 for i in range(deg)], 5)
    values = [dense, Cyclo.zeta(level, 2), -Cyclo.zeta(level, 2), -Cyclo.one(level)]
    for v in values:
        back = pickle.loads(pickle.dumps(v))
        assert back == v and hash(back) == hash(v) and back.unit == v.unit


# -- inverses of dense non-units, and lifts, against sympy ----------------

def _from_terms(level, terms):
    """sum of c * zeta_level^e over (c, e) pairs, exponents unreduced."""
    out = Cyclo.zero(level)
    for c, e in terms:
        out = out + Cyclo.zeta(level, e) * Fraction(c)
    return out


def _sympy_poly(terms):
    x = sympy.Symbol("x")
    return sum(sympy.Rational(str(Fraction(c))) * x**e for c, e in terms)


def _inverse_cases(level):
    rng = random.Random(level)
    dense = [(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 5))), e) for e in range(8)]
    return [
        [(3, 2)],  # c * zeta^k with c not a sign
        [(Fraction(-2, 7), level - 1)],
        [(1, 0), (-1, 2)],  # 1 - zeta^k, as the corpus inverts
        [(1, 0), (-1, 4)],
        [(2, 0), (1, 1), (1, 2), (1, 3)],
        [(Fraction(1, 3), 0), (Fraction(2, 3), 1)],  # a denominator
        dense,
    ]


@pytest.mark.parametrize("level", (5, 6, 15, 105))
def test_dense_inverses_match_sympy(level):
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(level, x)
    for terms in _inverse_cases(level):
        a = _from_terms(level, terms)
        assert a.unit is None and not a.is_rational()
        inv = a.inv()
        want = _sympy_reduce(level, sympy.invert(_sympy_poly(terms), phi, x))
        assert inv.coeffs() == want, terms
        assert (a * inv).is_one()
        assert inv.inv() == a


def _inverse_by_all_conjugates(a):
    """a^-1 as the product of all the other conjugates of a over the
    norm: the second route to the Galois chain of `Cyclo.inv`."""
    level, coeffs = a.level, a.coeffs()
    out = Cyclo.one(level)
    for k in range(2, level):
        if math.gcd(k, level) == 1:
            out = out * _from_terms(level, [(c, k * i) for i, c in enumerate(coeffs)])
    norm = a * out
    assert norm.is_rational() and not norm.is_zero()
    return out / norm


@pytest.mark.parametrize("level", (7, 12, 20, 60, 84, 105))
def test_chain_inverses_match_the_all_conjugates_product(level):
    # each step's m is the index of the subgroup before it in the one
    # after, so the m's multiply to the group order phi(level)
    assert math.prod(m for _, m in _galois_chain(level)) == euler_phi(level)
    for terms in _inverse_cases(level):
        a = _from_terms(level, terms)
        assert a.inv() == _inverse_by_all_conjugates(a), terms


def test_galois_chain_at_level_105():
    # 2 has order 12 mod 105; 11 and 13 each square into <2>, then <2, 11>
    assert _galois_chain(105) == ((2, 12), (11, 2), (13, 2))


def test_zeta_minus_one_at_level_105():
    # 1 - zeta_105^k is a unit of Z[zeta_105] for k prime to 105, but no
    # root of unity; for zeta^k of prime order p, p / (1 - zeta^k) is
    # integral and 1 / (1 - zeta^k) is not, so the denominator is p
    for k, den in ((1, 1), (2, 1), (15, 7), (21, 5), (35, 3)):
        a = Cyclo.one(105) - Cyclo.zeta(105, k)
        assert a.unit is None
        inv = a.inv()
        assert (a * inv).is_one()
        assert inv.den == den


@pytest.mark.parametrize("low, high", [(3, 105), (5, 15)])
def test_lift_matches_sympy(low, high):
    rng = random.Random(low * high)
    step = high // low
    for _ in range(4):
        coeffs = [
            Fraction(rng.randint(-6, 6), rng.choice((1, 3, 4))) for _ in range(euler_phi(low))
        ]
        a = Cyclo.from_coeffs(low, coeffs)
        terms = [(c, step * i) for i, c in enumerate(coeffs)]
        assert a.lift(high).coeffs() == _sympy_reduce(high, _sympy_poly(terms))
        assert a.lift(high) == _from_terms(high, terms)
    z = Cyclo.zeta(low)
    assert z.lift(high) == Cyclo.zeta(high, step)
    assert z.lift(high).unit is not None


# -- the zero-only map --------------------------------------------------

ZERO_MAP_LEVELS = (3, 4, 12, 105)


def _zeta_pairs(level, coeffs, shift=0):
    """sum_k coeffs[k] zeta^k times omega^shift, as (e, r) pairs of Q[C_N]."""
    return [
        (Cyclo.zeta(level, k).unit + shift, a) for k, a in enumerate(coeffs) if a
    ]


@pytest.mark.parametrize("level", ZERO_MAP_LEVELS)
def test_zero_map_is_a_checked_ring_map(level):
    zmap = zero_map(level)
    n = len(zmap.powers) // 2
    assert n == (level if level % 2 == 0 else 2 * level)
    z = zmap.cap + 2
    assert zmap.modulus == sum(c * z**t for t, c in enumerate(cyclotomic_polynomial(level)))
    assert zmap.modulus > zmap.cap ** euler_phi(level)
    # zeta -> z, omega^N -> 1, and the table holds omega^e for e in [0, 2N)
    assert zmap.powers[Cyclo.zeta(level).unit] == z
    assert zmap.powers[n] == 1
    assert zero_map(1).powers == zero_map(2).powers == (1, -1, 1, -1)


@pytest.mark.parametrize("level", ZERO_MAP_LEVELS)
def test_zeta_minus_z_maps_to_zero_and_is_not_called_zero(level):
    zmap = zero_map(level)
    z = zmap.cap + 2
    pairs = [(Cyclo.zeta(level).unit, 1), (0, -z)]
    h, l1 = zmap.residue(pairs)
    assert (h, l1) == (0, z + 1)
    assert reduce_exponents(level, {0: dict(pairs)})  # zeta - z is not zero
    assert not zmap.proves_zero([h], l1)


@pytest.mark.parametrize("level", ZERO_MAP_LEVELS)
def test_a_vanishing_sum_at_the_cap_is_proved_zero(level):
    """k Phi_level(zeta) plus m (1 + omega^(N/2)): zero in Q(zeta), not
    in Q[C_N], with L1 exactly the cap; two more and the pass declines."""
    zmap = zero_map(level)
    n = len(zmap.powers) // 2
    coeffs = cyclotomic_polynomial(level)
    weight = sum(abs(a) for a in coeffs)
    k = 1 if weight % 2 == 0 else 2
    m = (zmap.cap - k * weight) // 2
    for extra, proved in ((0, True), (1, False)):
        pairs = _zeta_pairs(level, [k * a for a in coeffs], shift=3)
        pairs += [(5, m + extra), (5 + n // 2, m + extra)]
        table: dict = {}
        for e, r in pairs:
            table[e % n] = table.get(e % n, 0) + r
        assert not reduce_exponents(level, {0: table})
        h, l1 = zmap.residue(pairs)
        assert h == 0 and l1 == zmap.cap + 2 * extra
        assert zmap.proves_zero([h], l1) is proved


@pytest.mark.parametrize("level", ZERO_MAP_LEVELS)
def test_zero_map_agrees_with_reduction_and_sympy(level):
    """Random integer sums, half of them made to vanish by adding a
    rotated multiple of Phi_level(zeta) and pairs omega^e, -omega^(e+N/2)
    to the negation of a rewritten copy: the map proves zero exactly when
    `reduce_exponents` and sympy's remainder mod Phi_level read zero, and
    h of a sum is h of its reduced value."""
    zmap = zero_map(level)
    n = len(zmap.powers) // 2
    p, z = zmap.modulus, zmap.cap + 2
    x = sympy.Symbol("x")
    phi = sympy.Poly(sympy.cyclotomic_poly(level, x), x)
    rng = random.Random(level)
    coeffs = cyclotomic_polynomial(level)
    for trial in range(12):
        pairs = [(rng.randrange(n), rng.randint(-4, 4)) for _ in range(rng.randint(1, 6))]
        if trial % 2:
            # minus the same sum with each omega^e written as -omega^(e+N/2)
            pairs += [((e + n // 2) % n, r) for e, r in pairs]
            c = rng.randint(-2, 2)
            pairs += _zeta_pairs(level, [c * a for a in coeffs], shift=rng.randrange(n))
        table: dict = {}
        for e, r in pairs:
            table[e % n] = table.get(e % n, 0) + r
        reduced = reduce_exponents(level, {0: table})
        poly = 0
        for e, r in pairs:
            k = e if level % 2 == 0 else e * (level + 1) // 2
            poly += r * (-1) ** (e * (level % 2)) * x ** (k % level)
        oracle = sympy.Poly(poly, x) % phi
        h, l1 = zmap.residue(pairs)
        assert l1 <= zmap.cap
        assert zmap.proves_zero([h], l1) is (not reduced) is oracle.is_zero
        if trial % 2:
            assert not reduced
        if reduced:
            value = reduced[0]
            assert value.den == 1
            assert h == sum(c * z**t for t, c in enumerate(value.num)) % p


def test_zero_map_declines_non_integer_rationals():
    zmap = zero_map(12)
    assert zmap.residue([(0, Fraction(1, 2))]) is None
    assert zmap.residue([(0, Fraction(4, 2))]) == (2, 2)
    assert not zmap.proves_zero([Fraction(0)], 0)
    # levels 1 and 2 map into Q exactly: no bound, and Fractions are values
    assert zero_map(1).residue([(1, Fraction(1, 2)), (0, 3)]) == (Fraction(5, 2), Fraction(7, 2))
    assert zero_map(1).proves_zero([0, Fraction(0)], 10**100)
    assert not zero_map(2).proves_zero([Fraction(1, 3)], 0)

"""Gaussian binomials: Pascal identity, sympy product-formula oracle,
skew expansion oracle, and the middle-coefficient vanishing criterion."""

import math

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from qhopf.elements import acc
from qhopf.qcombinat import (
    gauss_binomial,
    q_factorial,
    q_integer,
    qp_add,
    qp_eval,
    qp_mul,
    skew_binomial_forms,
    vanishing_criterion,
)
from qhopf.scalars import Cyclo, reduce_exponents


def skew_values(a, q):
    """(a choose r)_q for r = 0..a as `skew_binomial_forms` gives them,
    after checking that each form reduces to its value."""
    forms = skew_binomial_forms(a, q)
    values = {r: c for r, c, _ in forms}
    assert reduce_exponents(q.level, {r: dict(p) for r, _, p in forms}) == values
    return [values.get(r, Cyclo.zero(q.level)) for r in range(a + 1)]


def test_frozen_small_table():
    assert gauss_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert gauss_binomial(3, 1) == (1, 1, 1)
    assert gauss_binomial(5, 0) == (1,)
    assert gauss_binomial(5, 5) == (1,)
    assert gauss_binomial(2, 3) == (0,)
    assert q_integer(4) == (1, 1, 1, 1)
    assert q_factorial(3) == qp_mul((1,), qp_mul((1, 1), (1, 1, 1)))


@pytest.mark.parametrize("a", range(1, 11))
def test_q_pascal_identity(a):
    for r in range(1, a + 1):
        shift = (0,) * r + (1,)
        right = qp_add(
            gauss_binomial(a - 1, r - 1), qp_mul(shift, gauss_binomial(a - 1, r))
        )
        assert gauss_binomial(a, r) == right


@pytest.mark.parametrize("a", range(9))
def test_matches_sympy_product_formula(a):
    q = sympy.Symbol("q")
    for r in range(a + 1):
        expr = sympy.prod(
            [(1 - q ** (a - r + i)) / (1 - q ** i) for i in range(1, r + 1)]
        )
        coeffs = sympy.Poly(sympy.cancel(expr), q).all_coeffs()
        assert gauss_binomial(a, r) == tuple(int(c) for c in reversed(coeffs))


@given(st.integers(0, 12))
def test_specializes_to_binomials_at_one(a):
    one = Cyclo.one(1)
    for r in range(a + 1):
        assert qp_eval(gauss_binomial(a, r), one) == math.comb(a, r)


def test_symmetry():
    for a in range(11):
        for r in range(a + 1):
            assert gauss_binomial(a, r) == gauss_binomial(a, a - r)


def test_skew_coefficients_at_primitive_root():
    z = Cyclo.zeta(3)
    one, zero = Cyclo.one(3), Cyclo.zero(3)
    assert skew_values(3, z) == [one, zero, zero, one]


@pytest.mark.parametrize("level,a", [(5, 4), (6, 6), (12, 5), (1, 7)])
def test_skew_expansion_oracle(level, a):
    """Expand (u+v)^a with vu = q uv by direct normal ordering; the
    coefficient of u^(a-r) v^r must match the evaluated binomial."""
    q = Cyclo.zeta(level) if level > 1 else Cyclo.one(1)
    state = {(0, 0): Cyclo.one(level)}
    for _ in range(a):
        nxt: dict = {}
        for (i, j), c in state.items():
            acc(nxt, (i + 1, j), c * q ** j)
            acc(nxt, (i, j + 1), c)
        state = nxt
    coeffs = skew_values(a, q)
    for r in range(a + 1):
        assert state.get((a - r, r), Cyclo.zero(level)) == coeffs[r]


@pytest.mark.parametrize("a", range(2, 13))
def test_vanishing_criterion_sweep(a):
    """The middle coefficients all vanish exactly at primitive a-th roots.

    vanishing_criterion itself recomputes both routes and raises if they
    disagree, so this sweep exercises the dual check at every point."""
    for b in range(1, 13):
        for j in range(b):
            xi = Cyclo.zeta(b, j)
            assert vanishing_criterion(a, xi) == (xi.order_of_unity() == a)


def test_vanishing_criterion_rejects_trivial_exponent():
    with pytest.raises(ValueError):
        vanishing_criterion(1, Cyclo.one(1))

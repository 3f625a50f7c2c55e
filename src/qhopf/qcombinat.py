"""q-integers, Gaussian binomials, and the skew binomial theorem.

Polynomials in q live in Z[q] here (dense integer tuples, constant
term first); evaluation lands in a cyclotomic field.  The Gaussian
binomial (a choose r)_q is built by the product formula, dividing
exactly by the monic [i]_q at every step (`scalars.divexact`); the
q-Pascal recurrence is an independent cross-check in the tests only.

The skew binomial theorem fixes the variable order once and for all:
with vu = q uv,

    (u + v)^a  =  sum_r  (a choose r)_q  u^(a-r) v^r.

Every coproduct power Delta(y_i)^k of the A and B families goes through
`skew_binomial_forms`, from the one statement of their Hopf structure
(`families.base.SkewPrimitiveProvider`), so the convention cannot
drift between them.  It hands the coefficients out in the exponent form of
`qhopf.scalars`: at a ratio omega^u, a root of unity,

    (a choose r)_(omega^u)  =  sum_j  g_j omega^(u j)    in Q[C_N],

with g_j the coefficients of the Gauss polynomial.  The kernels of
`qhopf.families.base` multiply and add these forms, and the identities
of Z[q] (q-Vandermonde, the skew binomial theorem itself) hold term by
term in Q[C_N], since q -> omega^u is a ring map.  So the two sides of
an axiom residual mostly cancel there, before any reduction modulo the
cyclotomic polynomial.
"""

from __future__ import annotations

from functools import lru_cache

from qhopf.scalars import Cyclo, divexact, exponent_form, reduce_forms

QPoly = tuple[int, ...]


def qp_trim(p) -> QPoly:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def qp_add(a: QPoly, b: QPoly) -> QPoly:
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return qp_trim(x + y for x, y in zip(a, b))


def qp_mul(a: QPoly, b: QPoly) -> QPoly:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return qp_trim(out)


def qp_eval(p: QPoly, x: Cyclo) -> Cyclo:
    out = Cyclo.zero(x.level)
    for c in reversed(p):
        out = out * x + c
    return out


def q_integer(n: int) -> QPoly:
    """[n]_q = 1 + q + ... + q^(n-1) for n >= 0."""
    if n < 0:
        raise ValueError(f"q-integer needs n >= 0, got {n}")
    if n == 0:
        return (0,)
    return tuple([1] * n)


def q_factorial(n: int) -> QPoly:
    out: QPoly = (1,)
    for i in range(1, n + 1):
        out = qp_mul(out, q_integer(i))
    return out


@lru_cache(maxsize=None)
def gauss_binomial(a: int, r: int) -> QPoly:
    """(a choose r)_q in Z[q], by the product formula with exact division.

    Builds (a-r+i choose i)_q for i = 1..r, so every intermediate
    division is exact in Z[q].
    """
    if a < 0:
        raise ValueError(f"gauss_binomial needs a >= 0, got a={a}")
    if r < 0 or r > a:
        return (0,)
    if r == 0 or r == a:
        return (1,)
    out: QPoly = (1,)
    for i in range(1, r + 1):
        out = divexact(qp_mul(out, q_integer(a - r + i)), q_integer(i))
    return out


def skew_binomial_forms(a: int, ratio: Cyclo) -> list[tuple]:
    """(r, value, pairs) for each (a choose r)_ratio, 0 <= r <= a, that
    does not vanish; these are the coefficients of u^(a-r) v^r in
    (u+v)^a when vu = ratio uv.

    value is the reduced scalar; pairs are (e, g) terms g * omega^e of
    Q[C_N].  For ratio = omega^u they are the Gauss polynomial itself,
    kept even where the reduced value has fewer terms; any other ratio
    (a rational one) gets the form of its value.  Each value is reduced
    once, here (`reduce_forms`).
    """
    level, u = ratio.level, ratio.unit
    forms = {}
    for r in range(a + 1):
        g = gauss_binomial(a, r)
        if u is None:
            ((_, pairs),) = exponent_form(level, {r: qp_eval(g, ratio)})
            forms[r] = dict(pairs)
            continue
        terms: dict = {}
        for j, c in enumerate(g):
            terms[u * j] = terms.get(u * j, 0) + c
        forms[r] = terms
    return reduce_forms(level, forms)


def vanishing_criterion(a: int, xi: Cyclo) -> bool:
    """Whether (a choose r)_xi = 0 for every 0 < r < a (a >= 2).

    Computed twice: directly, and via the equivalent condition that xi
    is a primitive a-th root of unity.  The two routes must agree.
    """
    if a < 2:
        raise ValueError(f"criterion needs a >= 2, got {a}")
    direct = all(
        qp_eval(gauss_binomial(a, r), xi).is_zero() for r in range(1, a)
    )
    via_order = xi.order_of_unity() == a
    if direct != via_order:
        raise AssertionError(
            f"vanishing routes disagree at a={a}, xi={xi}: "
            f"direct={direct}, order={via_order}"
        )
    return direct

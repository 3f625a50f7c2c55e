"""The cached coproduct forms of the A and B families, by a second route.

The A and B providers build each coproduct from the Gauss polynomials
themselves (`qcombinat.skew_binomial_forms`): every coefficient is kept
as a sum of roots of unity in Q[C_N], and the kernels read that form,
not the reduced coefficients that `coproduct_basis` hands out.  Here
each form is reduced and compared with the coefficients rebuilt by
Horner evaluation of the Gauss polynomials and plain `Cyclo` products,
from the parameters and `multiply_basis` alone; each form is checked
to be, per key, the product of its letters' Gauss polynomials; and a
form that drifts from its Lin view must fail the axiom check.
"""

import math
from fractions import Fraction

import pytest

from conftest import INSTANCES, build_instance
from qhopf.elements import Lin, acc
from qhopf.qcombinat import gauss_binomial, qp_eval
from qhopf.scalars import Cyclo, reduce_exponents
from qhopf.verify import verify_axioms

CORPUS = sorted(
    p.stem for p in INSTANCES.glob("*.json") if p.stem.startswith(("a_", "b_"))
)


def skew_binomial_coeffs(a: int, q: Cyclo) -> list[Cyclo]:
    """[(a choose r)_q evaluated at q by Horner's rule, for r = 0..a]."""
    return [qp_eval(gauss_binomial(a, r), q) for r in range(a + 1)]


def _times(alg, s, t):
    """The product of two elements (dicts index -> Cyclo), through
    `multiply_basis` only."""
    out = {}
    for i, c in s.items():
        for j, d in t.items():
            for k, v in alg.multiply_basis(i, j).terms.items():
                acc(out, k, v * (c * d))
    return out


def _power(alg, s, e):
    out = {alg.unit_index(): alg.one_scalar()}
    for _ in range(e):
        out = _times(alg, out, s)
    return out


def _tensor(s, t):
    return {(i, j): c * d for i, c in s.items() for j, d in t.items()}


def _ref_t2_mul(alg, s, t):
    out = {}
    for (i, j), c in s.items():
        for (k, l), d in t.items():
            for a, ca in alg.multiply_basis(i, k).terms.items():
                for b, cb in alg.multiply_basis(j, l).terms.items():
                    acc(out, (a, b), ca * cb * (c * d))
    return out


def _heads(params):
    """(p_1, ..., p_s) of B; A is the one-letter case, y_1 = y."""
    return params.p[1:] if params.family == "B" else (1,)


def oracle_coproduct(alg, idx) -> dict:
    """Delta(e_idx) in plain Cyclo arithmetic, from the closed forms

        Delta(y_i)^k = sum_r (k choose r)_(q^(m_i^2 n))
                             y_i^(k-r) x^(m_i n r) ox y_i^r,
        Delta(y^d x^b) = Delta(y_1)^(d_1) ... Delta(y_s)^(d_s) (x^b ox x^b),

    with m_i = (p_1 ... p_s) / p_i, n and q read from the parameters,
    and every monomial a product of generators through `multiply_basis`.
    """
    params = alg.params
    heads = _heads(params)
    s, n = len(heads), params.n
    q = params.q.to_cyclo(alg.level)
    one = alg.one_scalar()

    def letter(pos, e=1):
        return {tuple(e if k == pos else 0 for k in range(s + 1)): one}

    def x_power(e):
        return _power(alg, letter(s, 1 if e > 0 else -1), abs(e))

    d, b = idx[:-1], idx[-1]
    out = _tensor(x_power(b), x_power(b))
    for pos in range(s - 1, -1, -1):
        k = d[pos]
        if not k:
            continue
        m = math.prod(heads) // heads[pos]
        y = letter(pos)
        x_step = x_power(m * n)
        power = {}
        for r, c in enumerate(skew_binomial_coeffs(k, q ** (m * m * n))):
            left = _times(alg, _power(alg, y, k - r), _power(alg, x_step, r))
            for key, v in _tensor(left, _power(alg, y, r)).items():
                acc(power, key, c * v)
        out = _ref_t2_mul(alg, power, out)
    return out


@pytest.mark.parametrize("name", CORPUS)
def test_coproduct_forms_reduce_to_horner_coefficients(name):
    alg = build_instance(name)
    for idx in alg.basis_box(3):
        cop = alg.coproduct_basis(idx)
        keys = [k for k, _ in cop.form]
        assert len(keys) == len(set(keys)), idx
        assert set(keys) == set(cop.terms), idx
        reduced = reduce_exponents(alg.level, {k: dict(p) for k, p in cop.form})
        assert reduced == cop.terms, idx
        assert cop.terms == oracle_coproduct(alg, idx), idx


def _times_forms(s, t):
    out = {}
    for e, r in s.items():
        for f, v in t.items():
            out[e + f] = out.get(e + f, 0) + r * v
    return out


def _gauss_form(a, r, ratio):
    """(a choose r) at ratio as {e: rational}: the Gauss polynomial on
    the powers of ratio = omega^u, or at levels 1 and 2, where no
    ratio is tagged as a root of unity, its value."""
    g = gauss_binomial(a, r)
    if ratio.unit is None:
        value = qp_eval(g, ratio)
        return {0: Fraction(value.num[0], value.den)}
    out = {}
    for j, c in enumerate(g):
        out[ratio.unit * j] = out.get(ratio.unit * j, 0) + c
    return out


@pytest.mark.parametrize("name", CORPUS)
def test_coproduct_forms_are_products_of_gauss_polynomials(name):
    """The term of Delta(y^d x^b) whose right leg is y^r x^b picks
    (d_i choose r_i) from each Delta(y_i)^(d_i).  Its form is, per key,
    the product of those Gauss polynomials at q^(m_i^2 n), times the
    power of q that the products of the left legs y_i^(d_i - r_i)
    x^(m_i n r_i) pick up, folded mod N = lcm(2, level): never the
    shorter reduced coefficient.  The zero-only bialgebra pass bounds
    its L1 norms from these forms."""
    alg = build_instance(name)
    params = alg.params
    heads = _heads(params)
    s, n = len(heads), params.n
    ms = [math.prod(heads) // h for h in heads]
    q = params.q.to_cyclo(alg.level)
    modulus = math.lcm(2, alg.level)
    for idx in alg.basis_box(3):
        d = idx[:-1]
        for (left, right), pairs in alg.coproduct_basis(idx).form:
            r = right[:-1]
            want = {0: 1}
            for i in range(s):
                want = _times_forms(
                    want, _gauss_form(d[i], r[i], q ** (ms[i] ** 2 * n))
                )
            twist = sum(
                ms[i] * n * r[i] * ms[j] * (d[j] - r[j])
                for i in range(s)
                for j in range(i + 1, s)
            )
            if twist:
                want = {e + q.unit * twist: v for e, v in want.items()}
            folded = {}
            for e, v in want.items():
                folded[e % modulus] = folded.get(e % modulus, 0) + v
            assert dict(pairs) == {e: v for e, v in folded.items() if v}, (idx, left)


def test_b_gauss_forms_are_not_the_reduced_coefficients():
    """At level 105 the forms are the short sums of roots of unity, not
    the 24-31 coordinates of the reduced coefficients."""
    alg = build_instance("b_7_135_z105")
    cop = alg.coproduct_basis((3, 3, 0))
    longest_form = max(len(p) for _, p in cop.form)
    longest_value = max(len(c.num) - c.num.count(0) for c in cop.terms.values())
    assert longest_form < longest_value


def test_drifted_b_form_fails_the_bialgebra_check(monkeypatch):
    """Corrupt one term of one cached B coproduct form, leave its Lin
    view intact: the bialgebra scan reads the form and must fail.  The
    same for a form drifted after a passing scan on a tail-moved entry,
    Delta(y1 x), which the base built off Delta(y1) and which no model
    pair ((d, 0), (d', 0)) reads: the guard finds that it is no longer
    Delta(y1) moved, so its pairs are computed on their own, the second
    scan fails, and it reports what the same scan reports with the pass
    switched off, byte for byte."""
    import qhopf.verify

    alg = build_instance("b_1_123_z6")
    assert verify_axioms(alg, window=1, axioms=("bialgebra",)).passed
    idx = (1, 0, 0)  # y1
    cop = alg.coproduct_basis(idx)
    view = Lin(dict(cop.terms))
    (key, pairs), *rest = cop.form
    (e, r), *more = pairs
    cop.form = ((key, ((e, r + 1), *more)), *rest)
    assert alg.coproduct_basis(idx) == view
    assert alg.coproduct_basis(idx) == build_instance("b_1_123_z6").coproduct_basis(idx)
    report = verify_axioms(alg, window=1, axioms=("counit", "bialgebra"))
    assert {f.axiom for f in report.failures} == {"bialgebra"}

    alg = build_instance("b_1_123_z6")
    assert alg.moves_pairs() == "tail"
    assert verify_axioms(alg, window=1, axioms=("bialgebra",)).passed
    cop = alg.coproduct_basis((1, 0, 1))  # y1 x
    (key, pairs), *rest = cop.form
    (e, r), *more = pairs
    cop.form = ((key, ((e, r + 1), *more)), *rest)
    report = verify_axioms(alg, window=1, axioms=("bialgebra",), max_failures=500)
    assert not report.passed
    # the drifted entry as a left and as a right factor
    assert {"(y1*x, y1)", "(y1, y1*x)"} <= {f.where for f in report.failures}
    monkeypatch.setattr(
        qhopf.verify, "bialgebra_vanishes", lambda alg, i, j, terms: False
    )
    exact = verify_axioms(alg, window=1, axioms=("bialgebra",), max_failures=500)
    assert exact.to_json() == report.to_json()


@pytest.mark.parametrize(
    "idx,first",
    [((0, 1), None), ((1, 1), ((1, 1), (0, 1))), ((0, 2), ((1, 1), (0, 2)))],
    ids=["x", "y*x", "x^2"],
)
def test_drifted_c_form_after_a_scan_fails_the_bialgebra_check(idx, first, monkeypatch):
    """The same for C(3), whose scan takes each pair off lead exponent 0
    from its model pair (i', j).  The models' residuals live for one
    scan, and the pass reads a form assigned after a passing scan
    again, whichever it is: a lead-zero entry, a moved entry (y x,
    built by the base before the form was assigned), or the right leg
    of a model pair.  The second scan fails, and reports what the same
    scan reports with the pass switched off, byte for byte.  (A form
    assigned by hand to a cached entry breaks what `moves_pairs()`
    states, that each moved entry is its lead-zero entry moved, so a
    pair whose model passes is not computed on its own, and the
    report names fewer pairs than one computing every pair would.)"""
    import qhopf.verify
    from qhopf.verify import bialgebra_vanishes, exact_bialgebra_residual

    alg = build_instance("c_3")
    assert verify_axioms(alg, window=2, axioms=("bialgebra",)).passed
    cop = alg.coproduct_basis(idx)
    (key, pairs), *rest = cop.form
    (e, r), *more = pairs
    cop.form = ((key, ((e, r + 1), *more)), *rest)
    if first is not None:
        terms = alg._product(*first)
        assert not exact_bialgebra_residual(alg, *first, terms).is_zero()
        assert not bialgebra_vanishes(alg, *first, terms)
    report = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=500)
    assert not report.passed
    monkeypatch.setattr(
        qhopf.verify, "bialgebra_vanishes", lambda alg, i, j, terms: False
    )
    exact = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=500)
    assert exact.to_json() == report.to_json()

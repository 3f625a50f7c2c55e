"""The cached coproduct forms of the A and B families, by a second route.

The A and B providers build each coproduct from the Gauss polynomials
themselves (`qcombinat.skew_binomial_forms`): every coefficient is kept
as a sum of roots of unity in Q[C_N], and the kernels read that form,
not the reduced coefficients that `coproduct_basis` hands out.  Here
each form is reduced and compared with the coefficients rebuilt by
Horner evaluation of the Gauss polynomials and plain `Cyclo` products,
and a form that drifts from its Lin view must fail the axiom check.
"""

import json
from pathlib import Path

import pytest

from qhopf.elements import Lin, acc
from qhopf.families import build
from qhopf.params import parse_params
from qhopf.qcombinat import gauss_binomial, qp_eval
from qhopf.scalars import Cyclo, reduce_exponents
from qhopf.verify import verify_axioms

INSTANCES = Path(__file__).resolve().parents[1] / "instances"
CORPUS = sorted(
    p.stem for p in INSTANCES.glob("*.json") if p.stem.startswith(("a_", "b_"))
)


def _build(name):
    return build(parse_params(json.loads((INSTANCES / f"{name}.json").read_text())))


def skew_binomial_coeffs(a: int, q: Cyclo) -> list[Cyclo]:
    """[(a choose r)_q evaluated at q by Horner's rule, for r = 0..a]."""
    return [qp_eval(gauss_binomial(a, r), q) for r in range(a + 1)]


def _ref_t2_mul(alg, s, t):
    out = {}
    for (i, j), c in s.items():
        for (k, l), d in t.items():
            for a, ca in alg.multiply_basis(i, k).terms.items():
                for b, cb in alg.multiply_basis(j, l).terms.items():
                    acc(out, (a, b), ca * cb * (c * d))
    return out


def oracle_coproduct(alg, idx) -> dict:
    """Delta(e_idx) from the closed form, in plain Cyclo arithmetic."""
    if type(alg).__name__ == "FamilyA":
        a, b = idx
        coeffs = skew_binomial_coeffs(a, alg.qpow(alg.n))
        out = {}
        for r in range(a + 1):
            acc(out, ((a - r, alg.n * r + b), (r, b)), coeffs[r])
        return out
    # B: Delta(y_1)^(d_1) ... Delta(y_s)^(d_s) (x^b ox x^b)
    d, b = idx[:-1], idx[-1]
    out = {(alg._x_index(b), alg._x_index(b)): alg.one_scalar()}
    for pos in range(alg.s - 1, -1, -1):
        k = d[pos]
        if not k:
            continue
        step = alg.mm[pos] * alg.n
        power = {}
        for r, c in enumerate(skew_binomial_coeffs(k, alg._ratios[pos])):
            left = alg.multiply_basis(alg._yi_index(pos, k - r), alg._x_index(step * r))
            for li, lc in left.terms.items():
                acc(power, (li, alg._yi_index(pos, r)), c * lc)
        out = _ref_t2_mul(alg, power, out)
    return out


@pytest.mark.parametrize("name", CORPUS)
def test_coproduct_forms_reduce_to_horner_coefficients(name):
    alg = _build(name)
    for idx in alg.basis_box(3):
        cop = alg.coproduct_basis(idx)
        keys = [k for k, _ in cop.form]
        assert len(keys) == len(set(keys)), idx
        assert set(keys) == set(cop.terms), idx
        reduced = reduce_exponents(alg.level, {k: dict(p) for k, p in cop.form})
        assert reduced == cop.terms, idx
        assert cop.terms == oracle_coproduct(alg, idx), idx


def test_b_gauss_forms_are_not_the_reduced_coefficients():
    """At level 105 the forms are the short sums of roots of unity, not
    the 24-31 coordinates of the reduced coefficients."""
    alg = _build("b_7_135_z105")
    cop = alg.coproduct_basis((3, 3, 0))
    longest_form = max(len(p) for _, p in cop.form)
    longest_value = max(len(c.num) - c.num.count(0) for c in cop.terms.values())
    assert longest_form < longest_value


def test_drifted_b_form_fails_the_bialgebra_check():
    """Corrupt one term of one cached B coproduct form, leave its Lin
    view intact: the bialgebra scan reads the form and must fail."""
    alg = _build("b_1_123_z6")
    assert verify_axioms(alg, window=1, axioms=("bialgebra",)).passed
    idx = (1, 0, 0)  # y1
    cop = alg.coproduct_basis(idx)
    view = Lin(dict(cop.terms))
    (key, pairs), *rest = cop.form
    (e, r), *more = pairs
    cop.form = ((key, ((e, r + 1), *more)), *rest)
    assert alg.coproduct_basis(idx) == view
    assert alg.coproduct_basis(idx) == _build("b_1_123_z6").coproduct_basis(idx)
    report = verify_axioms(alg, window=1, axioms=("counit", "bialgebra"))
    assert {f.axiom for f in report.failures} == {"bialgebra"}

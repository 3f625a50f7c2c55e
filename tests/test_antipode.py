"""The antipode the base derives from the letters, by a second route.

`HopfProvider.antipode_basis` derives S(e_i) = S(g^k) S(e_r), g^k the
last nonzero letter power of i, with S(g^k) = g^-k for a unit letter
and S(g) S(g^(k-1)) for any other, from S on the non-unit generators
alone (`_antipode_raw`).  The oracle here is each family's closed form
for S on every basis monomial, the form the families used to state per
index, computed in plain `Cyclo` arithmetic through `multiply_basis`.
"""

import math
from collections import Counter

import pytest

from conftest import VALID_CORPUS, build_instance
from qhopf.elements import acc
from qhopf.families.family_c import FamilyC
from qhopf.params import parse_params
from qhopf.verify import verify_axioms


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


def _mono(alg, i, c=1):
    return {i: alg.scalar(c)}


def oracle_antipode(alg, i) -> dict:
    """S(e_i) from the closed form of i's family:

        GroupZ2       S(y^a x^b) = y^-a x^-b
        GroupZSemiZ   S(y^a x^b) = y^((-1)^(b+1) a) x^-b
        EnvAbelian    S(y^a x^b) = (-1)^(a+b) y^a x^b
        EnvNonabelian S(y^a x^b) = (-1)^(a+b) sum_k (b choose k) a^(b-k) y^a x^k
        A, B          S(y^d x^b) = x^-b S(y_s)^(d_s) ... S(y_1)^(d_1),
                      S(y_i) = -x^(-m_i n) y_i
        C, CLift      S(y^a x^b) = S(x)^b y^-a,  S(x) = -x y^(1-n)
    """
    family = alg.params.family
    if family == "GroupZ2":
        a, b = i
        return _mono(alg, (-a, -b))
    if family == "GroupZSemiZ":
        a, b = i
        return _mono(alg, (a if b % 2 else -a, -b))
    if family == "EnvAbelian":
        a, b = i
        return _mono(alg, i, (-1) ** (a + b))
    if family == "EnvNonabelian":
        a, b = i
        sign = (-1) ** (a + b)
        out = {}
        for k in range(b + 1):
            acc(out, (a, k), alg.scalar(sign * math.comb(b, k) * a ** (b - k)))
        return out
    if family in ("C", "CLift"):
        a, b = i
        x_y = alg.multiply_basis((0, 1), (1 - alg.n, 0))  # x y^(1-n)
        s_x = {k: -v for k, v in x_y.terms.items()}
        return _times(alg, _power(alg, s_x, b), _mono(alg, (-a, 0)))
    # A and B: the y-letters, then x
    heads = alg.params.p[1:] if family == "B" else (1,)
    s = len(heads)
    out = _mono(alg, (0,) * s + (-i[-1],))
    for pos in range(s - 1, -1, -1):
        m = math.prod(heads) // heads[pos]
        y = tuple(1 if k == pos else 0 for k in range(s + 1))
        x_step = _mono(alg, alg.lattice_index(0, -m * alg.n), -1)
        s_y = _times(alg, x_step, _mono(alg, y))
        out = _times(alg, out, _power(alg, s_y, i[pos]))
    return out


@pytest.mark.parametrize("name", VALID_CORPUS)
def test_derived_antipodes_equal_the_closed_forms(name):
    alg = build_instance(name)
    for i in alg.basis_box(3):
        assert alg.antipode_basis(i).terms == oracle_antipode(alg, i), i


@pytest.mark.parametrize("name", VALID_CORPUS)
def test_families_state_s_on_the_non_unit_generators_and_delta_off_the_unit_ends(
    name,
):
    """Over box(3), `_antipode_raw` runs once per non-unit generator and
    nowhere else, and `_coproduct_raw` once per index of the box whose
    unit end exponents are 0, never at the unit index."""
    alg = build_instance(name)
    calls = {"_antipode_raw": Counter(), "_coproduct_raw": Counter()}
    for key, seen in calls.items():

        def spied(i, raw=getattr(alg, key), seen=seen):
            seen[i] += 1
            return raw(i)

        setattr(alg, key, spied)
    box = alg.basis_box(3)
    for i in box:
        alg.antipode_basis(i)
        alg.coproduct_basis(i)
    (_, lead_unit, _), *_, (_, tail_unit, _) = alg.letters
    unit = alg.unit_index()
    generators = [
        tuple(int(k == pos) for k in range(len(unit)))
        for pos, (_, is_unit, _) in enumerate(alg.letters)
        if not is_unit
    ]
    assert calls["_antipode_raw"] == Counter(generators)
    assert calls["_coproduct_raw"] == Counter(
        i
        for i in box
        if i != unit and not (lead_unit and i[0]) and not (tail_unit and i[-1])
    )


class _FlippedSx(FamilyC):
    """C(3) whose stated S(x) has its sign flipped: x y^(1-n)."""

    def _antipode_raw(self, i):
        return -super()._antipode_raw(i)


def test_a_flipped_s_of_x_fails_the_antipode_axiom_at_every_power_of_x():
    """The base derives S(y^a x^b) from S(x) for every b >= 1, so the
    flipped sign fails the antipode axiom at each such index of the
    window, and nowhere else."""
    alg = _FlippedSx(parse_params({"family": "C", "n": 3}))
    report = verify_axioms(alg, window=2, axioms=("antipode",), max_failures=500)
    failed = {f.where for f in report.failures}
    box = alg.basis_box(2)
    assert failed == {alg.index_str(i) for i in box if i[1] >= 1}

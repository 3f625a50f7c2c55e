"""Coactions along the built-in quotients: frozen component values,
gradings, derivations, Taylor expansion, coinvariants, and every
coaction check against a reference route that reads pi off the
quotient's images and applies it to the legs of each coproduct term
directly, in Cyclo arithmetic."""

import json
import random
import re
from pathlib import Path

import pytest

from qhopf.comodule import Coaction, QuotientError, QuotientSpec, default_quotient
from qhopf.elements import Lin, acc, lin_from_pairs
from qhopf.families import build
from qhopf.linalg import Echelon
from qhopf.params import parse_params


def coaction_of(spec):
    alg = build(parse_params(spec))
    return alg, Coaction(alg, default_quotient(alg))


# -- the reference route: pi on one leg of each coproduct term ----------


def ref_pi(co, idx):
    """The t-degree of pi(e_idx), or None for 0, read off the spec's
    images and the index's generator powers."""
    n = 0
    for name, e in co.alg.index_factors(idx):
        if e:
            k = co.spec.images.get(name)
            if k is None:
                return None
            n += k * e
    return n


def ref_coaction(co, h, side):
    """rho (side 1) or lam (side 0) of h as {n: Lin}."""
    out = {}
    for idx, c in h.terms.items():
        for legs, d in co.alg.coproduct_basis(idx).terms.items():
            n = ref_pi(co, legs[side])
            if n is not None:
                acc(out.setdefault(n, {}), legs[1 - side], c * d)
    return {n: Lin(comp) for n, comp in out.items() if comp}


def ref_compatible(co, h):
    left, right = {}, {}
    for n, comp in ref_coaction(co, h, 1).items():
        for m, c2 in ref_coaction(co, comp, 0).items():
            left[(m, n)] = c2
    for m, comp in ref_coaction(co, h, 0).items():
        for n, c2 in ref_coaction(co, comp, 1).items():
            right[(m, n)] = c2
    return left == right


def ref_collapse(co, h, side, every_degree):
    comps = ref_coaction(co, h, side)
    if not every_degree:
        return comps.get(0, Lin())
    total = Lin()
    for comp in comps.values():
        total = total + comp
    return total


def ref_counit_recovers(co, h):
    every = co.spec.kind == "laurent"
    return all(ref_collapse(co, h, side, every) == h for side in (0, 1))


def ref_decomposes(co, h):
    total = Lin()
    for n, comp in ref_coaction(co, h, 1).items():
        for comp2 in ref_coaction(co, comp, 0).values():
            total = total + comp2
    return total == h


def corpus_with_quotient():
    """Instance files of the corpus whose family has a built-in quotient."""
    root = Path(__file__).resolve().parent.parent / "instances"
    names = []
    for path in sorted(root.glob("*.json")):
        if path.name.startswith("bad_"):
            continue
        params = parse_params(json.loads(path.read_text(encoding="utf-8")))
        try:
            default_quotient(build(params))
        except QuotientError:
            continue
        names.append((path.stem, params))
    return names


CORPUS = corpus_with_quotient()


def assert_matches_reference(co, h):
    assert co.rho(h) == ref_coaction(co, h, 1)
    assert co.lam(h) == ref_coaction(co, h, 0)
    assert co.coactions_compatible(h) == ref_compatible(co, h)
    assert co.counit_recovers(h) == ref_counit_recovers(co, h)
    assert co.decomposes(h) == ref_decomposes(co, h)


@pytest.mark.parametrize("params", [p for _, p in CORPUS], ids=[n for n, _ in CORPUS])
def test_tables_match_the_reference_route_on_the_corpus(params):
    alg = build(params)
    co = Coaction(alg, default_quotient(alg))
    for idx in alg.basis_box(3):
        assert_matches_reference(co, alg.basis_el(idx))
        assert_matches_reference(co, alg.basis_el(idx, -3))


def test_reference_route_covers_the_corpus():
    # 39 valid instance files; clift_3_z4 alone has no built-in quotient
    assert len(CORPUS) == 38


@pytest.mark.parametrize("n", [1, 2, 3])
def test_skew_laurent_generator_components(n):
    alg, co = coaction_of({"family": "A", "n": n, "q": 1})
    y = alg.basis_el((1, 0))
    assert co.lam(y) == {n: y}
    assert co.rho(y) == {0: y}
    x = alg.basis_el((0, 1))
    assert co.rho(x) == {1: x}
    assert co.lam(x) == {1: x}


def test_skew_laurent_bigrades():
    alg, co = coaction_of({"family": "A", "n": 2, "q": 1})
    for a, b in alg.basis_box(3):
        el = alg.basis_el((a, b))
        assert co.bigrade(el) == {(2 * a + b, b): el}
        assert co.rho_degree((a, b)) == b
        assert co.lam_degree((a, b)) == 2 * a + b


@pytest.mark.parametrize("n", [-2, -1, 0, 1, 2])
def test_strong_grading_window_sweep(n):
    alg, co = coaction_of({"family": "A", "n": 2, "q": 1})
    assert co.strong_grading(n, 3)


def test_coinvariants_of_the_skew_laurent_instance():
    alg, co = coaction_of({"family": "A", "n": 2, "q": 1})
    right = co.right_coinvariants(3)
    assert len(right) == 4
    ech = Echelon()
    for v in right:
        ech.insert(v)
    for a in range(4):
        assert ech.contains(Lin.basis((a, 0), alg.one_scalar()))

    left = co.left_coinvariants(3)
    assert len(left) == 2
    ech = Echelon()
    for v in left:
        ech.insert(v)
    assert ech.contains(alg.one_el())
    assert ech.contains(Lin.basis((1, -2), alg.one_scalar()))


def test_ore_family_rho_components():
    alg, co = coaction_of({"family": "C", "n": 2})
    x = alg.basis_el((0, 1))
    assert co.rho(x) == {0: x, 1: alg.one_el()}
    xx = alg.basis_el((0, 2))
    assert co.rho(xx) == {
        0: xx,
        1: lin_from_pairs([((0, 1), 2)]),
        2: alg.one_el(),
    }
    assert co.delta_r(x) == alg.one_el()


def test_enveloping_derivation_values():
    alg, co = coaction_of({"family": "EnvNonabelian"})
    x = alg.basis_el((0, 1))
    yx = alg.basis_el((1, 1))
    assert co.delta_r(x) == alg.one_el()
    assert co.delta_r(yx) == alg.basis_el((1, 0))
    assert co.delta_l(x) == alg.one_el()


@pytest.mark.parametrize("spec", [{"family": "C", "n": 2}, {"family": "C", "n": 3}])
def test_derivations_commute_and_taylor(spec):
    alg, co = coaction_of(spec)
    for idx in alg.basis_box(2):
        el = alg.basis_el(idx)
        assert co.delta_r(co.delta_l(el)) == co.delta_l(co.delta_r(el))
        assert co.taylor_matches(el)


def test_derivation_is_locally_nilpotent():
    alg, co = coaction_of({"family": "C", "n": 3})
    for a, b in alg.basis_box(2):
        el = alg.basis_el((a, b))
        for _ in range(b + 1):
            el = co.delta_r(el)
        assert el.is_zero()


RANDOM_SPECS = [
    {"family": "GroupZSemiZ"},
    {"family": "EnvNonabelian"},
    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}},
    {"family": "C", "n": 3},
]


@pytest.mark.parametrize("spec", RANDOM_SPECS, ids=lambda s: s["family"])
def test_coactions_commute_on_random_elements(spec):
    alg, co = coaction_of(spec)
    box = alg.basis_box(3)
    rng = random.Random(5)
    for _ in range(20):
        el = Lin()
        for _ in range(3):
            el = el + Lin.basis(rng.choice(box), alg.scalar(rng.randint(-4, 4)))
        assert co.coactions_compatible(el)
        assert co.counit_recovers(el)
        assert_matches_reference(co, el)


def test_a_tampered_quotient_fails_on_the_box():
    # __init__ checked the true images; the tables are filled afterwards
    # from the tampered one (pi's degree table, partly filled by
    # __init__'s checks, is emptied), so some check on the box must
    # fail; only the counit collapse does.  The tamper sends a letter to
    # t^0 where the true image is 0 (A, B) or t (C): sending x to
    # another power of t would still be a Hopf map
    for spec, name in [
        ({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}, "y"),
        ({"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}}, "y1"),
        ({"family": "C", "n": 3}, "x"),
    ]:
        alg, co = coaction_of(spec)
        co.spec.images[name] = 0
        co._pi_cache.clear()
        results = []
        for idx in alg.basis_box(2):
            el = alg.basis_el(idx)
            assert_matches_reference(co, el)
            results.append(co.coactions_compatible(el) and co.counit_recovers(el))
        assert not all(results), spec


def test_residual_sees_a_non_coassociative_coproduct():
    # Delta(x) = x ox x + x ox 1 is not coassociative, and the defect
    # x ox 1 ox x survives pi ox id ox pi
    alg, co = coaction_of({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    x, u = (0, 1), alg.unit_index()
    broken = alg.coproduct_basis(x) + Lin.basis((x, u), alg.one_scalar())
    alg._cop_cache[x] = alg.as_form_lin(broken)
    el = alg.basis_el(x)
    assert not ref_compatible(co, el)
    assert not co.coactions_compatible(el)


def test_laurent_box_decomposes():
    alg, co = coaction_of({"family": "B", "n": 1, "p": [1, 2, 3],
                           "q": {"order": 6, "power": 1}})
    for idx in alg.basis_box(2):
        assert co.decomposes(alg.basis_el(idx))


def test_lift_with_nontrivial_twist_has_no_default_quotient():
    alg = build(parse_params({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}}))
    with pytest.raises(QuotientError):
        default_quotient(alg)


def test_trivial_twist_lift_reuses_the_ore_quotient():
    alg, co = coaction_of({"family": "CLift", "n": 2, "q": 1})
    assert co.spec.kind == "poly"
    assert co.delta_r(alg.basis_el((0, 1))) == alg.one_el()


def test_coaction_rejects_non_algebra_maps():
    alg = build(parse_params({"family": "EnvNonabelian"}))
    bad = QuotientSpec("poly", {"y": 1, "x": 1})
    with pytest.raises(QuotientError):
        Coaction(alg, bad)


@pytest.mark.parametrize("spec,kind,images,message", [
    # x is a unit: x^-1 has no image when x goes to 0
    ({"family": "A", "n": 2, "q": 1}, "laurent", {"y": None},
     "negative power of x with zero image"),
    # y is a unit: y^-1 would go to t^-1, outside k[t]
    ({"family": "C", "n": 2}, "poly", {"y": 1, "x": 1},
     "negative t-exponent for y^-1"),
    # Delta(y) = y ox 1 + x^2 ox y goes to t ox 1 + t^2 ox t, not t ox t
    ({"family": "A", "n": 2, "q": 1}, "laurent", {"y": 1, "x": 1},
     "coproduct does not descend on y"),
])
def test_coaction_rejects_each_ill_defined_quotient(spec, kind, images, message):
    alg = build(parse_params(spec))
    with pytest.raises(QuotientError, match=f"^{re.escape(message)}$"):
        Coaction(alg, QuotientSpec(kind, images))


def test_quotient_spec_rejects_unknown_kind():
    with pytest.raises(QuotientError):
        QuotientSpec("group", {})

"""Invariant vector entries against their frozen values, canonical form
properties, and the isomorphism decision."""

import itertools

import pytest

from conftest import VALID_CORPUS, build_instance, grid_params, grid_specs
from qhopf.elements import Lin, flip2
from qhopf.families import build
from qhopf.invariants import (
    abelianization_goldie_rank,
    canonicalize,
    distinguish,
    ext1_dimension,
    ext1_from_instance,
    family_tag,
    gldim_class,
    grouplike_profile,
    invariant_vector,
    is_cocommutative,
    is_commutative,
    iso_key,
    isomorphic,
    pi_degree_and_io,
)
from qhopf.params import AParams, ParamError, ScalarSpec, parse_params


def P(spec):
    return parse_params(spec)


def expected_ext1(spec):
    fam = spec["family"]
    if fam in ("GroupZ2", "EnvAbelian"):
        return 2
    if fam == "A":
        q = ScalarSpec.from_json(spec["q"])
        return 2 if q.is_one() else 1
    return 1


@pytest.mark.parametrize("spec", grid_specs(), ids=lambda s: str(s))
def test_ext1_table(spec):
    params = P(spec)
    want = expected_ext1(spec)
    assert ext1_dimension(params) == want
    # the tangent-space computation on the built instance must agree
    assert ext1_from_instance(build(params)) == want


GOLDIE_TABLE = [
    ({"family": "GroupZ2"}, (None, "k[t,t^-1,u,u^-1]")),
    ({"family": "GroupZSemiZ"}, (2, "k[t,t^-1]^2")),
    ({"family": "EnvAbelian"}, (None, "k[t,u]")),
    ({"family": "EnvNonabelian"}, (1, "k[t]")),
    ({"family": "A", "n": 2, "q": 1}, (None, "k[t,t^-1,u]")),
    ({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}, (1, "k[t,t^-1]")),
    ({"family": "B", "n": 7, "p": [1, 3, 5], "q": {"order": 105, "power": 1}},
     (1, "k[t,t^-1]")),
    ({"family": "C", "n": 1}, (None, "k[t,t^-1,u]")),
    ({"family": "C", "n": 2}, (1, "k[t]")),
    ({"family": "C", "n": 4}, (3, "k[t]^3")),
    ({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}}, (1, "k[t,t^-1]")),
    ({"family": "CLift", "n": 2, "q": 1}, (1, "k[t]")),
]


@pytest.mark.parametrize("spec,want", GOLDIE_TABLE, ids=lambda v: str(v))
def test_abelianization_goldie_rank(spec, want):
    assert abelianization_goldie_rank(P(spec)) == want


def test_goldie_rank_of_ore_family_counts_squarefree_roots():
    for n in range(2, 7):
        rank, _ = abelianization_goldie_rank(P({"family": "C", "n": n}))
        assert rank == n - 1


def test_pi_degree_frozen_triples():
    table = [
        ({"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}}, (6, 6)),
        ({"family": "B", "n": 2, "p": [1, 2, 3], "q": {"order": 12, "power": 1}}, (12, 12)),
        ({"family": "B", "n": 7, "p": [1, 3, 5], "q": {"order": 105, "power": 1}}, (105, 15)),
    ]
    for spec, want in table:
        assert pi_degree_and_io(P(spec)) == want


def test_pi_degree_rejects_other_families():
    with pytest.raises(ParamError):
        pi_degree_and_io(P({"family": "C", "n": 3}))


def test_gldim_class():
    assert gldim_class(P({"family": "C", "n": 3})) == "finite_2"
    assert gldim_class(P({"family": "GroupZ2"})) == "finite_2"
    assert (
        gldim_class(
            P({"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}})
        )
        == "infinite"
    )


EXTRA_SPECS = [
    {"family": "A", "n": 2, "q": {"order": 4, "power": 3}},
    {"family": "A", "n": -2, "q": {"order": 3, "power": 1}},
    {"family": "A", "n": 2, "q": {"order": 3, "power": 2}},
    {"family": "A", "n": 0, "q": {"order": 5, "power": 4}},
    {"family": "A", "n": 1, "q": {"order": 5, "power": 4}},
    {"family": "CLift", "n": 2, "q": 1},
    {"family": "C", "n": 1},
]


def pool_params():
    return grid_params() + [P(s) for s in EXTRA_SPECS]


def test_canonicalize_is_idempotent_and_sign_fixing():
    for params in pool_params():
        canon = canonicalize(params)
        assert canonicalize(canon) == canon
        if isinstance(canon, AParams):
            assert canon.n >= 0
    flipped = canonicalize(P({"family": "A", "n": -2, "q": {"order": 3, "power": 1}}))
    assert flipped == AParams(2, ScalarSpec.from_root(3, 2))


def test_family_tag_folds_the_lift():
    assert family_tag(P({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}})) == "A"
    assert family_tag(P({"family": "CLift", "n": 2, "q": 1})) == "C"
    assert family_tag(P({"family": "C", "n": 2})) == "C"
    assert family_tag(P({"family": "C", "n": 1})) == "A"


ISO_PAIRS = [
    ({"family": "A", "n": -2, "q": {"order": 3, "power": 1}},
     {"family": "A", "n": 2, "q": {"order": 3, "power": 2}}),
    ({"family": "A", "n": 0, "q": {"order": 5, "power": 1}},
     {"family": "A", "n": 0, "q": {"order": 5, "power": 4}}),
    ({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
     {"family": "A", "n": 2, "q": {"order": 4, "power": 3}}),
    ({"family": "CLift", "n": 2, "q": 1}, {"family": "C", "n": 2}),
]

NONISO_PAIRS = [
    ({"family": "A", "n": 1, "q": {"order": 5, "power": 1}},
     {"family": "A", "n": 1, "q": {"order": 5, "power": 4}}),
    ({"family": "C", "n": 3}, {"family": "C", "n": 4}),
    ({"family": "GroupZ2"}, {"family": "EnvAbelian"}),
    ({"family": "A", "n": 2, "q": 1}, {"family": "A", "n": 2, "q": -1}),
]


@pytest.mark.parametrize("pair", ISO_PAIRS, ids=lambda p: str(p))
def test_known_isomorphic_pairs(pair):
    p1, p2 = P(pair[0]), P(pair[1])
    same, why = isomorphic(p1, p2)
    assert same and why
    assert iso_key(p1) == iso_key(p2)
    # the window invariants cannot tell them apart
    assert distinguish(build(p1), build(p2), 2) is None
    assert invariant_vector(build(p1), 2) == invariant_vector(build(p2), 2)


def test_degree_one_ore_fold_is_parameter_level_only():
    """C(1) folds onto A(1, 1) by classifier convention; the window
    invariants do not endorse the match (cocommutativity separates the
    built instances) and do endorse A(0, 1) instead.  Both layers stay
    as they are; see the module docstring for the warning."""
    c1, a11 = P({"family": "C", "n": 1}), P({"family": "A", "n": 1, "q": 1})
    a01 = P({"family": "A", "n": 0, "q": 1})

    same, why = isomorphic(c1, a11)
    assert same
    assert "zero derivation" in why
    assert iso_key(c1) == iso_key(a11)

    same, why = isomorphic(c1, a01)
    assert not same
    assert "different canonical parameters" in why

    # honest instance layer: cocommutativity splits the mandated pair
    # and clears the convention's alternative
    assert invariant_vector(build(c1), 2).is_cocommutative
    assert not invariant_vector(build(a11), 2).is_cocommutative
    assert distinguish(build(c1), build(a11), 2) == "is_cocommutative"
    assert distinguish(build(c1), build(a01), 2) is None


@pytest.mark.parametrize("pair", NONISO_PAIRS, ids=lambda p: str(p))
def test_known_nonisomorphic_pairs(pair):
    p1, p2 = P(pair[0]), P(pair[1])
    same, why = isomorphic(p1, p2)
    assert not same
    assert "distinguished by" in why or "different canonical parameters" in why


def test_distinguish_names_the_first_differing_invariant():
    got = distinguish(build(P({"family": "C", "n": 3})), build(P({"family": "C", "n": 4})), 2)
    assert got == "abelianization_goldie_rank"
    got = distinguish(build(P({"family": "GroupZ2"})), build(P({"family": "GroupZSemiZ"})), 2)
    assert got == "is_commutative"


@pytest.mark.parametrize("spec,want", [
    ({"family": "GroupZ2"}, (2, True)),
    ({"family": "GroupZSemiZ"}, (2, False)),
])
def test_grouplike_profile_stops_at_the_first_non_commuting_pair(spec, want):
    alg = build(P(spec))
    calls = []
    multiply = alg.multiply_basis
    alg.multiply_basis = lambda g, h: calls.append((g, h)) or multiply(g, h)
    assert grouplike_profile(alg, 5) == want
    pairs = calls[::2]
    assert calls[1::2] == [(h, g) for g, h in pairs]
    commuting = [multiply(g, h) == multiply(h, g) for g, h in pairs]
    # every pair before the last commutes: the scan ends at the first
    # pair that does not, or after the last pair
    assert all(commuting[:-1]) and commuting[-1] == want[1]


# -- commutativity and cocommutativity: the window scans, a second route


def scan_commutative(alg, window):
    box = alg.basis_box(window)
    return all(
        alg.multiply_basis(i, j) == alg.multiply_basis(j, i)
        for pos, i in enumerate(box)
        for j in box[pos + 1 :]
    )


def scan_cocommutative(alg, window):
    return all(flip2(t) == t for t in map(alg.coproduct_basis, alg.basis_box(window)))


@pytest.mark.parametrize("name", VALID_CORPUS)
def test_generator_verdicts_match_the_window_scans(name):
    alg = build_instance(name)
    for window in (1, 3):
        assert scan_commutative(alg, window) == is_commutative(alg)
        assert scan_cocommutative(alg, window) == is_cocommutative(alg)


def test_generator_verdicts_match_the_window_scans_on_the_pool():
    for params in pool_params():
        alg = build(params)
        assert scan_commutative(alg, 2) == is_commutative(alg), params
        assert scan_cocommutative(alg, 2) == is_cocommutative(alg), params


def test_invariant_vector_multiplies_generator_pairs_only():
    # GroupZ2 is commutative, so its grouplikes need no pair products
    alg = build(P({"family": "GroupZ2"}))
    gens = {i for _, i in alg.generators()}
    calls = []
    multiply = alg.multiply_basis
    alg.multiply_basis = lambda g, h: calls.append((g, h)) or multiply(g, h)
    vec = invariant_vector(alg, 5)
    assert vec.is_commutative and vec.grouplike_abelian
    assert calls and all(g in gens and h in gens for g, h in calls)


def test_a_twist_off_by_one_reads_noncommutative():
    params = P({"family": "A", "n": 2, "q": 1})
    sound = build(params)
    assert is_commutative(sound)

    class Twisted(type(sound)):
        def __init__(self, params):
            super().__init__(params)
            self.twist = self.twist + 1

    alg = Twisted(params)
    assert not is_commutative(alg)
    assert not scan_commutative(alg, 1)


def test_one_scaled_term_of_delta_y_reads_noncocommutative():
    params = P({"family": "A", "n": 0, "q": 2})
    sound = build(params)
    assert is_cocommutative(sound)
    y = dict(sound.generators())["y"]

    class Scaled(type(sound)):
        def _coproduct_raw(self, i):
            t = super()._coproduct_raw(i)
            if i != y:
                return t
            key = t.support()[0]
            return t + Lin.basis(key, t.terms[key])

    alg = Scaled(params)
    assert not is_cocommutative(alg)
    assert not scan_cocommutative(alg, 1)


def test_isomorphic_is_an_equivalence_on_the_pool():
    pool = pool_params()
    keys = [iso_key(p) for p in pool]
    for p, k in zip(pool, keys):
        assert isomorphic(p, p)[0]
        assert iso_key(k) == k  # keys are themselves canonical
    for (p1, k1), (p2, k2) in itertools.combinations(zip(pool, keys), 2):
        same12 = isomorphic(p1, p2)[0]
        assert same12 == isomorphic(p2, p1)[0]
        assert same12 == (k1 == k2)


def test_invariant_vector_json_shape():
    vec = invariant_vector(build(P({"family": "C", "n": 4})), 2)
    doc = vec.to_json()
    assert doc["family_tag"] == "C"
    assert doc["abelianization_goldie_rank"] == {"rank": 3, "quotient": "k[t]^3"}
    assert set(doc) == {
        "is_commutative",
        "is_cocommutative",
        "grouplike_rank",
        "grouplike_abelian",
        "ext1_dim",
        "gldim_finite",
        "abelianization_goldie_rank",
        "family_tag",
    }

"""The five tensor kernels against plain Cyclo loops.

Each kernel accumulates in the exponent form of `qhopf.scalars` and
reduces each output key once; the reference loops below multiply and
add `Cyclo`s term by term through `acc`.  Both must give the same Lin,
and every coefficient the kernels hand out must be a nonzero, reduced
`Cyclo`.
"""

import pickle
import random
from fractions import Fraction

import pytest

from conftest import VERIFY_CYCLO_OPS, build_instance, exact_report
from qhopf.elements import Lin, acc
from qhopf.families import build
from qhopf.families.base import FormLin
from qhopf.families.family_a import FamilyA
from qhopf.params import AParams, ScalarSpec, parse_params
from qhopf.scalars import Cyclo, euler_phi, reduce_exponents
from qhopf.verify import _index_vanishes, verify_axioms

SPECS = {
    "c_3": None,  # level 1, integer structure constants
    "a_2_2": None,  # level 1, q^-1 = 1/2 brings in denominators
    "a_1_m1": None,  # level 1, q = -1
    "clift_2_3over2": {"family": "CLift", "n": 2, "q": "3/2"},
    "a_2_z3": None,  # level 3
    "b_2_123_z12": None,  # level 12
    "clift_3_z4": None,  # level 4, dense structure constants with denominators
    "b_7_135_z105": None,  # level 105
}


class _AtLevel2(ScalarSpec):
    """A rational q read at level 2: Q(zeta_2) is Q again, the other
    level of the integer lane (omega = -1), which no parameter set
    reaches."""

    def min_level(self):
        return 2


# the five monomial families at levels 1, 2 and >= 3; None reads instances/
MONOMIAL = {
    "group_z2": None,
    "group_zsemiz": None,
    "env_abelian": None,
    "a_2_1": None,  # level 1, q = 1
    "a_1_m1": None,  # level 1, q = -1 = omega
    "a_2_2": None,  # level 1, q = 2: the rational r = q^(bc)
    "a_1_m1_level2": AParams(n=1, q=_AtLevel2(Fraction(-1), 0, 0)),
    "a_2_z3": None,  # level 3
    "a_2_z4p3": None,  # level 4
    "b_2_123_z12": None,  # level 12
    "b_7_135_z105": None,  # level 105
}

# the other three families (C, CLift, EnvNonabelian): polynomial products
ORE = ["c_3", "clift_2_3over2", "clift_3_z4", "env_nonabelian"]


def _build(name):
    spec = SPECS.get(name) or MONOMIAL.get(name)
    if isinstance(spec, AParams):
        return FamilyA(spec)
    if spec is None:
        return build_instance(name)
    return build(parse_params(spec))


# -- reference loops: plain Cyclo arithmetic and acc --------------------


def ref_mul(alg, a, b):
    out = {}
    for i, c in a.terms.items():
        for j, d in b.terms.items():
            for k, s in alg.multiply_basis(i, j).terms.items():
                acc(out, k, s * (c * d))
    return Lin(out)


def ref_coproduct(alg, el):
    out = {}
    for i, c in el.terms.items():
        for pair, d in alg.coproduct_basis(i).terms.items():
            acc(out, pair, c * d)
    return Lin(out)


def ref_t2_mul(alg, s, t):
    out = {}
    for (i, j), c in s.terms.items():
        for (k, l), d in t.terms.items():
            for a, ca in alg.multiply_basis(i, k).terms.items():
                for b, cb in alg.multiply_basis(j, l).terms.items():
                    acc(out, (a, b), ca * cb * (c * d))
    return Lin(out)


def ref_cop_right(alg, t):
    out = {}
    for (i, j), c in t.terms.items():
        for (k, l), d in alg.coproduct_basis(j).terms.items():
            acc(out, (i, k, l), c * d)
    return Lin(out)


def ref_cop_left(alg, t):
    out = {}
    for (i, j), c in t.terms.items():
        for (k, l), d in alg.coproduct_basis(i).terms.items():
            acc(out, (k, l, j), c * d)
    return Lin(out)


# -- random operands ----------------------------------------------------------


def _scalar(rng, level):
    deg = euler_phi(level)
    num = [rng.randint(-3, 3) if rng.random() < 0.6 else 0 for _ in range(deg)]
    num[rng.randrange(deg)] = rng.choice([-2, -1, 1, 2, 3])
    return Cyclo(level, num, rng.choice([1, 1, 1, 2, 3]))


def _random_lin(rng, alg, keys, size):
    return Lin({k: _scalar(rng, alg.level) for k in rng.sample(keys, size)})


def _operands(alg, seed):
    rng = random.Random(seed)
    box = alg.basis_box(2)
    pairs = [(i, j) for i in box for j in box]
    return {
        "el": [_random_lin(rng, alg, box, 4) for _ in range(2)],
        "t2": [_random_lin(rng, alg, pairs, 3) for _ in range(2)],
    }


def _kernels(alg):
    """(name, kernel, reference, operand kind, arity)."""
    return [
        ("mul", alg.mul, ref_mul, "el", 2),
        ("coproduct", alg.coproduct, ref_coproduct, "el", 1),
        ("t2_mul", alg.t2_mul, ref_t2_mul, "t2", 2),
        ("cop_right", alg.cop_right, ref_cop_right, "t2", 1),
        ("cop_left", alg.cop_left, ref_cop_left, "t2", 1),
    ]


def _assert_reduced(alg, lin):
    for c in lin.terms.values():
        assert isinstance(c, Cyclo) and c.level == alg.level
        assert not c.is_zero()
        fresh = Cyclo(c.level, list(c.num), c.den)
        assert c == fresh and hash(c) == hash(fresh)
        assert c.unit == fresh.unit


@pytest.mark.parametrize("name", list(SPECS))
def test_kernels_match_cyclo_loops(name):
    alg = _build(name)
    for seed in range(3):
        ops = _operands(alg, seed)
        for kname, kernel, ref, kind, arity in _kernels(alg):
            x, y = ops[kind]
            args = (x, y) if arity == 2 else (x,)
            got = kernel(*args)
            assert got == ref(alg, *args), (kname, seed)
            _assert_reduced(alg, got)


@pytest.mark.parametrize("name", list(SPECS))
def test_kernels_accumulate_a_difference(name):
    """kernel(x, into=T) then kernel(-y, into=T) finishes to
    kernel(x) - kernel(y), and to nothing when x == y."""
    alg = _build(name)
    ops = _operands(alg, 7)
    for kname, kernel, ref, kind, arity in _kernels(alg):
        x, y = ops[kind]
        first = (x, y) if arity == 2 else (x,)
        second = (y, x) if arity == 2 else (y,)
        table = alg.table()
        assert kernel(*first, into=table) is None
        kernel(-second[0], *second[1:], into=table)
        got = alg.finish(table)
        assert got == ref(alg, *first) - ref(alg, *second), kname
        _assert_reduced(alg, got)
        same = alg.table()
        kernel(*first, into=same)
        kernel(-first[0], *first[1:], into=same)
        assert alg.finish(same).is_zero(), kname


@pytest.mark.parametrize("name", list(SPECS))
def test_negated_coproduct_keeps_its_form(name):
    """-Delta(e) is a FormLin whose form reduces to its own terms, so an
    axiom residual can take its right side from a cached coproduct."""
    alg = _build(name)
    for idx in alg.basis_box(2):
        cop = alg.coproduct_basis(idx)
        neg = -cop
        assert isinstance(neg, FormLin)
        assert neg == Lin({k: -c for k, c in cop.terms.items()})
        assert [k for k, _ in neg.form] == list(neg.terms)
        forms = {k: dict(pairs) for k, pairs in neg.form}
        assert reduce_exponents(alg.level, forms) == neg.terms, idx
        _assert_reduced(alg, neg)


@pytest.mark.parametrize("name", list(SPECS))
def test_negated_product_cancels_before_folding(name):
    """-as_form_lin(p) keeps p's exponents and negates the rationals, so
    a table holding p and -p is zero term by term before any fold by
    omega^(N/2) = -1, as when the bialgebra residual adds each term
    r omega^e e_k of e_i e_j as -r omega^e Delta(e_k)."""
    alg = _build(name)
    box = alg.basis_box(1)
    for i in box:
        for j in box:
            prod = alg.multiply_basis(i, j)
            neg = -alg.as_form_lin(prod)
            assert neg == -prod
            table = alg.table(prod)
            for k, pairs in neg.form:
                for e, r in pairs:
                    table[k][e] = table[k].get(e, 0) + r
            assert not any(r for t in table.values() for r in t.values()), (i, j)


@pytest.mark.parametrize("name", list(SPECS))
def test_filled_provider_pickles(name):
    alg = _build(name)
    x, y = _operands(alg, 3)["t2"]
    expected = alg.t2_mul(x, y)
    again = pickle.loads(pickle.dumps(alg))
    assert again.t2_mul(x, y) == expected


@pytest.mark.parametrize("name", list(SPECS))
def test_basis_element_shares_the_one(name):
    alg = _build(name)
    i = alg.basis_box(1)[-1]
    assert alg.basis_el(i).terms[i] is alg.one_scalar()
    assert alg.basis_el(i, Fraction(3, 2)).terms[i] == Cyclo.from_fraction(
        Fraction(3, 2), alg.level
    )


@pytest.mark.parametrize("name", list(MONOMIAL) + ORE)
def test_monomial_kernels_match_multiply_basis(name):
    """mul and t2_mul read products only as the (k, e, r) terms of
    `_product`, one term in a monomial family, with no `multiply_basis`
    entry (and, in a monomial family, no per-pair memo), and equal the
    sums built term by term from `multiply_basis` and `tensor2`."""
    alg = _build(name)
    box = alg.basis_box(1)
    for i in box:
        for j in box:
            terms = alg._product(i, j)
            assert terms and all(0 <= e < alg.omega_order and r for _, e, r in terms)
            assert len(terms) == 1 or name in ORE, (i, j)
    ops = [_operands(alg, seed) for seed in range(3)]
    got = [(alg.mul(*o["el"]), alg.t2_mul(*o["t2"])) for o in ops]
    assert not alg._mul_cache
    assert not alg._product_cache or name in ORE
    for seed, (o, (got_mul, got_t2)) in enumerate(zip(ops, got)):
        (a, b), (s, t) = o["el"], o["t2"]
        want_mul = sum(
            (alg.multiply_basis(i, j).scale(c * d) for i, c in a for j, d in b),
            Lin(),
        )
        want_t2 = sum(
            (
                alg.tensor2(alg.multiply_basis(i, k), alg.multiply_basis(j, l)).scale(
                    c * d
                )
                for (i, j), c in s
                for (k, l), d in t
            ),
            Lin(),
        )
        assert got_mul == want_mul, seed
        assert got_t2 == want_t2, seed
        _assert_reduced(alg, got_mul)
        _assert_reduced(alg, got_t2)
        for lin in alg._mul_cache.values():
            _assert_reduced(alg, lin)


def test_verify_caches_no_kernel_product():
    """verify of B(2, 1, 2, 3, z12) at window 3 reads every kernel
    product from the closed form: the product caches hold none, and the
    closed-form memos hold at most a few entries per index of box(2w)
    (273 of them), not one per pair of the box (7,056).  No family's
    verify fills `multiply_basis`, and no monomial family's verify
    fills the per-pair memo of `_product`."""
    alg = _build("b_2_123_z12")
    assert verify_axioms(alg, window=3).passed
    assert not alg._mul_cache and not alg._product_cache
    memos = (alg._canon_d, alg._twist_powers, alg._points, alg._y_parts)
    assert sum(map(len, memos)) <= 2 * len(alg.basis_box(6))
    for name in ["group_z2", "group_zsemiz", "env_abelian", "a_2_z3"] + ORE:
        alg = _build(name)
        assert verify_axioms(alg, window=2).passed, name
        assert not alg._mul_cache and (name in ORE or not alg._product_cache), name


# -- the zero-only bialgebra pass -----------------------------------------


def test_bialgebra_scan_reads_each_coproduct_once_per_index():
    """The pass keeps each residue view with the FormLin it was read
    from, so a bialgebra-only scan of B(2, 1, 2, 3, z12) at window 3
    asks `coproduct_basis` once per index it reads, not once per read
    (three reads per pair would be 21,168 calls): the 12 models of its
    144 model pairs, and the 13 products of those pairs that lie
    outside the box.  The guard (`end_model`) builds no moved entry
    that is not yet cached, and the right factors' grading is read off
    the models' entries."""
    alg = _build("b_2_123_z12")
    calls = []
    coproduct_basis = alg.coproduct_basis

    def counted(i):
        calls.append(i)
        return coproduct_basis(i)

    alg.coproduct_basis = counted
    assert verify_axioms(alg, window=3, axioms=("bialgebra",)).passed
    assert len(calls) == len(set(calls)) == 25


# -- the scan's reuse across powers of y ------------------------------


def _spy_index_kernel(monkeypatch) -> list:
    # the pairs the plain index kernel runs on, in order
    import qhopf.verify

    calls = []

    def spied(alg, zp, i, j, terms):
        calls.append((i, j))
        return _index_vanishes(alg, zp, i, j, terms)

    monkeypatch.setattr(qhopf.verify, "_index_vanishes", spied)
    return calls


@pytest.mark.parametrize("name", ORE)
def test_reused_verdicts_equal_the_plain_index_kernel(name, monkeypatch):
    """A bialgebra scan of box(3) reports what the exact route reports,
    which computes every pair on its own.  C and CLift run the plain
    index kernel on the model pairs (i', j) only, i' = i with its lead
    exponent 0, and every other pair takes its model's residuals;
    EnvNonabelian, whose y is primitive, runs the kernel on every
    pair."""
    alg = _build(name)
    assert alg.moves_pairs() == (None if name == "env_nonabelian" else "lead")
    box = alg.basis_box(3)
    calls = _spy_index_kernel(monkeypatch)
    report = verify_axioms(alg, window=3, axioms=("bialgebra",), max_failures=500)
    if name == "env_nonabelian":
        assert calls == [(i, j) for i in box for j in box]
    else:
        assert sorted(calls) == sorted((i, j) for i in box if not i[0] for j in box)
    assert report.checked["bialgebra"] == len(box) ** 2
    assert report.to_json() == exact_report(type(alg), alg.params, 3).to_json()


def test_a_c3_window_3_scan_runs_the_index_kernel_on_its_model_pairs_only(
    monkeypatch,
):
    """C(3) at window 3 has 28 box indices, 4 of them of lead exponent
    0, so its bialgebra scan runs the plain index kernel on the 4 x 28 =
    112 model pairs, each once, not on all 784 pairs."""
    alg = _build("c_3")
    box = alg.basis_box(3)
    calls = _spy_index_kernel(monkeypatch)
    report = verify_axioms(alg, window=3, axioms=("bialgebra",))
    assert report.passed
    assert report.checked["bialgebra"] == len(box) ** 2 == 784
    assert len(calls) == len(set(calls)) == 112
    assert set(calls) == {(i, j) for i in box if not i[0] for j in box}


# -- the scan's reuse across powers of the last letter x ------------------

TAIL = ["a_2_z3", "a_2_2", "b_2_123_z12", "group_z2"]


@pytest.mark.parametrize("name", TAIL)
def test_tail_reused_verdicts_equal_the_exact_route(name, monkeypatch):
    """A (at a root of unity and at a rational q), B and GroupZ2 run the
    plain index kernel on the model pairs ((d, 0), (d', 0)) only, each
    once, and, where q != 1, on each pair whose right factor e_j has
    counit 1 and u_j != 0, which the guard computes on its own.
    GroupZ2's twist is 0, so x is central and none of its pairs is
    computed on its own.  The window-3 report is the exact route's,
    which computes every pair on its own.  B(2, 1, 2, 3, z12) computes
    12 x 12 = 144 of its 7,056 pairs, GroupZ2 7 x 7 = 49 of its
    2,401."""
    alg = _build(name)
    assert alg.moves_pairs() == "tail"
    box = alg.basis_box(3)
    calls = _spy_index_kernel(monkeypatch)
    report = verify_axioms(alg, window=3, axioms=("bialgebra",), max_failures=500)

    def x0(a):
        return (*a[:-1], 0)

    def alone(j):
        return alg.twist and alg.point(j)[0] and not alg.counit_basis(j).is_zero()

    assert len(calls) == len(set(calls))
    assert set(calls) == {
        (i, j) if alone(j) else (x0(i), x0(j)) for i in box for j in box
    }
    if name in ("b_2_123_z12", "group_z2"):
        assert len(calls) == {"b_2_123_z12": 144, "group_z2": 49}[name]
    assert report.checked["bialgebra"] == len(box) ** 2
    assert report.to_json() == exact_report(type(alg), alg.params, 3).to_json()


class _StrayOffX0(FamilyA):
    """A(2, z3) whose lattice statement is wrong off x-exponent 0 only:
    y^a x^b (b != 0) at the point of y^(a+1) x^b, and the index at
    (u, v), v != 0, moved by x."""

    def lattice(self, i):
        a, b = i
        return (a + 1, b) if b else i

    def lattice_index(self, u, v):
        return (u, v + 1) if v else (u, v)


def test_the_base_reads_a_tail_unit_lattice_at_x_exponent_0_only():
    """`_product` takes a point's v as its x-exponent and reads the
    statement at x^0 only, so the tail reuse's product moves hold for
    every stated lattice: a statement wrong off x^0 gives the sound
    one's products.  (Its coproducts read `lattice_index` themselves,
    off v = 0 too, and `verify` checks them.)"""
    params = _build("a_2_z3").params
    sound, stray = FamilyA(params), _StrayOffX0(params)
    box = sound.basis_box(3)
    for i in box:
        for j in box:
            assert stray._product(i, j) == sound._product(i, j), (i, j)


@pytest.mark.parametrize("name,window", VERIFY_CYCLO_OPS)
def test_verify_cyclo_ops_prove_every_pair_with_no_exact_recompute(
    name, window, monkeypatch
):
    import qhopf.verify

    alg = _build(name)
    recomputes = []
    exact = qhopf.verify.exact_bialgebra_residual

    def counted(*args):
        recomputes.append(args[1:3])
        return exact(*args)

    monkeypatch.setattr(qhopf.verify, "exact_bialgebra_residual", counted)
    report = verify_axioms(alg, window=window, axioms=("bialgebra",))
    assert report.passed
    assert report.checked["bialgebra"] == len(alg.basis_box(window)) ** 2
    assert recomputes == []

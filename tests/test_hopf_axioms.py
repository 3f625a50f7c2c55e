"""Axiom verification: green on the real families, red on corrupted
structure maps, plus grouplike and skew-primitive searches."""

import random

import pytest

from conftest import (
    VALID_CORPUS,
    VERIFY_CYCLO_OPS,
    build_instance,
    exact_report,
    grid_specs,
    spec_label,
)
from qhopf.elements import Lin, lin_from_pairs
from qhopf.families import build
from qhopf.families.base import FormLin
from qhopf.families.family_a import FamilyA
from qhopf.families.family_b import FamilyB
from qhopf.families.family_c import FamilyC
from qhopf.families.rewriter import agree_on_product
from qhopf.invariants import is_cocommutative
from qhopf.linalg import Echelon
from qhopf.params import parse_params
from qhopf.verify import (
    _tensor_residual,
    bialgebra_vanishes,
    exact_bialgebra_residual,
    find_grouplikes,
    find_skew_primitives,
    verify_axioms,
)

WINDOW4_SPECS = [
    {"family": "GroupZ2"},
    {"family": "GroupZSemiZ"},
    {"family": "EnvAbelian"},
    {"family": "EnvNonabelian"},
    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    {"family": "A", "n": 1, "q": 2},
    {"family": "A", "n": 0, "q": -1},
    {"family": "C", "n": 2},
    {"family": "C", "n": 4},
    {"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
    {"family": "CLift", "n": 2, "q": 1},
]


@pytest.mark.parametrize("spec", WINDOW4_SPECS, ids=spec_label)
def test_axioms_window_4(spec):
    alg = build(parse_params(spec))
    report = verify_axioms(alg, window=4)
    assert report.passed, report.to_json()
    assert report.checked["bialgebra"] == len(alg.basis_box(4)) ** 2


def test_axioms_window_3_carried_basis():
    alg = build(
        parse_params(
            {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}}
        )
    )
    report = verify_axioms(alg, window=3)
    assert report.passed, report.to_json()


def test_parallel_scan_matches_serial():
    """B(1, 1, 2, 3, z6), and CLift(2, 3/2), whose products of several
    terms enter the bialgebra residual term by term in the workers, and
    C(3), A(2, z3) and B(2, 1, 2, 3, z12) at window 3, whose workers
    each keep their own model pairs' residuals, computing a model
    outside their share where they need it: a worker takes a stride of
    the pairs, so most of its x^0 models ((d, 0), (d', 0)) lie in
    another worker's share."""
    for spec, window in (
        ({"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}}, 2),
        ({"family": "CLift", "n": 2, "q": "3/2"}, 2),
        ({"family": "C", "n": 3}, 3),
        ({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}, 3),
        ({"family": "B", "n": 2, "p": [1, 2, 3], "q": {"order": 12, "power": 1}}, 3),
    ):
        alg = build(parse_params(spec))
        serial = verify_axioms(alg, window=window)
        for jobs in (2, 3):
            parallel = verify_axioms(alg, window=window, jobs=jobs)
            assert serial.to_json() == parallel.to_json(), (spec, jobs)


def test_parallel_scan_caps_workers_at_the_core_count(monkeypatch):
    """A huge --jobs asks the pool for one worker per core, not for
    --jobs processes; the pool here is a stand-in that starts none."""
    import multiprocessing

    requested = []

    class RecordingPool:
        def __init__(self, processes):
            requested.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work):
            assert {w[-1] for w in work} == {len(work)}  # stride = workers
            return [fn(w) for w in work]

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    alg = build(parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}))
    capped = verify_axioms(alg, window=2, jobs=10**6)
    assert requested == [3]
    assert capped.to_json() == verify_axioms(alg, window=2).to_json()


def test_parallel_scan_counts_only_cores_the_process_may_use(monkeypatch):
    """Under an affinity mask of one core, --jobs 2 scans serially, with
    the same report, however many cores the host has."""
    import qhopf.verify

    def no_pool(*args):
        raise AssertionError("a pool was started for one usable core")

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(qhopf.verify, "_scan_pairs_parallel", no_pool)
    alg = build(parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}))
    serial = verify_axioms(alg, window=2)
    assert verify_axioms(alg, window=2, jobs=2).to_json() == serial.to_json()


class _BrokenCoproduct(FamilyA):
    """Drops nothing but injects a stray tensor term on the generator y
    alone: a one-index `coproduct_basis` override, which the base's
    Delta(y x^b), read off its own entry for y, does not see."""

    def coproduct_basis(self, i):
        t = super().coproduct_basis(i)
        if i == (1, 0):
            return self.as_form_lin(t + Lin.basis(((0, 1), (0, 0)), self.one_scalar()))
        return t


class _BrokenProduct(FamilyA):
    """Forgets the commutation scalar, so Delta is no longer an algebra map.
    It states the broken product as A's `_product`, which the kernels
    and `multiply_basis` both read."""

    def _product(self, i, j):
        (a, b), (c, d) = i, j
        return (((a + c, b + d), 0, 1),)


def test_corrupted_coproduct_is_caught():
    params = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    report = verify_axioms(_BrokenCoproduct(params), window=2)
    assert not report.passed
    axioms_hit = {f.axiom for f in report.failures}
    assert "coassociativity" in axioms_hit or "counit" in axioms_hit
    # the stray x ox 1 leaves x ox x ox 1 - x^2 ox x ox 1, named term by term
    first = next(f for f in report.failures if f.axiom == "coassociativity")
    assert (first.where, first.residual) == (
        "y",
        "2 residual tensor terms: [x ox x ox 1] 1; [x^2 ox x ox 1] -1",
    )


def test_corrupted_product_is_caught():
    params = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    report = verify_axioms(_BrokenProduct(params), window=2)
    assert not report.passed
    first = next(f for f in report.failures if f.axiom == "bialgebra")
    assert (first.where, first.residual) == (
        "(y*x^-2, y*x^-2)",
        "1 residual tensor terms: [y*x^-2 ox y*x^-4] -2 - z3",
    )


def _proved(alg, i, j):
    return bialgebra_vanishes(alg, i, j, alg._product(i, j))


def _exact(alg, i, j):
    return exact_bialgebra_residual(alg, i, j, alg._product(i, j))


class _BrokenB105Coproduct(FamilyB):
    """B(7, 1, 3, 5, z105) with a stray x ox 1 in Delta(y1)."""

    def _coproduct_raw(self, i):
        t = super()._coproduct_raw(i)
        if i == (1, 0, 0):
            return t + Lin.basis(((0, 0, 1), (0, 0, 0)), self.one_scalar())
        return t


def test_corrupted_coproduct_at_level_105_reads_as_the_exact_route(monkeypatch):
    """The zero-only pass proves no failing pair zero, so every failure
    text is the exact route's, byte for byte."""
    import qhopf.verify

    params = parse_params(
        {"family": "B", "n": 7, "p": [1, 3, 5], "q": {"order": 105, "power": 1}}
    )
    alg = _BrokenB105Coproduct(params)
    box = alg.basis_box(1)
    declined = {
        (alg.index_str(i), alg.index_str(j))
        for i in box
        for j in box
        if not _proved(alg, i, j)
    }
    report = verify_axioms(alg, window=1, axioms=("bialgebra",), max_failures=200)
    assert not report.passed
    assert {f.where for f in report.failures} == {f"({a}, {b})" for a, b in declined}
    monkeypatch.setattr(
        qhopf.verify, "bialgebra_vanishes", lambda alg, i, j, terms: False
    )
    exact = verify_axioms(
        _BrokenB105Coproduct(params), window=1, axioms=("bialgebra",), max_failures=200
    )
    assert exact.to_json() == report.to_json()


class _UngradedB(FamilyB):
    """B(1, 1, 2, 3, z6) with a stray y1 ox 1 in Delta(y2): its u-degrees
    add to 3 on that term and to 2 on the others, so every Delta(e_j)
    built from it is ungraded, and moving its left factor by x^b scales
    the stray term's pairs by another power of q than the rest."""

    def _coproduct_raw(self, i):
        t = super()._coproduct_raw(i)
        if i == (0, 1, 0):
            return t + Lin.basis(((1, 0, 0), (0, 0, 0)), self.one_scalar())
        return t


@pytest.mark.parametrize(
    "cls,spec,window",
    [
        (_BrokenB105Coproduct, {"family": "B", "n": 7, "p": [1, 3, 5],
                                "q": {"order": 105, "power": 1}}, 1),
        (_UngradedB, {"family": "B", "n": 1, "p": [1, 2, 3],
                      "q": {"order": 6, "power": 1}}, 2),
    ],
    ids=["B105-stray-x", "B6-stray-y1"],
)
def test_an_ungraded_coproduct_is_never_reused(cls, spec, window, monkeypatch):
    """The tail reuse needs a graded Delta(e_j): a pair whose right
    factor's coproduct is ungraded is computed on its own, never taken
    from its model, and the report is the exact route's, byte for
    byte.  (Without the guard, x-shifted pairs of these fixtures pass
    where the exact route fails them.)"""
    import qhopf.verify

    params = parse_params(spec)
    alg = cls(params)
    assert alg.moves_pairs() == "tail"
    box = alg.basis_box(window)
    u = {j: alg.point(j)[0] for j in box}
    ungraded = [
        j
        for j in box
        if any(
            alg.point(a)[0] + alg.point(b)[0] != u[j]
            for a, b in alg.coproduct_basis(j).terms
        )
    ]
    assert ungraded
    computed = []
    plain = qhopf.verify._index_vanishes

    def spied(alg, views, i, j, terms):
        computed.append((i, j))
        return plain(alg, views, i, j, terms)

    monkeypatch.setattr(qhopf.verify, "_index_vanishes", spied)
    report = verify_axioms(alg, window=window, axioms=("bialgebra",), max_failures=500)
    assert not report.passed
    assert {(i, j) for i in box for j in ungraded} <= set(computed)
    monkeypatch.undo()
    assert report.to_json() == exact_report(cls, params, window).to_json()


class _DriftedShiftedA(FamilyA):
    """A(2, z3) with one Gauss-form rational of Delta(y x) moved by 1,
    its Lin left as it is: Delta(y x) is no longer Delta(y) shifted.
    It is a one-index `coproduct_basis` override, since the base builds
    Delta(y x) off Delta(y) and never asks `_coproduct_raw` for it."""

    def coproduct_basis(self, i):
        t = super().coproduct_basis(i)
        if i != (1, 1):
            return t
        (key, ((e, r), *more)), *rest = t.form
        return FormLin(dict(t.terms), ((key, ((e, r + 1), *more)), *rest))


def test_drifted_shifted_coproduct_gets_its_own_class_and_reads_as_the_exact_route(
    monkeypatch,
):
    """Delta(y x) drifted off Delta(y) shifted by x: the zero-only pass
    proves no pair whose exact residual is nonzero, and the report is
    the exact route's, byte for byte.  (The override makes
    `moves_pairs()` None, so no pair takes its model's residuals.)"""
    import qhopf.verify

    params = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    alg = _DriftedShiftedA(params)
    box = alg.basis_box(2)
    for i in box:
        for j in box:
            if _proved(alg, i, j):
                assert _exact(alg, i, j).is_zero(), (i, j)
    report = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=200)
    assert not report.passed
    monkeypatch.setattr(
        qhopf.verify, "bialgebra_vanishes", lambda alg, i, j, terms: False
    )
    exact = verify_axioms(
        _DriftedShiftedA(params), window=2, axioms=("bialgebra",), max_failures=200
    )
    assert exact.to_json() == report.to_json()


class _MisShiftedA(FamilyA):
    """A(2, z3) whose Delta(y x^2) is Delta(y x^3): Delta(y) moved one
    power of x too far.  It is a one-index `coproduct_basis` override,
    since the base builds Delta(y x^2) off Delta(y) and never asks
    `_coproduct_raw` for it."""

    def coproduct_basis(self, i):
        return super().coproduct_basis((1, 3) if i == (1, 2) else i)


def test_a_coproduct_at_the_wrong_shift_reads_as_the_exact_route(monkeypatch):
    """Delta(y x) Delta(x) no longer matches Delta(y x^2), which is
    Delta(y) moved by x^3: no pair whose exact residual is nonzero is
    proved zero, and the report is the exact route's, byte for
    byte."""
    import qhopf.verify

    params = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    alg = _MisShiftedA(params)
    assert not _exact(alg, (1, 1), (0, 1)).is_zero()
    box = alg.basis_box(2)
    for i in box:
        for j in box:
            if _proved(alg, i, j):
                assert _exact(alg, i, j).is_zero(), (i, j)
    report = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=200)
    assert not report.passed
    monkeypatch.setattr(
        qhopf.verify, "bialgebra_vanishes", lambda alg, i, j, terms: False
    )
    exact = verify_axioms(
        _MisShiftedA(params), window=2, axioms=("bialgebra",), max_failures=200
    )
    assert exact.to_json() == report.to_json()


@pytest.mark.parametrize("name", VALID_CORPUS)
def test_zero_only_pass_proves_zero_where_the_exact_residual_is_zero(name):
    alg = build_instance(name)
    box = alg.basis_box(2)
    for i in box:
        for j in box:
            exact = _exact(alg, i, j).is_zero()
            assert _proved(alg, i, j) == exact, (i, j)


@pytest.mark.parametrize("name,window", VERIFY_CYCLO_OPS)
def test_zero_only_pass_leaves_no_fallback_on_the_verify_cyclo_ops(name, window):
    """A fallback is a pair the pass does not prove zero whose exact
    residual is zero: correct, but paid for twice."""
    alg = build_instance(name)
    box = alg.basis_box(window)
    fallbacks = sum(
        1
        for i in box
        for j in box
        if not _proved(alg, i, j)
        and _exact(alg, i, j).is_zero()
    )
    assert fallbacks == 0, f"{fallbacks} fallback pairs"


def test_zero_only_pass_declines_every_pair_above_a_lowered_cap(monkeypatch):
    """With the cap at 0 no pair with a term is proved zero, and the exact
    route gives the same report."""
    import qhopf.verify
    from qhopf.scalars import zero_map

    alg = build_instance("a_2_z3")
    want = verify_axioms(alg, window=2, axioms=("bialgebra",)).to_json()
    monkeypatch.setattr(
        qhopf.verify, "zero_map", lambda level: zero_map(level)._replace(cap=0)
    )
    box = alg.basis_box(2)
    assert not any(_proved(alg, i, j) for i in box for j in box)
    assert verify_axioms(alg, window=2, axioms=("bialgebra",)).to_json() == want


def _l1(pairs):
    return sum(abs(r) for _, r in pairs)


def _pair_l1(alg, i, j):
    """The L1 norm of every term of Delta(e_i e_j) and Delta(e_i) Delta(e_j),
    summed, from the forms and products themselves."""
    form = {k: alg.coproduct_basis(k).form for k in (i, j)}
    total = 0
    for k, _, r in alg._product(i, j):
        total += abs(r) * sum(_l1(p) for _, p in alg.coproduct_basis(k).form)
    for (a, b), cp in form[i]:
        for (c, d), dp in form[j]:
            left = sum(abs(r) for _, _, r in alg._product(a, c))
            right = sum(abs(r) for _, _, r in alg._product(b, d))
            total += _l1(cp) * _l1(dp) * left * right
    return total


@pytest.mark.parametrize("name", ["b_2_123_z12", "clift_3_z4", "a_2_z3"])
def test_zero_only_pass_bounds_each_pair_by_its_l1_norm(name, monkeypatch):
    """Each pair a kernel computes is bounded by its own L1 norm: the
    pass runs its kernel on every pair it is asked about, CLift's off
    lead exponent 0 too."""
    import qhopf.verify
    from qhopf.scalars import zero_map

    bounds = {}
    computing = []

    class Spy:
        def __init__(self, level):
            self.zmap = zero_map(level)
            self.powers = self.zmap.powers
            self.modulus = self.zmap.modulus
            self.residue = self.zmap.residue

        def proves_zero(self, values, l1):
            pair = computing[-1]
            assert pair not in bounds, pair
            bounds[pair] = l1
            return self.zmap.proves_zero(values, l1)

    plain = qhopf.verify._index_vanishes

    def spied(alg, views, i, j, terms):
        computing.append((i, j))
        return plain(alg, views, i, j, terms)

    monkeypatch.setattr(qhopf.verify, "_index_vanishes", spied)
    monkeypatch.setattr(qhopf.verify, "zero_map", Spy)
    alg = build_instance(name)
    box = alg.basis_box(1)
    assert all(_proved(alg, i, j) for i in box for j in box)
    assert set(bounds) == {(i, j) for i in box for j in box}
    for (i, j), l1 in bounds.items():
        assert l1 == _pair_l1(alg, i, j), (i, j)


class _OffByOneOmega(FamilyB):
    """B's closed form with the omega exponent of every product moved by 1."""

    def _product(self, i, j):
        ((k, e, r),) = super()._product(i, j)
        return ((k, (e + 1) % self.omega_order, r),)


def test_off_by_one_omega_in_the_closed_form_is_caught():
    """Both routes read the closed form: the kernels fail the bialgebra
    check, and `multiply_basis` disagrees with the rewriting oracle on
    the pairs `test_random_products_match_rewriter` draws."""
    params = parse_params(
        {"family": "B", "n": 2, "p": [1, 2, 3], "q": {"order": 12, "power": 1}}
    )
    alg = _OffByOneOmega(params)
    report = verify_axioms(alg, window=1, axioms=("bialgebra",))
    assert report.failures
    box = alg.basis_box(3)
    rng = random.Random(2024)
    pairs = [(rng.choice(box), rng.choice(box)) for _ in range(60)]
    assert not any(agree_on_product(alg, i, j) for i, j in pairs)


class _OffByOneTwistA(FamilyA):
    """A's lattice statement with the twist exponent moved by 1."""

    def __init__(self, params):
        super().__init__(params)
        self.twist += 1


class _OffByOneTwistB(FamilyB):
    """B's lattice statement with the twist exponent moved by 1."""

    def __init__(self, params):
        super().__init__(params)
        self.twist += 1


@pytest.mark.parametrize(
    "cls,spec",
    [
        (_OffByOneTwistA, {"family": "A", "n": 2, "q": {"order": 3, "power": 1}}),
        (
            _OffByOneTwistB,
            {"family": "B", "n": 2, "p": [1, 2, 3], "q": {"order": 12, "power": 1}},
        ),
    ],
)
def test_off_by_one_twist_in_the_lattice_statement_is_caught(cls, spec, monkeypatch):
    """`_product` is derived from the lattice statement, which the
    bialgebra pass also reads: a wrong twist fails the bialgebra check,
    with the exact route's report, and `multiply_basis` disagrees with
    the rewriting oracle."""
    import qhopf.verify

    alg = cls(parse_params(spec))
    report = verify_axioms(alg, window=1, axioms=("bialgebra",), max_failures=200)
    assert report.failures
    monkeypatch.setattr(
        qhopf.verify, "bialgebra_vanishes", lambda alg, i, j, terms: False
    )
    exact = verify_axioms(
        cls(parse_params(spec)), window=1, axioms=("bialgebra",), max_failures=200
    )
    assert exact.to_json() == report.to_json()
    box = alg.basis_box(2)
    assert not all(agree_on_product(alg, i, j) for i in box for j in box)


class _MergedLattice(FamilyA):
    """A(2, z3) whose lattice reads y^a x^b at the point of y^(a-3) x^b
    for a >= 3, so y^3 x^b shares the point of x^b.  The base reads the
    lattice at x^0 only, so the merge is in u; q = omega^2 at N = 6, so
    q^(3 v) = 1 and the merged legs even carry the same twists."""

    def lattice(self, i):
        a, b = i
        return (a - 3, b) if a >= 3 else i


def test_a_merged_lattice_is_declined_never_proved():
    """A lattice that is not one to one is a wrong product, which the
    pass reads through `_product` on index keys like any other: on
    box(3), where y^3 is an operand, a pair whose exact residual is
    nonzero is never proved zero."""
    spec = {"family": "A", "n": 2, "q": {"order": 3, "power": 1}}
    alg = _MergedLattice(parse_params(spec))
    box = alg.basis_box(3)
    failing = [
        (i, j)
        for i in box
        for j in box
        if not _exact(alg, i, j).is_zero()
    ]
    assert failing
    assert not any(_proved(alg, i, j) for i, j in failing)


def _doubled_x(alg, t):
    # Delta(x) = 2 x ox y^(n-1) + 1 ox x: one coproduct constant doubled
    return t + Lin.basis(((0, 1), (alg.n - 1, 0)), alg.one_scalar())


class _BrokenOreCoproduct(FamilyC):
    """Delta(x) doubled, and Delta(x) alone: a `coproduct_basis`
    override, which the base's Delta(y^a x), read off its own entry for
    x, does not see, and which `moves_pairs()` excludes, so every pair
    is computed on its own."""

    def coproduct_basis(self, i):
        t = super().coproduct_basis(i)
        return self.as_form_lin(_doubled_x(self, t)) if i == (0, 1) else t


class _BrokenOreProduct(FamilyC):
    """x * y^-1 gains a stray y^-1: one product constant moved by 1.
    The stray term is a one-pair `_product` override, so no other pair
    moves with it, and the bialgebra pass proves every pair on its own
    (no reuse across powers of y)."""

    def _product(self, i, j):
        t = super()._product(i, j)
        if (i, j) == ((0, 1), (-1, 0)):
            return t + (((-1, 0), 0, 1),)
        return t


# Every failure at window 2, in report order, as the unfused lhs - rhs
# residuals reported them.  C(3) runs on integers only; CLift(2, 3/2)
# has q^-1 = 2/3 in its constants, so its sums take the Fraction path.
C3_COPRODUCT_FAILURES = [
    ("coassociativity", "y^-2*x^2", "1 residual tensor terms: [y^-2*x ox x ox y^2] -2"),
    ("coassociativity", "x", "1 residual tensor terms: [x ox y^2 ox y^2] 2"),
    ("coassociativity", "x^2",
     "3 residual tensor terms: [x ox y^2 ox y^2] -2; [x ox y^2 ox y^2*x] 2; "
     "[x ox y^2 ox y^4] 2"),
    ("counit", "x", "right: x"),
    ("antipode", "x", "left: -x"),
    ("antipode", "x", "right: 2*y^-2 + y^-2*x - 2*1"),
    ("bialgebra", "(y^-2, x)", "1 residual tensor terms: [y^-2*x ox 1] -1"),
    ("bialgebra", "(y^-2, y^2*x)", "1 residual tensor terms: [x ox y^2] 1"),
    ("bialgebra", "(y^-2*x, x)",
     "4 residual tensor terms: [y^-2*x ox 1] 2; [y^-2*x ox x] -1; "
     "[y^-2*x ox y^2] -2; ..."),
    ("bialgebra", "(y^-2*x, y^2)", "1 residual tensor terms: [x ox y^2] 1"),
    ("bialgebra", "(y^-2*x, y^2*x)", "1 residual tensor terms: [x ox y^2] -2"),
    ("bialgebra", "(y^-2*x^2, x)",
     "10 residual tensor terms: [y^-2*x ox 1] -4; [y^-2*x ox x] 4; "
     "[y^-2*x ox x^2] -1; ..."),
    ("bialgebra", "(y^-2*x^2, y^2)", "1 residual tensor terms: [x ox y^2] -4"),
    ("bialgebra", "(y^-2*x^2, y^2*x)", "1 residual tensor terms: [x ox y^2] 4"),
    ("bialgebra", "(y^-1, x)", "1 residual tensor terms: [y^-1*x ox y] -1"),
    ("bialgebra", "(y^-1, y*x)", "1 residual tensor terms: [x ox y^2] 1"),
]

C3_PRODUCT_FAILURES = [
    ("bialgebra", "(y^-2*x^2, y^-1)",
     "3 residual tensor terms: [y^-3 ox y^-1] -2; [y^-3*x ox y^-1] -2; "
     "[y^-1 ox y^-1] 2"),
    ("bialgebra", "(x, y^-1)", "1 residual tensor terms: [y^-1 ox y] -1"),
    ("bialgebra", "(x, y^-1)", "counit residual 1"),
    ("bialgebra", "(x, y^-1*x)", "1 residual tensor terms: [y^-1 ox y*x] -1"),
    ("bialgebra", "(x, y^-1*x^2)", "1 residual tensor terms: [y^-1 ox y*x^2] -1"),
    ("bialgebra", "(x^2, y^-1)", "1 residual tensor terms: [y^-1 ox y*x] -2"),
    ("bialgebra", "(x^2, y^-1*x)", "1 residual tensor terms: [y^-1 ox y*x^2] -2"),
    ("bialgebra", "(x^2, y^-1*x^2)", "1 residual tensor terms: [y^-1 ox y*x^3] -2"),
]

CLIFT_PRODUCT_FAILURES = [
    ("antipode", "x", "right: y^-1"),
    ("antipode", "x^2", "right: 16/9*y^-1"),
    ("bialgebra", "(y^-1*x^2, y^-2*x)",
     "3 residual tensor terms: [y^-3*x ox y^-1] -25/9; [y^-3*x^2 ox y^-1] -10/9; "
     "[y^-2*x ox y^-1] 25/9"),
    ("bialgebra", "(y^-1*x^2, y^-2*x^2)",
     "3 residual tensor terms: [y^-3*x ox y^-1] 25/9; [y^-3*x^2 ox y^-1] 10/9; "
     "[y^-2*x ox y^-1] -25/9"),
    ("bialgebra", "(y^-1*x^2, y^-1)",
     "3 residual tensor terms: [y^-2 ox y^-1] -5/3; [y^-2*x ox y^-1] -5/3; "
     "[y^-1 ox y^-1] 5/3"),
    ("bialgebra", "(x, y^-2*x)", "1 residual tensor terms: [y^-2*x ox y^-1] -1"),
    ("bialgebra", "(x, y^-2*x^2)", "1 residual tensor terms: [y^-2*x ox y^-1] 1"),
    ("bialgebra", "(x, y^-1)", "1 residual tensor terms: [y^-1 ox 1] -1"),
    ("bialgebra", "(x, y^-1)", "counit residual 1"),
    ("bialgebra", "(x, y^-1*x)", "1 residual tensor terms: [y^-1 ox x] -1"),
    ("bialgebra", "(x, y^-1*x^2)", "1 residual tensor terms: [y^-1 ox x^2] -1"),
    ("bialgebra", "(x^2, y^-1)",
     "3 residual tensor terms: [y^-1 ox 1] -2/3; [y^-1 ox x] -5/3; [y^-1 ox y] 2/3"),
    ("bialgebra", "(x^2, y^-1*x)",
     "3 residual tensor terms: [y^-1 ox x] -2/3; [y^-1 ox x^2] -5/3; "
     "[y^-1 ox y*x] 2/3"),
    ("bialgebra", "(x^2, y^-1*x^2)",
     "3 residual tensor terms: [y^-1 ox x^2] -2/3; [y^-1 ox x^3] -5/3; "
     "[y^-1 ox y*x^2] 2/3"),
]


@pytest.mark.parametrize(
    "cls,spec,want",
    [
        (_BrokenOreCoproduct, {"family": "C", "n": 3}, C3_COPRODUCT_FAILURES),
        (_BrokenOreProduct, {"family": "C", "n": 3}, C3_PRODUCT_FAILURES),
        (
            _BrokenOreProduct,
            {"family": "CLift", "n": 2, "q": "3/2"},
            CLIFT_PRODUCT_FAILURES,
        ),
    ],
    ids=["C3-coproduct", "C3-product", "CLift-3/2-product"],
)
def test_rational_corruption_is_reported_term_by_term(cls, spec, want):
    alg = cls(parse_params(spec))
    assert alg.level == 1
    report = verify_axioms(alg, window=2)
    got = [(f.axiom, f.where, f.residual) for f in report.failures]
    assert got == want


class _BrokenOreRow(FamilyC):
    """x * y^-1 gains a stray y^-1 in the lead-zero row that
    `_multiply_raw` states, so every y^a x * y^-1 gains y^(a-1) with it."""

    def _multiply_raw(self, i, j):
        t = super()._multiply_raw(i, j)
        if (i, j) == ((0, 1), (-1, 0)):
            return t + Lin.basis((-1, 0), self.one_scalar())
        return t


def test_a_lead_zero_product_corruption_fails_on_every_power_of_y():
    """The base moves the lead-zero row by y^a for every row, so the
    stray term fails (y^a x, y^-1) for every a of the window, and the
    report, through the pass and the models' residuals, is the exact
    route's byte for byte, which computes every pair on its own."""
    params = parse_params({"family": "C", "n": 3})
    alg = _BrokenOreRow(params)
    report = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=500)
    where = {f.where for f in report.failures}
    for a in range(-2, 3):
        assert f"({alg.index_str((a, 1))}, y^-1)" in where, a
    assert report.to_json() == exact_report(_BrokenOreRow, params, 2).to_json()


class _BrokenOreCoproductRow(FamilyC):
    """Delta(x) doubled in the lead-zero entry that `_coproduct_raw`
    states, so every Delta(y^a x) is doubled with it."""

    def _coproduct_raw(self, i):
        t = super()._coproduct_raw(i)
        return _doubled_x(self, t) if i == (0, 1) else t


def test_a_lead_zero_coproduct_corruption_fails_on_every_power_of_y():
    """The base builds Delta(y^a x) from Delta(x) for every a, so the
    doubled constant fails coassociativity, the counit law and the
    bialgebra law at y^a x for every a of the window, and the report,
    through the pass and the models' residuals, is the exact route's
    byte for byte, which computes every pair on its own."""
    params = parse_params({"family": "C", "n": 3})
    alg = _BrokenOreCoproductRow(params)
    assert alg.moves_pairs() and not _BrokenOreCoproduct(params).moves_pairs()
    report = verify_axioms(alg, window=2, max_failures=500)
    failed = {(f.axiom, f.where) for f in report.failures}
    for a in range(-2, 3):
        y_a_x = alg.index_str((a, 1))
        assert ("coassociativity", y_a_x) in failed, a
        assert ("counit", y_a_x) in failed, a
        assert ("bialgebra", f"({y_a_x}, x)") in failed, a
    bialgebra = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=500)
    want = exact_report(_BrokenOreCoproductRow, params, 2)
    assert bialgebra.to_json() == want.to_json()


class _BrokenCoproductRowA(FamilyA):
    """A(2, z3) with a stray x ox 1 in the x^0 entry Delta(y) that
    `_coproduct_raw` states, so every Delta(y x^b) carries it moved."""

    def _coproduct_raw(self, i):
        t = super()._coproduct_raw(i)
        if i == (1, 0):
            return t + Lin.basis(((0, 1), (0, 0)), self.one_scalar())
        return t


def test_an_x_zero_coproduct_corruption_fails_on_every_power_of_x():
    """The base builds Delta(y x^b) from Delta(y) for every b, so the
    stray term fails coassociativity, the counit law and the bialgebra
    law at y x^b for every b of the window, and the report, through the
    pass, is the exact route's byte for byte."""
    params = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    alg = _BrokenCoproductRowA(params)
    report = verify_axioms(alg, window=2, max_failures=500)
    failed = {(f.axiom, f.where) for f in report.failures}
    for b in range(-2, 3):
        y_x_b = alg.index_str((1, b))
        assert ("coassociativity", y_x_b) in failed, b
        assert ("counit", y_x_b) in failed, b
        assert ("bialgebra", f"({y_x_b}, y)") in failed, b
    bialgebra = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=500)
    want = exact_report(_BrokenCoproductRowA, params, 2)
    assert bialgebra.to_json() == want.to_json()


def test_residual_report_names_three_terms_and_the_count():
    alg = _BrokenProduct(
        parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    )
    r = Lin({((0, k), (1, 0)): alg.one_scalar() for k in range(5)})
    assert _tensor_residual(alg, r) == (
        "5 residual tensor terms: [1 ox y] 1; [x ox y] 1; [x^2 ox y] 1; ..."
    )


def test_parallel_scan_rebuilds_a_subclassed_provider():
    """Workers rebuild the provider from its own class, so a parallel
    scan of a corrupted subclass reports the same failures."""
    params = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    serial = verify_axioms(_BrokenProduct(params), window=2, jobs=1)
    parallel = verify_axioms(_BrokenProduct(params), window=2, jobs=2)
    assert not serial.passed
    assert parallel.to_json() == serial.to_json()


def test_max_failures_caps_the_list():
    params = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    report = verify_axioms(_BrokenProduct(params), window=2, max_failures=3)
    assert len(report.failures) == 3
    assert not report.passed


GROUPLIKE_COUNTS = [
    ({"family": "GroupZ2"}, 25),
    ({"family": "GroupZSemiZ"}, 25),
    ({"family": "EnvAbelian"}, 1),
    ({"family": "EnvNonabelian"}, 1),
    ({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}, 5),
    ({"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}}, 5),
    ({"family": "C", "n": 3}, 5),
    ({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}}, 5),
]


@pytest.mark.parametrize("spec,count", GROUPLIKE_COUNTS, ids=lambda v: str(v))
def test_grouplike_counts_at_bound_2(spec, count):
    alg = build(parse_params(spec))
    assert len(find_grouplikes(alg, 2)) == count


@pytest.mark.parametrize(
    "spec", [s for s, _ in GROUPLIKE_COUNTS], ids=lambda s: s["family"]
)
def test_grouplikes_form_a_group(spec):
    alg = build(parse_params(spec))
    small = find_grouplikes(alg, 2)
    large = set(find_grouplikes(alg, 4))
    assert alg.unit_index() in small
    for g in small:
        for h in small:
            prod = alg.multiply_basis(g, h)
            assert len(prod) == 1
            ((idx, c),) = prod.terms.items()
            assert c.is_one() and idx in large
        s_g = alg.antipode_basis(g)
        assert len(s_g) == 1
        ((inv_idx, c),) = s_g.terms.items()
        assert c.is_one() and inv_idx in large
        assert alg.multiply_basis(g, inv_idx) == alg.one_el()


def test_cocommutative_exactly_for_the_known_instances():
    expected_cocommutative = {
        "GroupZ2",
        "GroupZSemiZ",
        "EnvAbelian",
        "EnvNonabelian",
    }
    for spec in grid_specs():
        alg = build(parse_params(spec))
        want = spec["family"] in expected_cocommutative or (
            spec["family"] == "A" and spec["n"] == 0
        )
        assert is_cocommutative(alg) == want, spec


def test_skew_primitive_space_of_the_skew_laurent_family():
    # Delta(y) = y ox 1 + x^2 ox y, so the (x^2, 1) space is
    # span{y, x^2 - 1} inside any window
    alg = build(parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}))
    basis = find_skew_primitives(alg, (0, 2), (0, 0), window=2)
    assert len(basis) == 2
    ech = Echelon()
    for v in basis:
        ech.insert(v)
    assert ech.contains(lin_from_pairs([((1, 0), 1)], level=3))
    assert ech.contains(lin_from_pairs([((0, 2), 1), ((0, 0), -1)], level=3))


def test_skew_primitives_reject_non_grouplike_corners():
    alg = build(parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}}))
    with pytest.raises(ValueError):
        find_skew_primitives(alg, (1, 0), (0, 0), window=2)

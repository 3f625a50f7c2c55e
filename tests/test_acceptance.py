"""End-to-end acceptance gate: one test per contract criterion.

Every check is exact (integer / cyclotomic equality, byte equality for
reports); there are no tolerances.  Each test prints a single

    criterion NN <label>: PASS|FAIL

line (shown under ``pytest -s``, and equivalent to the per-test verdict
under ``pytest -v``).  Failing cases ride along in the assert message.
"""

import itertools
import json
import math
import random
import time

import pytest

import qhopf.cli as cli
from conftest import B_SPECS, grid_params, grid_specs
from qhopf.comodule import Coaction, QuotientError, default_quotient
from qhopf.families import build
from qhopf.families.rewriter import agree_on_product
from qhopf.invariants import (
    abelianization_goldie_rank,
    distinguish,
    ext1_from_instance,
    invariant_vector,
    is_commutative,
    isomorphic,
    pi_degree_and_io,
)
from qhopf.params import CParams, parse_params, params_str
from qhopf.qcombinat import vanishing_criterion
from qhopf.scalars import Cyclo
from qhopf.verify import verify_axioms

INSTANCE_DIR = __file__.rsplit("/", 2)[0] + "/instances"


def verdict(num, label, failures):
    ok = not failures
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num:02d} {label}: {failures[:8]}"


def test_criterion_01_hopf_axiom_grid():
    """All axiom checks pass exactly on the 32-instance grid, window 3."""
    failures = []
    t0 = time.perf_counter()
    for params in grid_params():
        report = verify_axioms(build(params), window=3)
        if not report.passed:
            failures.append((params_str(params), report.failures[:2]))
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        failures.append(f"grid runtime {elapsed:.1f}s, budget 300s")
    verdict(1, "hopf axiom grid", failures)


def test_criterion_02_carried_coproduct_powers():
    """Delta(y_i)^(p_i) = y_i^(p_i) ox 1 + x^(mn) ox y_i^(p_i), same for
    every i, in each carried-basis instance."""
    failures = []
    for spec in B_SPECS:
        params = parse_params(spec)
        alg = build(params)
        heads = params.p[1:]
        s = len(heads)
        m = math.prod(heads)
        carried = (heads[0],) + (0,) * s
        xmn = (0,) * s + (m * params.n,)
        want = alg.tensor2(alg.basis_el(carried), alg.basis_el(alg.unit_index()))
        want = want + alg.tensor2(alg.basis_el(xmn), alg.basis_el(carried))
        powers = []
        for i in range(s):
            yi = tuple(1 if j == i else 0 for j in range(s + 1))
            powers.append(alg.t2_pow(alg.coproduct_basis(yi), heads[i]))
            if powers[-1] != want:
                failures.append((params_str(params), f"i={i + 1}"))
        if any(p != powers[0] for p in powers[1:]):
            failures.append((params_str(params), "powers differ across i"))
    verdict(2, "carried coproduct powers", failures)


def test_criterion_03_binomial_vanishing_equivalence():
    """(a choose r)_xi all vanish for 0 < r < a iff xi has order a,
    swept exhaustively; the criterion itself recomputes both routes."""
    failures = []
    checks = 0
    for a in range(2, 13):
        for b in range(1, 13):
            for j in range(b):
                xi = Cyclo.zeta(b, j)
                want = xi.order_of_unity() == a
                if vanishing_criterion(a, xi) != want:
                    failures.append((a, b, j))
                checks += 1
    if checks != 11 * 78:
        failures.append(f"expected {11 * 78} checks, ran {checks}")
    verdict(3, "binomial vanishing equivalence", failures)


def test_criterion_04_pi_degree_and_integral_order():
    """Frozen (105, 15) pair, and io | pideg across 20 valid tuples."""
    failures = []
    frozen = pi_degree_and_io(parse_params(B_SPECS[2]))
    if frozen != (105, 15):
        failures.append(f"frozen pair: {frozen}")
    sweep = [
        (1, [1, 2, 3]), (2, [1, 2, 3]), (5, [1, 2, 3]),
        (1, [1, 2, 5]), (3, [1, 2, 5]), (1, [1, 3, 4]),
        (7, [1, 3, 5]), (1, [1, 3, 5]), (2, [1, 4, 5]),
        (1, [1, 2, 7]), (2, [1, 3, 7]), (1, [1, 5, 6]),
        (2, [2, 3, 5]), (4, [2, 3, 5]), (2, [2, 5, 7]),
        (3, [3, 4, 5]), (6, [3, 2, 5]), (1, [1, 2, 3, 5]),
        (2, [1, 3, 4, 5]), (2, [2, 3, 5, 7]),
    ]
    assert len(sweep) == 20
    for n, p in sweep:
        ell = (n // p[0]) * math.prod(p[1:])
        params = parse_params(
            {"family": "B", "n": n, "p": p, "q": {"order": ell, "power": 1}}
        )
        pideg, io = pi_degree_and_io(params)
        if pideg != ell or pideg % io != 0:
            failures.append((n, tuple(p), pideg, io))
    verdict(4, "pi degree and integral order", failures)


def test_criterion_05_tangent_space_dimension():
    """ext1 = 2 exactly on the commutative grid members, 1 on the rest,
    computed from the presentation, not looked up."""
    failures = []
    for params in grid_params():
        alg = build(params)
        want = 2 if is_commutative(alg) else 1
        got = ext1_from_instance(alg)
        if got != want:
            failures.append((params_str(params), got, want))
    verdict(5, "tangent space dimension", failures)


def test_criterion_06_ore_abelianization_rank():
    failures = []
    for n in range(2, 7):
        rank, _ = abelianization_goldie_rank(CParams(n))
        if rank != n - 1:
            failures.append((n, rank))
    verdict(6, "ore abelianization rank", failures)


# the four pairs below are honest isomorphisms; the fifth is the
# classifier's recorded fold for the degree-one Ore instance, which the
# instance-level cocommutativity check refuses to endorse (see the
# invariants module docstring)
EXPECTED_TRUE_PAIRS = [
    ({"family": "A", "n": -2, "q": {"order": 3, "power": 1}},
     {"family": "A", "n": 2, "q": {"order": 3, "power": 2}}),
    ({"family": "A", "n": 0, "q": {"order": 5, "power": 1}},
     {"family": "A", "n": 0, "q": {"order": 5, "power": 4}}),
    ({"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
     {"family": "A", "n": 2, "q": {"order": 4, "power": 3}}),
    ({"family": "CLift", "n": 2, "q": 1}, {"family": "C", "n": 2}),
]
MANDATED_FOLD_PAIR = ({"family": "C", "n": 1}, {"family": "A", "n": 1, "q": 1})

POOL_EXTRAS = [
    {"family": "A", "n": 2, "q": {"order": 4, "power": 3}},
    {"family": "A", "n": -2, "q": {"order": 3, "power": 1}},
    {"family": "A", "n": 2, "q": {"order": 3, "power": 2}},
    {"family": "A", "n": 0, "q": {"order": 5, "power": 4}},
    {"family": "A", "n": 1, "q": {"order": 5, "power": 4}},
    {"family": "CLift", "n": 2, "q": 1},
    {"family": "C", "n": 1},
]


def test_criterion_07_classifier_soundness():
    """isomorphic() is true for exactly the mandated pairs; every false
    pair is backed by a differing window invariant or a cited parameter
    rule.  Zero tolerance in both directions."""
    failures = []
    pool = grid_params() + [parse_params(s) for s in POOL_EXTRAS]
    labels = [params_str(p) for p in pool]
    vectors = [invariant_vector(build(p), 2) for p in pool]

    def key(i, j):
        return frozenset((labels[i], labels[j]))

    expected = {
        frozenset((params_str(parse_params(a)), params_str(parse_params(b))))
        for a, b in EXPECTED_TRUE_PAIRS + [MANDATED_FOLD_PAIR]
    }
    mandated = frozenset(
        params_str(parse_params(s)) for s in MANDATED_FOLD_PAIR
    )

    got_true = set()
    for i, j in itertools.combinations(range(len(pool)), 2):
        same, why = isomorphic(pool[i], pool[j])
        if same:
            got_true.add(key(i, j))
            continue
        cited = "distinguished by" in why or "different canonical parameters" in why
        if not cited:
            failures.append((labels[i], labels[j], f"uncited false pair: {why}"))
        if vectors[i] == vectors[j] and "different canonical parameters" not in why:
            failures.append((labels[i], labels[j], "no invariant and no rule cited"))
    if got_true != expected:
        failures.append(
            f"true pairs {sorted(map(sorted, got_true))} != "
            f"expected {sorted(map(sorted, expected))}"
        )

    for a, b in EXPECTED_TRUE_PAIRS:
        p1, p2 = parse_params(a), parse_params(b)
        i, j = labels.index(params_str(p1)), labels.index(params_str(p2))
        if vectors[i] != vectors[j]:
            failures.append((labels[i], labels[j], "vectors differ on true pair"))
        if distinguish(build(p1), build(p2), 2) is not None:
            failures.append((labels[i], labels[j], "distinguished true pair"))

    # the recorded fold: parameter layer says isomorphic, instance layer
    # honestly splits it on cocommutativity
    p1, p2 = (parse_params(s) for s in MANDATED_FOLD_PAIR)
    if not isomorphic(p1, p2)[0]:
        failures.append((*sorted(mandated), "mandated fold not resolved"))
    if distinguish(build(p1), build(p2), 2) != "is_cocommutative":
        failures.append((*sorted(mandated), "fold discrepancy not reported"))
    verdict(7, "classifier soundness", failures)


ORACLE_REPS = [
    {"family": "GroupZ2"},
    {"family": "GroupZSemiZ"},
    {"family": "EnvAbelian"},
    {"family": "EnvNonabelian"},
    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    {"family": "B", "n": 1, "p": [1, 2, 3], "q": {"order": 6, "power": 1}},
    {"family": "C", "n": 3},
    {"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
]


def test_criterion_08_rewriter_oracle_agreement():
    """200 random window-3 products per family match the free-algebra
    rewriter's normal form exactly."""
    failures = []
    for pos, spec in enumerate(ORACLE_REPS):
        alg = build(parse_params(spec))
        box = alg.basis_box(3)
        rng = random.Random(800 + pos)
        for _ in range(200):
            i, j = rng.choice(box), rng.choice(box)
            if not agree_on_product(alg, i, j):
                failures.append((params_str(alg.params), i, j))
                break
    verdict(8, "rewriter oracle agreement", failures)


def test_criterion_09_comodule_suite():
    """(a) coaction projections commute and the window decomposition
    identities hold for every built-in quotient; (b) strong grading for
    the skew-Laurent quotient; (c) derivations commute and match the
    coaction coefficients; (d) the worked coaction values."""
    failures = []

    # (a) projection commutation on every grid instance with a built-in
    # quotient; bigrade decomposition for Laurent bars, counit collapse
    # for polynomial bars
    skipped = []
    for params in grid_params():
        alg = build(params)
        try:
            co = Coaction(alg, default_quotient(alg))
        except QuotientError:
            skipped.append(params_str(params))
            continue
        for idx in alg.basis_box(3):
            h = alg.basis_el(idx)
            if not co.coactions_compatible(h):
                failures.append(("a", params_str(params), idx, "commutation"))
            if co.spec.kind == "laurent" and not co.decomposes(h):
                failures.append(("a", params_str(params), idx, "decomposition"))
            if not co.counit_recovers(h):
                failures.append(("a", params_str(params), idx, "counit"))
    if skipped != ["CLift(3, z4)"]:
        failures.append(("a", f"unexpected quotient skips: {skipped}"))

    # (b) strong grading for A(2,1)/<y> at n in {-2..2}, window 3
    alg = build(parse_params({"family": "A", "n": 2, "q": 1}))
    co = Coaction(alg, default_quotient(alg))
    for n in range(-2, 3):
        if not co.strong_grading(n, 3):
            failures.append(("b", n))

    # (c) derivations commute and Taylor coefficients match rho
    for spec in ({"family": "C", "n": 2}, {"family": "C", "n": 3},
                 {"family": "EnvNonabelian"}):
        alg = build(parse_params(spec))
        co = Coaction(alg, default_quotient(alg))
        for idx in alg.basis_box(3):
            h = alg.basis_el(idx)
            if co.delta_r(co.delta_l(h)) != co.delta_l(co.delta_r(h)):
                failures.append(("c", spec["family"], idx, "commutator"))
            if not co.taylor_matches(h):
                failures.append(("c", spec["family"], idx, "taylor"))

    # (d) worked values: lam(y) = t^n ox y, rho(y) = y ox 1 for the
    # commutative skew-Laurent quotients
    for n in (1, 2, 3):
        alg = build(parse_params({"family": "A", "n": n, "q": 1}))
        co = Coaction(alg, default_quotient(alg))
        y = alg.basis_el((1, 0))
        if co.lam(y) != {n: y} or co.rho(y) != {0: y}:
            failures.append(("d", n))
    verdict(9, "comodule suite", failures)


def test_criterion_10_report_determinism(capsys):
    """Structured verification reports are byte-identical across runs
    and worker counts."""
    failures = []
    path = f"{INSTANCE_DIR}/b_1_123_z6.json"
    outs = []
    for argv in (
        ["verify", path, "--format", "structured"],
        ["verify", path, "--format", "structured"],
        ["verify", path, "--format", "structured", "--jobs", "2"],
    ):
        code = cli.main(argv)
        out = capsys.readouterr().out
        if code != 0:
            failures.append((argv, code))
        outs.append(out)
    if not (outs[0] == outs[1] == outs[2]):
        failures.append("reports differ across runs/workers")
    if json.loads(outs[0])["axioms"]["passed"] is not True:
        failures.append("report does not record a pass")
    verdict(10, "report determinism", failures)

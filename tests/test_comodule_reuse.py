"""The comodule box sweep's reuse along the grouplike end letter, and
the strong-grading shortcut.

`Coaction.box_verdicts` proves the bicomodule residual, the counit
collapse and the bigrade decomposition once per model index along the
end letter that `moves_pairs()` names; every other index takes its
model's verdict when the model passes and its coproduct passes the
guard (`HopfProvider.end_model`), and is computed on its own otherwise.
`strong_grading` reads one-term box products until they cover the box's
degree-0 indices, and otherwise takes the Echelon's answer.  With both
switched off (`moves_pairs()` None, and no shortcut), every `comodule`
document is the same, byte for byte; and the fixtures below are each
got wrong by a reuse or a shortcut that drops one of its conditions.
"""

import contextlib
import io
import json

import pytest

from conftest import INSTANCES, build_instance
from qhopf.cli import main
from qhopf.comodule import Coaction, QuotientError, default_quotient
from qhopf.elements import Lin
from qhopf.families.base import HopfProvider
from qhopf.families.family_a import FamilyA
from qhopf.params import parse_params
from test_comodule import CORPUS, ref_compatible, ref_counit_recovers

CHECKS = ("coactions_compatible", "counit_recovers", "decomposes")


def _document(name: str, window: int) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(
            ["comodule", "--window", str(window), "--format", "structured",
             str(INSTANCES / f"{name}.json")]
        )
    return f"{code}\n{out.getvalue()}"


def _reuse_off(mp):
    # every index computed on its own, and every strong grading by the
    # Echelon alone
    mp.setattr(HopfProvider, "moves_pairs", lambda self: None)
    mp.setattr(Coaction, "_covers", lambda self, lows, highs, zeros: False)


CASES = [(name, 3) for name, _ in CORPUS] + [
    ("a_2_z3", 6), ("b_2_123_z12", 6), ("c_3", 6),
]


@pytest.mark.parametrize("name,window", CASES, ids=[f"{n}-w{w}" for n, w in CASES])
def test_reused_documents_equal_the_reuse_off_documents(name, window):
    reused = _document(name, window)
    with pytest.MonkeyPatch.context() as mp:
        _reuse_off(mp)
        alone = _document(name, window)
    assert reused == alone
    assert json.loads(reused.split("\n", 1)[1])["command"] == "comodule"


def test_the_cases_cover_every_end_letter_and_quotient_kind():
    ends, kinds = set(), set()
    for name, _ in CASES:
        alg = build_instance(name)
        ends.add(alg.moves_pairs())
        kinds.add(default_quotient(alg).kind)
    assert ends == {"lead", "tail", None}
    assert kinds == {"laurent", "poly"}


def _spy(monkeypatch) -> dict:
    # the index each box check runs on, in order, and the products
    # strong_grading reads
    calls: dict = {name: [] for name in CHECKS + ("products",)}
    for name in CHECKS:
        plain = getattr(Coaction, name)

        def spied(self, h, plain=plain, seen=calls[name]):
            (idx,) = h.terms
            seen.append(idx)
            return plain(self, h)

        monkeypatch.setattr(Coaction, name, spied)
    multiply = HopfProvider.multiply_basis

    def product(self, i, j):
        calls["products"].append((i, j))
        return multiply(self, i, j)

    monkeypatch.setattr(HopfProvider, "multiply_basis", product)
    return calls


@pytest.mark.parametrize(
    "name,models,box_size", [("b_2_123_z12", 18, 198), ("a_2_z3", 6, 66), ("c_3", 6, 66)]
)
def test_each_box_check_runs_once_per_model_index(name, models, box_size, monkeypatch):
    """At window 5 the box checks run on the model indices only, each
    once, in box order: the end letter's exponent 0.  Each strong
    grading reads one product per degree-0 index, each one term."""
    alg = build_instance(name)
    co = Coaction(alg, default_quotient(alg))
    slot = 0 if alg.moves_pairs() == "lead" else -1
    box = alg.basis_box(5)
    assert len(box) == box_size
    at_models = [i for i in box if not i[slot]]
    assert len(at_models) == models
    calls = _spy(monkeypatch)
    verdicts = co.box_verdicts(5)
    assert all(verdicts.values())
    assert calls["coactions_compatible"] == at_models
    assert calls["counit_recovers"] == at_models
    laurent = co.spec.kind == "laurent"
    assert calls["decomposes"] == (at_models if laurent else [])
    if not laurent:
        return
    zeros = co._grading(5)[0]
    for n in range(1, 6):
        calls["products"].clear()
        assert co.strong_grading(n, 5)
        read = list(calls["products"])
        assert len(read) == len(zeros)
        covered = [alg.multiply_basis(u, v).support() for u, v in read]
        assert sorted(k for (k,) in covered) == sorted(zeros)


def test_a_drifted_moved_entry_is_checked_on_its_own():
    """Drifting one rational of the moved entry Delta(y x) of C(3)
    leaves its keys and terms, and its model x passing, and breaks the
    bicomodule residual of y x: the guard sends y x to its own residual,
    which fails, as it does with the reuse off.  (The residual of a
    skew-Laurent index is blind to such a drift: its only x-power legs
    are the grouplike ends, so each side reads the two end terms'
    coefficients once.)"""
    alg = build_instance("c_3")
    idx = (1, 1)
    cop = alg.coproduct_basis(idx)
    (key, pairs), *rest = cop.form
    assert key == (idx, (3, 0))
    cop.form = ((key, tuple((e, 2 * r) for e, r in pairs)), *rest)
    co = Coaction(alg, default_quotient(alg))
    box = alg.basis_box(2)
    assert idx not in co._models(box)
    assert co._models(box)[(1, 2)] == (0, 2)
    assert co.coactions_compatible(alg.basis_el((0, 1)))
    assert not co.coactions_compatible(alg.basis_el(idx))
    want = {"bicomodule_compatible": False, "counit_collapse": True}
    assert co.box_verdicts(2) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(HopfProvider, "moves_pairs", lambda self: None)
        assert co._models(box) == {}
        assert co.box_verdicts(2) == want


def test_a_tampered_end_letter_image_stops_the_reuse():
    """Sending C(3)'s lead letter y to t after construction makes pi of
    y a nonzero power of t in a polynomial quotient: the collapse of y^a
    (a > 0) loses degree 0, while its model 1 keeps it.  The sweep
    reads the image again and checks each index on its own.  The boxes
    have y-exponents a >= 0, where pi of y^-1 is never read."""
    alg = build_instance("c_3")
    co = Coaction(alg, default_quotient(alg))
    powers = [(a, 0) for a in range(3)]
    trusted = co._models(powers)
    assert trusted == {(1, 0): (0, 0), (2, 0): (0, 0)}
    co.spec.images["y"] = 1
    co._pi_cache.clear()
    for box in (powers, [i for i in alg.basis_box(2) if i[0] >= 0]):
        assert co._models(box) == {}
        for check, ref in (
            (co.coactions_compatible, ref_compatible),
            (co.counit_recovers, ref_counit_recovers),
        ):
            want = [ref(co, alg.basis_el(i)) for i in box]
            assert [check(alg.basis_el(i)) for i in box] == want
            assert co._holds(check, box, co._models(box)) == all(want)
    assert not co._holds(co.counit_recovers, powers, co._models(powers))
    # the models read before the tamper would pass every power of y
    assert co._holds(co.counit_recovers, powers, trusted)


def test_a_zero_end_letter_image_stops_the_reuse():
    # pi(x) = 0 leaves no move of t-degrees; x^-1 then has no image,
    # which the box checks report as the construction check would
    alg = build_instance("a_2_z3")
    co = Coaction(alg, default_quotient(alg))
    co.spec.images["x"] = None
    co._pi_cache.clear()
    assert co._models(alg.basis_box(2)) == {}
    with pytest.raises(QuotientError):
        co.box_verdicts(2)


class _TwoTermA(FamilyA):
    """A(2, 1) whose products of degree -n by degree n land on two
    y-powers, y^s + y^(s+1) with s the sum of the y-exponents, except
    where `single` names the pair: that one is y^s alone.  With no
    single pair the span misses every y^h (the chain of sums never
    ends); with y^0 x^-n times y^w x^n single it is all of H_0, though
    only y^w is covered by a one-term product."""

    single: tuple = ()

    def multiply_basis(self, i, j):
        (a, b), (c, d) = i, j
        if b >= 0 or b + d:
            return super().multiply_basis(i, j)
        s = a + c
        one = self.one_scalar()
        if (a, c) in self.single:
            return Lin({(s, 0): one})
        return Lin({(s, 0): one, (s + 1, 0): one})


class _SpanningTwoTermA(_TwoTermA):
    single = ((0, 3),)


@pytest.mark.parametrize("cls,spans", [(_TwoTermA, False), (_SpanningTwoTermA, True)])
def test_multi_term_products_reach_the_echelon(cls, spans, monkeypatch):
    alg = cls(parse_params({"family": "A", "n": 2, "q": 1}))
    co = Coaction(alg, default_quotient(alg))
    grading = co._grading(3)
    reached = []
    plain = Coaction._spans

    def spans_spy(self, lows, highs, zeros):
        reached.append(len(lows) * len(highs))
        return plain(self, lows, highs, zeros)

    monkeypatch.setattr(Coaction, "_spans", spans_spy)
    for n in range(1, 4):
        lows, highs, zeros = (grading[d] for d in (-n, n, 0))
        assert not co._covers(lows, highs, zeros)
        assert co.strong_grading(n, 3) is spans
        assert plain(co, lows, highs, zeros) is spans
    assert reached == [16, 16, 16]


def test_one_term_products_decide_without_the_echelon(monkeypatch):
    monkeypatch.setattr(
        Coaction, "_spans", lambda *args: pytest.fail("the Echelon was built")
    )
    alg = build_instance("group_z2")
    co = Coaction(alg, default_quotient(alg))
    assert all(co.strong_grading(n, 3) for n in range(1, 4))


def test_the_reuse_off_switch_reaches_the_sweep():
    # `_reuse_off` is what the document comparison above relies on
    with pytest.MonkeyPatch.context() as mp:
        _reuse_off(mp)
        alg = build_instance("b_2_123_z12")
        co = Coaction(alg, default_quotient(alg))
        assert co._models(alg.basis_box(2)) == {}
        assert not co._covers(*(co._grading(2)[d] for d in (-1, 1, 0)))

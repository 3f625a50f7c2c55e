"""The per-index checks' reuse along the grouplike end letter.

`verify_axioms` proves coassociativity and the counit law once per
model index along the end letter that `moves_pairs()` names ("lead" or
"tail"), and the antipode law once per model index along "tail" only;
every other index takes its model's verdict when the model passes, and
is computed on its own otherwise.  With the reuse switched off
(`moves_pairs()` None, `exact_report`), every report is the same, byte
for byte, on every corrupted fixture of the axiom, kernel and antipode
tests, on the sound instances, and on the fixtures below, each of
which a reuse that drops one of its conditions would get wrong.
"""

import pytest

import test_antipode
import test_hopf_axioms
import test_kernels
from conftest import build_instance, exact_report, spec_label
from qhopf.families.base import HopfProvider
from qhopf.families.family_a import FamilyA
from qhopf.families.family_b import FamilyB
from qhopf.families.family_c import FamilyC
from qhopf.families.group_rings import GroupZ2
from qhopf.params import parse_params
from qhopf.verify import verify_axioms

INDEX_AXIOMS = ("coassociativity", "counit", "antipode")


class _FoldedLatticeZ2(GroupZ2):
    """GroupZ2 whose `lattice_index(u, 0)` is not one to one: u < 0 is
    read as -u, so y^a x^b (a > 0, b != 0) gets S = y^a x^-b, since
    the base reads S(y^a x^b) = x^-b y^-a off a product landing at
    u = -a.  Its models y^a meet u = 0 alone; only the round trip of
    the points they read, y^-a among them, finds the fold."""

    def lattice_index(self, u, v):
        return (abs(u), v)


class _StrayCounitA(FamilyA):
    """A(2, z3) whose counit is 1 at y x too: a one-index
    `counit_basis` override, which `moves_pairs()` excludes, so no
    index takes its model's verdict (y's, which passes)."""

    def counit_basis(self, i):
        return self.one_scalar() if i == (1, 1) else super().counit_basis(i)


class _StrayAntipodeA(FamilyA):
    """A(2, z3) whose S(y x) is doubled: a one-index `antipode_basis`
    override, which the base's other antipodes, read through its own
    method, do not see, and which `moves_pairs()` excludes."""

    def antipode_basis(self, i):
        s = super().antipode_basis(i)
        return s.scale(self.scalar(2)) if i == (1, 1) else s


A_SPECS = [
    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}},
    {"family": "A", "n": 2, "q": 2},
    {"family": "A", "n": 3, "q": {"order": 5, "power": 1}},
]
B_SPECS = [
    ({"family": "B", "n": 2, "p": [1, 2, 3], "q": {"order": 12, "power": 1}}, (2, 3)),
    ({"family": "B", "n": 7, "p": [1, 3, 5], "q": {"order": 105, "power": 1}}, (2,)),
]
C_SPECS = [
    {"family": "C", "n": 3},
    {"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}},
]
HERE = [_FoldedLatticeZ2, _StrayCounitA, _StrayAntipodeA]


def _fixtures():
    # every corrupted provider class of those modules and this one
    found = list(HERE)
    for module in (test_hopf_axioms, test_kernels, test_antipode):
        for name, value in sorted(vars(module).items()):
            if (
                name.startswith("_")
                and isinstance(value, type)
                and issubclass(value, HopfProvider)
            ):
                found.append(value)
    return found


def _cases():
    cases = []
    for cls in [GroupZ2, FamilyA, FamilyB, FamilyC] + _fixtures():
        if issubclass(cls, GroupZ2):
            cases += [(cls, {"family": "GroupZ2"}, w) for w in (2, 3)]
        elif issubclass(cls, FamilyA):
            cases += [(cls, s, w) for s in A_SPECS for w in (2, 3)]
        elif issubclass(cls, FamilyB):
            cases += [(cls, s, w) for s, windows in B_SPECS for w in windows]
        elif issubclass(cls, FamilyC):
            cases += [(cls, s, w) for s in C_SPECS for w in (2, 3)]
    return cases


CASES = _cases()


def _case_id(case):
    cls, spec, window = case
    return f"{cls.__name__}-{spec_label(spec)}-w{window}"


def test_the_cases_cover_every_fixture():
    covered = {cls for cls, _, _ in CASES}
    assert set(_fixtures()) <= covered
    # 17 fixtures of those modules (80 cases) and these 3 at least
    assert len(_fixtures()) >= 20


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_reused_index_reports_equal_the_reuse_off_reports(case):
    cls, spec, window = case
    params = parse_params(spec)
    alg = cls(params)
    report = verify_axioms(alg, window=window, axioms=INDEX_AXIOMS, max_failures=500)
    assert report.to_json() == exact_report(cls, params, window, INDEX_AXIOMS).to_json()


def test_a_folded_lattice_fails_the_antipode_off_its_models():
    """The fold leaves every model index passing and fails the antipode
    at y^a x^b, a > 0, b != 0, which the round trip computes on its
    own."""
    alg = _FoldedLatticeZ2(parse_params({"family": "GroupZ2"}))
    assert alg.moves_pairs() == "tail"
    report = verify_axioms(alg, window=2, max_failures=500)
    box = alg.basis_box(2)
    want = {alg.index_str(i) for i in box if i[0] > 0 and i[1]}
    assert {f.where for f in report.failures} == want
    assert {f.axiom for f in report.failures} == {"antipode"}


@pytest.mark.parametrize(
    "cls,axiom", [(_StrayCounitA, "counit"), (_StrayAntipodeA, "antipode")]
)
def test_an_overridden_counit_or_antipode_stops_the_reuse(cls, axiom):
    """A `counit_basis` or `antipode_basis` override makes
    `moves_pairs()` None, so y x fails, and so does each index with a
    leg y x in its coproduct, while their models y and y^2 pass."""
    alg = cls(parse_params(A_SPECS[0]))
    assert alg.moves_pairs() is None
    assert FamilyA(alg.params).moves_pairs() == "tail"
    report = verify_axioms(alg, window=2, axioms=(axiom,), max_failures=500)
    assert {f.where for f in report.failures} == {"y*x", "y^2*x", "y^2*x^-1"}


def _spy(monkeypatch) -> dict:
    # the indices each per-index residual function runs on, in order
    import qhopf.verify

    calls: dict = {}
    for name in ("coassociativity_residual", "counit_residuals", "antipode_residuals"):
        plain = getattr(qhopf.verify, name)

        def spied(alg, idx, plain=plain, seen=calls.setdefault(name, [])):
            seen.append(idx)
            return plain(alg, idx)

        monkeypatch.setattr(qhopf.verify, name, spied)
    return calls


@pytest.mark.parametrize(
    "name,models,box_size",
    [("b_2_123_z12", 12, 84), ("a_2_z3", 4, 28), ("c_3", 4, 28)],
)
def test_each_index_check_runs_once_per_model_index(
    name, models, box_size, monkeypatch
):
    """At window 3 the per-index residuals run on the model indices
    only, each once: the end letter's exponent 0.  C(3)'s antipode runs
    on every index, since S(y^a x^b) y^a is not a move of S(x^b)."""
    alg = build_instance(name)
    end = alg.moves_pairs()
    slot = 0 if end == "lead" else -1
    box = alg.basis_box(3)
    calls = _spy(monkeypatch)
    report = verify_axioms(alg, window=3, axioms=INDEX_AXIOMS)
    assert report.passed
    assert report.checked == {axiom: box_size for axiom in INDEX_AXIOMS}
    at_models = [i for i in box if not i[slot]]
    assert len(at_models) == models
    assert calls["coassociativity_residual"] == at_models
    assert calls["counit_residuals"] == at_models
    if end == "lead":
        assert calls["antipode_residuals"] == box
    else:
        assert calls["antipode_residuals"] == at_models

"""`HopfProvider.end_model`: the index that e_i stands for along the
grouplike end letter that `moves_pairs()` names, the one guard that the
reuse of `qhopf.verify` and `qhopf.comodule` reads.

It reads the coproduct cache and builds no entry it need not: an entry
not yet cached that `coproduct_basis` would build off the model along
the same letter names the model unbuilt, a cached entry is compared with
the model's entry moved, and any other entry is built and compared
(GroupZ2, whose y^a x^b, a != 0, the base builds along the lead while
`moves_pairs()` names the tail).  Each fixture below is got wrong by a
guard that drops one of those conditions.
"""

from conftest import build_instance
from qhopf.comodule import Coaction, default_quotient
from qhopf.families.group_rings import GroupZ2
from qhopf.params import parse_params
from qhopf.verify import verify_axioms


def _moved_box_entries(alg, box) -> list:
    # the box indices off their end letter's exponent 0 whose coproduct
    # is cached
    slot = alg.end_slot()
    return sorted(i for i in alg._cop_cache if i in box and i[slot])


def _drift(alg, idx):
    # one rational of Delta(e_idx)'s first form term moved by 1
    cop = alg.coproduct_basis(idx)
    (key, pairs), *rest = cop.form
    (e, r), *more = pairs
    cop.form = ((key, ((e, r + 1), *more)), *rest)


def test_a_bialgebra_scan_builds_no_moved_box_entry():
    alg = build_instance("b_2_123_z12")
    assert alg.moves_pairs() == "tail"
    assert verify_axioms(alg, window=3, axioms=("bialgebra",)).passed
    assert _moved_box_entries(alg, alg.basis_box(3)) == []


def test_a_comodule_sweep_builds_no_moved_box_entry():
    # construction checks the generators, x and x^-1 among them; the
    # sweep adds no moved entry of the box
    alg = build_instance("a_2_z3")
    co = Coaction(alg, default_quotient(alg))
    box = alg.basis_box(5)
    assert _moved_box_entries(alg, box) == [(0, -1), (0, 1)]
    assert all(co.box_verdicts(5).values())
    assert _moved_box_entries(alg, box) == [(0, -1), (0, 1)]


def test_an_unbuilt_entry_along_the_same_letter_names_its_model_unbuilt():
    alg = build_instance("c_3")
    assert alg.moves_pairs() == "lead"
    assert alg.end_model((0, 2)) == (0, 2)
    assert alg.end_model((2, 1)) == (0, 1)
    assert (2, 1) not in alg._cop_cache
    # a cached entry with a drifted form, or another entry in its place,
    # fails the compare
    _drift(alg, (2, 1))
    assert alg.end_model((2, 1)) is None
    alg._cop_cache[(1, 1)] = alg.coproduct_basis((1, 2))
    assert alg.end_model((1, 1)) is None
    assert alg.end_model((1, 2)) == (0, 2)


def test_group_z2_entries_off_the_lead_are_built_and_compared():
    alg = GroupZ2(parse_params({"family": "GroupZ2"}))
    assert alg.moves_pairs() == "tail"
    assert alg.end_model((0, 2)) == (0, 0)
    assert (0, 2) not in alg._cop_cache
    assert alg.end_model((1, 1)) == (1, 0)
    assert (1, 1) in alg._cop_cache
    # a drifted form on the built Delta(y x)
    assert verify_axioms(alg, window=1, axioms=("bialgebra",)).passed
    _drift(alg, (1, 1))
    assert alg.end_model((1, 1)) is None
    report = verify_axioms(alg, window=1, axioms=("bialgebra",), max_failures=500)
    assert {"(y*x, x^-1)", "(x^-1, y*x)"} <= {f.where for f in report.failures}


def test_group_z2_entry_built_along_the_lead_off_a_drifted_entry():
    """Delta(x) drifted before Delta(y x) is built: the base builds
    Delta(y x) off Delta(x) along the lead, so it carries the drift and
    is not Delta(y) moved along the tail.  The guard builds it and finds
    so, and the pair (y x, x^-1), whose model (y, 1) passes, fails on its
    own."""
    alg = GroupZ2(parse_params({"family": "GroupZ2"}))
    _drift(alg, (0, 1))
    assert (1, 1) not in alg._cop_cache
    report = verify_axioms(alg, window=1, axioms=("bialgebra",), max_failures=500)
    assert "(y*x, x^-1)" in {f.where for f in report.failures}
    assert alg.end_model((1, 1)) is None

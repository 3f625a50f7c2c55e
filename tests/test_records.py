"""The value semantics of the engine's record classes: class-aware
equality, hashing, read-only fields, pickling, the constructor's
contract, field order and unshared default containers."""

import itertools
import pickle

import pytest

from conftest import grid_params
from qhopf.families import Presentation, build
from qhopf.families.builder import FAMILIES, Facts, Family
from qhopf.invariants import invariant_vector
from qhopf.params import (
    AParams,
    CLiftParams,
    CParams,
    EnvAbelianParams,
    EnvNonabelianParams,
    GroupZ2Params,
    GroupZSemiZParams,
    ParamError,
    ScalarSpec,
    parse_params,
)
from qhopf.verify import AxiomReport, Failure

BARE = [GroupZ2Params, GroupZSemiZParams, EnvAbelianParams, EnvNonabelianParams]

# one instance of every params class, both kinds of scalar, and each
# other picklable record class
RECORDS = grid_params() + [
    parse_params({"family": "CLift", "n": 2, "q": "3/2"}),
    ScalarSpec.from_rational(2),
    ScalarSpec.from_root(5, 2),
    Facts(True, 2, True, (None, "k[t,t^-1,u,u^-1]")),
    Failure("counit", "y", "left: y"),
    invariant_vector(build(parse_params({"family": "C", "n": 3})), 2),
]


def test_bare_params_are_equal_only_within_their_class():
    for a, b in itertools.combinations(BARE, 2):
        assert a() != b() and not a() == b()
    for cls in BARE:
        assert cls() == cls() and hash(cls()) == hash(cls())


def test_same_fields_in_another_class_are_unequal():
    q = ScalarSpec.from_root(3)
    assert AParams(3, q) != CLiftParams(3, q)
    assert AParams(3, q) == AParams(n=3, q=ScalarSpec.from_root(6, 2))


@pytest.mark.parametrize("record", RECORDS, ids=repr)
def test_equal_records_hash_equal(record):
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is type(record)
    assert again == record and hash(again) == hash(record)
    assert repr(again) == repr(record)


def test_parsed_spellings_of_one_instance_hash_equal():
    one = parse_params({"family": "A", "n": 2, "q": {"order": 6, "power": 2}})
    two = parse_params({"family": "A", "n": 2, "q": {"order": 3, "power": 1}})
    assert one == two and hash(one) == hash(two)
    assert len({one, two}) == 1


@pytest.mark.parametrize("record", RECORDS, ids=repr)
def test_fields_are_read_only(record):
    for name in (*record.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 1)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("cls", list(FAMILIES), ids=lambda cls: cls.__name__)
def test_family_rows_compare_on_their_fields_and_are_read_only(cls):
    # rows hold lambdas, so they are not pickled
    row = FAMILIES[cls]
    again = Family(**{name: getattr(row, name) for name in row.__slots__})
    assert again == row and hash(again) == hash(row)
    assert all(other != row for other in FAMILIES.values() if other is not row)
    for name in (*row.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(row, name, 1)
        with pytest.raises(AttributeError):
            delattr(row, name)


def test_constructor_binds_each_field_once_and_checks_on_unpickling(monkeypatch):
    q = ScalarSpec.from_root(3)
    assert AParams(3, q=q) == AParams(q=q, n=3) == AParams(3, q)
    assert Facts(True, 2, True, (None, "k")).gldim == "finite_2"
    for bad in (
        lambda: AParams(3, q, 4),  # an extra positional argument
        lambda: AParams(3, q, r=q),  # an unknown keyword
        lambda: AParams(3, q, n=3),  # a field given twice
        lambda: AParams(3),  # a missing field with no default
        lambda: Facts(True, 2, True),
    ):
        with pytest.raises(TypeError):
            bad()
    # a record pickled while its check was off is checked when loaded
    with monkeypatch.context() as patch:
        patch.setattr(CParams, "_check", lambda self: None)
        data = pickle.dumps(CParams(0))
    with pytest.raises(ParamError, match="C needs an integer n >= 1"):
        pickle.loads(data)


def test_invariant_vector_fields_keep_their_names_and_order():
    vec = invariant_vector(build(parse_params({"family": "C", "n": 3})), 2)
    assert [name for name, _ in vec.fields()] == [
        "is_commutative",
        "is_cocommutative",
        "grouplike_rank",
        "grouplike_abelian",
        "ext1_dim",
        "gldim_finite",
        "abelianization_goldie_rank",
        "family_tag",
    ]
    assert list(vec.to_json()) == [name for name, _ in vec.fields()]


def test_default_containers_are_not_shared():
    r1, r2 = AxiomReport(window=2), AxiomReport(window=2)
    r1.checked["counit"] = 1
    r1.failures.append(None)
    assert r2.checked == {} and r2.failures == []
    p1, p2 = Presentation(("x",), {}), Presentation(("x",), {})
    p1.relations.append([])
    assert p2.relations == []

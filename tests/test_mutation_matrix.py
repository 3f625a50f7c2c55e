"""Every stated hook of every family, corrupted, makes `verify` fail.

What `verify` can catch depends on which structures are stated
independently: a hook that the base reads to derive another structure
is checked only where the two still meet.  So each family's stated
hooks are corrupted one at a time, and `verify` at window 2 must fail
on each, with the axioms named in the case's id.  A refactor that
moves detection from one axiom to another changes an id.

The corruptions:

- `twist`: the twist off by one (its omega exponent, or the rational q);
- `lattice_index`: the origin's y-part read as the first generator's,
  so that a product landing at u = 0 lands on that generator;
- `_multiply_raw`: the lead-zero row x * y scaled by 2;
- `_product`: GroupZSemiZ's sign (-1)^b flipped;
- `_coproduct_raw`: one term of Delta(g) doubled, g the first non-unit
  generator;
- `_antipode_raw`: S(g) scaled by 2, for the same g.

One more case corrupts no hook: it replaces a cached coproduct between
two scans of one provider, which the second scan must read.
"""

import pytest

from conftest import build_instance
from qhopf.elements import Lin
from qhopf.families.base import FormLin
from qhopf.verify import verify_axioms


def _unit_vector(alg, pos):
    return tuple(int(p == pos) for p in range(len(alg.letters)))


def _first_non_unit(alg):
    pos = next(p for p, (_, unit, _) in enumerate(alg.letters) if not unit)
    return _unit_vector(alg, pos)


def _mutant(cls, hook):
    """A subclass of cls whose stated `hook` is corrupted as the module
    docstring says."""
    if hook == "twist":

        def __init__(self, params):
            cls.__init__(self, params)
            self.twist = self.twist + 1

        body = {"__init__": __init__}
    elif hook == "lattice_index":

        def lattice_index(self, u, v):
            if u == 0:
                u = self.lattice(self.generators()[0][1])[0]
            return cls.lattice_index(self, u, v)

        body = {"lattice_index": lattice_index}
    elif hook == "_multiply_raw":

        def _multiply_raw(self, i, j):
            t = cls._multiply_raw(self, i, j)
            x, y = _unit_vector(self, len(self.letters) - 1), _unit_vector(self, 0)
            return t.scale(self.scalar(2)) if (i, j) == (x, y) else t

        body = {"_multiply_raw": _multiply_raw}
    elif hook == "_product":

        def _product(self, i, j):
            (a, b), (c, d) = i, j
            c = -c if b % 2 == 0 else c
            return (((a + c, b + d), 0, 1),)

        body = {"_product": _product}
    elif hook == "_coproduct_raw":

        def _coproduct_raw(self, i):
            t = cls._coproduct_raw(self, i)
            if i != _first_non_unit(self):
                return t
            key = t.support()[0]
            return t + Lin.basis(key, t.terms[key])

        body = {"_coproduct_raw": _coproduct_raw}
    else:

        def _antipode_raw(self, i):
            s = cls._antipode_raw(self, i)
            return s.scale(self.scalar(2)) if i == _first_non_unit(self) else s

        body = {"_antipode_raw": _antipode_raw}
    return type(f"{hook}-{cls.__name__}", (cls,), body)


# (instance, hook, the axioms that fail at window 2, joined by "+")
ALL = "coassociativity+counit+antipode+bialgebra"
MATRIX = [
    ("a_2_z3", "twist", "antipode+bialgebra"),
    ("a_2_z3", "lattice_index", ALL),
    ("a_2_z3", "_coproduct_raw", ALL),
    ("a_2_z3", "_antipode_raw", "antipode"),
    ("a_2_2", "twist", "antipode+bialgebra"),
    ("a_2_2", "lattice_index", ALL),
    ("a_2_2", "_coproduct_raw", ALL),
    ("a_2_2", "_antipode_raw", "antipode"),
    ("b_2_123_z12", "twist", "antipode+bialgebra"),
    ("b_2_123_z12", "lattice_index", ALL),
    ("b_2_123_z12", "_coproduct_raw", ALL),
    ("b_2_123_z12", "_antipode_raw", "antipode"),
    ("c_3", "_multiply_raw", "antipode+bialgebra"),
    ("c_3", "_coproduct_raw", ALL),
    ("c_3", "_antipode_raw", "antipode"),
    ("clift_3_z4", "_multiply_raw", "antipode+bialgebra"),
    ("clift_3_z4", "_coproduct_raw", ALL),
    ("clift_3_z4", "_antipode_raw", "antipode"),
    ("env_abelian", "twist", "bialgebra"),
    ("env_abelian", "lattice_index", "antipode+bialgebra"),
    ("env_abelian", "_coproduct_raw", ALL),
    ("env_abelian", "_antipode_raw", "antipode"),
    ("env_nonabelian", "_multiply_raw", "antipode+bialgebra"),
    ("env_nonabelian", "_coproduct_raw", ALL),
    ("env_nonabelian", "_antipode_raw", "antipode"),
    ("group_z2", "twist", "bialgebra"),
    ("group_z2", "lattice_index", "antipode"),
    ("group_zsemiz", "_product", "antipode"),
]


@pytest.mark.parametrize(
    "name,hook,caught", MATRIX, ids=[f"{n}-{h}-{c}" for n, h, c in MATRIX]
)
def test_every_stated_hook_corruption_fails_verify(name, hook, caught):
    sound = build_instance(name)
    alg = _mutant(type(sound), hook)(sound.params)
    report = verify_axioms(alg, window=2, max_failures=10**6)
    assert not report.passed
    assert {f.axiom for f in report.failures} == set(caught.split("+"))



# (instance, the end letter, the failures at window 2 once Delta(y x)
# is replaced)
REPLACED = [("c_3", "lead", 30), ("a_2_z3", "tail", 27), ("env_abelian", None, 17)]


@pytest.mark.parametrize(
    "name,end,failures", REPLACED, ids=[f"{n}-{e}-{f}" for n, e, f in REPLACED]
)
def test_a_coproduct_replaced_between_two_scans_is_read_again(name, end, failures):
    """After a passing window-2 scan, Delta(y x) replaced in the cache by
    a copy with one rational of its form moved by 1: the next scan of
    the same provider reads the copy, not the view kept from the first
    scan, and reports what a fresh provider with that copy reports."""
    alg = build_instance(name)
    assert alg.moves_pairs() == end
    assert verify_axioms(alg, window=2, axioms=("bialgebra",)).passed
    cop = alg.coproduct_basis((1, 1))
    (key, ((e, r), *more)), *rest = cop.form
    drifted = FormLin(dict(cop.terms), ((key, ((e, r + 1), *more)), *rest))
    alg._cop_cache[(1, 1)] = drifted
    report = verify_axioms(alg, window=2, axioms=("bialgebra",), max_failures=10**6)
    assert len(report.failures) == failures
    fresh = build_instance(name)
    fresh._cop_cache[(1, 1)] = drifted
    again = verify_axioms(fresh, window=2, axioms=("bialgebra",), max_failures=10**6)
    assert report.to_json() == again.to_json()

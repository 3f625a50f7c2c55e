"""Family parameter records, validation, and JSON (de)serialization.

An instance spec is a small JSON object:

    {"family": "A", "n": 2, "q": {"order": 3, "power": 1}}
    {"family": "B", "n": 7, "p": [1, 3, 5], "q": {"order": 105, "power": 1}}
    {"family": "C", "n": 4}
    {"family": "CLift", "n": 3, "q": {"order": 4, "power": 1}}
    {"family": "GroupZ2"} | {"family": "GroupZSemiZ"}
    {"family": "EnvAbelian"} | {"family": "EnvNonabelian"}

Scalars are exact: either a rational (string "p/q" or integer) or a
root of unity given by (order, power).  Root specs normalize to a
coprime pair, so {"order": 6, "power": 2} and {"order": 3, "power": 1}
denote the same scalar and parse identically; orders 1 and 2 collapse
to the rationals 1 and -1.

The records are immutable value types built on `Record`: a class names
its fields in `__slots__`, and the base builds, compares, hashes, shows
and pickles them from that one statement.  A params class is therefore
the whole statement of its family's parameter shape: `params_to_json`
and `params_str` read the fields off it too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from qhopf.scalars import Cyclo


class ParamError(ValueError):
    """Invalid instance parameters or malformed instance spec."""


class Record:
    """An immutable value type whose fields are its class's `__slots__`.

    A record class derives from it directly and is built from its
    fields, positional or keyword; `_defaults` holds the values of the
    trailing fields that may be left out, and `_check` validates a built
    record, also on unpickling.  The field tuple is kept as `_values`:
    records are equal when of the same class with equal field tuples,
    hashed and pickled on it, and shown field by field.
    """

    __slots__ = ("_values",)
    _defaults: tuple = ()

    def __init__(self, *args, **kwargs):
        # the first record of a class compiles the class's own __init__
        cls = self.__class__
        cls.__init__ = _compiled_init(cls)
        cls.__init__(self, *args, **kwargs)

    def _check(self) -> None:
        """Raise if the fields do not make a valid record."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        return self.__class__, self._values

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({args})"


def _compiled_init(cls: type):
    """The `__init__` a record class would write by hand: its fields are
    the parameters, so Python binds them and raises the TypeErrors; each
    is written through its slot's descriptor, past the read-only
    `__setattr__`, and `_check` runs where the class defines one.  A
    constructor binding `*args, **kwargs` in Python took two to four times
    as long per record; compiling at class creation instead of at the
    first record would add about a millisecond to every start-up."""
    names = cls.__slots__
    required = len(names) - len(cls._defaults)
    params = [*names[:required],
              *(f"{name}=_defaults[{pos}]" for pos, name in enumerate(names[required:]))]
    source = "\n    ".join([
        f"def __init__(self, {', '.join(params)}):",
        *(f"_put_{name}(self, {name})" for name in names),
        f"_put__values(self, ({''.join(name + ', ' for name in names)}))",
        "self._check()" if cls._check is not Record._check else "",
    ])
    scope = {f"_put_{name}": getattr(cls, name).__set__ for name in ("_values", *names)}
    scope["_defaults"] = cls._defaults
    exec(source, scope)
    init = scope["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class ScalarSpec(Record):
    """A nonzero scalar parameter: rational, or root of unity zeta_d^e."""

    # rational is a nonzero Fraction, or None for zeta_order^power
    __slots__ = ("rational", "order", "power")

    @staticmethod
    def from_rational(value) -> ScalarSpec:
        fr = Fraction(value)
        if fr == 0:
            raise ParamError("scalar parameter must be nonzero")
        return ScalarSpec(rational=fr, order=0, power=0)

    @staticmethod
    def from_root(order: int, power: int = 1) -> ScalarSpec:
        if order < 1:
            raise ParamError(f"root order must be positive, got {order}")
        e = power % order
        if e == 0:
            return ScalarSpec.from_rational(1)
        g = gcd(order, e)
        d, e = order // g, e // g
        if d == 2:
            return ScalarSpec.from_rational(-1)
        return ScalarSpec(rational=None, order=d, power=e)

    @staticmethod
    def from_json(obj) -> ScalarSpec:
        if isinstance(obj, dict):
            if "rational" in obj:
                try:
                    return ScalarSpec.from_rational(Fraction(str(obj["rational"])))
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParamError(f"bad rational scalar: {obj['rational']}") from exc
            if "order" in obj:
                order = obj["order"]
                power = obj.get("power", 1)
                if not all(_is_int(v) for v in (order, power)):
                    raise ParamError("root spec needs integer order/power")
                return ScalarSpec.from_root(order, power)
            raise ParamError(f"scalar spec needs 'rational' or 'order': {obj}")
        if isinstance(obj, int) or isinstance(obj, str):
            try:
                return ScalarSpec.from_rational(Fraction(str(obj)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParamError(f"bad rational scalar: {obj}") from exc
        raise ParamError(f"unintelligible scalar spec: {obj!r}")

    def to_json(self):
        if self.rational is not None:
            return {"rational": str(self.rational)}
        return {"order": self.order, "power": self.power}

    def is_one(self) -> bool:
        return self.rational == 1

    def root_order(self) -> int | None:
        """Multiplicative order, if finite."""
        if self.rational is not None:
            if self.rational == 1:
                return 1
            if self.rational == -1:
                return 2
            return None
        return self.order

    def min_level(self) -> int:
        return 1 if self.rational is not None else self.order

    def to_cyclo(self, level: int) -> Cyclo:
        if self.rational is not None:
            return Cyclo.from_fraction(self.rational, level)
        if level % self.order:
            raise ParamError(
                f"level {level} does not contain a root of order {self.order}"
            )
        return Cyclo.zeta(level, (level // self.order) * self.power)

    def inverse(self) -> ScalarSpec:
        if self.rational is not None:
            return ScalarSpec.from_rational(1 / self.rational)
        return ScalarSpec.from_root(self.order, self.order - self.power)

    def sort_key(self):
        """Total order key: (minimal level, coefficient sequence there)."""
        level = self.min_level()
        coeffs = self.to_cyclo(level).coeffs()
        return (level, tuple(coeffs))

    def __str__(self) -> str:
        if self.rational is not None:
            return str(self.rational)
        if self.power == 1:
            return f"z{self.order}"
        return f"z{self.order}^{self.power}"


class GroupZ2Params(Record):
    __slots__ = ()
    family = "GroupZ2"


class GroupZSemiZParams(Record):
    __slots__ = ()
    family = "GroupZSemiZ"


class EnvAbelianParams(Record):
    __slots__ = ()
    family = "EnvAbelian"


class EnvNonabelianParams(Record):
    __slots__ = ()
    family = "EnvNonabelian"


class AParams(Record):
    __slots__ = ("n", "q")
    family = "A"

    def _check(self):
        if not isinstance(self.n, int):
            raise ParamError(f"A needs integer n, got {self.n!r}")


class BParams(Record):
    __slots__ = ("n", "p", "q")
    family = "B"

    def _check(self):
        n, p, q = self.n, self.p, self.q
        if not isinstance(n, int) or n < 1:
            raise ParamError(f"B needs a positive integer n, got {n!r}")
        if len(p) < 3:
            raise ParamError("B needs p = (p0, p1, ..., ps) with s >= 2")
        if any(not _is_int(x) or x < 1 for x in p):
            raise ParamError(f"B divisor data must be positive integers: {p}")
        tail = p[1:]
        if any(tail[i] >= tail[i + 1] for i in range(len(tail) - 1)) or tail[0] <= 1:
            raise ParamError(f"B needs 1 < p1 < ... < ps, got {tail}")
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if gcd(p[i], p[j]) != 1:
                    raise ParamError(
                        f"p not pairwise coprime: gcd({p[i]}, {p[j]}) > 1"
                    )
        if n % p[0]:
            raise ParamError(f"B needs p0 | n, got p0={p[0]}, n={n}")
        ell = self.root_target()
        if q.root_order() != ell:
            raise ParamError(
                f"B needs q of multiplicative order exactly {ell}, got {q}"
            )

    def root_target(self) -> int:
        out = self.n // self.p[0]
        for x in self.p[1:]:
            out *= x
        return out


class CParams(Record):
    __slots__ = ("n",)
    family = "C"

    def _check(self):
        # n = 1 has zero derivation; the classifier folds it onto the
        # skew-Laurent family, but the instance itself is valid.
        if not isinstance(self.n, int) or self.n < 1:
            raise ParamError(f"C needs an integer n >= 1, got {self.n!r}")

    @property
    def q(self) -> ScalarSpec:
        """C(n) is the lift at the trivial twist q = 1."""
        return ScalarSpec.from_rational(1)


class CLiftParams(Record):
    __slots__ = ("n", "q")
    family = "CLift"

    def _check(self):
        if not isinstance(self.n, int) or self.n < 2:
            raise ParamError(f"CLift needs an integer n >= 2, got {self.n!r}")


FamilyParams = (
    GroupZ2Params | GroupZSemiZParams | EnvAbelianParams | EnvNonabelianParams
    | AParams | BParams | CParams | CLiftParams
)

_BARE = {
    cls.family: cls
    for cls in (GroupZ2Params, GroupZSemiZParams, EnvAbelianParams, EnvNonabelianParams)
}


def parse_params(obj) -> FamilyParams:
    if not isinstance(obj, dict):
        raise ParamError(f"instance spec must be a JSON object, got {type(obj).__name__}")
    family = obj.get("family")
    if isinstance(family, str) and family in _BARE:
        return _BARE[family]()
    if family == "A":
        return AParams(n=_want_int(obj, "n"), q=ScalarSpec.from_json(_want(obj, "q")))
    if family == "B":
        p = _want(obj, "p")
        if not isinstance(p, (list, tuple)):
            raise ParamError(f"/p: must be a list, got {p!r}")
        return BParams(
            n=_want_int(obj, "n"),
            p=tuple(p),
            q=ScalarSpec.from_json(_want(obj, "q")),
        )
    if family == "C":
        return CParams(n=_want_int(obj, "n"))
    if family == "CLift":
        return CLiftParams(n=_want_int(obj, "n"), q=ScalarSpec.from_json(_want(obj, "q")))
    raise ParamError(f"/family: unknown family tag {family!r}")


def params_to_json(params: FamilyParams) -> dict:
    out: dict = {"family": params.family}
    for name, value in zip(params.__slots__, params._values):
        if isinstance(value, ScalarSpec):
            value = value.to_json()
        elif isinstance(value, tuple):
            value = list(value)
        out[name] = value
    return out


def params_str(params: FamilyParams) -> str:
    if not params.__slots__:
        return params.family
    texts = []
    for value in params._values:
        texts.extend(map(str, value) if isinstance(value, tuple) else (str(value),))
    return f"{params.family}({', '.join(texts)})"


def _want(obj: dict, key: str):
    if key not in obj:
        raise ParamError(f"/{key}: missing field in instance spec")
    return obj[key]


def _is_int(val) -> bool:
    """A JSON integer; booleans are not (bool subclasses int)."""
    return isinstance(val, int) and not isinstance(val, bool)


def _want_int(obj: dict, key: str) -> int:
    val = _want(obj, key)
    if not _is_int(val):
        raise ParamError(f"/{key}: must be an integer, got {val!r}")
    return val

"""Exact arithmetic in cyclotomic fields Q(zeta_n).

A scalar of *level* n is the unique reduced residue modulo the n-th
cyclotomic polynomial Phi_n: an integer coefficient vector of length
phi(n) = deg Phi_n over a single positive denominator, normalised so
the gcd of all entries and the denominator is 1.  Level 1 is plain Q.

Scalars of different levels never mix: an operation on two levels
raises `ScalarError`.  Plain ints and Fractions coerce to the level of
the other operand, since Q embeds in every cyclotomic field.

Multiplication runs on integer vectors: sparse convolution followed
by reduction with precomputed rows for x^e mod Phi_n.  Division only
happens in `inv`, off the hot path, through the norm along a greedy
generating chain (k_i, m_i) of (Z/n)^x, m_i the least power of k_i in
the subgroup H_(i-1) of the earlier k's: a_(i-1), fixed by H_(i-1),
times its conjugates zeta -> zeta^(k_i^j) for 0 < j < m_i is a_i,
fixed by H_i.  With a_0 = a and b the product of those factors, a*b
is the last a_i, a nonzero rational N, checked, and a^-1 = b / N: 13
conjugates at level 105, not 47.

Roots of unity get a shortcut.  The roots of unity in Q(zeta_n) form
a cyclic group of order N = lcm(2, n), generated by omega = zeta_n for
even n and omega = -zeta_n^((n+1)/2) for odd n.  Every scalar whose
reduced vector is some omega^e carries the exponent e mod N as its
`unit` tag; `__init__` sets it by one lookup in a per-level table, so
a root of unity is recognised however it was built.  A product of two
tagged scalars is a shared table entry; a tagged scalar times anything
else is a rotation of coordinates, folded back with the sparse vectors
of omega^m, with no convolution.  Negation, powers and inverses of
tagged scalars are table lookups as well.  The tag is a cache of the
value, never part of it: equality, hashing, display and every caller
read only the reduced (level, num, den) form.  Levels 1 and 2 (plain
Q) carry no tag and multiply and add on two ints.

Sums of many products (the tensor kernels of `qhopf.families.base`)
run in an *exponent form*: an element sum_e r_e omega^e of the group
algebra Q[C_N], stored as (exponent, rational) pairs by
`exponent_form`.  A tagged scalar is the one pair (unit, 1); a dense
scalar puts coordinate i, which is zeta^i, at exponent (N / n) * i; at
levels 1 and 2 the only exponent is 0 and the rational is an int, or a
Fraction once a denominator appears.  A product adds exponents and
multiplies rationals, a sum adds per exponent, and no scalar is built
until `reduce_exponents` reduces each output key once, through the
sparse rows of omega^e (exponents taken mod N), into one reduced
scalar.  Zero is decided only there: a sum can be nonzero in Q[C_N]
and still vanish modulo Phi_n.  Structure constants are cached in the
form as well (see `qhopf.families.base`), and a form need not be the
one its reduced value gives: the A and B coproducts keep each
coefficient as its Gauss polynomial over the roots of unity
(`qhopf.qcombinat`), so that most terms of an axiom residual cancel in
Q[C_N] before any reduction.  Every value handed out is a reduced
`Cyclo`.

A sum whose only question is "zero?" can skip the reduction:
`zero_map(level)` is one ring map h: Z[C_N] -> Z/P.  With phi =
phi(level), it sends zeta to z = 2^s, s = max(11, 64 // phi), so omega
goes to g = z for even levels and to -z^((level+1)/2) for odd ones, and
P = Phi_level(z).  P need not be prime: Z[zeta]/(P, zeta - z) is Z/P
because Phi_level(z) = 0 mod P, and that, with g^(N / level) = z and
g^N = 1, is checked once per level.  If h(x) = 0 for x = sum r omega^e
with integer r, then x lies in an ideal of norm P, so P divides the
norm N(x).  Every embedding sends omega to a root of unity, so |N(x)|
<= L1^phi with L1 = sum |r|, and P >= (z - 1)^phi (also checked, as P
> (z - 2)^phi).  So h(x) = 0 and L1 <= cap = z - 2 prove x = 0.  The
map only proves zero: it declines a sum with a non-integer rational,
one with L1 above the cap, and one whose image is not 0, and the caller
then reduces exactly.  At levels 1 and 2 h is omega -> -1 into Q, the
exact value, with no bound.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class ScalarError(ValueError):
    """Raised for invalid levels, level mismatches, or division by zero."""


def divexact(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Exact quotient in Z[x] (constant term first) by a monic b."""
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(b) - 1]
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                rem[i + j] -= c * bj
    if any(rem):
        raise ScalarError("inexact polynomial division")
    return tuple(out)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first, monic."""
    if n < 1:
        raise ScalarError(f"level must be positive, got {n}")
    if n == 1:
        return (-1, 1)
    poly: tuple[int, ...] = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            poly = divexact(poly, cyclotomic_polynomial(d))
    return poly


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _reduction_rows(level: int) -> tuple[tuple[int, ...], ...]:
    # rows[e] = integer vector of x^e mod Phi_level, for
    # e in [0, max(level, 2*deg - 1)); enough for products of reduced
    # residues and for zeta powers below the level
    poly = cyclotomic_polynomial(level)
    deg = len(poly) - 1
    top = max(level, 2 * deg - 1)
    rows: list[tuple[int, ...]] = []
    for e in range(deg):
        row = [0] * deg
        row[e] = 1
        rows.append(tuple(row))
    for e in range(deg, top):
        prev = rows[e - 1]
        carry = prev[deg - 1]
        shifted = [0] + list(prev[: deg - 1])
        if carry:
            for t in range(deg):
                shifted[t] -= carry * poly[t]
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=None)
def _units(level: int) -> tuple[dict, tuple, tuple]:
    # the roots of unity of Q(zeta_level), indexed by their exponent e
    # of omega: (vector -> e, tagged values, sparse vectors as
    # (coordinate, coefficient) pairs); at levels 1 and 2, where
    # omega = -1 and nothing is tagged, only the sparse vectors are read
    rows = _reduction_rows(level)
    if level % 2 == 0:
        vectors = [rows[e] for e in range(level)]
    else:
        half = (level + 1) // 2
        vectors = []
        for e in range(2 * level):
            row = rows[e * half % level]
            vectors.append(tuple(-c for c in row) if e % 2 else row)
    exponents = {v: e for e, v in enumerate(vectors)}
    values = tuple(_make(level, v, 1, e) for e, v in enumerate(vectors))
    sparse = tuple(tuple((t, c) for t, c in enumerate(v) if c) for v in vectors)
    return exponents, values, sparse


def _root(level: int, e: int) -> Cyclo:
    # omega^e, shared; zeta = omega^(N / level), N = lcm(2, level)
    values = _units(level)[1]
    return values[e % len(values)]


def _rotate(level: int, e: int, num: tuple[int, ...], den: int) -> Cyclo:
    # omega^e * (num / den): coordinate i, which is zeta^i = omega^(s*i)
    # with s = N / level, moves to omega^(s*i + e).  Multiplying by a
    # unit is an automorphism of Z[zeta], so the content and the
    # denominator stay reduced, and the result is a root of unity only
    # if the other factor is one.
    sparse = _units(level)[2]
    n = len(sparse)
    step = n // level
    out = [0] * len(num)
    m = e
    for c in num:
        if c:
            for t, r in sparse[m]:
                out[t] += c * r
        m += step
        if m >= n:
            m -= n
    return _make(level, tuple(out), den, None)


@lru_cache(maxsize=None)
def _galois_chain(level: int) -> tuple[tuple[int, int], ...]:
    # the (k, m) pairs of `inv`: k the least unit outside the subgroup
    # of the earlier k's, m the least power of k inside it
    group, chain = {1}, []
    for k in range(2, level):
        if gcd(k, level) == 1 and k not in group:
            m = next(m for m in range(1, level) if pow(k, m, level) in group)
            chain.append((k, m))
            group = {g * pow(k, j, level) % level for g in group for j in range(m)}
    return tuple(chain)


def _substitute(level: int, num: tuple[int, ...], den: int, step: int) -> Cyclo:
    # (sum_i num[i] * zeta_level^(step * i)) / den, reduced
    rows = _reduction_rows(level)
    vec = [0] * euler_phi(level)
    for i, c in enumerate(num):
        if c:
            for t, r in enumerate(rows[step * i % level]):
                vec[t] += c * r
    return Cyclo(level, vec, den)


_setattr = object.__setattr__


def _make(level: int, num: tuple[int, ...], den: int, unit: int | None) -> Cyclo:
    # build an already reduced scalar without renormalising it
    out = object.__new__(Cyclo)
    _setattr(out, "level", level)
    _setattr(out, "num", num)
    _setattr(out, "den", den)
    _setattr(out, "unit", unit)
    _setattr(out, "_hash", None)
    return out


class Cyclo:
    """An element of Q(zeta_level), immutable and hashable."""

    __slots__ = ("level", "num", "den", "unit", "_hash")

    level: int
    num: tuple[int, ...]
    den: int
    unit: int | None  # exponent of omega for a root of unity, see above

    def __init__(self, level: int, num, den: int = 1):
        deg = euler_phi(level)
        vec = list(num)
        if len(vec) != deg:
            raise ScalarError(
                f"level {level} needs {deg} coefficients, got {len(vec)}"
            )
        if den == 0:
            raise ScalarError("zero denominator")
        if den < 0:
            den = -den
            vec = [-c for c in vec]
        g = den
        for c in vec:
            if c:
                g = gcd(g, c)
                if g == 1:
                    break
        if g > 1:
            den //= g
            vec = [c // g for c in vec]
        if not any(vec):
            den = 1
        num = tuple(vec)
        unit = _units(level)[0].get(num) if deg > 1 and den == 1 else None
        _setattr(self, "level", level)
        _setattr(self, "num", num)
        _setattr(self, "den", den)
        _setattr(self, "unit", unit)
        _setattr(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclo is immutable")

    def __reduce__(self):
        return (Cyclo, (self.level, self.num, self.den))

    # -- constructors ------------------------------------------------

    @staticmethod
    def from_fraction(value, level: int = 1) -> Cyclo:
        fr = Fraction(value)
        vec = [0] * euler_phi(level)
        vec[0] = fr.numerator
        return Cyclo(level, vec, fr.denominator)

    @staticmethod
    def zero(level: int = 1) -> Cyclo:
        return _zero(level)

    @staticmethod
    def one(level: int = 1) -> Cyclo:
        if euler_phi(level) > 1:
            return _root(level, 0)
        return _rational_one(level)

    @staticmethod
    def zeta(level: int, power: int = 1) -> Cyclo:
        """zeta_level ** power, reduced."""
        if level < 1:
            raise ScalarError(f"level must be positive, got {level}")
        if euler_phi(level) > 1:
            return _root(level, power * (1 + level % 2))
        return Cyclo(level, _reduction_rows(level)[power % level], 1)

    @staticmethod
    def from_coeffs(level: int, coeffs) -> Cyclo:
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = lcm(den, f.denominator)
        vec = [int(f * den) for f in fracs]
        return Cyclo(level, vec, den)

    # -- views -------------------------------------------------------

    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ScalarError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    # -- level handling ----------------------------------------------

    def _coerce(self, other) -> Cyclo:
        if isinstance(other, Cyclo):
            if other.level != self.level:
                raise ScalarError(f"level mismatch {self.level} vs {other.level}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.from_fraction(other, self.level)
        raise TypeError(f"cannot combine Cyclo with {type(other).__name__}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> Cyclo:
        if other.__class__ is not Cyclo or other.level != self.level:
            other = self._coerce(other)
        da, db = self.den, other.den
        if len(self.num) == 1:
            if da == db:
                n, d = self.num[0] + other.num[0], da
            else:
                n, d = self.num[0] * db + other.num[0] * da, da * db
            g = gcd(n, d)
            return _make(self.level, (n // g,), d // g, None)
        if da == db == 1:
            # integral vectors are already reduced; only the tag is new
            num = tuple([x + y for x, y in zip(self.num, other.num)])
            return _make(self.level, num, 1, _units(self.level)[0].get(num))
        if da == db:
            return Cyclo(self.level, [x + y for x, y in zip(self.num, other.num)], da)
        l = lcm(da, db)
        fa, fb = l // da, l // db
        return Cyclo(
            self.level,
            [x * fa + y * fb for x, y in zip(self.num, other.num)],
            l,
        )

    __radd__ = __add__

    def __neg__(self) -> Cyclo:
        u = self.unit
        if u is not None:
            return _root(self.level, u + len(_units(self.level)[1]) // 2)
        return _make(self.level, tuple(-c for c in self.num), self.den, None)

    def __sub__(self, other) -> Cyclo:
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> Cyclo:
        return (-self) + other

    def __mul__(self, other) -> Cyclo:
        if other.__class__ is not Cyclo or other.level != self.level:
            other = self._coerce(other)
        a, b = self.num, other.num
        deg = len(a)
        if deg == 1:
            n, d = a[0] * b[0], self.den * other.den
            g = gcd(n, d)
            return _make(self.level, (n // g,), d // g, None)
        ua, ub = self.unit, other.unit
        if ua is not None:
            if ub is not None:
                return _root(self.level, ua + ub)
            return _rotate(self.level, ua, b, other.den)
        if ub is not None:
            return _rotate(self.level, ub, a, self.den)
        sa = [i for i in range(deg) if a[i]]
        sb = [j for j in range(deg) if b[j]]
        if not sa or not sb:
            return Cyclo.zero(self.level)
        acc = [0] * (2 * deg - 1)
        for i in sa:
            ai = a[i]
            for j in sb:
                acc[i + j] += ai * b[j]
        rows = _reduction_rows(self.level)
        out = acc[:deg]
        for e in range(deg, 2 * deg - 1):
            c = acc[e]
            if c:
                row = rows[e]
                for t in range(deg):
                    out[t] += c * row[t]
        return Cyclo(self.level, out, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> Cyclo:
        if self.is_zero():
            raise ScalarError("division by zero")
        if self.unit is not None:
            return _root(self.level, -self.unit)
        if self.is_rational():
            fr = 1 / self.as_fraction()
            return Cyclo.from_fraction(fr, self.level)
        # the norm along the Galois chain (module docstring)
        level = self.level
        norm, out = self, Cyclo.one(level)
        for k, m in _galois_chain(level):
            conj = Cyclo.one(level)
            for j in range(1, m):
                conj = conj * _substitute(level, norm.num, norm.den, pow(k, j, level))
            norm, out = norm * conj, out * conj
        if norm.is_zero() or not norm.is_rational():
            raise ScalarError("internal inversion failure")
        return out * Cyclo.from_fraction(1 / norm.as_fraction(), level)

    def __truediv__(self, other) -> Cyclo:
        other = self._coerce(other)
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int) -> Cyclo:
        if self.unit is not None:
            return _root(self.level, self.unit * k)
        if k < 0:
            return self.inv() ** (-k)
        out = Cyclo.one(self.level)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- comparison ----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclo.from_fraction(other, self.level)
        if not isinstance(other, Cyclo):
            return NotImplemented
        return (
            self.level == other.level
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.level, self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- roots of unity -------------------------------------------------

    def order_of_unity(self) -> int | None:
        """Multiplicative order if self is a root of unity, else None.

        The roots of unity inside Q(zeta_n) form a cyclic group of order
        N = lcm(2, n); omega^e has order N / gcd(e, N).  Below level 3
        the field is Q, whose roots of unity are 1 and -1.
        """
        u = self.unit
        if u is not None:
            n = len(_units(self.level)[1])
            return n // gcd(u, n)
        if self.den == 1 and self.num in ((1,), (-1,)):
            return 1 if self.num[0] == 1 else 2
        return None

    # -- display ----------------------------------------------------------

    def __repr__(self) -> str:
        return f"Cyclo({self.level}, {self})"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.num):
            if not c:
                continue
            fr = Fraction(c, self.den)
            if i == 0:
                parts.append(str(fr))
            else:
                head = "" if fr == 1 else ("-" if fr == -1 else f"{fr}*")
                sym = f"z{self.level}" if i == 1 else f"z{self.level}^{i}"
                parts.append(f"{head}{sym}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


@lru_cache(maxsize=None)
def _zero(level: int) -> Cyclo:
    return Cyclo(level, [0] * euler_phi(level), 1)


@lru_cache(maxsize=None)
def _rational_one(level: int) -> Cyclo:
    return Cyclo(level, [1], 1)


# -- exponent form ----------------------------------------------------


def exponent_form(level: int, terms: dict) -> list[tuple]:
    """(key, pairs) per entry of a dict of level-`level` scalars, with
    pairs the scalar's (e, r) terms r * omega^e in Q[C_N], see the
    module docstring."""
    out = []
    for k, c in terms.items():
        u = c.unit
        if u is not None:
            out.append((k, ((u, 1),)))
            continue
        num, den = c.num, c.den
        if len(num) == 1:
            out.append((k, ((0, num[0] if den == 1 else Fraction(num[0], den)),)))
            continue
        step = len(_units(level)[2]) // level
        rs = num if den == 1 else [Fraction(n, den) for n in num]
        out.append((k, tuple((step * i, r) for i, r in enumerate(rs) if r)))
    return out


@lru_cache(maxsize=None)
def roots_of_unity(level: int) -> tuple[Cyclo, ...]:
    """omega^e for e in [0, N), shared: tagged at levels >= 3, the
    untagged 1 and -1 at levels 1 and 2."""
    if euler_phi(level) > 1:
        return _units(level)[1]
    one = _rational_one(level)
    return one, -one


def reduce_exponents(level: int, table: dict) -> dict:
    """key -> sum r * omega^e, reduced modulo Phi_level, for each key of
    a table key -> {e: r} whose sum is nonzero."""
    sparse = _units(level)[2]
    n = len(sparse)
    half = n // 2
    deg = euler_phi(level)
    out = {}
    for key, terms in table.items():
        if len(terms) == 1:
            ((e, r),) = terms.items()
            if not r:
                continue
            if n == 2:
                # levels 1 and 2: omega = -1; int and Fraction are reduced
                sign = sparse[e % 2][0][1]
                out[key] = _make(level, (sign * r.numerator,), r.denominator, None)
                continue
            if r == 1:
                out[key] = _root(level, e)
                continue
        if not any(terms.values()):
            continue
        # fold first, since omega^(e + N/2) = -omega^e: each root of
        # unity up to sign gets one coefficient, and the terms that
        # cancel there are never expanded
        folded: dict = {}
        for e, r in terms.items():
            if r:
                e %= n
                if e >= half:
                    e -= half
                    r = -r
                folded[e] = folded.get(e, 0) + r
        den = lcm(*[r.denominator for r in folded.values()])
        vec = [0] * deg
        for e, r in folded.items():
            if r:
                c = r.numerator * (den // r.denominator)
                for t, x in sparse[e]:
                    vec[t] += c * x
        if any(vec):
            out[key] = Cyclo(level, vec, den)
    return out


def reduce_forms(level: int, table: dict) -> list[tuple]:
    """(key, value, pairs) for each key of a table key -> {e: r} whose
    sum is nonzero: value is the sum reduced modulo Phi_level, pairs are
    the key's own terms with exponents folded mod N and zeros dropped,
    not shortened to the value's."""
    n = len(_units(level)[2])
    out = []
    for key, value in reduce_exponents(level, table).items():
        folded: dict = {}
        for e, r in table[key].items():
            if r:
                e %= n
                folded[e] = folded.get(e, 0) + r
        out.append((key, value, tuple((e, r) for e, r in folded.items() if r)))
    return out


# -- zero-only map ----------------------------------------------------


class ZeroMap(namedtuple("ZeroMap", ("modulus", "cap", "powers"))):
    """The ring map h: Z[C_N] -> Z/P of one level, see the module
    docstring.  `powers[e]` is h(omega^e) for e in [0, 2N); `cap` is the
    largest L1 norm at which h(x) = 0 proves x = 0.  At levels 1 and 2,
    h is omega -> -1 into Q, the exact value: `modulus` is 0 and `cap`
    None."""

    __slots__ = ()

    def residue(self, pairs) -> tuple[int, int] | None:
        """(h(x), L1(x)) for x = sum r * omega^e given as (e, r) pairs;
        None when some r is not an integer at a level above 2."""
        p, powers = self.modulus, self.powers
        n = len(powers) // 2
        h = l1 = 0
        for e, r in pairs:
            if p and r.__class__ is not int:
                if r.denominator != 1:
                    return None
                r = r.numerator
            h += r * powers[e % n]
            l1 += abs(r)
        return (h % p if p else h), l1

    def proves_zero(self, values, l1) -> bool:
        """Whether the sums x whose images h(x) are `values`, with integer
        coefficients and L1 norms summing to at most `l1`, are all zero.
        An image that is not an int (a Fraction reached it) is no proof."""
        p = self.modulus
        if not p:
            return not any(values)
        return l1 <= self.cap and all(v.__class__ is int and not v % p for v in values)


@lru_cache(maxsize=None)
def zero_map(level: int) -> ZeroMap:
    """h: Z[C_N] -> Z/P with zeta -> z = 2^s and P = Phi_level(z), s =
    max(11, 64 // phi(level)), checked once here; omega -> -1 into Q at
    levels 1 and 2."""
    n = len(_units(level)[2])
    phi = euler_phi(level)
    if phi == 1:
        return ZeroMap(0, None, (1, -1) * 2)
    z = 1 << max(11, 64 // phi)
    poly = cyclotomic_polynomial(level)
    p = sum(c * z**t for t, c in enumerate(poly))
    g = z if level % 2 == 0 else -pow(z, (level + 1) // 2, p) % p
    # the certificate: zeta -> z is a ring map Z[zeta] -> Z/P (Phi(z) = 0
    # mod P), omega -> g is its restriction (g^(N / level) = z, g^N = 1),
    # and P exceeds the norm of any nonzero x with L1(x) <= cap
    if (
        sum(c * pow(z, t, p) for t, c in enumerate(poly)) % p
        or pow(g, n // level, p) != z
        or pow(g, n, p) != 1
        or p <= (z - 2) ** phi
    ):
        raise ScalarError(f"no zero map at level {level}")
    powers = [1]
    for _ in range(2 * n - 1):
        powers.append(powers[-1] * g % p)
    return ZeroMap(p, z - 2, tuple(powers))

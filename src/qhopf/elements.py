"""Sparse linear combinations over cyclotomic scalars.

One class covers algebra elements, 2-tensors, and 3-tensors: the keys
are basis indices for elements and tuples of basis indices for
tensors.  The canonical form stores no zero coefficients, so equality
is plain dict equality.

Products live on the provider side (`qhopf.families.base`), since they
need structure constants; everything here is provider-free.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator
from fractions import Fraction

from qhopf.scalars import Cyclo

Index = Hashable


def acc(table: dict, key, value: Cyclo) -> None:
    """Accumulate value into table[key], dropping exact zeros."""
    old = table.get(key)
    if old is None:
        if not value.is_zero():
            table[key] = value
    else:
        new = old + value
        if new.is_zero():
            del table[key]
        else:
            table[key] = new


class Lin:
    """A finite linear combination sum_k c_k * e_k with exact coefficients."""

    __slots__ = ("terms",)

    terms: dict[Index, Cyclo]

    def __init__(self, terms: dict[Index, Cyclo] | None = None):
        self.terms = {} if terms is None else terms

    @staticmethod
    def basis(key: Index, coeff: Cyclo) -> Lin:
        if coeff.is_zero():
            return Lin()
        return Lin({key: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[tuple[Index, Cyclo]]:
        return iter(self.terms.items())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Lin):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: Lin) -> Lin:
        out = dict(self.terms)
        for k, v in other.terms.items():
            acc(out, k, v)
        return Lin(out)

    def __sub__(self, other: Lin) -> Lin:
        out = dict(self.terms)
        for k, v in other.terms.items():
            acc(out, k, -v)
        return Lin(out)

    def __neg__(self) -> Lin:
        return Lin({k: -v for k, v in self.terms.items()})

    def scale(self, c: Cyclo) -> Lin:
        if c.is_zero():
            return Lin()
        if c.is_one():
            return self
        return Lin({k: v * c for k, v in self.terms.items()})

    def coeff(self, key: Index) -> Cyclo | None:
        return self.terms.get(key)

    def support(self) -> list[Index]:
        return sorted(self.terms.keys())

    def map_keys(self, f: Callable[[Index], Index]) -> Lin:
        """Relabel basis keys through an injective map (no merging expected)."""
        out: dict[Index, Cyclo] = {}
        for k, v in self.terms.items():
            acc(out, f(k), v)
        return Lin(out)

    def describe(self, key_str: Callable[[Index], str] = str) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k in self.support():
            c = self.terms[k]
            cs = str(c)
            if cs == "1":
                bits.append(key_str(k))
            elif cs == "-1":
                bits.append(f"-{key_str(k)}")
            elif "+" in cs or ("-" in cs[1:]):
                bits.append(f"({cs})*{key_str(k)}")
            else:
                bits.append(f"{cs}*{key_str(k)}")
        return " + ".join(bits).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Lin({self.describe()})"


def lin_from_pairs(pairs, level: int = 1) -> Lin:
    """Build a Lin from (key, coefficient) pairs; coefficients may be
    ints, Fractions, or Cyclo scalars at the stated level."""
    out: dict[Index, Cyclo] = {}
    for key, c in pairs:
        if isinstance(c, (int, Fraction)):
            c = Cyclo.from_fraction(c, level)
        acc(out, key, c)
    return Lin(out)


def flip2(t: Lin) -> Lin:
    """Swap the two legs of a 2-tensor."""
    return Lin({(j, i): c for (i, j), c in t.terms.items()})

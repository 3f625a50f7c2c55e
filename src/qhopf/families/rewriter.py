"""Brute-force free-algebra rewriting, as an independent product oracle.

Words are tuples of letters; a rule set orients each defining relation
of a family (inverse cancellation, commutation moves, power carries).
The rules are also the family's presentation: `HopfProvider.presentation`
reads each rule as a relation, so the rewriting oracle and the tangent
space and comodule quotient checks share one statement of the relations.
`normal_form` rewrites the leftmost reducible factor until nothing
matches, accumulating scalar coefficients along the way.

Termination: every rule either cancels an inverse pair (shorter word),
moves an x-type letter one step to the right past a y-type letter,
deletes an x-type letter, shortens the y-part (power carries always
replace a run by a strictly shorter run), or sorts commuting letters;
the tuple (x-count, x-passings left to do, length, inversions) drops
lexicographically at each step.

This module never consults the closed-form structure constants, so
agreement between `oracle_multiply` and `HopfProvider.multiply_basis`
is a genuine two-route check.
"""

from __future__ import annotations

from qhopf.elements import Lin, acc
from qhopf.scalars import Cyclo

Word = tuple[str, ...]


def normal_form(pairs, rules, level: int) -> dict[Word, Cyclo]:
    """Rewrite a linear combination of words to normal form.

    `pairs` iterates (word, coefficient); `rules` is a list of
    (pattern, [(coeff, replacement), ...]) entries.
    """
    out: dict[Word, Cyclo] = {}
    stack = [(tuple(w), c) for w, c in pairs]
    while stack:
        word, coeff = stack.pop()
        hit = _leftmost(word, rules)
        if hit is None:
            acc(out, word, coeff)
            continue
        pos, pat_len, rhs = hit
        head, tail = word[:pos], word[pos + pat_len :]
        for rc, rep in rhs:
            stack.append((head + rep + tail, coeff * rc))
    return out


def _leftmost(word: Word, rules):
    for pos in range(len(word)):
        for pat, rhs in rules:
            if word[pos : pos + len(pat)] == pat:
                return pos, len(pat), rhs
    return None


def oracle_multiply(alg, i, j) -> dict[Word, Cyclo]:
    """Product of two basis monomials, by rewriting alone."""
    word = alg.index_to_word(i) + alg.index_to_word(j)
    return normal_form([(word, alg.one_scalar())], alg.oracle_rules(), alg.level)


def words_of(alg, el: Lin) -> dict[Word, Cyclo]:
    """The closed-form product, re-keyed by normal words for comparison."""
    out: dict[Word, Cyclo] = {}
    for idx, c in el.terms.items():
        acc(out, alg.index_to_word(idx), c)
    return out


def agree_on_product(alg, i, j) -> bool:
    return oracle_multiply(alg, i, j) == words_of(alg, alg.multiply_basis(i, j))

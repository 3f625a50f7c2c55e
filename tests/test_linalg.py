"""Exact echelon spans and kernels over cyclotomic scalars.

The Echelon and kernel tests include one-term vectors that meet
one-term rows (which `Echelon.residue` eliminates by dropping the
coordinate) and rows with more terms; `FullElimination`, which
subtracts every row in full, must give the same ranks, memberships,
rows and kernels."""

import pytest

from qhopf import linalg
from qhopf.elements import acc, lin_from_pairs
from qhopf.linalg import Echelon, kernel_of_map, span_rank
from qhopf.scalars import Cyclo


def vec(*pairs):
    # sparse convention: no explicit zero entries
    return {k: Cyclo.from_fraction(c) for k, c in pairs if c}


class FullElimination(Echelon):
    """The elimination loop with no shortcut for one-term rows."""

    def residue(self, vec) -> dict:
        out = linalg._as_dict(vec)
        while out:
            piv = min(out.keys())
            row = self.rows.get(piv)
            if row is None:
                return out
            c = out[piv]
            for k, v in row.items():
                acc(out, k, -(v * c))
        return out


def both_routes(vectors):
    """Insert into both echelons; the rows, insert results and ranks
    must agree."""
    fast, full = Echelon(), FullElimination()
    for v in vectors:
        assert fast.insert(v) == full.insert(v)
    assert fast.rows == full.rows
    assert fast.rank == full.rank
    return fast, full


@pytest.fixture
def full_kernel(monkeypatch):
    """kernel_of_map through FullElimination."""

    def run(inputs, image_of, level):
        with monkeypatch.context() as m:
            m.setattr(linalg, "Echelon", FullElimination)
            return kernel_of_map(inputs, image_of, level)

    return run


def test_insert_and_rank():
    ech = Echelon()
    assert ech.insert(vec((0, 1), (1, 2)))
    assert ech.insert(vec((1, 1)))
    assert not ech.insert(vec((0, 2), (1, 4)))
    assert not ech.insert(vec((0, 1), (1, 7)))
    assert ech.rank == 2
    # one-term vectors: on the one-term row at 1, on the two-term row
    # at 0 (which leaves a residue at 1, then nothing), and new at 3
    assert not ech.insert(vec((1, -5)))
    assert not ech.insert(vec((0, 3)))
    assert ech.insert(vec((3, 2)))
    assert not ech.insert(vec((1, 1), (3, 4)))
    assert ech.rank == 3
    fast, _ = both_routes([
        vec((0, 1), (1, 2)), vec((1, 1)), vec((0, 2), (1, 4)), vec((0, 1), (1, 7)),
        vec((1, -5)), vec((0, 3)), vec((3, 2)), vec((1, 1), (3, 4)),
    ])
    assert fast.rows == ech.rows


def test_contains():
    ech = Echelon()
    ech.insert(vec((0, 1), (1, 1)))
    ech.insert(vec((1, 1), (2, 1)))
    assert ech.contains(vec((0, 1), (2, -1)))
    assert not ech.contains(vec((2, 1)))
    assert ech.contains({})
    ech.insert(vec((4, 3)))
    # one-term vectors on a one-term row and on rows with more terms
    assert ech.contains(vec((4, -2)))
    assert not ech.contains(vec((0, 1)))
    assert not ech.contains(vec((1, 7)))
    assert ech.contains(vec((0, 1), (2, -1), (4, 9)))
    fast, full = both_routes(
        [vec((0, 1), (1, 1)), vec((1, 1), (2, 1)), vec((4, 3)), vec((5, 1), (6, 1))]
    )
    for probe in [vec((4, -2)), vec((0, 1)), vec((1, 7)), vec((2, 1)), vec((5, 2)),
                  vec((0, 1), (2, -1), (4, 9)), vec((5, 1), (6, 1)), {}]:
        assert fast.residue(probe) == full.residue(probe)
        assert fast.contains(probe) == full.contains(probe)


def test_one_term_rows_at_level_12():
    a, b = Cyclo.from_coeffs(12, (1, 2, 0, -1)), Cyclo.from_coeffs(12, (0, 1, 1, 3))
    vectors = [{0: a}, {1: a, 2: b}, {0: b, 1: a}, {2: a * b}, {1: b}, {3: a, 0: b}]
    fast, full = both_routes(vectors)
    assert fast.rank == 4
    for probe in [{0: b}, {1: a}, {2: b}, {3: a}, {4: a}, {1: a, 3: b}]:
        assert fast.residue(probe) == full.residue(probe)


def test_span_rank_accepts_lin():
    vs = [
        lin_from_pairs([((0,), 1), ((1,), 1)]),
        lin_from_pairs([((1,), 1)]),
        lin_from_pairs([((0,), 1)]),
    ]
    assert span_rank(vs) == 2


def test_span_rank_cyclotomic():
    z = Cyclo.zeta(3)
    rows = [
        {0: Cyclo.one(3), 1: z},
        {0: z.inv(), 1: Cyclo.one(3)},  # scalar multiple of the first
        {1: Cyclo.one(3)},
    ]
    assert span_rank(rows) == 2


def test_kernel_of_map_constants(full_kernel):
    # every input maps to the same constant: kernel is the differences
    kern = kernel_of_map([0, 1, 2], lambda k: vec(("c", 1)), level=1)
    assert kern == full_kernel([0, 1, 2], lambda k: vec(("c", 1)), level=1)
    assert len(kern) == 2
    one = Cyclo.one(1)
    for combo in kern:
        assert combo[min(combo)] == one
        total = sum((c.as_fraction() for c in combo.values()))
        assert total == 0


def test_kernel_of_map_injective():
    kern = kernel_of_map([0, 1, 2], lambda k: vec((k, 1)), level=1)
    assert kern == []


def test_kernel_of_map_one_term_images(full_kernel):
    # one-term images on one-term rows (inputs 0, 2 and 5 share a key)
    # and on rows with more terms (input 4 lands on input 1's row)
    images = {
        0: vec(("a", 1)),
        1: vec(("b", 1), ("c", 2)),
        2: vec(("a", -3)),
        3: vec(("c", 1)),
        4: vec(("b", 5)),
        5: vec(("a", 2)),
        6: vec(("d", 1), ("a", 1)),
    }
    kern = kernel_of_map(range(7), images.__getitem__, level=1)
    assert kern == full_kernel(range(7), images.__getitem__, level=1)
    assert len(kern) == 3
    for combo in kern:
        total: dict = {}
        for k, c in combo.items():
            for out_key, v in images[k].items():
                acc(total, out_key, v * c)
        assert not total


def test_kernel_vectors_map_to_zero(full_kernel):
    def image(k):
        # rank-2 map from a 4-dimensional space; input 0 maps to zero
        # and input 3 to the one-term vector a
        return vec(("a", k), ("b", k * k % 3))

    kern = kernel_of_map([0, 1, 2, 3], image, level=1)
    assert kern == full_kernel([0, 1, 2, 3], image, level=1)
    assert len(kern) == 2
    for combo in kern:
        total: dict = {}
        for k, c in combo.items():
            for out_key, v in image(k).items():
                cur = total.get(out_key, Cyclo.zero(1)) + v * c
                total[out_key] = cur
        assert all(v.is_zero() for v in total.values())


def c12(*coeffs):
    return Cyclo.from_coeffs(12, coeffs)


def test_kernel_of_map_level_12(full_kernel):
    """Dense non-unit pivots and kernel leads: every row and every
    kernel vector is normalised through a real inverse."""
    a, b, c, d = c12(1, 2, 0, -1), c12(0, 1, 1, 3), c12(2, -1, 1, 0), c12(-1, 0, 3, 1)
    images = {
        0: {"x": c12(2, 1, 0, 1), "y": c12(1, -1, 2, 0), "z": c12(0, 3, 1, -2)},
        1: {"x": c12(1, 0, -1, 2), "y": c12(3, 1, 1, 1), "z": c12(1, 1, 0, 0)},
        2: {"y": c12(2, 0, 1, -1), "z": c12(1, 2, 3, 1)},
    }
    zero = Cyclo.zero(12)

    def combine(p, u, q, w):
        out = {}
        for key in ("x", "y", "z"):
            v = images[u].get(key, zero) * p + images[w].get(key, zero) * q
            if v:
                out[key] = v
        return out

    images[3] = combine(a, 0, b, 1)
    images[4] = combine(c, 1, d, 2)
    kern = kernel_of_map(range(5), images.__getitem__, level=12)
    assert kern == full_kernel(range(5), images.__getitem__, level=12)
    assert kern == [
        {0: Cyclo.one(12), 1: Cyclo(12, (-1, 0, 3, -1)), 3: Cyclo(12, (1, -2, 0, 1), 2)},
        {1: Cyclo.one(12), 2: Cyclo(12, (-6, 10, 51, 26), 37), 4: Cyclo(12, (-18, -7, 5, 4), 37)},
    ]
    for combo in kern:
        total: dict = {}
        for k, coeff in combo.items():
            for out_key, v in images[k].items():
                total[out_key] = total.get(out_key, zero) + v * coeff
        assert all(v.is_zero() for v in total.values())

"""Exact echelon spans and kernels over cyclotomic scalars."""

from qhopf.elements import lin_from_pairs
from qhopf.linalg import Echelon, kernel_of_map, span_rank
from qhopf.scalars import Cyclo


def vec(*pairs):
    # sparse convention: no explicit zero entries
    return {k: Cyclo.from_fraction(c) for k, c in pairs if c}


def test_insert_and_rank():
    ech = Echelon()
    assert ech.insert(vec((0, 1), (1, 2)))
    assert ech.insert(vec((1, 1)))
    assert not ech.insert(vec((0, 2), (1, 4)))
    assert not ech.insert(vec((0, 1), (1, 7)))
    assert ech.rank == 2


def test_contains():
    ech = Echelon()
    ech.insert(vec((0, 1), (1, 1)))
    ech.insert(vec((1, 1), (2, 1)))
    assert ech.contains(vec((0, 1), (2, -1)))
    assert not ech.contains(vec((2, 1)))
    assert ech.contains({})


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


def test_kernel_of_map_constants():
    # every input maps to the same constant: kernel is the differences
    kern = kernel_of_map([0, 1, 2], lambda k: vec(("c", 1)), level=1)
    assert len(kern) == 2
    one = Cyclo.one(1)
    for combo in kern:
        assert combo[min(combo)] == one
        total = sum((c.as_fraction() for c in combo.values()))
        assert total == 0


def test_kernel_of_map_injective():
    kern = kernel_of_map([0, 1, 2], lambda k: vec((k, 1)), level=1)
    assert kern == []


def test_kernel_vectors_map_to_zero():
    def image(k):
        # rank-2 map from a 4-dimensional space
        return vec(("a", k), ("b", k * k % 3))

    kern = kernel_of_map([0, 1, 2, 3], image, level=1)
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


def test_kernel_of_map_level_12():
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

"""Exact row reduction over a cyclotomic field.

Vectors are sparse dicts keyed by arbitrary comparable coordinates.
The pivot of a row is its smallest coordinate in the ambient total
order, and inputs are always processed in sorted key order, so ranks,
spans, and kernel bases come out deterministic.  `Echelon.residue` is
the one elimination loop; `kernel_of_map` reduces with it too.  Rows
are normalised to 1 at their pivot; a residue whose pivot coefficient
is already 1 is stored as it is, with no inverse taken.

`kernel_of_map`'s result depends on the order of its input keys only.
That order fixes which inputs are independent (each one's image is not
in the span of the earlier ones'), and each kernel vector is the one
kernel element equal to e_k plus a combination of the earlier
independent inputs, scaled to 1 at its smallest key.  The order of the
image coordinates decides only the fill-in on the way.
"""

from __future__ import annotations

from qhopf.elements import Lin, acc
from qhopf.scalars import Cyclo


def _as_dict(vec) -> dict:
    return dict(vec.terms) if isinstance(vec, Lin) else dict(vec)


class Echelon:
    """Growing echelon basis of a subspace, with membership tests."""

    def __init__(self):
        self.rows: dict = {}  # pivot coordinate -> normalized sparse row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residue(self, vec) -> dict:
        """Reduce vec against the stored rows; returns the residue."""
        out = _as_dict(vec)
        while out:
            piv = min(out.keys())
            row = self.rows.get(piv)
            if row is None:
                return out
            if len(row) == 1:
                # a row is normalized to 1 at its pivot: eliminating
                # with a one-term row only drops that coordinate
                del out[piv]
                continue
            c = out[piv]
            for k, v in row.items():
                acc(out, k, -(v * c))
        return out

    def insert(self, vec) -> bool:
        """Add vec to the span. True if it enlarged the space."""
        res = self.residue(vec)
        if not res:
            return False
        piv, row = _normalised(res)
        self.rows[piv] = row
        return True

    def contains(self, vec) -> bool:
        return not self.residue(vec)


def _normalised(res: dict) -> tuple:
    # (pivot, res scaled to 1 there), res itself when it is 1 already
    piv = min(res)
    lead = res[piv]
    if not lead.is_one():
        inv = lead.inv()
        res = {k: v * inv for k, v in res.items()}
    return piv, res


def span_rank(vectors) -> int:
    ech = Echelon()
    for v in vectors:
        ech.insert(v)
    return ech.rank


def kernel_of_map(inputs, image_of, level: int) -> list[dict]:
    """Kernel of the linear map e_k -> image_of(k), as combination dicts.

    `inputs` is an iterable of input keys (processed in sorted order);
    `image_of(k)` returns the image vector (Lin or dict) over scalars
    of the given level.  Returns sparse {input_key: coeff} dicts, one
    per linear dependency, each normalized so its smallest input key
    has coefficient 1.
    """
    # (0, image key) sorts before (1, input key): a residue led by an
    # input key has a zero image part and is a dependency
    ech = Echelon()
    kernel: list[dict] = []
    for key in sorted(inputs):
        vec = {(0, k): v for k, v in _as_dict(image_of(key)).items()}
        vec[(1, key)] = Cyclo.one(level)
        piv, res = _normalised(ech.residue(vec))
        if piv[0] == 0:
            ech.rows[piv] = res
        else:
            kernel.append({k: v for (_, k), v in res.items()})
    return kernel

"""Hopf axiom verification on finite windows.

Every check here is exact: the window only selects WHICH basis indices
are enumerated, never an approximation.  A failure carries the resolved
residual so reports can show what went wrong where.

The axioms, per basis index e (and index pairs for the bialgebra law):

    coassociativity   (id ox Delta)Delta(e) == (Delta ox id)Delta(e)
    counit            (eps ox id)Delta(e) == e == (id ox eps)Delta(e)
    antipode          m(S ox id)Delta(e) == eps(e) 1 == m(id ox S)Delta(e)
    bialgebra         Delta(e_i e_j) == Delta(e_i) Delta(e_j),
                      eps(e_i e_j) == eps(e_i) eps(e_j)

Each residual is accumulated as lhs - rhs in one table.  The
coassociativity, antipode and bialgebra residuals go through the
provider's kernels with `into=table`, in the exponent form of
`qhopf.scalars` (terms of Q[C_N]): one side as is, the other with one
operand negated.  Each table is finished once: each key is reduced
modulo the cyclotomic polynomial, and only then tested for zero.  The
counit residual is one pass over Delta(e) and adds Cyclos with `acc`.

The bialgebra pair scan asks of almost every pair only whether its
residual is zero, so it runs in two passes.  The zero-only pass
(`bialgebra_vanishes`) sends the residual through the level's ring map
h: Z[C_N] -> Z/P (`qhopf.scalars.zero_map`).  It reads each coproduct
as its residue view (below), multiplies the legs, and adds one integer
per tensor key, plus one L1 bound for the whole pair.  It proves the
pair zero only when every key's image is 0 mod P and the bound is
within the map's cap; a pair with a non-integer rational, a bound
above the cap or a nonzero image gets no verdict.  Every such pair is
recomputed by the exact route (`exact_bialgebra_residual`),
whose table holds rhs - lhs, with the product (usually one term)
negated rather than a copy of Delta(e_j), and whose finished residual
is negated back: each term r omega^e e_k of `_product(i, j)` enters as
-r omega^e Delta(e_k).  So a failure is always the exact residual's
text.  `bialgebra_residuals` computes `_product(i, j)` once per pair
and hands it to the pass, the exact route and the counit residual.

The pass keeps what it reads in one `_ZeroPass` per provider, on the
provider's `_zero_pass` attribute (`_zero_pass_of`): the kernel,
picked once by `LatticeProvider.lattice_exponent`, the residue view of
each index it has read, the lattice shift classes and the table memo.
The providers know nothing of the pass.  A residue view is read from a
coproduct's form once, and is one of:

- an index view (terms, total): (key, h(coefficient), L1 norm of its
  form) per term of Delta(e_i), keyed by index pairs, and the sum of
  the L1 norms;
- a lattice view (class, beta): a `ShiftClass` and a shift (below);
- None, when some term's form has a non-integer rational at a level
  above 2, or a lattice view cannot code a leg (below); the pass
  declines every pair that reads it.

Each view is kept with the FormLin and the form it was read from, so a
hit is one dict lookup and one identity test, and a form assigned to
that FormLin later is read again.

The pass has two kernels.  The index kernel reads index views, keys the
table by index pairs and multiplies legs through `_product`; C, CLift,
EnvNonabelian, GroupZSemiZ and A at a rational q get it, and it is the
tests' reference for the other.

The lattice kernel serves the twisted monoid algebras on a lattice
with a root-of-unity twist q = omega^qe (`LatticeProvider`: GroupZ2,
EnvAbelian, A and B), where e_a e_c = omega^(qe v_a u_c) e at the
point (u_a + u_c, v_a + v_c), a product of one term.  Their lattice
views key each term by its legs' lattice points (u_a, v_a, u_b, v_b),
packed into one int ((u_a R + v_a) R + u_b) R + v_b, R = 2^32.  The
packing is linear, so a sum of points packs to the sum of their keys,
and it is one to one on points whose coordinates lie in (-R/2, R/2).
A view codes no coordinate, and no shift, of size 2^28 or more, so
every point the pass forms (the sum of two coded points, one of them
shifted, or a coded point moved by one shift less two) stays there.
So the kernel adds Delta(e_i) Delta(e_j) with plain int arithmetic,
one L1 bound for all of it, and no `_product` call.  Its keys are
faithful: every leg a that a view codes is checked to satisfy
lattice_index(*lattice(a)) == a, the index product of two legs is by
definition lattice_index of their point sum, and the packing is one to
one on the points a view may code.  So each index-pair key of the
exact residual is one function (lattice_index on each leg) of its
lattice key, each index key's sum is a sum of lattice keys' sums, and
a pair proved zero on lattice keys is zero on index keys.  A leg that
fails the check makes its view None, and the pass declines every pair
that reads it.

A lattice view is a shift class and a shift beta, the least v of a
right leg.  The class (`ShiftClass`) holds the view's terms with both
legs' v moved by -beta, and U = u_a + u_b when that is the same on
every term.  In A and B, x is grouplike and last in normal order, so
Delta(y^d x^b) is Delta(y^d) times x^b ox x^b, and every x-shift of an
index falls in the class of its y-part: B(2, 1, 2, 3, z12) has 12
classes on the 84 indices of box(3).  Let T(L, R) be the product of
the views of classes L and R at shift 0.  The views of L at
beta_i and R at beta_j then multiply to

    T(L, R) moved by (0, beta_i + beta_j, 0, beta_i + beta_j), times
    omega^(qe beta_i U_R)

because a left shift moves v_a and v_b by beta_i, and so moves each
twist qe (v_a u_c + v_b u_d) by qe beta_i (u_c + u_d) = qe beta_i U_R,
while a right shift has u = 0 and moves only v_c and v_d, which the
twist does not read.  So the kernel builds T(L, R) once per pair of
classes, as the images of its keys with the zeros mod P dropped.  Each
pair then moves the keys of -r omega^e Delta(e_k) (class M at beta_k)
by beta_k - beta_i - beta_j, divides them by omega^(qe beta_i U_R) (the
exponent e - qe beta_i U_R), and matches them against T(L, R), with
the same per-pair L1 bound: its key sums are the true ones times a
unit mod P.  In every engine family beta_k = beta_i + beta_j, so the
keys of M are matched as they are.

- The class id is a content key: classes are interned per provider by
  their terms, so a table built for a class holds for every view with
  those terms, and a view read again from a replaced form gets the
  class of its new terms, as the view itself does.
- A right view with no single U moves the twist term by term, so
  T(L, R) does not cover it: its pair gets a table of its own, built
  from the left view at beta_i and matched at shift beta_j, and no pair
  is declined for it.
- The memo holds one row: the tables of one left class, by right
  class, cleared when the left class changes.  The scan runs i outer,
  in box order with the x-exponent last, so each left class fills its
  row once per run of its indices, and memory is bounded by one table
  per right class.  EnvAbelian has no shift symmetry (9 classes for its
  9 box(2) indices), and holds 9 tables, not 81.

The bialgebra law's counit residual is the sum of the r omega^e whose
e_k has counit 1, minus 1 when e_i and e_j both have counit 1, in
exponent form; it is reduced only when it has a term, and a pair is
named only when it fails.  The scan runs i outer and reads eps(e_i)
once per row.

The scan proves a pair once per power of y where the provider allows
it.  When `HopfProvider.moves_pairs()` holds (C and CLift), the base
builds every product and coproduct off lead exponent 0 from the
lead-zero one, moving each key's first exponent.  Write i' for i with
i_0 set to 0, and k + a for k with its first exponent moved by a = i_0.
Then for every pair (i, j):

- `_product(i, j)` is `_product(i', j)` with each k moved to k + a,
  and Delta(e_(k+a)) is Delta(e_k) with both legs moved by a;
- Delta(e_i) is Delta(e_i') with both legs moved by a, and
  `_product(A + a, C)` is `_product(A, C)` moved by a;
- eps(e_(k+a)) = eps(e_k) and eps(e_i) = eps(e_i'), since y is a unit.

Each move keeps every coefficient and form and is one to one on keys,
so the tensor and counit residuals of (i, j) are those of its model
(i', j) with their keys moved, and vanish exactly when the model's do.
`_bialgebra_scan` keeps the residuals of each model pair it meets, per
scan: a pair whose model passed costs one lookup, and any other pair
is computed on its own, so a failure's text is the pair's own.  A C(3)
window-3 scan computes the 4 x 28 = 112 model pairs of its 784.
"""

from __future__ import annotations

import os

from qhopf.elements import Lin, acc
from qhopf.families.base import HopfProvider, LatticeProvider
from qhopf.linalg import kernel_of_map
from qhopf.params import Record
from qhopf.scalars import Cyclo, reduce_exponents, zero_map


class Failure(Record):
    __slots__ = ("axiom", "where", "residual")

    def to_json(self):
        return {"axiom": self.axiom, "where": self.where, "residual": self.residual}


class AxiomReport:
    __slots__ = ("window", "checked", "failures")

    def __init__(
        self,
        window: int,
        checked: dict[str, int] | None = None,
        failures: list[Failure] | None = None,
    ):
        self.window = window
        self.checked = {} if checked is None else checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "window": self.window,
            "checked": {k: self.checked[k] for k in sorted(self.checked)},
            "failures": [f.to_json() for f in self.failures],
            "passed": self.passed,
        }


def coassociativity_residual(alg: HopfProvider, idx) -> Lin:
    t = alg.coproduct_basis(idx)
    table = alg.table()
    alg.cop_left(t, into=table)
    alg.cop_right(-t, into=table)
    return alg.finish(table)


def counit_residuals(alg: HopfProvider, idx) -> tuple[Lin, Lin]:
    minus_one = -alg.one_scalar()
    left = {idx: minus_one}
    right = {idx: minus_one}
    for (i, j), c in alg.coproduct_basis(idx).terms.items():
        ei = alg.counit_basis(i)
        if not ei.is_zero():
            acc(left, j, c * ei)
        ej = alg.counit_basis(j)
        if not ej.is_zero():
            acc(right, i, c * ej)
    return Lin(left), Lin(right)


def antipode_residuals(alg: HopfProvider, idx) -> tuple[Lin, Lin]:
    target = Lin.basis(alg.unit_index(), -alg.counit_basis(idx))
    left, right = alg.table(target), alg.table(target)
    for (i, j), c in alg.coproduct_basis(idx).terms.items():
        alg.mul(alg.antipode_basis(i), alg.basis_el(j, c), into=left)
        alg.mul(alg.basis_el(i, c), alg.antipode_basis(j), into=right)
    return alg.finish(left), alg.finish(right)


def bialgebra_residuals(
    alg: HopfProvider, i, j, unit_i: bool, zero: Cyclo
) -> tuple[Lin, Cyclo]:
    """Delta(e_i e_j) - Delta(e_i) Delta(e_j) and the counit residual.
    The tensor residual is zero when `bialgebra_vanishes` proves it so;
    any other pair gets `exact_bialgebra_residual`.  All three read the
    one `_product(i, j)` computed here.  `unit_i` is whether eps(e_i)
    is 1, and `zero` the level's zero, both read once per scan row."""
    terms = alg._product(i, j)
    if bialgebra_vanishes(alg, i, j, terms):
        t = Lin()
    else:
        t = exact_bialgebra_residual(alg, i, j, terms)
    return t, _counit_residual(alg, unit_i, j, terms, zero)


def bialgebra_vanishes(alg: HopfProvider, i, j, terms) -> bool:
    """Whether the zero-only pass proves Delta(e_i e_j) = Delta(e_i)
    Delta(e_j): each key's sum, sent through the level's `zero_map`, is
    0, and the L1 norms of all the terms add up to at most its cap.
    False is no verdict.  `terms` is `_product(i, j)`."""
    zp = _zero_pass_of(alg)
    if zp.qe is not None:
        return _lattice_vanishes(alg, zp, i, j, terms)
    return _index_vanishes(alg, zp, i, j, terms)


# A lattice view's packed key of (u_a, v_a, u_b, v_b), and the bounds
# of the module docstring: R, 2^28, and the key of (0, 1, 0, 1)
_RADIX = 1 << 32
_SPAN = 1 << 28
_V_STEP = _RADIX * _RADIX + 1


class ShiftClass:
    """A lattice residue view up to a shift of both legs' v by one beta.

    `legs` holds (key, u_a, v_a, u_b, v_b, h) per term, `keys` maps
    each key to its h, `total` is the sum of the terms' L1 norms, and
    `u` the one value of u_a + u_b on every term, or None when the terms
    differ.  The pass interns its classes by content, one object per
    content, so a class stands for its terms whichever view they were
    read from."""

    __slots__ = ("legs", "keys", "total", "u")

    def __init__(self, legs: tuple, total: int):
        self.legs = legs
        self.keys = {key: h for key, _, _, _, _, h in legs}
        self.total = total
        us = {ua + ub for _, ua, _, ub, _, _ in legs}
        self.u = us.pop() if len(us) == 1 else None


class _ZeroPass:
    """The zero-only pass's state for one provider: `qe` picks the
    kernel and the view (None: index), `views` maps an index to (its
    FormLin, the form read, the view), `classes` interns the lattice
    shift classes by content, and `row` is the table memo: a left class
    and its tables by right class."""

    __slots__ = ("qe", "views", "classes", "row")

    def __init__(self, alg: HopfProvider):
        lattice = isinstance(alg, LatticeProvider)
        self.qe = alg.lattice_exponent() if lattice else None
        self.views: dict = {}
        self.classes: dict = {}
        self.row: tuple = (None, {})

    def view(self, alg: HopfProvider, i):
        """The residue view of Delta(e_i) (module docstring)."""
        hit = self.views.get(i)
        if hit is None or hit[0].form is not hit[1]:
            cop = alg.coproduct_basis(i)
            view = _index_view(alg.level, cop.form)
            if view is not None and self.qe is not None:
                view = self._lattice_view(alg, view)
            hit = self.views[i] = cop, cop.form, view
        return hit[2]

    def _lattice_view(self, alg: LatticeProvider, view):
        # (class, beta) of an index view, or None
        lattice, index = alg.lattice, alg.lattice_index
        points = []
        for (a, b), h, l1 in view[0]:
            pa, pb = lattice(a), lattice(b)
            if index(*pa) != a or index(*pb) != b:
                return None
            points.append((*pa, *pb, h, l1))
        beta = min((vb for _, _, _, vb, _, _ in points), default=0)
        if abs(beta) >= _SPAN:
            return None
        legs, content = [], []
        for ua, va, ub, vb, h, l1 in points:
            va, vb = va - beta, vb - beta
            if max(abs(ua), abs(va), abs(ub), abs(vb)) >= _SPAN:
                return None
            key = ((ua * _RADIX + va) * _RADIX + ub) * _RADIX + vb
            legs.append((key, ua, va, ub, vb, h))
            content.append((key, h, l1))
        content = tuple(content)
        cls = self.classes.get(content)
        if cls is None:
            cls = self.classes[content] = ShiftClass(tuple(legs), view[1])
        return cls, beta


def _zero_pass_of(alg: HopfProvider) -> _ZeroPass:
    try:
        return alg._zero_pass
    except AttributeError:
        zp = alg._zero_pass = _ZeroPass(alg)
        return zp


def _index_view(level: int, form) -> tuple | None:
    residue = zero_map(level).residue
    terms = []
    total = 0
    for key, pairs in form:
        hl = residue(pairs)
        if hl is None:
            return None
        terms.append((key, *hl))
        total += hl[1]
    return tuple(terms), total


def _index_vanishes(alg: HopfProvider, zp: _ZeroPass, i, j, terms) -> bool:
    view = zp.view
    left, right = view(alg, i), view(alg, j)
    if left is None or right is None:
        return False
    zmap = zero_map(alg.level)
    powers = zmap.powers
    product = alg._product
    table: dict = {}
    bound = 0
    for k, e, r in terms:
        # -r omega^e Delta(e_k), term by term
        middle = view(alg, k)
        if middle is None:
            return False
        f = r * powers[e]
        for key, h, _ in middle[0]:
            table[key] = table.get(key, 0) - f * h
        bound += abs(r) * middle[1]
    # Delta(e_i) Delta(e_j), as `t2_mul` forms it
    for (a, b), hc, lc in left[0]:
        for (c, d), hd, ld in right[0]:
            w, l1 = hc * hd, lc * ld
            ends = product(b, d)
            for x, ex, rx in product(a, c):
                for y, ey, ry in ends:
                    r = rx * ry
                    key = x, y
                    table[key] = table.get(key, 0) + r * w * powers[ex + ey]
                    bound += abs(r) * l1
    return zmap.proves_zero(table.values(), bound)


def _lattice_vanishes(alg: HopfProvider, zp: _ZeroPass, i, j, terms) -> bool:
    # `_index_vanishes` on packed lattice points: Delta(e_i) Delta(e_j)
    # is T(L, R) of the module docstring, and the keys of -r omega^e
    # Delta(e_k) are moved by `move` and divided by omega^twist to be
    # matched against it
    ((k, e, r),) = terms
    view = zp.view
    left, right, middle = view(alg, i), view(alg, j), view(alg, k)
    if left is None or right is None or middle is None:
        return False
    zmap = zero_map(alg.level)
    qe, n = zp.qe, alg.omega_order
    (lc, bi), (rc, bj), (mc, bk) = left, right, middle
    if rc.u is None:
        table = _class_table(zmap, qe, n, lc, bi, rc)
        shift, twist = bj, 0
    else:
        row_class, row = zp.row
        if row_class is not lc:
            row = {}
            zp.row = lc, row
        table = row.get(rc)
        if table is None:
            table = row[rc] = _class_table(zmap, qe, n, lc, 0, rc)
        shift, twist = bi + bj, qe * bi * rc.u
    f = r * zmap.powers[(e - twist) % n]
    move = (bk - shift) * _V_STEP
    sums = {key + move: h for key, h in mc.keys.items()} if move else mc.keys
    get = table.get
    values = [get(key, 0) - f * h for key, h in sums.items()]
    if not table.keys() <= sums.keys():
        # a table key that no term of Delta(e_k) reaches sums to itself
        values += [v for key, v in table.items() if key not in sums]
    return zmap.proves_zero(values, lc.total * rc.total + abs(r) * mc.total)


def _class_table(zmap, qe: int, n: int, left, lift: int, right) -> dict:
    """Delta(e_a) Delta(e_c) for a view of class `left` at shift `lift`
    and one of class `right` at shift 0, keyed by packed lattice points:
    each key's image under `zmap`, reduced mod P, the nonzero ones
    only."""
    powers = zmap.powers
    out: dict = {}
    move = lift * _V_STEP
    for ka, _, va, _, vb, ha in left.legs:
        ka, va, vb = ka + move, va + lift, vb + lift
        for kc, uc, _, ud, _, hc in right.legs:
            key = ka + kc
            out[key] = out.get(key, 0) + ha * hc * powers[qe * (va * uc + vb * ud) % n]
    p = zmap.modulus
    if p:
        return {key: v % p for key, v in out.items() if v % p}
    return {key: v for key, v in out.items() if v}


def exact_bialgebra_residual(alg: HopfProvider, i, j, terms) -> Lin:
    """Delta(e_i e_j) - Delta(e_i) Delta(e_j), each key reduced; `terms`
    is `_product(i, j)`."""
    table = alg.table()
    for k, e, r in terms:
        # -r omega^e Delta(e_k), term by term
        for kl, pairs in alg.coproduct_basis(k).form:
            slot = table[kl]
            for ed, rd in pairs:
                x = e + ed
                slot[x] = slot.get(x, 0) - r * rd
    alg.t2_mul(alg.coproduct_basis(i), alg.coproduct_basis(j), into=table)
    return -alg.finish(table)


def _counit_residual(alg: HopfProvider, unit_i: bool, j, terms, zero: Cyclo) -> Cyclo:
    # eps(e_i e_j) - eps(e_i) eps(e_j) in exponent form, eps being 0 or
    # 1, from the terms of `_product(i, j)`; `unit_i` is eps(e_i) = 1
    counit = alg.counit_basis
    units = {0: -1} if unit_i and not counit(j).is_zero() else {}
    for k, e, r in terms:
        if not counit(k).is_zero():
            units[e] = units.get(e, 0) + r
    return reduce_exponents(alg.level, {0: units}).get(0, zero) if units else zero


def verify_axioms(
    alg: HopfProvider,
    window: int = 3,
    axioms: tuple[str, ...] = ("coassociativity", "counit", "antipode", "bialgebra"),
    max_failures: int = 16,
    jobs: int = 1,
) -> AxiomReport:
    """Run the selected axiom checks over the window box.

    jobs > 1 fans the bialgebra pair grid out over processes, each of
    which rebuilds the provider from its class and parameters.  Failure
    ordering is deterministic either way.
    """
    report = AxiomReport(window=window)
    box = alg.basis_box(window)
    fail = report.failures

    def note(axiom, where, residual):
        if len(fail) < max_failures:
            fail.append(Failure(axiom, where, residual))

    if "coassociativity" in axioms:
        for idx in box:
            r = coassociativity_residual(alg, idx)
            if not r.is_zero():
                note("coassociativity", alg.index_str(idx), _tensor_residual(alg, r))
        report.checked["coassociativity"] = len(box)

    if "counit" in axioms:
        for idx in box:
            l, r = counit_residuals(alg, idx)
            if not l.is_zero():
                note("counit", alg.index_str(idx), "left: " + alg.el_str(l))
            if not r.is_zero():
                note("counit", alg.index_str(idx), "right: " + alg.el_str(r))
        report.checked["counit"] = len(box)

    if "antipode" in axioms:
        for idx in box:
            l, r = antipode_residuals(alg, idx)
            if not l.is_zero():
                note("antipode", alg.index_str(idx), "left: " + alg.el_str(l))
            if not r.is_zero():
                note("antipode", alg.index_str(idx), "right: " + alg.el_str(r))
        report.checked["antipode"] = len(box)

    if "bialgebra" in axioms:
        # no more workers than usable cores; the output does not depend on it
        jobs = min(jobs, _usable_cores())
        if jobs > 1:
            count, tagged = _scan_pairs_parallel(alg, window, jobs)
        else:
            pairs = enumerate((i, j) for i in box for j in box)
            count, tagged = _bialgebra_scan(alg, pairs)
        for _, axiom, where, residual in sorted(tagged, key=lambda t: t[0]):
            note(axiom, where, residual)
        report.checked["bialgebra"] = count

    return report


def _bialgebra_scan(alg: HopfProvider, tagged_pairs) -> tuple[int, list]:
    out = []
    count = 0
    zero = Cyclo.zero(alg.level)
    row = unit_i = model = None
    # the residuals of each model pair (i', j), i' = i with lead
    # exponent 0, when they stand for every (i, j) (module docstring)
    by_model = {} if alg.moves_pairs() else None
    for pos, (i, j) in tagged_pairs:
        if i != row:
            row, unit_i = i, not alg.counit_basis(i).is_zero()
            model = (0, *i[1:])
        count += 1
        if by_model is None:
            t, eps = bialgebra_residuals(alg, i, j, unit_i, zero)
        else:
            hit = by_model.get((model, j))
            if hit is None:
                hit = by_model[model, j] = bialgebra_residuals(
                    alg, model, j, unit_i, zero
                )
            t, eps = hit
            if i[0] and not (t.is_zero() and eps.is_zero()):
                t, eps = bialgebra_residuals(alg, i, j, unit_i, zero)
        if t.is_zero() and eps.is_zero():
            continue
        where = f"({alg.index_str(i)}, {alg.index_str(j)})"
        if not t.is_zero():
            out.append((pos, "bialgebra", where, _tensor_residual(alg, t)))
        if not eps.is_zero():
            out.append((pos, "bialgebra", where, f"counit residual {eps}"))
    return count, out


def _tensor_residual(alg: HopfProvider, r: Lin, shown: int = 3) -> str:
    """Term count plus the first terms in key order, as
    "N residual tensor terms: [leg ox leg] coeff; ...".
    """
    keys = r.support()
    terms = [
        f"[{' ox '.join(alg.index_str(i) for i in key)}] {r.terms[key]}"
        for key in keys[:shown]
    ]
    more = "; ..." if len(keys) > shown else ""
    return f"{len(keys)} residual tensor terms: " + "; ".join(terms) + more


def _usable_cores() -> int:
    """Cores this process may run on: its affinity mask (a cpuset or
    `taskset` narrows it) where the OS reports one, else the core count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pair_worker(args) -> tuple[int, list]:
    cls, params, window, slot, stride = args
    alg = cls(params)
    box = alg.basis_box(window)
    pairs = list(enumerate((i, j) for i in box for j in box))
    return _bialgebra_scan(alg, pairs[slot::stride])


def _scan_pairs_parallel(alg: HopfProvider, window: int, jobs: int) -> tuple[int, list]:
    import multiprocessing as mp

    # workers get the provider's class and parameters and rebuild it,
    # so each refills its own structure-constant caches; a filled
    # provider would pickle (Cyclo reduces to its constructor
    # arguments, the product memos hold Lins and (k, e, r) terms, and
    # the coproduct cache FormLins, all of ints and Fractions), but
    # its caches are not shipped
    work = [(type(alg), alg.params, window, slot, jobs) for slot in range(jobs)]
    with mp.Pool(jobs) as pool:
        results = pool.map(_pair_worker, work)
    count = sum(c for c, _ in results)
    tagged = [item for _, items in results for item in items]
    return count, tagged


def find_grouplikes(alg: HopfProvider, bound: int = 3) -> list:
    """Grouplike basis monomials among units with exponents within the bound.

    A scalar multiple c*m of a monomial satisfies Delta(g) = g ox g only
    for c = 1, so searching monomials is exhaustive on the unit part.
    """
    out = []
    for m in alg.unit_monomials(bound):
        if not alg.counit_basis(m).is_one():
            continue
        if alg.coproduct_basis(m) == Lin.basis((m, m), alg.one_scalar()):
            out.append(m)
    return sorted(out)


def find_skew_primitives(alg: HopfProvider, g, h, window: int = 3) -> list[Lin]:
    """Basis of {p : Delta(p) = g ox p + p ox h} within the window span.

    g and h must be grouplike basis indices.
    """
    for idx in (g, h):
        if alg.coproduct_basis(idx) != Lin.basis((idx, idx), alg.one_scalar()):
            raise ValueError(f"{alg.index_str(idx)} is not grouplike")
    box = alg.basis_box(window)

    def image(e):
        vec = dict(alg.coproduct_basis(e).terms)
        acc(vec, (g, e), -alg.one_scalar())
        acc(vec, (e, h), -alg.one_scalar())
        return vec

    return [Lin(combo) for combo in kernel_of_map(box, image, alg.level)]

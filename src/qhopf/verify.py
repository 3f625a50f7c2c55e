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
as its residue view (below), multiplies the legs through `_product`,
and adds one integer per tensor key, keyed by index pairs, plus one L1
bound for the whole pair.  It proves the pair zero only when every
key's image is 0 mod P and the bound is within the map's cap; a pair
with a non-integer rational, a bound above the cap or a nonzero image
gets no verdict.  Every such pair is recomputed by the exact route
(`exact_bialgebra_residual`), whose table holds rhs - lhs, with the
product (usually one term) negated rather than a copy of Delta(e_j),
and whose finished residual is negated back: each term r omega^e e_k of
`_product(i, j)` enters as -r omega^e Delta(e_k).  So a failure is
always the exact residual's text.  `bialgebra_residuals` computes
`_product(i, j)` once per pair and hands it to the pass, the exact
route and the counit residual.

The pass keeps what it reads in one dict per provider, on the
provider's `_zero_pass` attribute (`_views_of`): per index, the
FormLin read, its form and its residue view.  The providers know
nothing of the pass.  A residue view is read from a coproduct's form
once: (key, h(coefficient), L1 norm of its form) per term of
Delta(e_i), and the sum of the L1 norms; or None, when some term's form
has a non-integer rational at a level above 2, and the pass declines
every pair that reads it.  A hit is one dict lookup and one identity
test, so a form assigned to that FormLin later is read again.

The bialgebra law's counit residual is the sum of the r omega^e whose
e_k has counit 1, minus 1 when e_i and e_j both have counit 1, in
exponent form; it is reduced only when it has a term, and a pair is
named only when it fails.  The scan runs i outer and reads eps(e_i)
once per row.

The scan proves a pair once per model pair where the provider allows
it, along the end letter that `HopfProvider.moves_pairs()` names, and
`verify_axioms` proves coassociativity and the counit law once per
model index along either end letter, and the antipode law along the
tail letter only (`qhopf.families.base` states when `moves_pairs()`
names a letter).  Write k + a for k with its exponent moved by a.

Lead letter ("lead": C and CLift).  The base builds every product and
coproduct off lead exponent 0 from the lead-zero one.  The model of
(i, j) is (i', j), i' = i with i_0 set to 0, and a = i_0.  Then

- `_product(i, j)` is `_product(i', j)` with each k moved to k + a,
  and Delta(e_(k+a)) is Delta(e_k) with both legs moved by a;
- Delta(e_i) is Delta(e_i') with both legs moved by a, and
  `_product(A + a, C)` is `_product(A, C)` moved by a;
- eps(e_(k+a)) = eps(e_k) and eps(e_i) = eps(e_i'), since y is a unit.

Each move keeps every coefficient and form and is one to one on keys,
so the tensor and counit residuals of (i, j) are those of its model
with their keys moved, and vanish exactly when the model's do.

Tail letter ("tail": GroupZ2, A and B).  `LatticeProvider._product`
reads the lattice at x^0 and takes the x-exponent as the point's v, and
the base builds Delta(e x^b) as Delta(e) (x^b ox x^b).  Write i = (d, b)
and j = (d', c), with u_j the u of j's point; the model of (i, j) is
((d, 0), (d', 0)).  Moving the left operand of a product by x^b
multiplies it by q^(b u), u the right operand's u, and moves its key by
b; moving the right operand by x^c moves the key by c.  So

- `_product(i, j)` is q^(b u_j) `_product((d, 0), (d', 0))` with each k
  moved to k + (b + c), and Delta(e_(k+t)) is Delta(e_k) moved by t;
- Delta(e_i) Delta(e_j) is Delta(e_(d,0)) (x^b ox x^b) Delta(e_(d',0))
  (x^c ox x^c), and when Delta(e_j) is graded (every term e_a ox e_b
  has u_a + u_b = u_j), (x^b ox x^b) Delta(e_j) = q^(b u_j) Delta(e_j)
  (x^b ox x^b), so this is q^(b u_j) times the model's product moved by
  b + c.

So the tensor residual of (i, j) is the unit q^(b u_j) times the
model's, its keys moved, and vanishes exactly when the model's does.
The counit residual is q^(b u_j) eps(e_k) - eps(e_i) eps(e_j) against
the model's eps(e_k) - eps(e_i) eps(e_j): it vanishes exactly when the
model's does if eps(e_j) = 0 or u_j = 0.  When q = 1 (an int twist of
0 mod N, as GroupZ2's), x is central and every q^(b u) is 1, so neither
condition is needed.

The guard.  A left factor i stands for the model that
`HopfProvider.end_model(i)` names (the guard stated in
`qhopf.families.base`); for the tail with q != 1, a right factor j must
have one too, Delta(e_j) must be graded, read off its model's entry
(the move along x keeps each leg's u), and eps(e_j) = 0 or u_j = 0.
`_bialgebra_scan` keeps the model pairs it meets whose residuals
vanish, in a set, and the residuals of those that do not: a pair whose
model passed costs one set-membership test, and any other pair, or a
pair with a factor that fails the guard, is computed on its own, so a
failure's text is the pair's own.  A C(3) window-3 scan computes the
4 x 28 = 112 model pairs of its 784; a B(2, 1, 2, 3, z12) one the
12 x 12 = 144 of its 7,056, and a GroupZ2 one the 7 x 7 = 49 of its
2,401.  A form assigned by hand to an entry that is only ever read as
a product's Delta(e_k) is not read by its pair.

Per index.  Let i = m + a pass the guard, m its model.

- Coassociativity and the counit law, along either letter: Delta(e_i)
  is Delta(e_m) with both legs moved by a, and the base builds each
  leg's Delta(e_(k+a)) as Delta(e_k) moved by a, so both sides of the
  coassociativity residual of e_i are its model's with every key moved;
  eps reads the letters and the moved letter is a unit, so eps(e_(k+a))
  = eps(e_k), and the counit residuals of e_i are its model's with
  their keys moved.  Each vanishes exactly when the model's does.
- The antipode law, along the tail: write i = (d, b), m = (d, 0).  The
  base reads S(e_r x^k) = S(x^k) S(e_r) = x^-k S(e_r), so each term of
  S(e_(t+b)), t a leg of Delta(e_m), is the term of S(e_t) moved by
  x^-b, times q^(-b u), u its point's.  By the two moves of `_product`,
  in the right residual sum c e_(s+b) S(e_(t+b)) - eps(e_i) 1 the left
  operand's q^(b u) cancels it: the residual is the model's.  In the
  left residual sum c S(e_(s+b)) e_(t+b) - eps(e_i) 1 the left
  operand's move adds q^(-b u_t), u_t the u of t, and the right
  operand's move shifts the key back, so the residual is the model's
  with the key of each lattice u = u' + u_t scaled by the unit q^(-b u)
  (the unit's u is 0).  Both vanish exactly when the model's do.
- The round trip: reading each product's key by its u needs the u's to
  add, so the unit's point has u = 0 and `lattice_index(u, 0)` has u
  again, for every u that `_product` meets (`_y_parts`) and every u of
  an operand's point (`_points`).  The second set is needed since a
  moved index meets u's that its model does not: GroupZ2's S(y^a x^b) =
  x^-b y^-a lands at u = -a, where S(y^a) y^a lands at u = 0 only.
  `LatticeProvider.round_trips` reads both once every model's
  residuals are computed; where it fails, every index's antipode is
  computed on its own.
- No antipode reuse along the lead: S(y^a x^b) is S(x^b) y^-a, and its
  left residual multiplies S(x^b)'s terms into y^a x^c, which reads
  the lead-zero rows x^r y^(a+m) where the model reads x^r y^m: not a
  move, so each C and CLift index keeps its own antipode check.

Each other index, and each index whose model fails, is computed on its
own, so a failure's text is its own; `checked` counts every index of
the box.  A form assigned by hand to an entry that is only ever read as
a leg is not read by its index.
"""

from __future__ import annotations

import os

from qhopf.elements import Lin, acc
from qhopf.families.base import HopfProvider
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
    return _index_vanishes(alg, _views_of(alg), i, j, terms)


def _views_of(alg: HopfProvider) -> dict:
    # the pass's entries of one provider, index -> (FormLin, form, view)
    try:
        return alg._zero_pass
    except AttributeError:
        views = alg._zero_pass = {}
        return views


def _entry(alg: HopfProvider, views: dict, i) -> tuple:
    """(the FormLin read, its form, its residue view) of Delta(e_i), read
    again when another form has been assigned to that FormLin."""
    hit = views.get(i)
    if hit is None or hit[0].form is not hit[1]:
        cop = alg.coproduct_basis(i)
        hit = views[i] = cop, cop.form, _index_view(alg.level, cop.form)
    return hit


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


def _index_vanishes(alg: HopfProvider, views: dict, i, j, terms) -> bool:
    left, right = _entry(alg, views, i)[2], _entry(alg, views, j)[2]
    if left is None or right is None:
        return False
    zmap = zero_map(alg.level)
    powers = zmap.powers
    product = alg._product
    table: dict = {}
    bound = 0
    for k, e, r in terms:
        # -r omega^e Delta(e_k), term by term
        middle = _entry(alg, views, k)[2]
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


def _column(alg: HopfProvider, end: str, j):
    """The index that j stands for as a right factor along the end
    letter `end` (`moves_pairs()`), or None: the guard of the module
    docstring."""
    if end == "lead":
        return j
    model = alg.end_model(j)
    if model is None or alg.x_is_central():
        return model
    point = alg.point
    u = point(j)[0]
    if u and not alg.counit_basis(j).is_zero():
        return None
    # graded off the model's entry: the move along x keeps each leg's u
    form = _entry(alg, _views_of(alg), model)[1]
    return None if any(point(l)[0] + point(r)[0] != u for (l, r), _ in form) else model


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
    end = alg.moves_pairs()
    # each index's model as a left factor, once per index: the per-index
    # checks and the scan's rows read it
    rows = {i: alg.end_model(i) for i in box}

    def note(axiom, where, residual):
        if len(fail) < max_failures:
            fail.append(Failure(axiom, where, residual))

    for axiom in ("coassociativity", "counit", "antipode"):
        if axiom in axioms:
            # no antipode reuse along the lead letter
            models = {} if axiom == "antipode" and end != "tail" else rows
            for idx, texts in zip(box, _index_failures(alg, axiom, box, models)):
                for text in texts:
                    note(axiom, alg.index_str(idx), text)
            report.checked[axiom] = len(box)

    if "bialgebra" in axioms:
        # no more workers than usable cores; the output does not depend on it
        jobs = min(jobs, _usable_cores())
        if jobs > 1:
            count, tagged = _scan_pairs_parallel(alg, window, jobs)
        else:
            pairs = enumerate((i, j) for i in box for j in box)
            count, tagged = _bialgebra_scan(alg, pairs, rows)
        for _, axiom, where, residual in sorted(tagged, key=lambda t: t[0]):
            note(axiom, where, residual)
        report.checked["bialgebra"] = count

    return report


def _index_failures(alg: HopfProvider, axiom: str, box, models: dict) -> list:
    """The failure texts of `axiom` at each index of the box, in box
    order.  An index whose model (`models`) passes passes with it; any
    other index, and every index of a tail antipode check whose lattice
    does not round trip, is computed on its own."""
    texts: dict = {}
    moved_ones = []
    for idx in box:
        model = models.get(idx)
        if model is None or model == idx:
            texts[idx] = _own_failures(alg, axiom, idx)
        else:
            moved_ones.append((idx, model))
    # read once every model is computed, so that it sees what they met
    trusted = axiom != "antipode" or not moved_ones or alg.round_trips()
    for idx, model in moved_ones:
        if trusted and texts.get(model) == []:
            texts[idx] = []
        else:
            texts[idx] = _own_failures(alg, axiom, idx)
    return [texts[idx] for idx in box]


def _own_failures(alg: HopfProvider, axiom: str, idx) -> list[str]:
    # the failure texts of one index, computed on its own
    if axiom == "coassociativity":
        r = coassociativity_residual(alg, idx)
        return [] if r.is_zero() else [_tensor_residual(alg, r)]
    sides = counit_residuals if axiom == "counit" else antipode_residuals
    left, right = sides(alg, idx)
    return [
        f"{side}: {alg.el_str(r)}"
        for side, r in (("left", left), ("right", right))
        if not r.is_zero()
    ]


def _bialgebra_scan(alg: HopfProvider, tagged_pairs, rows: dict) -> tuple[int, list]:
    out = []
    count = 0
    zero = Cyclo.zero(alg.level)
    end = alg.moves_pairs()
    # per scan: the model pairs met whose residuals vanish, the residuals
    # of those that do not, and each right factor's model (None: its
    # pairs are computed on their own); `rows` holds each left factor's
    passed: set = set()
    failed: dict = {}
    columns: dict = {}
    row = unit_i = model_i = None
    for pos, (i, j) in tagged_pairs:
        if i != row:
            row, unit_i, model_i = i, not alg.counit_basis(i).is_zero(), rows.get(i)
        count += 1
        model = None
        if model_i is not None:
            if j not in columns:
                columns[j] = _column(alg, end, j)
            model_j = columns[j]
            if model_j is not None:
                model = model_i, model_j
                if model in passed:
                    continue
        if model is None:
            t, eps = bialgebra_residuals(alg, i, j, unit_i, zero)
        else:
            hit = failed.get(model)
            if hit is None:
                hit = bialgebra_residuals(alg, model_i, model_j, unit_i, zero)
                if hit[0].is_zero() and hit[1].is_zero():
                    passed.add(model)
                    continue
                failed[model] = hit
            if model == (i, j):
                t, eps = hit
            else:
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
    rows = {i: alg.end_model(i) for i in box}
    return _bialgebra_scan(alg, pairs[slot::stride], rows)


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

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
as its per-index residue view (`coproduct_residues`: h of each
coefficient and the L1 norm of its form), multiplies the legs, and adds
one integer per tensor key, plus one L1 bound for the whole pair.  It
proves the pair zero only when every key's image is 0 mod P and the
bound is within the map's cap; a pair with a non-integer rational, a
bound above the cap or a nonzero image gets no verdict.  Every such
pair is recomputed by the exact route (`exact_bialgebra_residual`),
whose table holds rhs - lhs, with the product (usually one term)
negated rather than a copy of Delta(e_j), and whose finished residual
is negated back: each term r omega^e e_k of `_product(i, j)` enters as
-r omega^e Delta(e_k).  So a failure is always the exact residual's
text.  `bialgebra_residuals` computes `_product(i, j)` once per pair
and hands it to the pass, the exact route and the counit residual.

The pass has two kernels, picked by the provider's `lattice_exponent`.
The index kernel keys the table by index pairs and multiplies legs
through `_product`; C, CLift, EnvNonabelian, GroupZSemiZ and A at a
rational q get it, and it is the tests' reference for the other.  The
lattice kernel serves the twisted monoid algebras on a lattice with a
root-of-unity twist q = omega^qe (`LatticeProvider`: GroupZ2,
EnvAbelian, A and B), where e_a e_c = omega^(qe v_a u_c) e at the
point (u_a + u_c, v_a + v_c).  Their residue views key each term by its
legs' lattice points (u_a, v_a, u_b, v_b), so the kernel adds
Delta(e_i) Delta(e_j) with plain int arithmetic: key (u_a + u_c,
v_a + v_c, u_b + u_d, v_b + v_d), twist exponent qe (v_a u_c +
v_b u_d) mod N, one L1 bound per left term, and no `_product` call.
Its keys are faithful: every leg a that a view codes is checked to
satisfy lattice_index(*lattice(a)) == a, and the index product of two
legs is by definition lattice_index of their point sum.  So each
index-pair key of the exact residual is one function (lattice_index on
each leg) of its lattice key, each index key's sum is a sum of lattice
keys' sums, and a pair proved zero on lattice keys is zero on index
keys.  A leg that fails the check makes its view None, and the pass
declines every pair that reads it.

The bialgebra law's counit residual is the sum of the r omega^e whose
e_k has counit 1, minus 1 when e_i and e_j both have counit 1, in
exponent form; it is reduced only when it has a term, and a pair is
named only when it fails.
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


def bialgebra_residuals(alg: HopfProvider, i, j) -> tuple[Lin, Cyclo]:
    """Delta(e_i e_j) - Delta(e_i) Delta(e_j) and the counit residual.
    The tensor residual is zero when `bialgebra_vanishes` proves it so;
    any other pair gets `exact_bialgebra_residual`.  All three read the
    one `_product(i, j)` computed here."""
    terms = alg._product(i, j)
    if bialgebra_vanishes(alg, i, j, terms):
        t = Lin()
    else:
        t = exact_bialgebra_residual(alg, i, j, terms)
    return t, _counit_residual(alg, i, j, terms)


def bialgebra_vanishes(alg: HopfProvider, i, j, terms) -> bool:
    """Whether the zero-only pass proves Delta(e_i e_j) = Delta(e_i)
    Delta(e_j): each key's sum, sent through the level's `zero_map`, is
    0, and the L1 norms of all the terms add up to at most its cap.
    False is no verdict.  `terms` is `_product(i, j)`.  A provider with
    a `lattice_exponent` gets the lattice kernel, any other the index
    kernel."""
    qe = alg.lattice_exponent()
    if qe is None:
        return _index_vanishes(alg, i, j, terms)
    return _lattice_vanishes(alg, i, j, terms, qe)


def _index_vanishes(alg: HopfProvider, i, j, terms) -> bool:
    view = alg.coproduct_residues
    left, right = view(i), view(j)
    if left is None or right is None:
        return False
    zmap = zero_map(alg.level)
    powers = zmap.powers
    product = alg._product
    table: dict = {}
    bound = 0
    for k, e, r in terms:
        # -r omega^e Delta(e_k), term by term
        middle = view(k)
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


def _lattice_vanishes(alg: HopfProvider, i, j, terms, qe: int) -> bool:
    # `_index_vanishes` keyed by lattice points: the leg product e_a e_c
    # is omega^(qe v_a u_c) e_k with k at (u_a + u_c, v_a + v_c), read
    # off the coded views with no `_product` call; every twist has
    # |r| = 1, so the L1 bound is one product per left term
    view = alg.coproduct_residues
    left, right = view(i), view(j)
    if left is None or right is None:
        return False
    zmap = zero_map(alg.level)
    powers = zmap.powers
    n = alg.omega_order
    table: dict = {}
    bound = 0
    for k, e, r in terms:
        middle = view(k)
        if middle is None:
            return False
        f = r * powers[e]
        for ua, va, ub, vb, h, _ in middle[0]:
            key = ua, va, ub, vb
            table[key] = table.get(key, 0) - f * h
        bound += abs(r) * middle[1]
    rterms, rl1 = right
    for ua, va, ub, vb, hc, lc in left[0]:
        for uc, vc, ud, vd, hd, _ in rterms:
            key = ua + uc, va + vc, ub + ud, vb + vd
            w = hc * hd * powers[qe * (va * uc + vb * ud) % n]
            table[key] = table.get(key, 0) + w
        bound += lc * rl1
    return zmap.proves_zero(table.values(), bound)


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


def _counit_residual(alg: HopfProvider, i, j, terms) -> Cyclo:
    # eps(e_i e_j) - eps(e_i) eps(e_j) in exponent form, eps being 0 or
    # 1, from the terms of `_product(i, j)`
    counit = alg.counit_basis
    units = {} if counit(i).is_zero() or counit(j).is_zero() else {0: -1}
    for k, e, r in terms:
        if not counit(k).is_zero():
            units[e] = units.get(e, 0) + r
    zero = Cyclo.zero(alg.level)
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
    for pos, (i, j) in tagged_pairs:
        t, eps = bialgebra_residuals(alg, i, j)
        count += 1
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

"""In-memory tracing of qhopf's layers from outside the package.

`Tracer.install()` replaces public functions and methods of the loaded
`qhopf` modules with wrappers; `uninstall()` puts the originals back.
Nothing under `src/` is edited.  A function imported by name into other
modules (`from qhopf.elements import acc`) is replaced at every binding.

Three kinds of wrapper:

- span: records (id, name, start, end, parent span, op id) and times the
  call, for coarse layer boundaries (commands, axiom runs, builds);
- timer: times the call like a span but keeps only aggregates, for
  boundaries crossed thousands of times per op (fills, tensor kernels);
- counter: counts calls only, for the hot scalar and accumulation calls
  whose per-call cost comes from the scalar microbenchmark instead.

Every timed call belongs to a layer.  A layer's busy time is the time at
least one of its calls is on the stack, so recursion and nesting inside
one layer are not counted twice.  A call's self time is its duration
minus the time its directly nested timed calls took.

Worker processes forked by `verify --jobs` inherit the wrappers but not
the parent's memory: their counts are lost, which is why a traced run
also runs every `--jobs 2` op with `--jobs 1`.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute or Class.method, metric-side name, layer, kind)
_TRACED = [
    ("qhopf.cli", "main", "cli.main", "cli", "span"),
    ("qhopf.cli", "cmd_verify", "cli.verify", "cli", "span"),
    ("qhopf.cli", "cmd_invariants", "cli.invariants", "cli", "span"),
    ("qhopf.cli", "cmd_iso", "cli.iso", "cli", "span"),
    ("qhopf.cli", "cmd_comodule", "cli.comodule", "cli", "span"),
    ("qhopf.cli", "cmd_report", "cli.report", "cli", "span"),
    ("qhopf.params", "parse_params", "params.parse", "params.parse", "span"),
    ("qhopf.families.builder", "build", "families.build", "families.build", "span"),
    ("qhopf.families.base", "HopfProvider.t2_mul", "families.base.t2_mul",
     "families.base.t2_mul", "timer"),
    ("qhopf.families.base", "HopfProvider.mul", "families.base.mul",
     "families.base.mul", "timer"),
    ("qhopf.families.base", "HopfProvider.coproduct", "families.base.coproduct",
     "families.base.coproduct", "timer"),
    ("qhopf.families.base", "HopfProvider.cop_left", "families.base.cop_left",
     "families.base.cop_left_right", "timer"),
    ("qhopf.families.base", "HopfProvider.cop_right", "families.base.cop_right",
     "families.base.cop_left_right", "timer"),
    ("qhopf.verify", "verify_axioms", "verify.axioms", "verify", "span"),
    ("qhopf.verify", "coassociativity_residual", "verify.coassociativity",
     "verify.coassociativity", "timer"),
    ("qhopf.verify", "counit_residuals", "verify.counit", "verify.counit", "timer"),
    ("qhopf.verify", "antipode_residuals", "verify.antipode", "verify.antipode",
     "timer"),
    ("qhopf.verify", "bialgebra_residuals", "verify.bialgebra", "verify.bialgebra",
     "timer"),
    ("qhopf.verify", "_scan_pairs_parallel", "verify.scan_parallel",
     "verify.bialgebra", "span"),
    ("qhopf.invariants", "invariant_vector", "invariants.vector",
     "invariants.vector", "span"),
    ("qhopf.invariants", "isomorphic", "invariants.iso", "invariants.iso", "span"),
    ("qhopf.invariants", "pi_degree_and_io", "invariants.pi", "invariants.other",
     "span"),
    ("qhopf.comodule", "Coaction.__init__", "comodule.coaction_init",
     "comodule.coaction_init", "span"),
    ("qhopf.comodule", "Coaction.coactions_compatible", "comodule.compatible",
     "comodule.sweep", "timer"),
    ("qhopf.comodule", "Coaction.counit_recovers", "comodule.counit_recovers",
     "comodule.sweep", "timer"),
    ("qhopf.comodule", "Coaction.decomposes", "comodule.decomposes",
     "comodule.sweep", "timer"),
    ("qhopf.comodule", "Coaction.strong_grading", "comodule.strong_grading",
     "comodule.strong_grading", "span"),
    ("qhopf.comodule", "Coaction.left_coinvariants", "comodule.left_coinvariants",
     "comodule.coinvariants", "span"),
    ("qhopf.comodule", "Coaction.right_coinvariants", "comodule.right_coinvariants",
     "comodule.coinvariants", "span"),
    ("qhopf.comodule", "Coaction.delta_l", "comodule.delta_l", "comodule.other",
     "timer"),
    ("qhopf.comodule", "Coaction.delta_r", "comodule.delta_r", "comodule.other",
     "timer"),
    ("qhopf.comodule", "Coaction.taylor_matches", "comodule.taylor",
     "comodule.other", "timer"),
    ("qhopf.comodule", "Coaction.lam_degree", "comodule.lam_degree",
     "comodule.other", "timer"),
    ("qhopf.comodule", "Coaction.rho_degree", "comodule.rho_degree",
     "comodule.other", "timer"),
    ("qhopf.linalg", "kernel_of_map", "linalg.kernel_of_map",
     "linalg.kernel_of_map", "span"),
    ("qhopf.linalg", "span_rank", "linalg.span_rank", "linalg.span_rank", "span"),
]

# provider fill points, wrapped on every provider class that defines them
_FILLS = {
    "_multiply_raw": "families.multiply_fill",
    "_coproduct_raw": "families.coproduct_fill",
    "_antipode_raw": "families.antipode_fill",
}


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Spans, per-layer busy time and exact counts for one traced pass."""

    def __init__(self):
        self.op_id = None
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self._stack: list[list] = []  # [child seconds, nearest span id]
        self._depth: Counter = Counter()
        self._next_span = 0
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------

    def _timed(self, fn, name: str, layer: str, span: bool, before=None, after=None):
        stack, depth, calls = self._stack, self._depth, self.calls
        busy, self_time, spans = self.busy, self.self_time, self.spans

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if before is not None:
                before(args)
            parent = stack[-1][1] if stack else None
            sid = parent
            if span:
                sid = self._next_span
                self._next_span += 1
            frame = [0.0, sid]
            stack.append(frame)
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[layer] -= 1
                dur = t1 - t0
                if not depth[layer]:
                    busy[layer] += dur
                self_time[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if span:
                    spans.append((sid, name, t0, t1, parent, self.op_id))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _replace_everywhere(self, orig, new) -> None:
        """Rebind every qhopf module global that refers to `orig`."""
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "qhopf":
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)

    # -- install / uninstall ------------------------------------------

    def install(self) -> None:
        from qhopf.elements import acc
        from qhopf.families.base import HopfProvider
        from qhopf.scalars import Cyclo

        hooks = {
            "families.base.t2_mul": (self._count_term_pairs, None),
            "verify.axioms": (None, self._count_checks),
        }
        for module, attr, name, layer, kind in _TRACED:
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            before, after = hooks.get(name, (None, None))
            new = self._timed(orig, name, layer, kind == "span", before, after)
            if isinstance(owner, type):
                self._set(owner, key, new)
            else:
                self._replace_everywhere(orig, new)

        for cls in _subclasses(HopfProvider):
            for key, name in _FILLS.items():
                if key in vars(cls):
                    self._set(cls, key, self._timed(
                        vars(cls)[key], name, "families.fill", False))
        for key in ("multiply_basis", "coproduct_basis"):
            self._set(HopfProvider, key,
                      self._counted(getattr(HopfProvider, key), f"families.{key}"))
        self._replace_everywhere(acc, self._counted(acc, "elements.acc"))

        mul = self._count_mul(Cyclo.__mul__)
        self._set(Cyclo, "__mul__", mul)
        self._set(Cyclo, "__rmul__", mul)
        add = self._counted(Cyclo.__add__, "scalars.add")
        self._set(Cyclo, "__add__", add)
        self._set(Cyclo, "__radd__", add)
        self._set(Cyclo, "__init__", self._counted(Cyclo.__init__, "scalars.new"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- counting hooks -------------------------------------------------

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_mul(self, fn):
        from qhopf.scalars import Cyclo

        counts = self.counts

        def mul(a, b):
            counts["scalars.mul"] += 1
            if a.level > 1:
                counts["scalars.mul_lgt1"] += 1
                an = a.num
                if len(an) - an.count(0) == 1 or not isinstance(b, Cyclo):
                    counts["scalars.mul_lgt1_mono"] += 1
                else:
                    bn = b.num
                    if len(bn) - bn.count(0) == 1:
                        counts["scalars.mul_lgt1_mono"] += 1
            return fn(a, b)

        return mul

    def _count_term_pairs(self, args) -> None:
        _, s, t = args
        self.counts["families.base.t2_mul_term_pairs"] += len(s.terms) * len(t.terms)

    def _count_checks(self, report) -> None:
        self.counts["verify.checks"] += sum(report.checked.values())

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metric name -> value, from this tracer's records."""
        c, calls, busy = self.counts, self.calls, self.busy

        def ratio(num, den):
            return num / den if den else 0.0

        mul_calls = c["families.multiply_basis"]
        mul_fills = calls["families.multiply_fill"]
        cop_calls = c["families.coproduct_basis"]
        cop_fills = calls["families.coproduct_fill"]
        out = {
            "scalars.mul_calls": c["scalars.mul"],
            "scalars.mul_calls_lgt1": c["scalars.mul_lgt1"],
            "scalars.add_calls": c["scalars.add"],
            "scalars.new_calls": c["scalars.new"],
            "scalars.mono_operand_share": ratio(
                c["scalars.mul_lgt1_mono"], c["scalars.mul_lgt1"]),
            "families.build_s": busy["families.build"],
            "families.multiply_basis_calls": mul_calls,
            "families.multiply_fills": mul_fills,
            "families.multiply_hit_ratio": ratio(mul_calls - mul_fills, mul_calls),
            "families.coproduct_basis_calls": cop_calls,
            "families.coproduct_fills": cop_fills,
            "families.coproduct_hit_ratio": ratio(cop_calls - cop_fills, cop_calls),
            "families.antipode_fills": calls["families.antipode_fill"],
            "families.fill_s": busy["families.fill"],
            "families.base.t2_mul_calls": calls["families.base.t2_mul"],
            "families.base.t2_mul_term_pairs": c["families.base.t2_mul_term_pairs"],
            "families.base.t2_mul_s": busy["families.base.t2_mul"],
            "families.base.mul_s": busy["families.base.mul"],
            "families.base.coproduct_s": busy["families.base.coproduct"],
            "families.base.cop_left_right_s": busy["families.base.cop_left_right"],
            "elements.acc_calls": c["elements.acc"],
            "verify.coassociativity_s": busy["verify.coassociativity"],
            "verify.counit_s": busy["verify.counit"],
            "verify.antipode_s": busy["verify.antipode"],
            "verify.bialgebra_s": busy["verify.bialgebra"],
            "verify.checks": c["verify.checks"],
            "invariants.vector_s": busy["invariants.vector"],
            "invariants.iso_s": busy["invariants.iso"],
            "invariants.iso_calls": calls["invariants.iso"],
            "comodule.coaction_init_s": busy["comodule.coaction_init"],
            "comodule.sweep_s": busy["comodule.sweep"],
            "comodule.strong_grading_s": busy["comodule.strong_grading"],
            "comodule.coinvariants_s": busy["comodule.coinvariants"],
            "linalg.kernel_of_map_s": busy["linalg.kernel_of_map"],
            "linalg.span_rank_s": busy["linalg.span_rank"],
            "linalg.calls": calls["linalg.kernel_of_map"] + calls["linalg.span_rank"],
            "params.parse_s": busy["params.parse"],
            "params.parse_calls": calls["params.parse"],
            "cli.self_s": sum(
                t for name, t in self.self_time.items() if name.startswith("cli.")),
        }
        for command in ("verify", "invariants", "iso", "comodule", "report"):
            out[f"cli.{command}_s"] = sum(
                t1 - t0 for _, name, t0, t1, _, _ in self.spans
                if name == f"cli.{command}")
        return out

    def dump(self) -> dict:
        """Everything recorded, for the trace file."""
        return {
            "span_fields": ["id", "name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "calls": dict(sorted(self.calls.items())),
            "counts": dict(sorted(self.counts.items())),
            "busy_s": dict(sorted(self.busy.items())),
            "self_s": dict(sorted(self.self_time.items())),
        }

"""Two layering rules, read off the source.

The zero-only bialgebra pass is stated in one module: `qhopf.verify`
builds the residue views that the pass reads, through the level's zero
map; the providers under `qhopf/families/` state the algebra only, so
none of them may name `zero_map`.

A family's stated structure constants (`_multiply_raw`,
`_coproduct_raw`, `_antipode_raw`) are read only by
`families/base.py`, which derives the rows off lead exponent 0 from
them and memoizes every entry; any other reader would see the stated
lead-zero rows, not the structure the kernels read.

`families/base.py` is also the one place that derives what the unit
letters determine: the coproducts moved along a grouplike end letter,
Delta(1), and every antipode from S on the non-unit generators.  So no
other family module defines `coproduct_basis` or `antipode_basis`.

`families/base.py` is also the one place that works out the model an
index stands for along a grouplike end letter (`end_model`): no other
module names the move of an index or the compare of a moved entry
(`moved`, `is_moved`, with or without a leading underscore).
`qhopf.comodule` reads that guard from the base and owns its reuse: it
imports nothing from `qhopf.verify`, whose zero-only pass builds views
it never reads.

Every function, class and method defined under `qhopf` has a reader
in `qhopf` itself: some import, attribute, name or string constant
there names it, other than its own `def`.  A name that only tests or
`bench/` read is in `UNREAD` with the reason it stays.  Readers are
matched by name alone, so a same-named attribute or local counts: the
check catches a helper nothing names, not every helper nothing calls.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qhopf"
FAMILIES = PACKAGE / "families"
STATED = {"_multiply_raw", "_coproduct_raw", "_antipode_raw"}
DERIVED = {"coproduct_basis", "antipode_basis"}
MOVES = {"moved", "is_moved", "_moved", "_is_moved"}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
UNREAD = {
    "find_skew_primitives": "the window second route for the spectrum (ROADMAP item 10)",
    "Cyclo.from_coeffs": "the scalar and linalg tests build Fraction vectors with it",
    "distinguish": "the acceptance tests compare instance-level invariants with it",
    "vanishing_criterion": "the acceptance tests check the q-binomial criterion with it",
    "HopfProvider.tensor2": "the acceptance tests build tensors with it",
    "HopfProvider.t2_pow": "the acceptance tests raise Delta(y) to powers with it",
    "abelianization_goldie_rank": "the acceptance tests read it; its other reader is a field",
    "agree_on_product": "the tests' rewriting second route",
    "HopfProvider.coproduct": "bench/tracer.py wraps it by name",
    "pi_degree_and_io": "bench/tracer.py wraps its qhopf.invariants re-export by name",
}


def _names(path):
    # ("file:line", names) of each import, attribute, name, string
    # constant or def
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        elif isinstance(node, DEFS):
            names = [node.name]
        else:
            continue
        yield f"{path.relative_to(PACKAGE).as_posix()}:{node.lineno}", names


def _named(path, wanted):
    # "file:line" of each node of `_names` naming one of `wanted`
    for where, names in _names(path):
        if wanted.intersection(names):
            yield where


def test_no_family_module_reads_the_zero_map():
    modules = sorted(FAMILIES.rglob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _named(path, {"zero_map"})]
    assert not found, found


def test_only_the_base_names_the_end_letter_moves():
    modules = sorted(PACKAGE.rglob("*.py"))
    base = FAMILIES / "base.py"
    assert list(_named(base, MOVES))
    found = [hit for path in modules if path != base for hit in _named(path, MOVES)]
    assert not found, found


def test_only_the_base_calls_the_stated_structure_constants():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert FAMILIES / "base.py" in modules
    found = []
    for path in modules:
        if path == FAMILIES / "base.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            else:
                name = getattr(func, "id", None)
            if name in STATED:
                found.append(f"{path.relative_to(PACKAGE)}:{node.lineno} {name}")
    assert not found, found


def _defined_names(tree):
    # (name, line) of every def, and of every plain name bound by `=`
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_only_the_base_defines_the_derived_coproducts_and_antipodes():
    modules = sorted(FAMILIES.rglob("*.py"))
    assert FAMILIES / "base.py" in modules
    found, in_base = [], set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, line in _defined_names(tree):
            if name not in DERIVED:
                continue
            if path == FAMILIES / "base.py":
                in_base.add(name)
            else:
                found.append(f"{path.name}:{line} {name}")
    assert in_base == DERIVED
    assert not found, found


def test_the_comodule_module_imports_nothing_from_verify():
    path = PACKAGE / "comodule.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            # a relative import is read from inside the package
            base = node.module or ""
            if node.level:
                base = f"qhopf.{base}" if base else "qhopf"
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(n == "qhopf.verify" or n.startswith("qhopf.verify.") for n in names):
            found.append(f"comodule.py:{node.lineno}")
    assert not found, found


def _engine_defs(modules):
    # (qualified name, bare name, "file:line") of every def and class,
    # methods as Class.method; dunders are read by the language
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            owner = f"{node.name}." if isinstance(node, ast.ClassDef) else ""
            body = getattr(node, "body", None)
            for child in body if isinstance(body, list) else ():
                name = getattr(child, "name", "")
                if isinstance(child, DEFS) and not name.startswith("__"):
                    where = f"{path.relative_to(PACKAGE).as_posix()}:{child.lineno}"
                    yield owner + name, name, where


def test_every_engine_name_has_a_product_reader():
    modules = sorted(PACKAGE.rglob("*.py"))
    defs = list(_engine_defs(modules))
    # every site naming each name, then less the defs of that name
    readers: dict = {}
    for path in modules:
        for where, names in _names(path):
            for name in names:
                readers.setdefault(name, set()).add(where)
    for _, name, where in defs:
        readers[name].discard(where)
    unread = sorted(
        f"{where} {qualified}"
        for qualified, name, where in defs
        if qualified not in UNREAD and not readers[name]
    )
    assert not unread, unread
    # every kept name still exists
    assert set(UNREAD) <= {qualified for qualified, _, _ in defs}

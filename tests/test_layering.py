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
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qhopf"
FAMILIES = PACKAGE / "families"
STATED = {"_multiply_raw", "_coproduct_raw", "_antipode_raw"}
DERIVED = {"coproduct_basis", "antipode_basis"}
MOVES = {"moved", "is_moved", "_moved", "_is_moved"}


def _named(path, wanted):
    # "file:line" of each import, attribute, name or def naming one of
    # `wanted`
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.split(".")[-1] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.FunctionDef):
            names = [node.name]
        else:
            continue
        if wanted.intersection(names):
            yield f"{path.name}:{node.lineno}"


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

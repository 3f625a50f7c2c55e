"""The zero-only bialgebra pass is stated in one module.

`qhopf.verify` builds the residue views that the pass reads, through
the level's zero map; the providers under `qhopf/families/` state the
algebra only, so none of them may name `zero_map`.
"""

import ast
from pathlib import Path

FAMILIES = Path(__file__).resolve().parents[1] / "src" / "qhopf" / "families"


def test_no_family_module_reads_the_zero_map():
    modules = sorted(FAMILIES.rglob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.split(".")[-1] for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.Name):
                names = [node.id]
            else:
                continue
            if "zero_map" in names:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found

"""The engine runs on the Python standard library alone."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qhopf"


def test_engine_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "qhopf" and top not in sys.stdlib_module_names:
                    outside.append(f"{path.relative_to(PACKAGE)}: {name}")
    assert not outside, outside

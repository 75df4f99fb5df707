"""Static checks of the source tree, written with the standard library's ast
so that they need no linter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lmn"


def unused_imports(source: str) -> list[str]:
    """Names a module imports at top level and never reads.

    A name counts as read when it appears as a name anywhere in the module
    (an attribute chain such as ``np.zeros`` reads ``np``) or is listed in
    ``__all__``.
    """
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_checker_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n__all__ = ['sep']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_top_level_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []

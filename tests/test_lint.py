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
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def exported(tree: ast.Module) -> set[str]:
    """The names a module lists in ``__all__``."""
    names = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= set(ast.literal_eval(node.value))
    return names


def test_checker_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom os import path, sep\n__all__ = ['sep']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["line 1: math", "line 3: path"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_top_level_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


PATH_PROBES = {"exists", "isfile", "isdir", "is_file", "is_dir"}


def path_probes(source: str) -> list[str]:
    """Calls that ask whether a path exists or is a file or a directory
    (``os.path.exists(p)``, ``isdir(p)``, ``Path(p).is_file()``).

    A probe before an open lets through what it does not ask about (a
    directory passes ``exists``); an input is opened, and the OSError of the
    open is the one answer.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in PATH_PROBES:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_checker_finds_a_path_probe():
    source = ("import os\nfrom os.path import isdir\nos.path.exists('a')\nos.path.isfile('b')\n"
              "isdir('c')\np.is_file()\nopen('d')\n")
    assert path_probes(source) == ["line 3: exists", "line 4: isfile", "line 5: isdir",
                                   "line 6: is_file"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_path_probe(module):
    assert path_probes((SRC / module).read_text(encoding="utf-8")) == []


def open_calls(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function) of every call named ``open``: the builtin,
    ``io.open``, ``os.open`` or ``Path(p).open()``. The function is the
    dotted name of the functions and classes around the call, or
    ``<module>`` at top level."""
    found = []

    def visit(node, where):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "open":
            found.append((node.lineno, where or "<module>"))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name)
            else:
                visit(child, where)

    visit(ast.parse(source), "")
    return found


def test_checker_finds_an_open_call():
    source = ("import io\nopen('a')\ndef read(p):\n    with open(p) as f:\n        return f.read()\n"
              "class C:\n    def save(self, p):\n        Path(p).open('w')\n        io.open(p)\n"
              "opened('b')\n")
    assert open_calls(source) == [(2, "<module>"), (4, "read"), (8, "C.save"), (9, "C.save")]


# where the package opens files: every input text file is read by one
# function, every output file written by one, and checkpoints read by one
OPENERS = {"cli.py": {"_read_text"}, "model.py": {"write_file", "load_checkpoint"}}


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_files_are_opened_in_one_place(module):
    calls = open_calls((SRC / module).read_text(encoding="utf-8"))
    assert [f"line {line}: {where}" for line, where in calls
            if where not in OPENERS.get(module, set())] == []


def test_every_exported_name_resolves():
    import lmn

    assert [name for name in lmn.__all__ if not hasattr(lmn, name)] == []


def constants(source: str) -> list[str]:
    """Upper-case names a module assigns at top level (``TILE_ROWS = ...``,
    ``_SCALARS: dict = ...``)."""
    names = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    return names


def reads(source: str) -> set[str]:
    """Names a module reads: a loaded name, an attribute (``model.TILE_ROWS``
    reads ``TILE_ROWS``) or an entry of ``__all__``."""
    tree = ast.parse(source)
    found = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return found | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)} | exported(tree)


def test_checker_finds_a_constant_nothing_reads():
    source = "TILE = 1024\nTILE_ROWS: int = 1 << 15\n_KEYS = ('a',)\nlower = 1\nprint(TILE_ROWS, m.X)\n"
    assert constants(source) == ["TILE", "TILE_ROWS", "_KEYS"]
    assert [name for name in constants(source) if name not in reads(source)] == ["TILE", "_KEYS"]


def test_every_constant_is_read_in_the_package():
    # a constant nothing reads is a setting nothing follows
    sources = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    read = set().union(*map(reads, sources))
    defined = [name for source in sources for name in constants(source)]
    assert defined and [name for name in defined if name not in read] == []


def pinned_operands(source: str) -> list[str]:
    """Tensor operands that a closure nested in their op names other than to
    read their ``.data``.

    An op's operands are its parameters annotated ``Tensor`` and the names
    it passes to ``_make`` as parents. A backward closure that needs an
    operand's shape or dtype captures that value instead, so the tape keeps
    alive only the arrays that backward reads.
    """
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = fn.args
        operands = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                    if getattr(a.annotation, "id", getattr(a.annotation, "value", None)) == "Tensor"}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make"
                    and len(node.args) > 1 and isinstance(node.args[1], ast.Tuple)):
                operands |= {e.id for e in node.args[1].elts if isinstance(e, ast.Name)}
        closures = [node for node in ast.walk(fn)
                    if node is not fn and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for inner in closures:
            reads_data = {id(node.value) for node in ast.walk(inner)
                          if isinstance(node, ast.Attribute) and node.attr == "data"}
            found += [f"line {node.lineno}: {fn.name}.{inner.name} names {node.id}"
                      for node in ast.walk(inner)
                      if isinstance(node, ast.Name) and node.id in operands and id(node) not in reads_data]
    return found


def test_checker_finds_a_closure_that_pins_an_operand():
    source = ("def scale(a: Tensor, s: float) -> Tensor:\n"
              "    def bwd(g):\n        return (g * a.dtype.type(s),)\n"
              "    return _make(a.data * s, (a,), bwd)\n"
              "def mul(a: 'Tensor', b: Tensor) -> Tensor:\n"
              "    def bwd(g):\n        return g * b.data, g * a.data\n"
              "    return _make(a.data * b.data, (a, b), bwd)\n"
              "def gather(table, n: int):\n    rows = table.rows\n"
              "    def bwd(g):\n        return (np.zeros(rows.shape), n)\n"
              "    return _make(out, (rows,), bwd)\n")
    assert pinned_operands(source) == ["line 3: scale.bwd names a", "line 12: gather.bwd names rows"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_backward_closures_read_only_their_operands_data(module):
    assert pinned_operands((SRC / module).read_text(encoding="utf-8")) == []
